//! Durable store: WAL append, group commit, and recovery throughput.
//!
//! Not a paper figure — a persistence benchmark for the `pufatt-store`
//! subsystem. Three families of measurements against the production file
//! backend in a temporary directory:
//!
//! * single-WAL appends: per-record fsync (`append_synced`, the forced
//!   path) vs batched fsync (`append_nosync` plus a `sync` every 64
//!   records), plus a recovery replay of the batched workload;
//! * group commit: a sharded store with a background committer bounding
//!   commit latency to 1 / 5 / 20 ms, appends spread across every shard —
//!   the campaign-journal configuration, swept over the latency bound;
//! * fleet scale: enroll a large fleet (1M devices at `PUFATT_FULL=1`),
//!   journal one session per device, kill the store without a checkpoint,
//!   and time the streaming recovery that reopens it.
//!
//! Results are printed and written to `BENCH_store_wal.json` at the
//! workspace root for CI artifact upload. `--test` (as passed by
//! `cargo test` to harness=false benches) or `PUFATT_SMOKE=1` selects a
//! small workload.

use pufatt_bench::{full_scale, header, host_json, timed};
use pufatt_store::record::{OutcomeRec, Record, StoredStatus};
use pufatt_store::{DurableStore, ShardedOptions, ShardedStore, StdVfs, StoreError, StoreOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Row {
    name: &'static str,
    devices: usize,
    records: usize,
    seconds: f64,
    records_per_sec: f64,
    wal_bytes: u64,
    mb_per_sec: f64,
}

fn outcome(i: usize) -> OutcomeRec {
    let accepted = !i.is_multiple_of(3);
    OutcomeRec {
        accepted,
        response_ok: accepted,
        time_ok: true,
        timed_out: false,
        attempts: 1 + u32::from(!accepted),
        elapsed_bits: (0.001 * (1.0 + (i % 7) as f64)).to_bits(),
        retried: u32::from(!accepted),
        dropped: (i % 5) as u32,
        lost: false,
        latency_slot: (i % 20) as u8,
        crp_hits: (i % 3) as u32,
        crp_misses: 4,
    }
}

/// The record stream: one enrollment, then a steady diet of session
/// closures that keep the device Active (always legal, representative of
/// a healthy campaign's journal).
fn session_record(id: u32, succs: u32, i: usize) -> Record {
    Record::SessionClosed {
        id,
        outcome: outcome(i),
        status: StoredStatus::Active,
        fails: 0,
        succs,
    }
}

fn open(dir: &std::path::Path) -> DurableStore {
    let vfs = StdVfs::open(dir).expect("temp dir");
    DurableStore::open(Arc::new(vfs), StoreOptions::default()).expect("open store")
}

/// Size-triggered compaction off so the WAL keeps the whole workload:
/// `wal_bytes` stays meaningful and recovery rows measure an honest
/// full-history replay.
fn open_sharded(dir: &std::path::Path) -> Arc<ShardedStore> {
    let vfs = StdVfs::open(dir).expect("temp dir");
    let opts = ShardedOptions { compact_wal_bytes: 0, ..ShardedOptions::default() };
    Arc::new(ShardedStore::open(Arc::new(vfs), opts).expect("open sharded store"))
}

/// One enrollment, then `records` session closures. Every `batch`-th
/// append (the enrollment is the first) commits: `1` forces each record
/// through `append_synced`, larger values batch `append_nosync`s between
/// explicit syncs.
fn append_run(dir: &std::path::Path, name: &'static str, batch: usize, records: usize) -> Row {
    std::fs::remove_dir_all(dir).ok();
    let store = open(dir);
    let append = |n: usize, record: &Record| {
        if batch == 1 {
            store.append_synced(record).expect("append");
        } else {
            store.append_nosync(record).expect("append");
            if n.is_multiple_of(batch) {
                store.sync().expect("batch sync");
            }
        }
    };
    append(1, &Record::DeviceEnrolled { id: 0 });
    let start = Instant::now();
    for i in 0..records {
        append(i + 2, &session_record(0, (i + 1) as u32, i));
    }
    store.sync().expect("final sync");
    let seconds = start.elapsed().as_secs_f64();
    let wal_bytes = store.stats().wal_bytes;
    Row {
        name,
        devices: 1,
        records,
        seconds,
        records_per_sec: records as f64 / seconds.max(1e-9),
        wal_bytes,
        mb_per_sec: wal_bytes as f64 / 1e6 / seconds.max(1e-9),
    }
}

/// Appends through the group commit; on backpressure (the committer fell
/// behind the bench loop) commits the batch inline and retries — exactly
/// what the campaign journal does, so the sustained rate is honest about
/// the bounded commit queue.
fn group_append(store: &ShardedStore, record: &Record) {
    loop {
        match store.append(record) {
            Ok(()) => return,
            Err(StoreError::Backpressure) => store.flush().expect("flush under backpressure"),
            Err(e) => panic!("group-commit append failed: {e}"),
        }
    }
}

/// Sustained group-commit appends with a committer flushing every
/// `interval_ms`, spread over enough devices to keep every shard dirty.
fn group_commit_run(dir: &std::path::Path, name: &'static str, interval_ms: f64, records: usize) -> Row {
    std::fs::remove_dir_all(dir).ok();
    let store = open_sharded(dir);
    // 256 devices striped 32 ids apart cover all 8 default shards.
    let ids: Vec<u32> = (0..256u32).map(|d| d * 32).collect();
    for &id in &ids {
        store.append_synced(&Record::DeviceEnrolled { id }).expect("enroll");
    }
    let committer = store.committer(Duration::from_secs_f64(interval_ms * 1e-3));
    let mut succs = vec![0u32; ids.len()];
    let start = Instant::now();
    for i in 0..records {
        let d = i % ids.len();
        succs[d] += 1;
        group_append(&store, &session_record(ids[d], succs[d], i));
    }
    store.flush().expect("final flush");
    let seconds = start.elapsed().as_secs_f64();
    committer.stop();
    let wal_bytes = store.stats().wal_bytes;
    Row {
        name,
        devices: ids.len(),
        records,
        seconds,
        records_per_sec: records as f64 / seconds.max(1e-9),
        wal_bytes,
        mb_per_sec: wal_bytes as f64 / 1e6 / seconds.max(1e-9),
    }
}

/// The fleet-scale story: enroll `devices`, journal one session per
/// device (both under a 5 ms group commit), kill the store with its WAL
/// intact, and time the streaming recovery that reopens it.
fn fleet_runs(dir: &std::path::Path, devices: usize) -> Vec<Row> {
    std::fs::remove_dir_all(dir).ok();
    let mut rows = Vec::new();
    let killed_wal_bytes;
    {
        let store = open_sharded(dir);
        let committer = store.committer(Duration::from_millis(5));

        // Throughput in bytes is the *delta* of the summed shard WAL
        // sizes over each phase — `stats().wal_bytes` is cumulative
        // across all shards, so reporting it raw would credit each phase
        // with every byte the previous phases wrote.
        let bytes_before = store.stats().wal_bytes;
        let start = Instant::now();
        for id in 0..devices as u32 {
            group_append(&store, &Record::DeviceEnrolled { id });
        }
        store.flush().expect("flush enrollments");
        let seconds = start.elapsed().as_secs_f64();
        let enroll_bytes = store.stats().wal_bytes - bytes_before;
        rows.push(Row {
            name: "fleet_enroll",
            devices,
            records: devices,
            seconds,
            records_per_sec: devices as f64 / seconds.max(1e-9),
            wal_bytes: enroll_bytes,
            mb_per_sec: enroll_bytes as f64 / 1e6 / seconds.max(1e-9),
        });

        let bytes_before = store.stats().wal_bytes;
        let start = Instant::now();
        for id in 0..devices as u32 {
            group_append(&store, &session_record(id, 1, id as usize));
        }
        store.flush().expect("flush sessions");
        let seconds = start.elapsed().as_secs_f64();
        let session_bytes = store.stats().wal_bytes - bytes_before;
        rows.push(Row {
            name: "fleet_sessions",
            devices,
            records: devices,
            seconds,
            records_per_sec: devices as f64 / seconds.max(1e-9),
            wal_bytes: session_bytes,
            mb_per_sec: session_bytes as f64 / 1e6 / seconds.max(1e-9),
        });
        committer.stop();
        // Kill: drop without a checkpoint — the whole fleet's history is
        // in the shard WALs and recovery must replay all of it. Recovery
        // compacts on reopen (resetting `wal_bytes`), so the bytes it
        // will replay are the WAL sizes as of the kill.
        killed_wal_bytes = store.stats().wal_bytes;
    }
    let start = Instant::now();
    let store = open_sharded(dir);
    let seconds = start.elapsed().as_secs_f64();
    let replayed = store.stats().records_replayed as usize;
    assert!(replayed >= 2 * devices, "kill-and-resume must replay the whole fleet: {replayed} < {}", 2 * devices);
    let mut seen = 0usize;
    store.for_each_device(|_, state| {
        assert_eq!(state.outcomes_total, 1, "each device recovered with its one session");
        seen += 1;
    });
    assert_eq!(seen, devices, "recovery must surface every enrolled device");
    rows.push(Row {
        name: "fleet_recovery",
        devices,
        records: replayed,
        seconds,
        records_per_sec: replayed as f64 / seconds.max(1e-9),
        wal_bytes: killed_wal_bytes,
        mb_per_sec: killed_wal_bytes as f64 / 1e6 / seconds.max(1e-9),
    });
    rows
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--test") || std::env::var("PUFATT_SMOKE").map(|v| v == "1").unwrap_or(false);
    let (synced_n, batched_n, group_n, fleet_devices) = if smoke {
        (50, 200, 500, 2_000)
    } else if full_scale() {
        (5_000, 200_000, 200_000, 1_000_000)
    } else {
        (1_000, 20_000, 50_000, 100_000)
    };

    header("STORE", "Durable store: WAL append + group commit + recovery throughput (pufatt-store)");
    println!(
        "  {synced_n} per-fsync records, {batched_n} batched, {group_n} group-committed, {fleet_devices}-device fleet{}",
        if smoke { " (smoke mode)" } else { "" }
    );
    let dir = std::env::temp_dir().join(format!("pufatt-bench-wal-{}", std::process::id()));

    let mut rows = Vec::new();
    rows.push(timed("append, fsync per record (append_synced)", || {
        append_run(&dir, "append_synced_each", 1, synced_n)
    }));
    rows.push(timed("append, batched fsync  (sync every 64) ", || {
        append_run(&dir, "append_batched_64", 64, batched_n)
    }));

    // The batched store above was dropped with its workload still in the
    // WAL (no checkpoint): reopening replays every record. Recovery
    // compacts on reopen, so the replayed byte count is the batched run's
    // final WAL size, captured before the reopen resets the counter.
    let batched_wal_bytes = rows[1].wal_bytes;
    let recovery = timed("recovery (replay WAL into a snapshot) ", || {
        let start = Instant::now();
        let store = open(&dir);
        let seconds = start.elapsed().as_secs_f64();
        let replayed = store.stats().records_replayed as usize;
        assert_eq!(replayed, batched_n + 1, "recovery must replay the whole workload");
        assert_eq!(store.stats().torn_tails_recovered, 0, "clean shutdown leaves no torn tail");
        Row {
            name: "recover_replay",
            devices: 1,
            records: replayed,
            seconds,
            records_per_sec: replayed as f64 / seconds.max(1e-9),
            wal_bytes: batched_wal_bytes,
            mb_per_sec: batched_wal_bytes as f64 / 1e6 / seconds.max(1e-9),
        }
    });
    rows.push(recovery);

    rows.push(timed("group commit, 1 ms latency bound       ", || {
        group_commit_run(&dir, "group_commit_1ms", 1.0, group_n)
    }));
    rows.push(timed("group commit, 5 ms latency bound       ", || {
        group_commit_run(&dir, "group_commit_5ms", 5.0, group_n)
    }));
    rows.push(timed("group commit, 20 ms latency bound      ", || {
        group_commit_run(&dir, "group_commit_20ms", 20.0, group_n)
    }));

    let synced_rate = rows[0].records_per_sec;
    let group_rate = rows[4].records_per_sec;
    println!(
        "    group commit at 5 ms sustains {:.1}x the per-record-fsync rate",
        group_rate / synced_rate.max(1e-9)
    );
    if !smoke {
        assert!(
            group_rate >= 10.0 * synced_rate,
            "group commit must sustain >= 10x the fsync-per-record baseline \
             ({group_rate:.0} vs {synced_rate:.0} records/s)"
        );
    }

    rows.extend(timed("fleet enroll + sessions + kill/resume  ", || fleet_runs(&dir, fleet_devices)));
    std::fs::remove_dir_all(&dir).ok();

    for r in &rows {
        println!(
            "    {:<20} {:>8} records in {:>8.4} s: {:>9.0} records/s ({:.2} MB/s, wal {} B, {} device(s))",
            r.name, r.records, r.seconds, r.records_per_sec, r.mb_per_sec, r.wal_bytes, r.devices
        );
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"devices\": {}, \"records\": {}, \"seconds\": {:.6}, ",
                    "\"records_per_sec\": {:.1}, \"wal_bytes\": {}, \"mb_per_sec\": {:.3}}}"
                ),
                r.name, r.devices, r.records, r.seconds, r.records_per_sec, r.wal_bytes, r.mb_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"store_wal\",\n  \"smoke\": {},\n{}  \"rows\": [\n{}\n  ]\n}}\n",
        smoke,
        host_json(),
        json_rows.join(",\n")
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store_wal.json");
    std::fs::write(out_path, json).expect("write BENCH_store_wal.json");
    println!("  wrote {out_path}");
}
