//! Exact bytes of every format the system writes: WAL records, the
//! snapshot body and file header, the shard manifest, WAL and wire frames,
//! every wire request and response, the attestation request and report,
//! and the enrollment delay table.
//!
//! The codec tests next to each format only round-trip, so a layout change
//! made symmetrically on both sides (a field reordered, a width changed)
//! passes them while breaking every state directory, peer and exported
//! table in the field. These literals are absolute. For each pinned
//! encoding the test also cuts it at every strict prefix and appends one
//! byte, and asserts the owning crate refuses both with its typed error.

use pufatt::protocol::{AttestationReport, AttestationRequest};
use pufatt::PufattError;
use pufatt_alupuf::DelayTable;
use pufatt_store::record::{CursorInfo, StoredStatus};
use pufatt_store::sharded::MANIFEST_FILE;
use pufatt_store::store::{SNAPSHOT_FILE, WAL_FILE};
use pufatt_store::{
    wal, DurableStore, OutcomeRec, Record, ShardedOptions, ShardedStore, SimVfs, StoreError, StoreState, Vfs,
};
use pufatt_transport::{
    decode_frame, encode_frame, ErrorCode, FrameReader, Request, Response, TransportError, WireStats, WireStatus,
};
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex literal");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex digit"))
        .collect()
}

fn assert_pinned(name: &str, actual: &[u8], pinned: &str) {
    assert_eq!(hex(actual), hex(&unhex(pinned)), "{name}: layout changed");
}

/// Every strict prefix of `bytes`, and `bytes` plus one byte, must make
/// `refused` hold for the decoder's result.
fn assert_cuts_refused(name: &str, bytes: &[u8], refused: impl Fn(&[u8]) -> bool) {
    for cut in 0..bytes.len() {
        assert!(refused(&bytes[..cut]), "{name}: prefix of {cut} bytes accepted");
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(refused(&longer), "{name}: trailing byte accepted");
}

fn corrupt<T>(result: Result<T, StoreError>) -> bool {
    matches!(result, Err(StoreError::Corrupt(_)))
}

fn malformed<T>(result: Result<T, TransportError>) -> bool {
    matches!(result, Err(TransportError::Malformed(_)))
}

fn outcome() -> OutcomeRec {
    OutcomeRec {
        accepted: true,
        response_ok: true,
        time_ok: false,
        timed_out: false,
        attempts: 2,
        elapsed_bits: 0.125f64.to_bits(),
        retried: 1,
        dropped: 3,
        lost: false,
        latency_slot: 17,
        crp_hits: 0x0102_0304,
        crp_misses: 8,
    }
}

fn cursor() -> CursorInfo {
    CursorInfo {
        session_pos: 1_024,
        noise_pos: 0x1122_3344_5566_7788,
        noise_evals: 4_096,
        tamper_parity: true,
    }
}

/// One sample of every record kind, with its sequence number.
fn records() -> Vec<(u64, Record)> {
    vec![
        (
            1,
            Record::Meta {
                config_hash: 0x0102_0304_0506_0708,
                devices: 12,
                sessions_per_device: 4,
                seed: 0xF1EE7,
            },
        ),
        (2, Record::DeviceEnrolled { id: 7 }),
        (3, Record::DeviceReEnrolled { id: 0x0A0B_0C0D }),
        (4, Record::StatusChanged { id: 9, status: StoredStatus::Quarantined }),
        (
            5,
            Record::SessionClosed {
                id: 7,
                outcome: outcome(),
                status: StoredStatus::Active,
                fails: 0,
                succs: 1,
                cursor: cursor(),
            },
        ),
        (6, Record::SessionRefused { id: 7 }),
        (
            0x0102_0304_0506_0708,
            Record::SessionFault {
                id: 2,
                retried: 1,
                dropped: 4,
                crp_hits: 16,
                crp_misses: 48,
                cursor: cursor(),
            },
        ),
        (8, Record::DeviceAbandoned { id: 5 }),
    ]
}

const RECORDS: [&str; 8] = [
    "0100000000000000 00 0807060504030201 0c000000 04000000 e71e0f0000000000",
    "0200000000000000 01 07000000",
    "0300000000000000 02 0d0c0b0a",
    "0400000000000000 03 09000000 01",
    "0500000000000000 0a 07000000 01010000 02000000 000000000000c03f 01000000 03000000 00 11 04030201 08000000 \
     00 00000000 01000000 0004000000000000 8877665544332211 0010000000000000 01",
    "0600000000000000 05 07000000",
    "0807060504030201 0b 02000000 01000000 04000000 10000000 30000000 \
     0004000000000000 8877665544332211 0010000000000000 01",
    "0800000000000000 07 05000000",
];

#[test]
fn every_record_kind_has_pinned_bytes_and_refuses_cuts() {
    for ((seq, record), pinned) in records().into_iter().zip(RECORDS) {
        let mut payload = Vec::new();
        record.encode(seq, &mut payload);
        assert_pinned(&format!("{record:?}"), &payload, pinned);
        assert_eq!(Record::decode(&payload).expect("pinned record decodes"), (seq, record.clone()));
        assert_cuts_refused(&format!("{record:?}"), &payload, |b| corrupt(Record::decode(b)));
    }
}

/// A state holding campaign meta, one device with an outcome, a fault and
/// the cursor the fault left, and nonzero counters.
fn sample_records() -> Vec<Record> {
    vec![
        Record::Meta {
            config_hash: 0x0102_0304_0506_0708,
            devices: 1,
            sessions_per_device: 2,
            seed: 0xF1EE7,
        },
        Record::DeviceEnrolled { id: 7 },
        Record::SessionClosed {
            id: 7,
            outcome: outcome(),
            status: StoredStatus::Active,
            fails: 0,
            succs: 1,
            cursor: CursorInfo { session_pos: 512, tamper_parity: false, ..cursor() },
        },
        Record::SessionFault {
            id: 7,
            retried: 1,
            dropped: 2,
            crp_hits: 3,
            crp_misses: 4,
            cursor: cursor(),
        },
    ]
}

const STATE: &str = "0400000000000000040000000000000001080706050403020101000000020000 \
                     00e71e0f00000000000200000000000000010000000000000000000000000000 \
                     0000000000000000000200000000000000000000000000000001000000000000 \
                     000500000000000000000000000000000007030201000000000c000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000100000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0000000000000000000000000000000000000000000000000000000000000000 \
                     0001000000070000000000000000010000000000000000000000000100000000 \
                     0000000100000000000000020000000100040000000000008877665544332211 \
                     001000000000000001010000000101000002000000000000000000c03f010000 \
                     00030000000011040302010800000000000000";

/// Magic `PUFATTS2`, body length, CRC-32 of the body.
const SNAPSHOT_HEADER: &str = "5055464154545332 f3010000 981bcc18";

#[test]
fn store_snapshot_body_and_file_header_are_pinned_and_refuse_cuts() {
    let mut state = StoreState::new(4);
    for (seq, record) in (1..).zip(sample_records()) {
        state.apply(seq, &record).expect("sample records apply");
    }
    let mut body = Vec::new();
    state.encode(&mut body);
    assert_pinned("snapshot body", &body, STATE);
    assert_eq!(StoreState::decode(&body).expect("pinned snapshot decodes"), state);
    assert_cuts_refused("snapshot body", &body, |b| corrupt(StoreState::decode(b)));

    // The same state, checkpointed by a store: header + body on disk.
    let vfs = SimVfs::new();
    let store = DurableStore::open(Arc::new(vfs.clone()), 4).expect("fresh store opens");
    for record in sample_records() {
        store.append_synced(&record).expect("append");
    }
    store.checkpoint().expect("checkpoint");
    let file = vfs.read(SNAPSHOT_FILE).expect("read").expect("snapshot written");
    assert_pinned("snapshot file", &file, &format!("{SNAPSHOT_HEADER}{STATE}"));
    assert_cuts_refused("snapshot file", &file, |b| {
        let vfs = SimVfs::new();
        vfs.truncate(SNAPSHOT_FILE, b).expect("plant snapshot");
        corrupt(DurableStore::open(Arc::new(vfs), 64))
    });
}

/// A snapshot of the previous revision, as it pinned them: magic
/// `PUFATTS1`, body length, CRC-32, then the body, whose device entries
/// still held an event tail and a cursor event count.
const SNAPSHOT_V1_HEADER: &str = "5055464154545331 fc010000 3eac6d9c";
const STATE_V1: &str = "0500000000000000040000000000000001080706050403020101000000020000 \
                        00e71e0f00000000000200000000000000010000000000000000000000000000 \
                        0000000000000000000200000000000000000000000000000001000000000000 \
                        000500000000000000000000000000000007030201000000000c000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000100000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0000000000000000000000000000000000000000000000000000000000000000 \
                        0001000000070000000000000000010000000000000000000000000100000000 \
                        0000000100000000000000010000000202000000010100000000040000000000 \
                        0088776655443322110010000000000000010100000001010000020000000000 \
                        00000000c03f01000000030000000011040302010800000000000000";

/// A `SessionClosed` payload under its retired tag 4, without a cursor.
const SESSION_CLOSED_V1: &str =
    "0500000000000000 04 07000000 01010000 02000000 000000000000c03f 01000000 03000000 00 11 \
     04030201 08000000 00 00000000 01000000";

#[test]
fn a_state_directory_of_the_previous_revision_is_refused_as_corrupt() {
    // A `PUFATTS1` snapshot, intact and checksum-valid.
    let vfs = SimVfs::new();
    let snapshot = unhex(&format!("{SNAPSHOT_V1_HEADER}{STATE_V1}"));
    assert_eq!(&snapshot[..8], b"PUFATTS1");
    vfs.truncate(SNAPSHOT_FILE, &snapshot).expect("plant snapshot");
    let refused = DurableStore::open(Arc::new(vfs), 64).err();
    assert!(matches!(refused, Some(StoreError::Corrupt(_))), "PUFATTS1 snapshot: {refused:?}");

    // A WAL whose one checksum-valid frame holds a session record of the
    // retired layout.
    let mut log = wal::WAL_MAGIC.to_vec();
    wal::encode_frame(&unhex(SESSION_CLOSED_V1), &mut log);
    let vfs = SimVfs::new();
    vfs.truncate(WAL_FILE, &log).expect("plant wal");
    let refused = DurableStore::open(Arc::new(vfs), 64).err();
    assert!(matches!(refused, Some(StoreError::Corrupt(_))), "tag-4 record: {refused:?}");
}

/// Magic `PUFATTM1`, version 1, 3 shards, range width 0x102, CRC-32 of
/// the three words.
const MANIFEST: &str = "5055464154544d31 01000000 03000000 02010000 5f2f34c5";

#[test]
fn shard_manifest_is_pinned_and_refuses_cuts() {
    let vfs = SimVfs::new();
    let opts = ShardedOptions { shards: 3, range_width: 0x0102, ..ShardedOptions::default() };
    drop(ShardedStore::open(Arc::new(vfs.clone()), opts).expect("fresh sharded store opens"));
    let manifest = vfs.read(MANIFEST_FILE).expect("read").expect("manifest written");
    assert_pinned("shard manifest", &manifest, MANIFEST);
    assert_cuts_refused("shard manifest", &manifest, |b| {
        let vfs = SimVfs::new();
        vfs.truncate(MANIFEST_FILE, b).expect("plant manifest");
        corrupt(ShardedStore::open(Arc::new(vfs), opts).map(drop))
    });
}

/// Length, CRC-32, then the `DeviceEnrolled` record payload.
const WAL_FRAME: &str = "0d000000 c0e29fcf 0200000000000000 01 07000000";

/// Length, CRC-32, then the `Attest` request payload.
const WIRE_FRAME: &str = "11000000 6dc2e5a1 09000000 03 07000000 0807060504030201";

#[test]
fn wal_and_wire_frames_are_pinned_and_refuse_cuts() {
    let mut payload = Vec::new();
    Record::DeviceEnrolled { id: 7 }.encode(2, &mut payload);
    let mut frame = Vec::new();
    wal::encode_frame(&payload, &mut frame);
    assert_pinned("wal frame", &frame, WAL_FRAME);
    assert_eq!(wal::decode_frame(&frame), Some((payload.as_slice(), frame.len())));
    for cut in 0..frame.len() {
        assert_eq!(wal::decode_frame(&frame[..cut]), None, "wal frame: prefix of {cut} bytes accepted");
    }
    // A byte past the frame is not part of it: recovery keeps the frame
    // and reports the byte as a torn tail.
    let mut image = wal::WAL_MAGIC.to_vec();
    image.extend_from_slice(&frame);
    image.push(0);
    let recovered = wal::recover(Some(&image)).expect("recovers");
    assert_eq!(recovered.payloads, vec![payload]);
    assert!(recovered.torn_tail);

    let mut payload = Vec::new();
    Request::Attest { device: 7, ticket: 0x0102_0304_0506_0708 }.encode(9, &mut payload);
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    assert_pinned("wire frame", &frame, WIRE_FRAME);
    assert_eq!(decode_frame(&frame).expect("pinned frame decodes"), (payload.as_slice(), frame.len()));
    let frame_error = |b: &[u8]| matches!(decode_frame(b), Err(TransportError::Frame(_)));
    for cut in 0..frame.len() {
        assert!(frame_error(&frame[..cut]), "wire frame: prefix of {cut} bytes accepted");
    }
    // On a socket, a cut frame is a torn frame and a byte past it is a
    // torn next frame.
    let mut read = Vec::new();
    for cut in 1..frame.len() {
        let mut socket = std::io::Cursor::new(&frame[..cut]);
        assert!(
            matches!(FrameReader::new().read_frame(&mut socket, &mut read, 0), Err(TransportError::Frame(_))),
            "socket: prefix of {cut} bytes accepted"
        );
    }
    let mut longer = frame.clone();
    longer.push(0);
    let mut socket = std::io::Cursor::new(longer);
    let mut frames = FrameReader::new();
    assert!(frames.read_frame(&mut socket, &mut read, 0).expect("first frame reads"));
    assert_eq!(read, payload);
    assert!(matches!(frames.read_frame(&mut socket, &mut read, 0), Err(TransportError::Frame(_))));
}

fn requests() -> Vec<Request> {
    vec![
        pufatt_transport::hello(),
        Request::Enroll { device: 7 },
        Request::ChallengeRequest { device: 0x0A0B_0C0D },
        Request::Attest { device: 7, ticket: 0x0102_0304_0506_0708 },
        Request::Revoke { device: 9 },
        Request::Stats,
        Request::Shutdown,
    ]
}

const REQUESTS: [&str; 7] = [
    "00030201 00 5055464154544e31 0100 0100",
    "01030201 01 07000000",
    "02030201 02 0d0c0b0a",
    "03030201 03 07000000 0807060504030201",
    "04030201 04 09000000",
    "05030201 05",
    "06030201 06",
];

fn responses() -> Vec<Response> {
    vec![
        Response::HelloAck { version: 0x0102 },
        Response::EnrollOk { device: 7, fresh: true, status: WireStatus::Quarantined },
        Response::Challenge { device: 7, ticket: 0x0102_0304_0506_0708 },
        Response::Verdict {
            device: 7,
            accepted: true,
            response_ok: true,
            time_ok: false,
            timed_out: true,
            attempts: 3,
            elapsed_bits: 1.25f64.to_bits(),
            status: WireStatus::Revoked,
        },
        Response::RevokeOk { device: 9, status: WireStatus::Revoked },
        Response::StatsReply(WireStats {
            started: 1,
            accepted: 2,
            rejected: 3,
            timed_out: 4,
            refused: 5,
            lost: 6,
            faults: 7,
            active: 8,
            quarantined: 9,
            revoked: 10,
            crp_hits: 11,
            crp_misses: 12,
            unavailable: 13,
            shards_total: 14,
            shards_degraded: 15,
            shards_failed: 0x0102_0304_0506_0708,
        }),
        Response::ShutdownAck,
        Response::Busy { retry_after_ms: 25 },
        Response::Error {
            code: ErrorCode::Refused,
            detail: "device 7 is revoked".into(),
        },
    ]
}

const RESPONSES: [&str; 9] = [
    "000c0b0a 00 0201",
    "010c0b0a 01 07000000 01 01",
    "020c0b0a 02 07000000 0807060504030201",
    "030c0b0a 03 07000000 01 01 00 01 03000000 000000000000f43f 02",
    "040c0b0a 04 09000000 02",
    "050c0b0a05010000000000000002000000000000000300000000000000040000 \
     0000000000050000000000000006000000000000000700000000000000080000 \
     000000000009000000000000000a000000000000000b000000000000000c0000 \
     00000000000d000000000000000e000000000000000f00000000000000080706 \
     0504030201",
    "060c0b0a 06",
    "070c0b0a 07 19000000",
    "080c0b0a 08 03 1300 6465766963652037206973207265766f6b6564",
];

#[test]
fn every_wire_message_has_pinned_bytes_and_refuses_cuts() {
    for ((corr, request), pinned) in (0x0102_0300u32..).zip(requests()).zip(REQUESTS) {
        let mut payload = Vec::new();
        request.encode(corr, &mut payload);
        assert_pinned(&format!("{request:?}"), &payload, pinned);
        assert_eq!(Request::decode(&payload).expect("pinned request decodes"), (corr, request.clone()));
        assert_cuts_refused(&format!("{request:?}"), &payload, |b| malformed(Request::decode(b)));
    }
    for ((corr, response), pinned) in (0x0A0B_0C00u32..).zip(responses()).zip(RESPONSES) {
        let mut payload = Vec::new();
        response.encode(corr, &mut payload);
        assert_pinned(&format!("{response:?}"), &payload, pinned);
        assert_eq!(Response::decode(&payload).expect("pinned response decodes"), (corr, response.clone()));
        assert_cuts_refused(&format!("{response:?}"), &payload, |b| malformed(Response::decode(b)));
    }
}

/// x₀ then r₀.
const ATTESTATION_REQUEST: &str = "04030201 d0c0b0a0";

/// Magic `PATR`, cycles, helper count, the eight response lanes, the
/// helper words.
const ATTESTATION_REPORT: &str = "50415452 0807060504030201 03000000 \
     01000000 02000000 03000000 04000000 05000000 06000000 07000000 04030201 \
     aa000000 bb000000 d0c0b0a0";

#[test]
fn attestation_request_and_report_are_pinned_and_refuse_cuts() {
    let malformed = |r: Result<_, PufattError>| matches!(r, Err(PufattError::Malformed(_)));

    let request = AttestationRequest { x0: 0x0102_0304, r0: 0xA0B0_C0D0 };
    let bytes = request.to_bytes();
    assert_pinned("attestation request", &bytes, ATTESTATION_REQUEST);
    assert_eq!(AttestationRequest::from_bytes(&bytes).expect("pinned request decodes"), request);
    assert_cuts_refused("attestation request", &bytes, |b| malformed(AttestationRequest::from_bytes(b).map(drop)));

    let report = AttestationReport {
        response: [1, 2, 3, 4, 5, 6, 7, 0x0102_0304],
        helper_words: vec![0xAA, 0xBB, 0xA0B0_C0D0],
        cycles: 0x0102_0304_0506_0708,
    };
    let bytes = report.to_bytes();
    assert_pinned("attestation report", &bytes, ATTESTATION_REPORT);
    assert_eq!(AttestationReport::from_bytes(&bytes).expect("pinned report decodes"), report);
    assert_cuts_refused("attestation report", &bytes, |b| malformed(AttestationReport::from_bytes(b).map(drop)));
}

/// Magic `PUFT`, version 1, V_dd factor 1.0 and 25 °C as `f64`, two gate
/// delays and one arbiter offset, then the delays 10.5 and 20.25 ps and
/// the offset −1.5 ps.
const DELAY_TABLE: &str = "50554654 01000000 000000000000f03f 0000000000003940 02000000 01000000 \
                           0000000000002540 0000000000403440 000000000000f8bf";

#[test]
fn delay_table_is_pinned_and_refuses_cuts() {
    let bytes = unhex(DELAY_TABLE);
    let table = DelayTable::from_bytes(&bytes).expect("pinned table decodes");
    assert_eq!(table.delays_ps(), &[10.5, 20.25]);
    assert_eq!((table.env().vdd_factor, table.env().temp_c), (1.0, 25.0));
    assert_pinned("delay table", &table.to_bytes(), DELAY_TABLE);
    for cut in 0..bytes.len() {
        let err = DelayTable::from_bytes(&bytes[..cut]).expect_err("prefix refused");
        assert!(err.contains("truncated"), "prefix of {cut} bytes: {err}");
    }
    let mut longer = bytes.clone();
    longer.push(0);
    let err = DelayTable::from_bytes(&longer).expect_err("trailing byte refused");
    assert!(err.contains("trailing"), "{err}");
}
