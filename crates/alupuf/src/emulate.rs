//! Verifier-side PUF emulation (`PUF.Emulate()`).
//!
//! During manufacturing, a trusted enrollment interface reads out the
//! chip's gate-level delay table; the verifier later recomputes PUF
//! responses from that table instead of maintaining a challenge/response
//! database (paper §2, "PUF Response Verification", approach 2). For the
//! FPGA prototype the delays are simply known.
//!
//! The emulator evaluates the same netlist with the recorded delays and
//! resolves each arbiter *deterministically* (`Δ < 0 ⇒ 1`): it produces the
//! maximum-likelihood response, which differs from the device's noisy
//! output only on metastable bits — exactly the errors the reverse fuzzy
//! extractor absorbs.

use crate::challenge::Challenge;
use crate::challenge::RawResponse;
use crate::device::{lock, AluPufDesign, LaneEngine, PufChip, PufInstance};
use pufatt_silicon::env::Environment;
use pufatt_silicon::sim::EventSimulator;
use pufatt_silicon::wave::LANES;
use pufatt_store::codec::{CodecError, Reader, Writer};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Leading bytes of a serialised [`DelayTable`].
const TABLE_MAGIC: &[u8; 4] = b"PUFT";

/// The one delay-table format revision.
const TABLE_VERSION: u32 = 1;

/// The gate-level delay table of one enrolled chip: everything the verifier
/// needs to emulate its ALU PUF.
///
/// This is secret material — whoever holds it can predict the PUF. The
/// paper protects the extraction interface with fuses; here the trust
/// boundary is the type: only [`DelayTable::extract`] (the trusted
/// enrollment step) creates one.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayTable {
    delays_ps: Vec<f64>,
    arbiter_offset_ps: Vec<f64>,
    env: Environment,
}

impl DelayTable {
    /// Trusted enrollment: reads out the per-gate delays and arbiter
    /// offsets of a chip at the reference operating point.
    pub fn extract(design: &AluPufDesign, chip: &PufChip, env: Environment) -> Self {
        DelayTable {
            delays_ps: design.effective_delays_ps(chip.silicon(), &env),
            arbiter_offset_ps: chip.arbiter_offset_ps().to_vec(),
            env,
        }
    }

    /// The operating point the table was extracted at.
    pub fn env(&self) -> Environment {
        self.env
    }

    /// The recorded per-gate delays in ps.
    pub fn delays_ps(&self) -> &[f64] {
        &self.delays_ps
    }

    /// Number of gate delays recorded.
    pub fn len(&self) -> usize {
        self.delays_ps.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.delays_ps.is_empty()
    }

    /// Serialises the table to the manufacturer-database wire format:
    /// magic `PUFT`, format version, the extraction corner, and the delay /
    /// arbiter-offset vectors as little-endian `f64`s.
    ///
    /// This is the artifact the trusted enrollment interface exports and
    /// the verifier imports — treat the bytes as secret key material.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 8 * (self.delays_ps.len() + self.arbiter_offset_ps.len()));
        let mut w = Writer(&mut out);
        w.bytes(TABLE_MAGIC);
        w.u32(TABLE_VERSION);
        w.f64(self.env.vdd_factor);
        w.f64(self.env.temp_c);
        w.u32(self.delays_ps.len() as u32);
        w.u32(self.arbiter_offset_ps.len() as u32);
        for &v in self.delays_ps.iter().chain(&self.arbiter_offset_ps) {
            w.f64(v);
        }
        out
    }

    /// Parses a table previously written by [`DelayTable::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// unsupported version, an operating point out of range, truncated
    /// payload, non-finite values, trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let codec = |e: CodecError| match e {
            CodecError::Truncated => "truncated delay table".to_string(),
            CodecError::Trailing(n) => format!("{n} trailing bytes after delay table"),
        };
        let mut r = Reader::new(bytes);
        if &r.array::<4>().map_err(codec)? != TABLE_MAGIC {
            return Err("bad magic: not a delay table".into());
        }
        let version = r.u32().map_err(codec)?;
        if version != TABLE_VERSION {
            return Err(format!("unsupported delay-table version {version}"));
        }
        let (vdd, temp) = (r.f64().map_err(codec)?, r.f64().map_err(codec)?);
        if !(0.5..=1.5).contains(&vdd) || !(-60.0..=200.0).contains(&temp) {
            return Err(format!("operating point out of range: V_dd factor {vdd}, {temp} °C"));
        }
        let (n_delays, n_offsets) = (r.u32().map_err(codec)?, r.u32().map_err(codec)?);
        let mut read_vec = |n: u32, what: &str| -> Result<Vec<f64>, String> {
            // Bound the declared count by the bytes present before
            // reserving: a short file must not ask for gigabytes.
            let n = n as usize;
            if n > r.remaining() / 8 {
                return Err(codec(CodecError::Truncated));
            }
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                let x = r.f64().map_err(codec)?;
                if !x.is_finite() {
                    return Err(format!("non-finite {what} at index {i}"));
                }
                v.push(x);
            }
            Ok(v)
        };
        let delays_ps = read_vec(n_delays, "gate delay")?;
        let arbiter_offset_ps = read_vec(n_offsets, "arbiter offset")?;
        r.done().map_err(codec)?;
        Ok(DelayTable {
            delays_ps,
            arbiter_offset_ps,
            env: Environment::new(vdd, temp),
        })
    }
}

/// Reusable emulation state: one persistent engine plus stimulus buffers.
#[derive(Debug)]
struct EmuScratch<'a> {
    sim: EventSimulator<'a>,
    from: Vec<bool>,
    to: Vec<bool>,
}

/// The verifier's software model of one enrolled ALU PUF.
///
/// Caches one simulation engine over the design's shared fanout CSR, so
/// repeated [`PufEmulator::emulate`] calls allocate nothing at steady
/// state; [`PufEmulator::emulate_batch`] fans challenges across scoped
/// worker threads, each with a bit-sliced engine from the design's pool.
#[derive(Debug)]
pub struct PufEmulator<'a> {
    design: &'a AluPufDesign,
    table: DelayTable,
    scratch: RefCell<EmuScratch<'a>>,
}

impl<'a> PufEmulator<'a> {
    /// Builds an emulator from a design and an enrolled delay table.
    ///
    /// # Panics
    ///
    /// Panics if the table does not match the design (wrong gate count or
    /// arbiter width).
    pub fn new(design: &'a AluPufDesign, table: DelayTable) -> Self {
        assert_eq!(table.delays_ps.len(), design.netlist().gate_count(), "delay table does not match design");
        assert_eq!(table.arbiter_offset_ps.len(), design.width(), "arbiter offsets do not match design");
        let scratch = RefCell::new(EmuScratch {
            sim: EventSimulator::with_fanouts(design.netlist(), &table.delays_ps, design.fanout_csr()),
            from: Vec::new(),
            to: Vec::new(),
        });
        PufEmulator { design, table, scratch }
    }

    /// Convenience: enroll a chip and build its emulator in one step.
    pub fn enroll(design: &'a AluPufDesign, chip: &PufChip, env: Environment) -> Self {
        PufEmulator::new(design, DelayTable::extract(design, chip, env))
    }

    /// The design being emulated.
    pub fn design(&self) -> &AluPufDesign {
        self.design
    }

    /// Emulates the raw PUF response to a challenge (noise-free,
    /// maximum-likelihood arbiter resolution).
    pub fn emulate(&self, challenge: Challenge) -> RawResponse {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.design.stimulus_into(challenge, &mut s.from, &mut s.to);
        s.sim.run_transition_in_place(&s.from, &s.to);
        resolve_arbiters(self.design, &self.table.arbiter_offset_ps, &s.sim)
    }

    /// Emulates many challenges in parallel, returning one response per
    /// challenge in order. The emulator is noise-free, so the result is
    /// identical to mapping [`PufEmulator::emulate`] over the slice — for
    /// any `threads` value. Challenges are packed into 64-lane blocks
    /// evaluated by pooled bit-sliced engines; workers steal whole blocks.
    pub fn emulate_batch(&self, challenges: &[Challenge], threads: usize) -> Vec<RawResponse> {
        emulate_blocks_vec(self.design, &self.table, challenges, threads)
    }
}

/// [`emulate_blocks`] into a fresh vector.
fn emulate_blocks_vec(
    design: &AluPufDesign,
    table: &DelayTable,
    challenges: &[Challenge],
    threads: usize,
) -> Vec<RawResponse> {
    let mut out = vec![RawResponse::new(0, design.width()); challenges.len()];
    emulate_blocks(design, table, challenges, threads, &mut out);
    out
}

/// The shared bit-sliced batch emulation path behind [`PufEmulator`] and
/// [`SharedPufEmulator`]: fixed 64-lane blocks by global index, engines
/// from the design's pool, whole-block work stealing when `threads > 1`.
/// Writes one response per challenge into `out`, which has their length.
fn emulate_blocks(
    design: &AluPufDesign,
    table: &DelayTable,
    challenges: &[Challenge],
    threads: usize,
    out: &mut [RawResponse],
) {
    assert_eq!(out.len(), challenges.len(), "one response slot per challenge");
    if challenges.is_empty() {
        return;
    }
    let blocks = challenges.len().div_ceil(LANES);
    let threads = threads.clamp(1, blocks);
    let delays = table.delays_ps.as_slice();
    let offsets = table.arbiter_offset_ps.as_slice();
    if threads == 1 {
        // The verifier session path: no spawn, one pooled engine, and
        // consecutive blocks benefit from incremental cone reuse.
        design.with_engine(delays, |engine| {
            for (b, slot) in out.chunks_mut(LANES).enumerate() {
                let start = b * LANES;
                let chs = &challenges[start..challenges.len().min(start + LANES)];
                emulate_one_block(design, offsets, engine, chs, slot);
            }
        });
        return;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut [RawResponse]>> = out.chunks_mut(LANES).map(Mutex::new).collect();
    std::thread::scope(|scope| {
        let (next, slots) = (&next, &slots);
        for _ in 0..threads {
            scope.spawn(move || {
                design.with_engine(delays, |engine| loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= blocks {
                        break;
                    }
                    let start = b * LANES;
                    let chs = &challenges[start..challenges.len().min(start + LANES)];
                    let mut slot = lock(&slots[b]);
                    emulate_one_block(design, offsets, engine, chs, &mut slot[..]);
                });
            });
        }
    });
    drop(slots);
}

/// Runs one 64-lane block through `engine` and resolves the arbiters of
/// every live lane into `out` (maximum likelihood, `Δ < 0 ⇒ 1`).
fn emulate_one_block(
    design: &AluPufDesign,
    arbiter_offset_ps: &[f64],
    engine: &mut LaneEngine,
    challenges: &[Challenge],
    out: &mut [RawResponse],
) {
    let w = design.width();
    engine.run(design, challenges);
    let (sum0, sum1) = design.sum_buses();
    let mut t0 = [0.0f64; LANES];
    let mut t1 = [0.0f64; LANES];
    let mut bits = [0u64; LANES];
    for i in 0..w {
        engine.settle_lanes_into(sum0[i], &mut t0);
        engine.settle_lanes_into(sum1[i], &mut t1);
        let skew = design.design_skew_ps()[i] + arbiter_offset_ps[i];
        for (k, b) in bits.iter_mut().enumerate().take(out.len()) {
            if t0[k] - t1[k] + skew < 0.0 {
                *b |= 1 << i;
            }
        }
    }
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = RawResponse::new(bits[k], w);
    }
}

/// An owned, thread-safe emulator: the same semantics as [`PufEmulator`],
/// but holding its design by `Arc` so long-lived verifier endpoints can
/// cache one emulator across calls. Its bit-sliced engines come from the
/// design's pool, which every emulator and device of the design shares.
#[derive(Debug, Clone)]
pub struct SharedPufEmulator {
    design: Arc<AluPufDesign>,
    table: DelayTable,
}

impl SharedPufEmulator {
    /// Builds an emulator from a shared design handle and an enrolled delay
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if the table does not match the design (wrong gate count or
    /// arbiter width).
    pub fn new(design: Arc<AluPufDesign>, table: DelayTable) -> Self {
        assert_eq!(table.delays_ps.len(), design.netlist().gate_count(), "delay table does not match design");
        assert_eq!(table.arbiter_offset_ps.len(), design.width(), "arbiter offsets do not match design");
        SharedPufEmulator { design, table }
    }

    /// The design being emulated.
    pub fn design(&self) -> &AluPufDesign {
        &self.design
    }

    /// The enrolled delay table.
    pub fn table(&self) -> &DelayTable {
        &self.table
    }

    /// Emulates one challenge (noise-free, maximum-likelihood arbiter
    /// resolution), bit-identical to [`PufEmulator::emulate`].
    pub fn emulate(&self, challenge: Challenge) -> RawResponse {
        let mut out = [RawResponse::new(0, self.design.width())];
        self.emulate_into(&[challenge], &mut out);
        out[0]
    }

    /// Emulates a small ordered set of challenges in one 64-lane pass per
    /// block on the current thread (the verifier session shape).
    pub fn emulate_many(&self, challenges: &[Challenge]) -> Vec<RawResponse> {
        emulate_blocks_vec(&self.design, &self.table, challenges, 1)
    }

    /// [`SharedPufEmulator::emulate_many`] into a caller's buffer, one
    /// response per challenge, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `challenges` differ in length.
    pub fn emulate_into(&self, challenges: &[Challenge], out: &mut [RawResponse]) {
        emulate_blocks(&self.design, &self.table, challenges, 1, out);
    }

    /// Parallel batched emulation; identical to [`SharedPufEmulator::emulate_many`]
    /// for any `threads` value.
    pub fn emulate_batch(&self, challenges: &[Challenge], threads: usize) -> Vec<RawResponse> {
        emulate_blocks_vec(&self.design, &self.table, challenges, threads)
    }
}

/// Maximum-likelihood arbiter resolution (`Δ < 0 ⇒ 1`) over the settling
/// times of the last run of `sim`.
fn resolve_arbiters(design: &AluPufDesign, arbiter_offset_ps: &[f64], sim: &EventSimulator<'_>) -> RawResponse {
    let w = design.width();
    let mut bits = 0u64;
    for (i, &offset) in arbiter_offset_ps.iter().enumerate().take(w) {
        let t0 = sim.settle_or_zero(design.alu0_sum(i));
        let t1 = sim.settle_or_zero(design.alu1_sum(i));
        let delta = t0 - t1 + design.design_skew_ps()[i] + offset;
        if delta < 0.0 {
            bits |= 1 << i;
        }
    }
    RawResponse::new(bits, w)
}

// Device-internal accessors used by the emulator; kept crate-private on the
// design to avoid exposing netlist internals to downstream users.
impl AluPufDesign {
    pub(crate) fn alu0_sum(&self, i: usize) -> pufatt_silicon::netlist::NetId {
        self.alu0_ports().sum[i]
    }

    pub(crate) fn alu1_sum(&self, i: usize) -> pufatt_silicon::netlist::NetId {
        self.alu1_ports().sum[i]
    }
}

/// Agreement measurement between a device and its emulator: fraction of
/// response bits that match over `challenges`.
pub fn emulation_agreement<R: rand::Rng + ?Sized>(
    instance: &PufInstance<'_>,
    emulator: &PufEmulator<'_>,
    challenges: &[Challenge],
    rng: &mut R,
) -> f64 {
    let w = emulator.design.width() as f64;
    let mut matches = 0.0;
    for &ch in challenges {
        let dev = instance.evaluate(ch, rng);
        let emu = emulator.emulate(ch);
        matches += w - dev.hamming_distance(emu) as f64;
    }
    matches / (w * challenges.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AluPufConfig;
    use pufatt_silicon::variation::ChipSampler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (AluPufDesign, PufChip) {
        let design = AluPufDesign::new(AluPufConfig {
            width: 16,
            adder: crate::device::AdderKind::default(),
            arbiter: crate::device::ArbiterConfig::asic(),
            design_seed: 3,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let chip = design.fabricate(&ChipSampler::new(), &mut rng);
        (design, chip)
    }

    #[test]
    fn emulator_is_deterministic() {
        let (design, chip) = setup();
        let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
        let ch = Challenge::new(0xBEEF, 0x1234, 16);
        assert_eq!(emu.emulate(ch), emu.emulate(ch));
    }

    #[test]
    fn emulator_tracks_device_closely() {
        let (design, chip) = setup();
        let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
        let inst = PufInstance::new(&design, &chip, Environment::nominal());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let challenges: Vec<Challenge> = (0..60).map(|_| Challenge::random(&mut rng, 16)).collect();
        let agreement = emulation_agreement(&inst, &emu, &challenges, &mut rng);
        assert!(agreement > 0.8, "agreement {agreement}");
    }

    #[test]
    fn emulator_of_wrong_chip_disagrees() {
        let (design, chip) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let other = design.fabricate(&ChipSampler::new(), &mut rng);
        let emu_wrong = PufEmulator::enroll(&design, &other, Environment::nominal());
        let emu_right = PufEmulator::enroll(&design, &chip, Environment::nominal());
        let inst = PufInstance::new(&design, &chip, Environment::nominal());
        let challenges: Vec<Challenge> = (0..60).map(|_| Challenge::random(&mut rng, 16)).collect();
        let right = emulation_agreement(&inst, &emu_right, &challenges, &mut rng);
        let wrong = emulation_agreement(&inst, &emu_wrong, &challenges, &mut rng);
        assert!(right > wrong + 0.1, "right {right} wrong {wrong}");
    }

    #[test]
    fn emulate_batch_matches_serial_at_any_thread_count() {
        let (design, chip) = setup();
        let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
        let challenges: Vec<Challenge> = (0..27u64).map(|k| Challenge::new(k * 7919, k * 104729, 16)).collect();
        let serial: Vec<_> = challenges.iter().map(|&ch| emu.emulate(ch)).collect();
        for threads in [1, 4, 8] {
            assert_eq!(emu.emulate_batch(&challenges, threads), serial, "threads {threads}");
        }
        assert!(emu.emulate_batch(&[], 4).is_empty());
    }

    #[test]
    fn emulate_batch_crossing_block_boundaries_matches_serial() {
        let (design, chip) = setup();
        let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
        // 3 blocks, last one partial: exercises lane padding + work stealing.
        let challenges: Vec<Challenge> = (0..150u64).map(|k| Challenge::new(k * 7919, k * 104729, 16)).collect();
        let serial: Vec<_> = challenges.iter().map(|&ch| emu.emulate(ch)).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(emu.emulate_batch(&challenges, threads), serial, "threads {threads}");
        }
    }

    #[test]
    fn shared_emulator_matches_borrowed_emulator() {
        let (design, chip) = setup();
        let table = DelayTable::extract(&design, &chip, Environment::nominal());
        let design = std::sync::Arc::new(design);
        let borrowed = PufEmulator::new(&design, table.clone());
        let shared = SharedPufEmulator::new(Arc::clone(&design), table);
        let challenges: Vec<Challenge> = (0..100u64).map(|k| Challenge::new(k * 6151, k * 1299721, 16)).collect();
        let reference: Vec<_> = challenges.iter().map(|&ch| borrowed.emulate(ch)).collect();
        let singles: Vec<_> = challenges.iter().map(|&ch| shared.emulate(ch)).collect();
        assert_eq!(singles, reference);
        assert_eq!(shared.emulate_many(&challenges), reference);
        for threads in [1, 4] {
            assert_eq!(shared.emulate_batch(&challenges, threads), reference, "threads {threads}");
        }
        // Clones are independent but equivalent.
        let cloned = shared.clone();
        assert_eq!(cloned.emulate_many(&challenges), reference);
    }

    #[test]
    fn delay_table_round_trips_through_bytes() {
        let (design, chip) = setup();
        let table = DelayTable::extract(&design, &chip, Environment::nominal());
        let bytes = table.to_bytes();
        let parsed = DelayTable::from_bytes(&bytes).expect("round trip");
        assert_eq!(parsed, table);
        // And the parsed table emulates identically.
        let a = PufEmulator::new(&design, table);
        let b = PufEmulator::new(&design, parsed);
        for k in 0..20u64 {
            let ch = Challenge::new(k * 7919, k * 104729, 16);
            assert_eq!(a.emulate(ch), b.emulate(ch));
        }
    }

    #[test]
    fn delay_table_rejects_corruption() {
        let (design, chip) = setup();
        let table = DelayTable::extract(&design, &chip, Environment::nominal());
        let bytes = table.to_bytes();
        assert!(DelayTable::from_bytes(&bytes[..bytes.len() - 3])
            .unwrap_err()
            .contains("truncated"));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(DelayTable::from_bytes(&bad_magic).unwrap_err().contains("magic"));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DelayTable::from_bytes(&trailing).unwrap_err().contains("trailing"));
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(DelayTable::from_bytes(&bad_version).unwrap_err().contains("version"));
        for vdd in [0.0, f64::NAN] {
            let mut bad_env = bytes.clone();
            bad_env[8..16].copy_from_slice(&vdd.to_le_bytes());
            assert!(DelayTable::from_bytes(&bad_env).unwrap_err().contains("operating point"));
        }
        // A count the bytes present cannot hold is refused before anything
        // is reserved for it: u32::MAX gate delays in a bare 32-byte
        // header, and u32::MAX arbiter offsets after the real delays.
        let mut huge_delays = bytes[..32].to_vec();
        huge_delays[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DelayTable::from_bytes(&huge_delays).unwrap_err().contains("truncated"));
        let mut huge_offsets = bytes;
        huge_offsets[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DelayTable::from_bytes(&huge_offsets).unwrap_err().contains("truncated"));
    }

    #[test]
    fn delay_table_len_matches_netlist() {
        let (design, chip) = setup();
        let table = DelayTable::extract(&design, &chip, Environment::nominal());
        assert_eq!(table.len(), design.netlist().gate_count());
        assert!(!table.is_empty());
    }
}
