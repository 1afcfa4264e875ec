//! Enrollment: manufacturing a device and provisioning its verifier.
//!
//! The paper describes two verification approaches (§2): a
//! challenge/response database recorded before deployment, and emulation
//! from the gate-level delay table read out through a trusted (later
//! fused-off) interface. PUFatt *needs* the emulation approach — the
//! checksum derives PUF challenges from its own running state, so they
//! cannot be known at enrollment time — but the CRP database is provided
//! for completeness and for the database-vs-emulation trade-off ablation.

use crate::error::PufattError;
use crate::ports::{DevicePuf, SharedDevicePuf, VerifierPuf};
use pufatt_alupuf::challenge::{Challenge, RawResponse};
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, PufChip, PufInstance};
use pufatt_alupuf::emulate::DelayTable;
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One enrolled device: the shared design, the manufactured chip, and the
/// delay table extracted through the trusted enrollment interface.
#[derive(Debug, Clone)]
pub struct EnrolledDevice {
    design: Arc<AluPufDesign>,
    chip: Arc<PufChip>,
    table: DelayTable,
    env: Environment,
}

impl EnrolledDevice {
    /// The design (shared by all devices of the product line).
    pub fn design(&self) -> &Arc<AluPufDesign> {
        &self.design
    }

    /// The manufactured chip.
    pub fn chip(&self) -> &Arc<PufChip> {
        &self.chip
    }

    /// The enrollment operating point.
    pub fn env(&self) -> Environment {
        self.env
    }

    /// Builds the device-side PUF endpoint (prover).
    ///
    /// # Panics
    ///
    /// Panics only if the design width became unsupported, which
    /// enrollment already validated.
    #[allow(clippy::expect_used)]
    pub fn device_puf(&self, noise_seed: u64) -> DevicePuf {
        DevicePuf::new(self.design.clone(), self.chip.clone(), self.env, noise_seed)
            .expect("width validated at enrollment") // analyze: allow(panic: enroll() rejects unsupported widths)
    }

    /// Builds a shareable device handle (for wiring into a PE32 CPU).
    pub fn device_handle(&self, noise_seed: u64) -> SharedDevicePuf {
        SharedDevicePuf::new(self.device_puf(noise_seed))
    }

    /// Builds the verifier-side PUF from the enrolled delay table.
    ///
    /// # Errors
    ///
    /// Propagates [`PufattError::UnsupportedWidth`].
    pub fn verifier_puf(&self) -> Result<VerifierPuf, PufattError> {
        VerifierPuf::new(self.design.clone(), self.table.clone())
    }

    /// Records a challenge/response database of `count` random challenges —
    /// the paper's alternative verification approach.
    pub fn record_crp_database<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> CrpDatabase {
        let instance = PufInstance::new(&self.design, &self.chip, self.env);
        let mut entries = HashMap::with_capacity(count);
        let w = self.design.width();
        for _ in 0..count {
            let ch = Challenge::random(rng, w);
            // Enrollment averages a few evaluations to store the likeliest
            // response (standard practice to suppress metastable bits).
            let mut votes = [0u32; 64];
            const SAMPLES: u32 = 5;
            for _ in 0..SAMPLES {
                let r = instance.evaluate(ch, rng);
                for (b, v) in votes.iter_mut().enumerate().take(w) {
                    *v += r.bit(b) as u32;
                }
            }
            let mut bits = 0u64;
            for (b, &v) in votes.iter().enumerate().take(w) {
                if v * 2 > SAMPLES {
                    bits |= 1 << b;
                }
            }
            entries.insert(ch, RawResponse::new(bits, w));
        }
        CrpDatabase { entries, spent: HashSet::new(), width: w }
    }

    /// Parallel CRP recording: `count` challenges drawn deterministically
    /// from `challenge_seed`, majority-voted over 5 samples each via the
    /// batched evaluation path, fanned across `threads` workers.
    ///
    /// Unlike [`EnrolledDevice::record_crp_database`] (which threads one
    /// caller RNG through every draw), the batched variant is a pure
    /// function of `(challenge_seed, noise_seed, count)` and is
    /// bit-identical for any `threads` value.
    pub fn record_crp_database_batch(
        &self,
        count: usize,
        challenge_seed: u64,
        noise_seed: u64,
        threads: usize,
    ) -> CrpDatabase {
        let w = self.design.width();
        let mut rng = ChaCha8Rng::seed_from_u64(challenge_seed);
        let challenges: Vec<Challenge> = (0..count).map(|_| Challenge::random(&mut rng, w)).collect();
        let instance = PufInstance::new(&self.design, &self.chip, self.env);
        let responses = instance.evaluate_batch_voted(&challenges, 5, noise_seed, threads);
        let entries = challenges.into_iter().zip(responses).collect();
        CrpDatabase { entries, spent: HashSet::new(), width: w }
    }
}

/// Manufactures and enrolls one device of `config`'s product line.
///
/// `fab_seed` drives the process-variation draw (one seed = one chip);
/// `design` skew comes from the config's own design seed.
///
/// # Errors
///
/// [`PufattError::UnsupportedWidth`] if the width has no matching code.
pub fn enroll(config: AluPufConfig, fab_seed: u64, _enroll_nonce: u64) -> Result<EnrolledDevice, PufattError> {
    let width = config.width;
    if !(width.is_power_of_two() && (4..=32).contains(&width)) {
        return Err(PufattError::UnsupportedWidth { width });
    }
    let design = Arc::new(AluPufDesign::new(config));
    enroll_with_design(&design, fab_seed)
}

/// Manufactures and enrolls one more device of an already-instantiated
/// product line: the design (netlist, layout skew) is shared by reference,
/// only the silicon draw and delay-table extraction run per device. This
/// is the fast path fleet-scale campaigns use — instantiating the design
/// once instead of per device.
///
/// # Errors
///
/// [`PufattError::UnsupportedWidth`] if the design's width has no matching
/// code.
pub fn enroll_with_design(design: &Arc<AluPufDesign>, fab_seed: u64) -> Result<EnrolledDevice, PufattError> {
    let width = design.width();
    if !(width.is_power_of_two() && (4..=32).contains(&width)) {
        return Err(PufattError::UnsupportedWidth { width });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(fab_seed);
    let chip = Arc::new(design.fabricate(&ChipSampler::new(), &mut rng));
    let env = Environment::nominal();
    let table = DelayTable::extract(design, &chip, env);
    Ok(EnrolledDevice { design: design.clone(), chip, table, env })
}

/// Enrolls `count` devices of the same design (a "product line"), with
/// distinct chips.
///
/// # Errors
///
/// Propagates [`PufattError::UnsupportedWidth`].
pub fn enroll_fleet(config: AluPufConfig, base_seed: u64, count: usize) -> Result<Vec<EnrolledDevice>, PufattError> {
    let width = config.width;
    if !(width.is_power_of_two() && (4..=32).contains(&width)) {
        return Err(PufattError::UnsupportedWidth { width });
    }
    let design = Arc::new(AluPufDesign::new(config));
    (0..count)
        .map(|i| enroll_with_design(&design, base_seed.wrapping_add(i as u64)))
        .collect()
}

/// The database-of-CRPs verification approach (paper §2): finite,
/// replay-sensitive, usable only for challenges recorded at enrollment.
///
/// Consumed challenges are remembered, so a second [`CrpDatabase::consume`]
/// of the same challenge is a typed [`PufattError::ChallengeReused`] —
/// distinguishable from a challenge that was never enrolled. The spent set
/// lives in memory only: PUFatt's verifier never spends stored CRPs (it
/// recomputes every response with `PUF.Emulate()`), so this database is
/// the paper's comparison baseline, not a durable verifier component.
#[derive(Debug, Clone)]
pub struct CrpDatabase {
    entries: HashMap<Challenge, RawResponse>,
    spent: HashSet<Challenge>,
    width: usize,
}

impl CrpDatabase {
    /// Challenges remaining in the database.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is exhausted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Response width of the stored CRPs.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Looks up a reference response without consuming it (replays
    /// possible — the caller is responsible for freshness).
    pub fn peek(&self, challenge: Challenge) -> Option<RawResponse> {
        self.entries.get(&challenge).copied()
    }

    /// Consumes a CRP: each challenge authenticates at most once,
    /// preventing replay (the paper's stated discipline).
    ///
    /// # Errors
    ///
    /// [`PufattError::ChallengeReused`] if the challenge was already
    /// consumed (a replay — attack signal, never re-issued);
    /// [`PufattError::ChallengeUnknown`] if it was never enrolled.
    pub fn consume(&mut self, challenge: Challenge) -> Result<RawResponse, PufattError> {
        match self.entries.remove(&challenge) {
            Some(response) => {
                self.spent.insert(challenge);
                Ok(response)
            }
            None if self.spent.contains(&challenge) => Err(PufattError::ChallengeReused { challenge }),
            None => Err(PufattError::ChallengeUnknown { challenge }),
        }
    }

    /// Whether a challenge has been consumed.
    pub fn is_spent(&self, challenge: Challenge) -> bool {
        self.spent.contains(&challenge)
    }

    /// Challenges consumed so far.
    pub fn spent_count(&self) -> usize {
        self.spent.len()
    }

    /// Iterates over the stored challenges (e.g. to drive an
    /// authentication session with known-enrolled challenges).
    pub fn challenges(&self) -> impl Iterator<Item = Challenge> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufatt_alupuf::device::{AdderKind, ArbiterConfig};

    fn small_config() -> AluPufConfig {
        AluPufConfig {
            width: 16,
            adder: AdderKind::default(),
            arbiter: ArbiterConfig::asic(),
            design_seed: 99,
        }
    }

    #[test]
    fn enroll_is_deterministic_per_seed() {
        let a = enroll(small_config(), 1, 0).unwrap();
        let b = enroll(small_config(), 1, 0).unwrap();
        assert_eq!(a.chip().silicon().vth(), b.chip().silicon().vth());
        let c = enroll(small_config(), 2, 0).unwrap();
        assert_ne!(a.chip().silicon().vth(), c.chip().silicon().vth());
    }

    #[test]
    fn fleet_devices_share_design_but_not_silicon() {
        let fleet = enroll_fleet(small_config(), 10, 3).unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[0].design().design_skew_ps(), fleet[1].design().design_skew_ps());
        assert_ne!(fleet[0].chip().silicon().vth(), fleet[1].chip().silicon().vth());
    }

    #[test]
    fn unsupported_width_is_rejected() {
        let cfg = AluPufConfig {
            width: 24,
            adder: AdderKind::default(),
            arbiter: ArbiterConfig::asic(),
            design_seed: 1,
        };
        assert!(matches!(enroll(cfg, 1, 0), Err(PufattError::UnsupportedWidth { width: 24 })));
    }

    #[test]
    fn crp_database_consumption_prevents_replay() {
        let dev = enroll(small_config(), 3, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut db = dev.record_crp_database(20, &mut rng);
        assert_eq!(db.len(), 20);
        let ch = db.challenges().next().unwrap();
        assert!(db.peek(ch).is_some());
        assert!(db.consume(ch).is_ok());
        assert!(
            matches!(db.consume(ch), Err(PufattError::ChallengeReused { challenge }) if challenge == ch),
            "second use must be a typed replay refusal"
        );
        assert!(db.is_spent(ch));
        assert_eq!(db.spent_count(), 1);
        let stranger = Challenge { a: !ch.a, b: !ch.b };
        assert!(
            matches!(db.consume(stranger), Err(PufattError::ChallengeUnknown { .. })),
            "never-enrolled challenges are a distinct error"
        );
        assert_eq!(db.len(), 19);
    }

    #[test]
    fn batched_crp_database_is_thread_invariant_and_accurate() {
        let dev = enroll(small_config(), 5, 0).unwrap();
        let a = dev.record_crp_database_batch(24, 77, 88, 1);
        let b = dev.record_crp_database_batch(24, 77, 88, 4);
        assert_eq!(a.len(), 24);
        let mut keys: Vec<_> = a.challenges().collect();
        keys.sort_by_key(|c| (c.a, c.b));
        for ch in keys {
            assert_eq!(a.peek(ch), b.peek(ch), "thread count changed a stored CRP");
        }
        // And the stored majority votes track a live device.
        let instance = PufInstance::new(dev.design(), dev.chip(), dev.env());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut total_hd = 0u32;
        for ch in a.challenges() {
            total_hd += instance.evaluate(ch, &mut rng).hamming_distance(a.peek(ch).unwrap());
        }
        let frac = total_hd as f64 / (24.0 * a.width() as f64);
        assert!(frac < 0.2, "live-vs-batched-database distance {frac}");
    }

    #[test]
    fn crp_database_matches_live_device() {
        let dev = enroll(small_config(), 4, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let db = dev.record_crp_database(30, &mut rng);
        let instance = PufInstance::new(dev.design(), dev.chip(), dev.env());
        let mut total_hd = 0u32;
        let mut n = 0u32;
        for ch in db.challenges() {
            let reference = db.peek(ch).unwrap();
            // A live evaluation must sit close to the enrolled majority vote.
            total_hd += instance.evaluate(ch, &mut rng).hamming_distance(reference);
            n += 1;
        }
        let frac = total_hd as f64 / (n as f64 * db.width() as f64);
        assert!(frac < 0.2, "live-vs-database distance {frac}");
    }
}
