//! The lossy channel: the clean [`Channel`] bandwidth/latency model plus
//! jitter, drops, duplication, and reordering.
//!
//! The paper's δ-bound argument assumes the verifier can predict transfer
//! time; a real sensor link cannot promise that. This model keeps the
//! deterministic part (bandwidth + base latency) in [`Channel`] and layers
//! the stochastic part on top, drawn from a caller-supplied seeded RNG so
//! a chaos run replays bit-for-bit.

use crate::plan::{parse_jitter_ms, FaultPlan};
use pufatt::Channel;
use rand::Rng;

/// A channel that can lose, delay, duplicate, and reorder messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossyChannel {
    /// The deterministic transfer model (bandwidth + one-way base latency).
    pub base: Channel,
    /// Upper bound of the uniform extra latency per message leg, seconds.
    pub jitter_s: f64,
    /// Probability a message is dropped.
    pub drop_rate: f64,
    /// Probability a delivered message arrives twice.
    pub duplicate_rate: f64,
    /// Probability a delivered message is overtaken (arrives an extra
    /// jitter-plus-latency window late).
    pub reorder_rate: f64,
}

/// What happened to one message leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// The message arrived after `latency_s` seconds.
    Delivered {
        /// End-to-end latency of this leg, including jitter and any
        /// reordering penalty.
        latency_s: f64,
        /// A duplicate copy also arrived (the receiver deduplicates; the
        /// cost is wasted bandwidth, counted by the session runner).
        duplicated: bool,
        /// The message was overtaken by later traffic.
        reordered: bool,
    },
    /// The message was lost.
    Dropped,
}

impl LossyChannel {
    /// A lossless, jitter-free wrapper — behaves exactly like `base`.
    pub fn ideal(base: Channel) -> Self {
        LossyChannel {
            base,
            jitter_s: 0.0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
        }
    }

    /// Builds the channel a [`FaultPlan`] describes over a base transfer
    /// model.
    pub fn from_plan(base: Channel, plan: &FaultPlan) -> Self {
        LossyChannel {
            base,
            jitter_s: plan.jitter_s,
            drop_rate: plan.drop_rate,
            duplicate_rate: plan.duplicate_rate,
            reorder_rate: plan.reorder_rate,
        }
    }

    /// Whether the channel can ever deviate from its base model.
    pub fn is_ideal(&self) -> bool {
        self.jitter_s == 0.0 && self.drop_rate == 0.0 && self.duplicate_rate == 0.0 && self.reorder_rate == 0.0
    }

    /// Simulates one message leg of `bits` bits.
    pub fn transmit<R: Rng + ?Sized>(&self, bits: u64, rng: &mut R) -> Delivery {
        // Fixed draw order keeps the stream identical whatever the rates
        // are: drop, jitter, duplicate, reorder.
        let dropped = self.drop_rate > 0.0 && rng.gen::<f64>() < self.drop_rate;
        let jitter = if self.jitter_s > 0.0 { rng.gen::<f64>() * self.jitter_s } else { 0.0 };
        let duplicated = self.duplicate_rate > 0.0 && rng.gen::<f64>() < self.duplicate_rate;
        let reordered = self.reorder_rate > 0.0 && rng.gen::<f64>() < self.reorder_rate;
        if dropped {
            return Delivery::Dropped;
        }
        let mut latency_s = self.base.transfer_s(bits) + jitter;
        if reordered {
            // Overtaken: the message sits behind the traffic that passed
            // it, one extra base-latency-plus-jitter window.
            latency_s += self.base.latency_s + self.jitter_s;
        }
        Delivery::Delivered { latency_s, duplicated, reordered }
    }

    /// Parses the CLI channel syntax: a preset name optionally followed by
    /// `key=value` overrides, e.g. `sensor`, `lan,jitter-ms=2`,
    /// `satellite,drop=0.1,dup=0.02,reorder=0.05`.
    ///
    /// Presets: `sensor` (250 kbit/s, 2 ms — the paper's 802.15.4-class
    /// link), `lan` (100 Mbit/s, 0.2 ms), `satellite` (1 Mbit/s, 280 ms).
    /// Unset stochastic knobs fall back to the values in `plan`, so
    /// `--channel sensor --fault-plan drop=0.1` behaves as expected.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown preset or key.
    pub fn parse(spec: &str, plan: &FaultPlan) -> Result<Self, String> {
        let mut entries = spec.split(',').map(str::trim).filter(|e| !e.is_empty());
        let preset = entries.next().unwrap_or("sensor");
        let base = match preset {
            "sensor" => Channel::sensor_link(),
            "lan" => Channel { bandwidth_bps: 100e6, latency_s: 0.0002 },
            "satellite" => Channel { bandwidth_bps: 1e6, latency_s: 0.280 },
            other => return Err(format!("unknown channel preset `{other}` (expected sensor, lan, or satellite)")),
        };
        let mut channel = LossyChannel::from_plan(base, plan);
        for entry in entries {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("channel entry `{entry}` is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v.parse().map_err(|_| format!("`{key}`: cannot parse `{v}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("`{key}`: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "drop" => channel.drop_rate = rate(value)?,
                "dup" => channel.duplicate_rate = rate(value)?,
                "reorder" => channel.reorder_rate = rate(value)?,
                "jitter-ms" => channel.jitter_s = parse_jitter_ms(value)?,
                other => return Err(format!("unknown channel key `{other}`")),
            }
        }
        Ok(channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ideal_channel_matches_base_model() {
        let ch = LossyChannel::ideal(Channel::sensor_link());
        assert!(ch.is_ideal());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..32 {
            match ch.transmit(1000, &mut rng) {
                Delivery::Delivered { latency_s, duplicated, reordered } => {
                    assert!((latency_s - ch.base.transfer_s(1000)).abs() < 1e-12);
                    assert!(!duplicated && !reordered);
                }
                Delivery::Dropped => panic!("ideal channels never drop"),
            }
        }
    }

    #[test]
    fn drop_rate_is_respected_statistically() {
        let mut ch = LossyChannel::ideal(Channel::sensor_link());
        ch.drop_rate = 0.5;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let drops = (0..1000)
            .filter(|_| matches!(ch.transmit(64, &mut rng), Delivery::Dropped))
            .count();
        assert!((350..=650).contains(&drops), "≈500 of 1000 at p=0.5, got {drops}");
    }

    #[test]
    fn jitter_and_reorder_add_latency() {
        let mut ch = LossyChannel::ideal(Channel::sensor_link());
        ch.jitter_s = 0.010;
        ch.reorder_rate = 1.0;
        let floor = ch.base.transfer_s(64) + ch.base.latency_s;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..16 {
            let Delivery::Delivered { latency_s, reordered, .. } = ch.transmit(64, &mut rng) else {
                panic!("no drops configured");
            };
            assert!(reordered);
            assert!(latency_s >= floor, "{latency_s} vs floor {floor}");
            assert!(latency_s <= floor + 2.0 * ch.jitter_s + 1e-12);
        }
    }

    #[test]
    fn same_seed_same_delivery_stream() {
        let mut ch = LossyChannel::ideal(Channel::sensor_link());
        ch.drop_rate = 0.3;
        ch.jitter_s = 0.004;
        ch.duplicate_rate = 0.2;
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..64).map(|_| ch.transmit(512, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should diverge");
    }

    #[test]
    fn parse_presets_and_overrides() {
        let plan = FaultPlan::clean(0).with_drops(0.1);
        let ch = LossyChannel::parse("sensor", &plan).expect("preset ok");
        assert_eq!(ch.drop_rate, 0.1, "plan rates flow through");
        let ch = LossyChannel::parse("lan,drop=0.25,jitter-ms=3", &plan).expect("overrides ok");
        assert_eq!(ch.drop_rate, 0.25, "explicit channel keys win");
        assert!((ch.jitter_s - 0.003).abs() < 1e-12);
        assert!(ch.base.bandwidth_bps > 1e7);
        assert!(LossyChannel::parse("carrier-pigeon", &plan).is_err());
        assert!(LossyChannel::parse("sensor,bogus=1", &plan).is_err());
        for bad in ["nan", "inf", "-1"] {
            let err = LossyChannel::parse(&format!("sensor,jitter-ms={bad}"), &plan).expect_err("invalid jitter");
            assert!(err.contains("jitter-ms") && err.contains("finite"), "jitter-ms={bad}: {err}");
        }
    }
}
