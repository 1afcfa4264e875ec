//! The [`FaultPlan`] DSL: one seeded, declarative description of every
//! fault a scenario injects.
//!
//! A plan covers all four layers the robustness analysis cares about:
//!
//! | Layer      | Knobs                                   | Paper attack / failure it models        |
//! |------------|-----------------------------------------|-----------------------------------------|
//! | PUF        | `flip_rate`, `burst_weight/_period`     | excess noise vs. BCH t = 7 (§4.1)       |
//! | Transport  | `drop_rate`, `duplicate_rate`, `reorder_rate`, `jitter_ms` | lossy sensor links vs. the δ bound |
//! | Clock      | `clock_skew`, `overclock`               | honest drift vs. the §4.2 overclock attack |
//! | Memory     | `tamper_at_attempt`                     | mid-traversal TOCTOU rewrite (§4)       |
//!
//! Plans are plain data: two runs from the same plan and the same seeds
//! produce identical verdict sequences, which is what makes chaos results
//! reportable.

use pufatt::ResponseFault;
use std::fmt;

/// A complete, seeded description of the faults injected into one
/// attestation scenario. Build one with [`FaultPlan::clean`] plus the
/// `with_*` combinators, or parse the CLI syntax with [`FaultPlan::parse`].
///
/// All rates are probabilities in `[0, 1]`; all factors are multiplicative
/// with `1.0` meaning "nominal".
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was built with ([`FaultPlan::clean`],
    /// [`FaultPlan::parse`]). Nothing in this crate or the fleet draws from
    /// it: PUF faults draw from the device's own noise stream, link faults
    /// from the RNG the caller hands [`crate::run_chaos_session`], and a
    /// campaign derives its per-device streams from its own
    /// `CampaignConfig::seed`. A caller may seed that session RNG from it,
    /// as the crate example does.
    pub seed: u64,
    /// Independent per-bit flip probability on every raw PUF response.
    pub flip_rate: f64,
    /// Exact weight of the contiguous flip burst injected into raw PUF
    /// responses (0 disables bursts).
    pub burst_weight: u32,
    /// A burst lands on every `burst_period`-th raw evaluation
    /// (1 = every evaluation, 0 = never).
    pub burst_period: u32,
    /// Probability that a protocol message is dropped in transit.
    pub drop_rate: f64,
    /// Probability that a delivered message arrives twice.
    pub duplicate_rate: f64,
    /// Probability that a delivered message is overtaken by a later one
    /// (modelled as an extra latency penalty in a lockstep session).
    pub reorder_rate: f64,
    /// Upper bound of the uniform extra latency added per message leg, in
    /// seconds.
    pub jitter_s: f64,
    /// Honest clock drift: the prover's clock runs at `clock_skew ×`
    /// F_base with the PUF *uncoupled* (pure timing error; responses stay
    /// clean but slow provers trip the δ bound).
    pub clock_skew: f64,
    /// Overclocking attack factor: the clock is raised with the PUF
    /// *coupled*, so arbiter setup violations corrupt responses (§4.2).
    pub overclock: f64,
    /// Inject a mid-traversal memory tamper on this 1-based attempt of
    /// every session (`None` = never).
    pub tamper_at_attempt: Option<u32>,
}

impl FaultPlan {
    /// A plan that injects nothing — the clean baseline every chaos run is
    /// compared against.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            flip_rate: 0.0,
            burst_weight: 0,
            burst_period: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            jitter_s: 0.0,
            clock_skew: 1.0,
            overclock: 1.0,
            tamper_at_attempt: None,
        }
    }

    /// Adds independent per-bit PUF response flips.
    pub fn with_bit_flips(mut self, rate: f64) -> Self {
        self.flip_rate = rate;
        self
    }

    /// Adds an exact-weight contiguous flip burst every `period`-th raw
    /// evaluation.
    pub fn with_burst(mut self, weight: u32, period: u32) -> Self {
        self.burst_weight = weight;
        self.burst_period = period;
        self
    }

    /// Adds message drops.
    pub fn with_drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Adds uniform latency jitter (milliseconds, for symmetry with the
    /// CLI syntax).
    pub fn with_jitter_ms(mut self, jitter_ms: f64) -> Self {
        self.jitter_s = jitter_ms * 1e-3;
        self
    }

    /// Sets honest clock drift (uncoupled; `1.05` = 5 % slow-side error
    /// budget consumed).
    pub fn with_clock_skew(mut self, factor: f64) -> Self {
        self.clock_skew = factor;
        self
    }

    /// Injects a mid-traversal memory tamper on the given 1-based attempt
    /// of every session.
    pub fn with_mid_traversal_tamper(mut self, attempt: u32) -> Self {
        self.tamper_at_attempt = Some(attempt.max(1));
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.response_fault().is_none()
            && self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.jitter_s == 0.0
            && self.clock_skew == 1.0
            && self.overclock == 1.0
            && self.tamper_at_attempt.is_none()
    }

    /// The PUF-layer part of the plan as the core crate's injection hook
    /// (`None` when the plan leaves responses clean).
    pub fn response_fault(&self) -> Option<ResponseFault> {
        let fault = ResponseFault {
            flip_probability: self.flip_rate,
            burst_weight: self.burst_weight,
            burst_period: self.burst_period,
        };
        fault.is_active().then_some(fault)
    }

    /// Parses the CLI fault-plan syntax: comma-separated `key=value`
    /// entries, e.g. `flip=0.01,burst=9@4,drop=0.05,dup=0.02,reorder=0.01,
    /// jitter-ms=2,skew=1.05,overclock=2.0,tamper=1`.
    ///
    /// | Key         | Value                | Meaning                                   |
    /// |-------------|----------------------|-------------------------------------------|
    /// | `flip`      | rate ∈ \[0, 1\]      | per-bit PUF response flips                |
    /// | `burst`     | `weight@period`      | exact-weight burst every Nth evaluation   |
    /// | `drop`      | rate ∈ \[0, 1\]      | message drops                             |
    /// | `dup`       | rate ∈ \[0, 1\]      | message duplication                       |
    /// | `reorder`   | rate ∈ \[0, 1\]      | message reordering                        |
    /// | `jitter-ms` | milliseconds ≥ 0     | uniform extra latency per leg             |
    /// | `skew`      | factor > 0           | honest clock drift (PUF uncoupled)        |
    /// | `overclock` | factor > 0           | coupled overclock attack                  |
    /// | `tamper`    | attempt ≥ 1          | mid-traversal memory tamper               |
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key or out-of-range
    /// value.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::clean(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{entry}` is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v.parse().map_err(|_| format!("`{key}`: cannot parse `{v}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("`{key}`: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            let factor = |v: &str| -> Result<f64, String> {
                let f: f64 = v.parse().map_err(|_| format!("`{key}`: cannot parse `{v}`"))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(format!("`{key}`: factor must be positive and finite, got {f}"));
                }
                Ok(f)
            };
            match key {
                "flip" => plan.flip_rate = rate(value)?,
                "burst" => {
                    let (weight, period) = value
                        .split_once('@')
                        .ok_or_else(|| format!("`burst` must be weight@period, got `{value}`"))?;
                    plan.burst_weight = weight.parse().map_err(|_| format!("`burst`: bad weight `{weight}`"))?;
                    plan.burst_period = period.parse().map_err(|_| format!("`burst`: bad period `{period}`"))?;
                    if plan.burst_period == 0 {
                        return Err("`burst`: period must be ≥ 1 (0 disables, so omit the key)".into());
                    }
                }
                "drop" => plan.drop_rate = rate(value)?,
                "dup" => plan.duplicate_rate = rate(value)?,
                "reorder" => plan.reorder_rate = rate(value)?,
                "jitter-ms" => plan.jitter_s = parse_jitter_ms(value)?,
                "skew" => plan.clock_skew = factor(value)?,
                "overclock" => plan.overclock = factor(value)?,
                "tamper" => {
                    let attempt: u32 = value.parse().map_err(|_| format!("`tamper`: bad attempt `{value}`"))?;
                    if attempt == 0 {
                        return Err("`tamper`: attempts are 1-based".into());
                    }
                    plan.tamper_at_attempt = Some(attempt);
                }
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Parses a `jitter-ms` value (finite milliseconds ≥ 0) into seconds; the
/// fault-plan and channel syntaxes share it.
pub(crate) fn parse_jitter_ms(value: &str) -> Result<f64, String> {
    let ms: f64 = value.parse().map_err(|_| format!("`jitter-ms`: cannot parse `{value}`"))?;
    if !(ms.is_finite() && ms >= 0.0) {
        return Err(format!("`jitter-ms`: must be finite and ≥ 0, got {ms}"));
    }
    Ok(ms * 1e-3)
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut parts = Vec::new();
        if self.flip_rate > 0.0 {
            parts.push(format!("flip={}", self.flip_rate));
        }
        if self.burst_weight > 0 && self.burst_period > 0 {
            parts.push(format!("burst={}@{}", self.burst_weight, self.burst_period));
        }
        if self.drop_rate > 0.0 {
            parts.push(format!("drop={}", self.drop_rate));
        }
        if self.duplicate_rate > 0.0 {
            parts.push(format!("dup={}", self.duplicate_rate));
        }
        if self.reorder_rate > 0.0 {
            parts.push(format!("reorder={}", self.reorder_rate));
        }
        if self.jitter_s > 0.0 {
            parts.push(format!("jitter-ms={}", self.jitter_s * 1e3));
        }
        if self.clock_skew != 1.0 {
            parts.push(format!("skew={}", self.clock_skew));
        }
        if self.overclock != 1.0 {
            parts.push(format!("overclock={}", self.overclock));
        }
        if let Some(at) = self.tamper_at_attempt {
            parts.push(format!("tamper={at}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_clean() {
        let plan = FaultPlan::clean(7);
        assert!(plan.is_clean());
        assert!(plan.response_fault().is_none());
        assert_eq!(plan.to_string(), "clean");
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::clean(1)
            .with_bit_flips(0.01)
            .with_burst(9, 4)
            .with_drops(0.1)
            .with_jitter_ms(2.0)
            .with_clock_skew(1.05);
        assert!(!plan.is_clean());
        let fault = plan.response_fault().expect("active fault");
        assert_eq!(fault.burst_weight, 9);
        assert!((plan.jitter_s - 0.002).abs() < 1e-12);
    }

    #[test]
    fn parse_round_trips_display() {
        let spec = "flip=0.02,burst=9@4,drop=0.05,dup=0.01,reorder=0.03,jitter-ms=2,skew=1.05,overclock=2,tamper=1";
        let plan = FaultPlan::parse(spec, 42).expect("valid spec");
        let reparsed = FaultPlan::parse(&plan.to_string(), 42).expect("display is parseable");
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("flip=2.0", 0).is_err(), "rate above 1");
        assert!(FaultPlan::parse("bogus=1", 0).is_err(), "unknown key");
        assert!(FaultPlan::parse("burst=9", 0).is_err(), "burst needs @period");
        assert!(FaultPlan::parse("burst=9@0", 0).is_err(), "zero period");
        assert!(FaultPlan::parse("skew=0", 0).is_err(), "zero factor");
        for bad in ["nan", "inf", "-inf"] {
            for key in ["jitter-ms", "skew", "overclock"] {
                let err = FaultPlan::parse(&format!("{key}={bad}"), 0).expect_err("non-finite value");
                assert!(err.contains(key) && err.contains("finite"), "{key}={bad}: {err}");
            }
        }
        assert!(FaultPlan::parse("jitter-ms=-1", 0).is_err(), "negative jitter");
        assert!(FaultPlan::parse("tamper=0", 0).is_err(), "attempts are 1-based");
        assert!(FaultPlan::parse("flip", 0).is_err(), "missing value");
    }

    #[test]
    fn parse_of_empty_spec_is_clean() {
        assert!(FaultPlan::parse("", 3).expect("empty ok").is_clean());
    }
}
