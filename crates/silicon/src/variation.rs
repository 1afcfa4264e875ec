//! Process-variation modelling: the quad-tree threshold-voltage model.
//!
//! The paper follows Cline et al. (ICCAD 2006): intra-die variation is
//! spatially correlated, which is captured by a hierarchy of grids. Level
//! `l` divides the die into 2^l × 2^l cells, each holding an independent
//! Gaussian deviate; a gate's threshold-voltage shift is the sum of the
//! deviates of the cells containing it across all levels, plus a purely
//! random (white) per-gate component. Gates that are physically close share
//! most levels and therefore receive correlated shifts — exactly why the
//! paper places the two redundant ALUs side by side.
//!
//! Following the paper (and Pan et al., DAC 2009), the total variation obeys
//! σ/µ = 0.1 on V_th at the 45 nm node.

use crate::delay::{DelayModel, Technology};
use crate::env::Environment;
use crate::netlist::Netlist;
use rand::Rng;

/// Configuration for the quad-tree variation model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadTreeModel {
    /// Number of hierarchy levels (excluding the white-noise component).
    pub levels: u32,
    /// Fraction of total V_th *variance* assigned to the spatially
    /// correlated levels (split equally among them); the remainder is
    /// white per-gate noise.
    pub correlated_fraction: f64,
    /// Die edge length in µm; placements are clamped into this square.
    pub die_size_um: f64,
}

impl QuadTreeModel {
    /// The configuration used throughout the reproduction: 4 levels, half of
    /// the variance spatially correlated, a 100 µm macro region.
    pub fn paper_default() -> Self {
        QuadTreeModel { levels: 4, correlated_fraction: 0.5, die_size_um: 100.0 }
    }
}

impl Default for QuadTreeModel {
    fn default() -> Self {
        QuadTreeModel::paper_default()
    }
}

/// Draws chips (per-gate threshold-voltage assignments) from the process.
#[derive(Debug, Clone, Default)]
pub struct ChipSampler {
    technology: Technology,
    model: QuadTreeModel,
    sigma_ratio: f64,
}

impl ChipSampler {
    /// Creates a sampler with the paper's parameters: 45 nm technology,
    /// quad-tree model, σ/µ = 0.1 on V_th.
    pub fn new() -> Self {
        ChipSampler {
            technology: Technology::node_45nm(),
            model: QuadTreeModel::paper_default(),
            sigma_ratio: 0.1,
        }
    }

    /// The technology this sampler draws devices in.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Total V_th standard deviation in volts.
    pub fn sigma_vth(&self) -> f64 {
        self.sigma_ratio * self.technology.vth_nominal
    }

    /// Samples one manufactured chip: a threshold voltage for every gate in
    /// `netlist`, spatially correlated through the quad-tree.
    pub fn sample<R: Rng + ?Sized>(&self, netlist: &Netlist, rng: &mut R) -> Chip {
        let sigma_total = self.sigma_vth();
        let var_total = sigma_total * sigma_total;
        let levels = self.model.levels.max(1);
        let var_per_level = var_total * self.model.correlated_fraction / levels as f64;
        let sigma_level = var_per_level.sqrt();
        let sigma_white = (var_total * (1.0 - self.model.correlated_fraction)).sqrt();

        // Draw the grids. Level l has 2^l x 2^l cells; we store them flat and
        // lazily index by placement.
        let mut grids: Vec<Vec<f64>> = Vec::with_capacity(levels as usize);
        for l in 0..levels {
            let n = 1usize << l;
            let cells = n * n;
            grids.push((0..cells).map(|_| gaussian(rng) * sigma_level).collect());
        }

        let die = self.model.die_size_um;
        let vth = netlist
            .gates()
            .iter()
            .map(|g| {
                let fx = (g.placement.x / die).clamp(0.0, 0.999_999);
                let fy = (g.placement.y / die).clamp(0.0, 0.999_999);
                let mut dv = gaussian(rng) * sigma_white;
                for (l, grid) in grids.iter().enumerate() {
                    let n = 1usize << l;
                    let cx = (fx * n as f64) as usize;
                    let cy = (fy * n as f64) as usize;
                    dv += grid[cy * n + cx];
                }
                self.technology.vth_nominal + dv
            })
            .collect();

        Chip { vth, technology: self.technology.clone() }
    }
}

/// A manufactured chip: the per-gate threshold voltages of one die, plus the
/// technology it was fabricated in.
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    vth: Vec<f64>,
    technology: Technology,
}

impl Chip {
    /// Creates a chip directly from per-gate threshold voltages (used for
    /// golden/reference chips in tests).
    pub fn from_vth(vth: Vec<f64>, technology: Technology) -> Self {
        Chip { vth, technology }
    }

    /// Per-gate threshold voltages in volts.
    pub fn vth(&self) -> &[f64] {
        &self.vth
    }

    /// The chip's technology.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Per-gate propagation delays (ps) at an operating point.
    ///
    /// This is the "gate-level delay table" the paper's trusted enrollment
    /// interface reads out, and the input to both the event simulator and
    /// the verifier-side PUF emulator.
    ///
    /// # Panics
    ///
    /// Panics if the chip was sampled for a different netlist (gate counts
    /// disagree).
    pub fn gate_delays(&self, netlist: &Netlist, env: &Environment) -> Vec<f64> {
        DelayModel::new(&self.technology).netlist_delays_ps(netlist, &self.vth, env)
    }

    /// [`Chip::gate_delays`] over a shared, precomputed fanout adjacency —
    /// the per-instance fast path (the adjacency is a property of the
    /// design, not the chip, so it is built once and reused).
    ///
    /// # Panics
    ///
    /// Panics if the chip or the CSR was built for a different netlist.
    pub fn gate_delays_with(
        &self,
        netlist: &Netlist,
        env: &Environment,
        fanouts: &crate::netlist::FanoutCsr,
    ) -> Vec<f64> {
        DelayModel::new(&self.technology).netlist_delays_ps_with(netlist, &self.vth, env, fanouts)
    }
}

/// Standard normal deviate via Box–Muller (avoids depending on
/// `rand_distr`; `rand` alone is in the approved dependency set).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ripple_carry_adder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn adder_netlist() -> Netlist {
        let mut nl = Netlist::new();
        ripple_carry_adder(&mut nl, 8, "alu");
        nl
    }

    #[test]
    fn sigma_matches_configuration() {
        let nl = adder_netlist();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Pool Vth deviations over many chips; the sample sigma must approach
        // the configured sigma.
        let mut devs = Vec::new();
        for _ in 0..200 {
            let chip = sampler.sample(&nl, &mut rng);
            for &v in chip.vth() {
                devs.push(v - sampler.technology().vth_nominal);
            }
        }
        let n = devs.len() as f64;
        let mean = devs.iter().sum::<f64>() / n;
        let var = devs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        let sigma = var.sqrt();
        let target = sampler.sigma_vth();
        assert!((sigma - target).abs() / target < 0.1, "sigma {sigma} vs target {target}");
        assert!(mean.abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn nearby_gates_are_correlated() {
        // Two gates at the same placement share all quad-tree levels, so
        // their Vth correlation must exceed the correlated fraction; distant
        // gates share only the level-0 cell.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        nl.place_at(10.0, 10.0);
        let g0 = nl.not(a);
        let g1 = nl.not(g0);
        nl.place_at(90.0, 90.0);
        let _g2 = nl.not(g1);

        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut near = Vec::new();
        let mut far = Vec::new();
        for _ in 0..800 {
            let chip = sampler.sample(&nl, &mut rng);
            let d: Vec<f64> = chip.vth().iter().map(|v| v - sampler.technology().vth_nominal).collect();
            near.push((d[0], d[1]));
            far.push((d[0], d[2]));
        }
        let corr = |pairs: &[(f64, f64)]| {
            let n = pairs.len() as f64;
            let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
            let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
            let cov = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
            let sx = (pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n).sqrt();
            let sy = (pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n).sqrt();
            cov / (sx * sy)
        };
        let c_near = corr(&near);
        let c_far = corr(&far);
        assert!(c_near > 0.35, "near correlation {c_near}");
        assert!(c_near > c_far + 0.15, "near {c_near} vs far {c_far}");
    }

    #[test]
    fn chips_differ_from_each_other() {
        let nl = adder_netlist();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = sampler.sample(&nl, &mut rng);
        let b = sampler.sample(&nl, &mut rng);
        assert_ne!(a.vth(), b.vth());
    }

    #[test]
    fn delays_positive_at_all_paper_corners() {
        let nl = adder_netlist();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let chip = sampler.sample(&nl, &mut rng);
        for env in Environment::voltage_sweep(3)
            .into_iter()
            .chain(Environment::temperature_sweep(3))
        {
            let d = chip.gate_delays(&nl, &env);
            assert!(d.iter().all(|&x| x.is_finite() && x > 0.0), "corner {env}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = adder_netlist();
        let sampler = ChipSampler::new();
        let a = sampler.sample(&nl, &mut ChaCha8Rng::seed_from_u64(42));
        let b = sampler.sample(&nl, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a.vth(), b.vth());
    }
}
