//! The three workloads and the inputs each one generates from its seed.
//!
//! Everything a run feeds the system — the campaign configuration (and
//! through its seed every device's silicon, noise and tamper draw), the
//! fleet's device ids and their connection and lane, and the devices whose
//! verdict sequences the correctness check replays — is a pure function of
//! the workload and the `--seed` argument.
//!
//! The fleet is stratified: every lane holds exactly its share of tampered
//! devices. Revoked devices' refusals are nearly free, so a seed that drew
//! more tampered devices would otherwise run a cheaper mix.

use pufatt_alupuf::AluPufConfig;
use pufatt_fleet::campaign::{device_is_tampered, small_test_config, CampaignConfig};
use pufatt_fleet::DeviceId;
use pufatt_swatt::checksum::SwattParams;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One traffic mix the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16-bit PUF, 128 rounds, in memory, 8 sessions in flight per
    /// connection: socket, reader, dispatch and reply-write overhead.
    ToyClosed,
    /// Paper-scale PUF and checksum, in memory, 1 session in flight per
    /// connection: prover simulation, emulation and ECC.
    PaperClosed,
    /// `ToyClosed`'s traffic on a journaled service with 5 ms group commit.
    ToyJournaled,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::ToyClosed, Workload::PaperClosed, Workload::ToyJournaled];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ToyClosed => "toy-closed",
            Workload::PaperClosed => "paper-closed",
            Workload::ToyJournaled => "toy-journaled",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the service is journaled through a sharded store.
    pub fn journaled(self) -> bool {
        self == Workload::ToyJournaled
    }
}

/// The scale of a run: the full benchmark or the smoke size tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// A fleet small enough for a unit test.
    Smoke,
}

/// Everything one run feeds the system, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The `--seed` argument.
    pub seed: u64,
    /// The served campaign (verdict-affecting configuration).
    pub campaign: CampaignConfig,
    /// Client connections, one client thread each.
    pub connections: usize,
    /// Sessions each connection keeps in flight (one per lane).
    pub in_flight: usize,
    /// `lanes[conn][lane]` lists the devices that lane attests, in order.
    /// A lane runs one session at a time, so each device's requests stay
    /// in order. Connection `c` holds the ids `≡ c (mod connections)`, as
    /// the load generator assigns them, and every lane the same number of
    /// devices and of tampered devices.
    pub lanes: Vec<Vec<Vec<DeviceId>>>,
    /// Devices whose socket verdict sequences are replayed in process.
    pub check_devices: Vec<DeviceId>,
    /// Full passes over its devices every lane completes before the timed
    /// phase may start (every tampered device is revoked by then).
    pub warm_rounds: u32,
    /// Passes per lane in the traced, fixed-work socket replay (and over
    /// the fleet in its in-process replays).
    pub traced_rounds: u32,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let campaign_seed = splitmix64(seed ^ 0xBE7C_A11A);
        let smoke = scale == Scale::Smoke;
        let (mut campaign, in_flight, checked) = match workload {
            Workload::ToyClosed | Workload::ToyJournaled => {
                let devices = if smoke { 64 } else { 2048 };
                (small_test_config(devices, 2, campaign_seed), 8, if smoke { 8 } else { 32 })
            }
            Workload::PaperClosed => {
                let cfg = CampaignConfig {
                    devices: if smoke { 8 } else { 192 },
                    seed: campaign_seed,
                    puf: AluPufConfig::paper_32bit(),
                    params: SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
                    ..CampaignConfig::default()
                };
                (cfg, 1, if smoke { 2 } else { 6 })
            }
        };
        if workload.journaled() {
            campaign.commit_interval_s = 0.005;
        }
        let connections = 2;
        let lanes = stratified_lanes(&campaign, connections, in_flight);
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ 0xC4EC));
        let mut ids: Vec<DeviceId> = lanes.iter().flatten().flatten().copied().collect();
        ids.sort_unstable();
        ids.shuffle(&mut rng);
        let mut check_devices = ids[..checked].to_vec();
        check_devices.sort_unstable();
        let paper = workload == Workload::PaperClosed;
        Inputs {
            workload,
            seed,
            campaign,
            connections,
            in_flight,
            lanes,
            check_devices,
            warm_rounds: if smoke { 1 } else { 5 },
            traced_rounds: match (smoke, paper) {
                (true, _) => 2,
                (false, true) => 6,
                (false, false) => 12,
            },
            setups: if smoke { 1 } else { 5 },
        }
    }

    /// Devices in the fleet.
    pub fn devices(&self) -> usize {
        self.campaign.devices
    }

    /// Every device id of the fleet, ascending.
    pub fn fleet(&self) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self.lanes.iter().flatten().flatten().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The devices connection `conn` enrolls and attests.
    pub fn devices_of(&self, conn: usize) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self.lanes[conn].iter().flatten().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Fills `connections × in_flight` lanes with `campaign.devices` ids, the
/// lowest ids of each connection's residue class that give every lane
/// `round(per_lane × tamper_fraction)` tampered devices.
fn stratified_lanes(campaign: &CampaignConfig, connections: usize, in_flight: usize) -> Vec<Vec<Vec<DeviceId>>> {
    let per_lane = campaign.devices / (connections * in_flight);
    let tampered_per_lane = (per_lane as f64 * campaign.tamper_fraction).round() as usize;
    let mut lanes = vec![vec![Vec::with_capacity(per_lane); in_flight]; connections];
    for (conn, conn_lanes) in lanes.iter_mut().enumerate() {
        let (mut tampered, mut honest) = (0, 0);
        let mut id = conn as DeviceId;
        while tampered + honest < per_lane * in_flight {
            let (count, quota) = if device_is_tampered(campaign.seed, id, campaign.tamper_fraction) {
                (&mut tampered, tampered_per_lane)
            } else {
                (&mut honest, per_lane - tampered_per_lane)
            };
            if *count < quota * in_flight {
                // Round-robin each kind over the lanes.
                conn_lanes[*count % in_flight].push(id);
                *count += 1;
            }
            id += connections as DeviceId;
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7, Scale::Full);
            let b = Inputs::generate(w, 7, Scale::Full);
            assert_eq!(a.campaign.seed, b.campaign.seed);
            assert_eq!(format!("{:?}", a.campaign), format!("{:?}", b.campaign));
            assert_eq!(a.lanes, b.lanes);
            assert_eq!(a.check_devices, b.check_devices);
            let c = Inputs::generate(w, 8, Scale::Full);
            assert_ne!(a.campaign.seed, c.campaign.seed, "{}: the seed reaches the campaign", w.name());
        }
    }

    #[test]
    fn every_lane_runs_the_same_mix() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                let inputs = Inputs::generate(w, seed, Scale::Full);
                let fleet = inputs.fleet();
                assert_eq!(fleet.len(), inputs.devices());
                assert!(fleet.windows(2).all(|p| p[0] < p[1]), "ids are distinct");
                let cfg = &inputs.campaign;
                let tampered = |lane: &Vec<DeviceId>| {
                    lane.iter()
                        .filter(|&&id| device_is_tampered(cfg.seed, id, cfg.tamper_fraction))
                        .count()
                };
                let first = &inputs.lanes[0][0];
                for (conn, lanes) in inputs.lanes.iter().enumerate() {
                    assert_eq!(lanes.len(), inputs.in_flight);
                    for lane in lanes {
                        assert_eq!(lane.len(), first.len());
                        assert_eq!(tampered(lane), tampered(first));
                        assert!(lane.iter().all(|&id| id as usize % inputs.connections == conn));
                    }
                }
                let share = tampered(first) as f64 / first.len() as f64;
                assert!((share - cfg.tamper_fraction).abs() < 0.01, "{}: {share}", w.name());
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
