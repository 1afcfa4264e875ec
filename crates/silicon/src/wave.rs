//! Bit-sliced 64-lane waveform simulation with incremental cone re-evaluation.
//!
//! [`EventSimulator`](crate::sim::EventSimulator) processes one stimulus at a
//! time through a global event queue. That is the right shape for arbitrary
//! sequential use, but the PUF hot path evaluates *batches* of independent
//! challenges against the *same* netlist and delay assignment, and the event
//! queue's per-event bookkeeping (packing, push-time suppression, calendar
//! wheel) dominates the runtime long before the actual gate evaluations do.
//!
//! [`SlicedWaveSimulator`] exploits two structural facts about single-driver
//! transport-delay simulation:
//!
//! 1. **Per-net activity is an ordered toggle list.** Every event the event
//!    simulator pops is a real value change (push-time suppression keeps
//!    pushed values alternating, and per-net push times are monotone because
//!    a gate is re-evaluated at its inputs' toggle times, which arrive in
//!    global time order). So a net's entire waveform is `initial value +
//!    sorted list of toggle times` — no cancellation, no queue.
//! 2. **Gates can be finalised in one topological pass.** A gate's output
//!    waveform is a pure function of its input waveforms: merge the two
//!    input toggle lists in time order, re-evaluate the truth table at each
//!    toggle, and emit an output toggle (shifted by the gate delay) whenever
//!    the output value changes. Netlist insertion order is already
//!    topological, so one forward sweep finalises every net.
//!
//! On top of that list representation, two compounding optimisations:
//!
//! * **Bit-slicing:** 64 independent stimuli ("lanes") are packed into `u64`
//!   masks. A toggle entry is `(time, lane-mask)`; the truth table is
//!   evaluated branchlessly on whole masks. Because all lanes share the
//!   same delay assignment, candidate toggle times are path-delay sums that
//!   coincide heavily across lanes, so the merged time axis grows far more
//!   slowly than 64 scalar runs.
//! * **Incremental cone re-simulation:** the engine keeps the previous run's
//!   waveforms. A primary input is dirty iff its stimulus masks changed; a
//!   gate is dirty iff either input net is dirty. Clean gates keep their
//!   stored waveform untouched and are skipped entirely, so consecutive
//!   stimuli that share most lanes/bits only re-simulate the affected cone.
//!   [`gates_evaluated`](SlicedWaveSimulator::gates_evaluated) /
//!   [`gates_skipped`](SlicedWaveSimulator::gates_skipped) expose the
//!   effect.
//!
//! # Equivalence with the event simulator
//!
//! For netlists whose gate delays are drawn from a continuous distribution
//! (every PUF chip in this workspace), the per-lane values, settling times
//! and transition counts produced here are bit-identical to
//! [`EventSimulator`](crate::sim::EventSimulator) — pinned by the tests in
//! this module and by the engine-equivalence suites in `pufatt-alupuf`. The
//! one semantic difference is tie-breaking of *exactly* equal event times on
//! different nets feeding a common gate: the event simulator orders those by
//! global sequence number, this engine by merge order (first input first).
//! With continuous delays such cross-net ties occur with probability zero;
//! degenerate all-equal delay tables (as some unit tests use) can glitch
//! differently, which affects transition counts but never final values.
//!
//! The engine *owns* all derived tables (no borrow of the source
//! [`Netlist`]), so long-lived endpoints — enrolled verifiers, fleet
//! workers — can cache one engine per thread and amortise construction
//! across calls.

use crate::netlist::{NetId, Netlist};

/// Number of stimulus lanes evaluated per run.
pub const LANES: usize = 64;

/// One waveform step: at time `t`, the lanes in `mask` toggle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    t: f64,
    mask: u64,
}

/// A gate in topological order with its truth table pre-expanded to lane
/// masks: `tt[(a << 1) | b]` is all-ones if the gate outputs 1 for that
/// input combination.
#[derive(Debug, Clone, Copy)]
struct WaveGate {
    in0: u32,
    in1: u32,
    out: u32,
    tt: [u64; 4],
    delay_ps: f64,
}

/// Owned, reusable 64-lane waveform simulator (see module docs).
#[derive(Debug)]
pub struct SlicedWaveSimulator {
    gates: Vec<WaveGate>,
    pis: Vec<u32>,
    /// Per-net steady-state lane values under the `from` stimulus.
    init: Vec<u64>,
    /// Per-net steady-state lane values after the transition settles.
    fin: Vec<u64>,
    /// Per-net toggle waveforms, time-ordered.
    entries: Vec<Vec<Entry>>,
    /// Per-net dirty flags for the current run.
    dirty: Vec<bool>,
    /// Whether `init`/`entries` hold a previous run usable for reuse.
    valid: bool,
    steps: u64,
    gates_evaluated: u64,
    gates_skipped: u64,
}

impl SlicedWaveSimulator {
    /// Builds an engine for `netlist` with per-gate `delays_ps` (indexed by
    /// gate id, as produced by [`Chip::gate_delays`](crate::variation::Chip::gate_delays)).
    ///
    /// All derived tables are copied out of the netlist; the engine has no
    /// further ties to it.
    ///
    /// # Panics
    /// Panics if `delays_ps.len()` does not match the gate count, or if the
    /// netlist is not in single-driver topological insertion order (every
    /// gate's inputs allocated before its output).
    pub fn new(netlist: &Netlist, delays_ps: &[f64]) -> Self {
        assert_eq!(delays_ps.len(), netlist.gates().len(), "delay table length must match gate count");
        let nets = netlist.net_count();
        let mut gates = Vec::with_capacity(netlist.gates().len());
        for ((_, gate), &delay_ps) in netlist.topological_gates().zip(delays_ps.iter()) {
            let mut inputs = gate.input_nets();
            let in0 = inputs.next().map_or(0, |n| n.index() as u32);
            let in1 = inputs.next().map_or(in0, |n| n.index() as u32);
            let out = gate.output.index() as u32;
            assert!((in0 < out) & (in1 < out), "netlist must allocate gate inputs before outputs");
            let tt = gate.kind.truth_table();
            let rows = std::array::from_fn(|row| 0u64.wrapping_sub(u64::from((tt >> row) & 1)));
            gates.push(WaveGate { in0, in1, out, tt: rows, delay_ps });
        }
        let pis: Vec<u32> = netlist.primary_inputs().iter().map(|n| n.index() as u32).collect();
        SlicedWaveSimulator {
            gates,
            pis,
            init: vec![0; nets],
            fin: vec![0; nets],
            entries: vec![Vec::new(); nets],
            dirty: vec![false; nets],
            valid: false,
            steps: 0,
            gates_evaluated: 0,
            gates_skipped: 0,
        }
    }

    /// Rescales per-gate delays in place (same indexing as the constructor)
    /// and invalidates stored waveforms.
    ///
    /// # Panics
    /// Panics if the length does not match the gate count.
    pub fn set_delays_ps(&mut self, delays_ps: &[f64]) {
        assert_eq!(delays_ps.len(), self.gates.len(), "delay table length must match gate count");
        for (gate, &d) in self.gates.iter_mut().zip(delays_ps.iter()) {
            gate.delay_ps = d;
        }
        self.invalidate();
    }

    /// Drops the stored previous run, forcing the next `run_lanes` to
    /// re-evaluate every gate.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Simulates the transition `from -> to` on all 64 lanes at once.
    ///
    /// `from[p]` / `to[p]` give the per-lane value masks of primary input
    /// `p` (in [`Netlist::primary_inputs`] order) before and after the
    /// transition: bit `L` is lane `L`'s value. Lanes whose stimulus is
    /// identical to the previous run's are resolved from the stored
    /// waveforms without touching their cone.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match the primary-input count.
    pub fn run_lanes(&mut self, from: &[u64], to: &[u64]) {
        assert_eq!(from.len(), self.pis.len(), "one from-mask per primary input");
        assert_eq!(to.len(), self.pis.len(), "one to-mask per primary input");
        let reuse = self.valid;
        self.steps = 0;
        self.gates_evaluated = 0;
        self.gates_skipped = 0;

        // Primary inputs: a PI waveform is `init` plus at most one toggle at
        // t=0. It is clean iff both masks match the stored run exactly.
        for (p, &net) in self.pis.iter().enumerate() {
            let n = net as usize;
            let toggle = from[p] ^ to[p];
            let stored_toggle = self.entries[n].first().map_or(0, |e| e.mask);
            let clean = reuse && self.init[n] == from[p] && stored_toggle == toggle;
            self.dirty[n] = !clean;
            if !clean {
                self.init[n] = from[p];
                self.fin[n] = to[p];
                self.entries[n].clear();
                if toggle != 0 {
                    self.entries[n].push(Entry { t: 0.0, mask: toggle });
                }
            }
        }

        // One topological sweep. A gate re-evaluates iff an input net is
        // dirty; otherwise its stored waveform is still exact.
        for gi in 0..self.gates.len() {
            let g = self.gates[gi];
            let (i0, i1, o) = (g.in0 as usize, g.in1 as usize, g.out as usize);
            if !(self.dirty[i0] | self.dirty[i1]) {
                self.dirty[o] = false;
                self.gates_skipped += 1;
                continue;
            }
            self.dirty[o] = true;
            self.gates_evaluated += 1;

            // Inputs have smaller net indices than the output (checked at
            // construction), so split borrows are safe.
            let (head, tail) = self.entries.split_at_mut(o);
            let out_list = &mut tail[0];
            out_list.clear();

            let eval = |va: u64, vb: u64| -> u64 {
                (g.tt[0] & !va & !vb) | (g.tt[1] & !va & vb) | (g.tt[2] & va & !vb) | (g.tt[3] & va & vb)
            };
            let mut va = self.init[i0];
            let mut vb = self.init[i1];
            let mut sched = eval(va, vb);
            self.init[o] = sched;

            if i0 == i1 {
                // Buf/Not (or a degenerate two-pin gate reading one net):
                // a single toggle list, both operands move together.
                let list = &head[i0];
                for e in list {
                    va ^= e.mask;
                    vb = va;
                    let out = eval(va, vb);
                    let diff = out ^ sched;
                    if diff != 0 {
                        out_list.push(Entry { t: e.t + g.delay_ps, mask: diff });
                        sched = out;
                    }
                }
                self.steps += list.len() as u64;
            } else {
                // Time-ordered merge of the two input waveforms. Ties go to
                // the first input, matching the event simulator's sequence
                // order for the t=0 stimulus wave (PI declaration order).
                let a = &head[i0][..];
                let b = &head[i1][..];
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    let take_a = j >= b.len() || (i < a.len() && a[i].t <= b[j].t);
                    let t = if take_a {
                        let e = a[i];
                        i += 1;
                        va ^= e.mask;
                        e.t
                    } else {
                        let e = b[j];
                        j += 1;
                        vb ^= e.mask;
                        e.t
                    };
                    let out = eval(va, vb);
                    let diff = out ^ sched;
                    if diff != 0 {
                        out_list.push(Entry { t: t + g.delay_ps, mask: diff });
                        sched = out;
                    }
                }
                self.steps += (a.len() + b.len()) as u64;
            }
            self.fin[o] = sched;
        }
        self.valid = true;
    }

    /// Final (settled) lane values of `net`: bit `L` is lane `L`'s value.
    pub fn value_lanes(&self, net: NetId) -> u64 {
        self.fin[net.index()]
    }

    /// Final value of `net` on one lane.
    pub fn value(&self, net: NetId, lane: usize) -> bool {
        (self.fin[net.index()] >> lane) & 1 == 1
    }

    /// Per-lane settling times of `net` (time of each lane's last toggle;
    /// 0.0 for lanes that never toggled), written into `out`.
    pub fn settle_lanes_into(&self, net: NetId, out: &mut [f64; LANES]) {
        out.fill(0.0);
        let mut remaining = u64::MAX;
        for e in self.entries[net.index()].iter().rev() {
            let mut newly = e.mask & remaining;
            while newly != 0 {
                let lane = newly.trailing_zeros() as usize;
                out[lane] = e.t;
                newly &= newly - 1;
            }
            remaining &= !e.mask;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Settling time of `net` on one lane (0.0 if the lane never toggled).
    pub fn settle_or_zero(&self, net: NetId, lane: usize) -> f64 {
        let bit = 1u64 << lane;
        for e in self.entries[net.index()].iter().rev() {
            if e.mask & bit != 0 {
                return e.t;
            }
        }
        0.0
    }

    /// Number of value changes `net` saw on one lane during the last run
    /// (or the stored run, for clean cones).
    pub fn transitions_of(&self, net: NetId, lane: usize) -> u32 {
        let bit = 1u64 << lane;
        self.entries[net.index()].iter().filter(|e| e.mask & bit != 0).count() as u32
    }

    /// Merged waveform steps processed by the last run (the engine's unit
    /// of work; clean cones contribute nothing).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Gates re-evaluated by the last run.
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// Gates skipped by the last run because their input cone was clean.
    pub fn gates_skipped(&self) -> u64 {
        self.gates_skipped
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::gen::{ripple_carry_adder, RcaPorts};
    use crate::netlist::Netlist;
    use crate::sim::EventSimulator;

    /// Deterministic continuous-ish pseudo-random delays: distinct values
    /// with full mantissas so cross-net time ties are measure-zero, as on a
    /// real chip.
    fn scrambled_delays(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
                let frac = ((state >> 11) as f64) / ((1u64 << 53) as f64);
                5.0 + 20.0 * frac
            })
            .collect()
    }

    fn lane_stimulus(seed: u64, lanes: usize, width: u32) -> Vec<(u64, u64)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xBF58_476D_1CE4_E5B9);
            (state >> 7) & ((1u64 << width) - 1)
        };
        (0..lanes).map(|_| (next(), next())).collect()
    }

    struct Rca {
        netlist: Netlist,
        ports: RcaPorts,
        delays: Vec<f64>,
    }

    fn rca(width: u32, seed: u64) -> Rca {
        let mut netlist = Netlist::new();
        let ports = ripple_carry_adder(&mut netlist, width as usize, "add");
        let delays = scrambled_delays(netlist.gates().len(), seed);
        Rca { netlist, ports, delays }
    }

    /// One lane's `((a_from, b_from), (a_to, b_to))` operand words.
    type LaneStimulus = ((u64, u64), (u64, u64));

    /// Packs per-lane (a_from, b_from, a_to, b_to) words into PI masks.
    fn pack_lanes(netlist: &Netlist, ports: &RcaPorts, stimuli: &[LaneStimulus]) -> (Vec<u64>, Vec<u64>) {
        let pis = netlist.primary_inputs();
        let mut from = vec![0u64; pis.len()];
        let mut to = vec![0u64; pis.len()];
        let pos_of = |net: NetId| pis.iter().position(|&n| n == net).unwrap();
        for (lane, &((af, bf), (at, bt))) in stimuli.iter().enumerate() {
            for (bit, &net) in ports.a.iter().enumerate() {
                from[pos_of(net)] |= ((af >> bit) & 1) << lane;
                to[pos_of(net)] |= ((at >> bit) & 1) << lane;
            }
            for (bit, &net) in ports.b.iter().enumerate() {
                from[pos_of(net)] |= ((bf >> bit) & 1) << lane;
                to[pos_of(net)] |= ((bt >> bit) & 1) << lane;
            }
        }
        (from, to)
    }

    fn scalar_stimulus(netlist: &Netlist, ports: &RcaPorts, a: u64, b: u64) -> Vec<bool> {
        netlist.input_vector(&[(&ports.a, a), (&ports.b, b)])
    }

    #[test]
    fn half_adder_produces_expected_waveform() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let b = netlist.input("b");
        let sum = netlist.xor2(a, b);
        let carry = netlist.and2(a, b);
        let mut wave = SlicedWaveSimulator::new(&netlist, &[3.0, 5.0]);
        // Lane 0: (a,b) 00 -> 11, lane 1: 10 -> 01, lane 2: idle at 00.
        wave.run_lanes(&[0b010, 0b000], &[0b001, 0b011]);
        assert!(!wave.value(sum, 0) && wave.value(carry, 0));
        assert!(wave.value(sum, 1) && !wave.value(carry, 1));
        assert!(!wave.value(sum, 2) && !wave.value(carry, 2));
        // Lane 0's XOR glitches: a toggles then b toggles, both at t=0, so
        // the merge sees two equal-time steps and emits a zero-width pulse.
        assert_eq!(wave.transitions_of(sum, 0), 2);
        assert_eq!(wave.settle_or_zero(sum, 0), 3.0);
        assert_eq!(wave.settle_or_zero(carry, 0), 5.0);
        assert_eq!(wave.settle_or_zero(sum, 2), 0.0);
    }

    #[test]
    fn all_lanes_match_event_simulator() {
        for width in [4u32, 8, 16] {
            let Rca { netlist, ports, delays } = rca(width, 0xACE0 + u64::from(width));
            let froms = lane_stimulus(0xF00 + u64::from(width), LANES, width);
            let tos = lane_stimulus(0x700 + u64::from(width), LANES, width);
            let stimuli: Vec<_> = froms.into_iter().zip(tos).collect();
            let (from, to) = pack_lanes(&netlist, &ports, &stimuli);

            let mut wave = SlicedWaveSimulator::new(&netlist, &delays);
            wave.run_lanes(&from, &to);

            let mut sim = EventSimulator::new(&netlist, &delays);
            for (lane, &((af, bf), (at, bt))) in stimuli.iter().enumerate() {
                sim.run_transition_in_place(
                    &scalar_stimulus(&netlist, &ports, af, bf),
                    &scalar_stimulus(&netlist, &ports, at, bt),
                );
                for (id, _) in netlist.nets() {
                    assert_eq!(
                        wave.value(id, lane),
                        sim.value(id),
                        "value mismatch width={width} lane={lane} net={id}"
                    );
                    assert_eq!(
                        wave.settle_or_zero(id, lane).to_bits(),
                        sim.settle_or_zero(id).to_bits(),
                        "settle mismatch width={width} lane={lane} net={id}"
                    );
                    assert_eq!(
                        wave.transitions_of(id, lane),
                        sim.transitions_of(id),
                        "transition-count mismatch width={width} lane={lane} net={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn settle_lanes_into_matches_per_lane_accessor() {
        let Rca { netlist, ports, delays } = rca(8, 0xBEEF);
        let stimuli: Vec<_> = lane_stimulus(1, LANES, 8).into_iter().zip(lane_stimulus(2, LANES, 8)).collect();
        let (from, to) = pack_lanes(&netlist, &ports, &stimuli);
        let mut wave = SlicedWaveSimulator::new(&netlist, &delays);
        wave.run_lanes(&from, &to);
        let mut buf = [0.0f64; LANES];
        for &net in ports.sum.iter().chain([ports.cout].iter()) {
            wave.settle_lanes_into(net, &mut buf);
            for (lane, &t) in buf.iter().enumerate() {
                assert_eq!(t.to_bits(), wave.settle_or_zero(net, lane).to_bits());
            }
        }
    }

    #[test]
    fn incremental_reuse_is_bit_identical_and_skips_clean_cones() {
        let Rca { netlist, ports, delays } = rca(16, 0x1DEA);
        let mut reused = SlicedWaveSimulator::new(&netlist, &delays);
        let base: Vec<_> = lane_stimulus(10, LANES, 16)
            .into_iter()
            .zip(lane_stimulus(11, LANES, 16))
            .collect();
        let mut stimuli = base.clone();
        let mut skipped_any = false;
        for round in 0..6u64 {
            // Correlated drift: flip one operand bit of one lane per round.
            if round > 0 {
                let lane = (round as usize * 7) % LANES;
                let ((_, bf), _) = stimuli[lane];
                stimuli[lane].0 .1 = bf ^ (1 << (round % 16));
            }
            let (from, to) = pack_lanes(&netlist, &ports, &stimuli);
            reused.run_lanes(&from, &to);
            let mut fresh = SlicedWaveSimulator::new(&netlist, &delays);
            fresh.run_lanes(&from, &to);
            for (id, _) in netlist.nets() {
                assert_eq!(reused.value_lanes(id), fresh.value_lanes(id), "round {round} net {id}");
                for lane in 0..LANES {
                    assert_eq!(
                        reused.settle_or_zero(id, lane).to_bits(),
                        fresh.settle_or_zero(id, lane).to_bits(),
                        "round {round} net {id} lane {lane}"
                    );
                }
            }
            if round > 0 {
                assert!(reused.gates_skipped() > 0, "correlated rounds must skip clean cones");
                skipped_any = true;
            }
            assert_eq!(reused.gates_evaluated() + reused.gates_skipped(), netlist.gates().len() as u64);
        }
        assert!(skipped_any);
        // Identical stimulus back-to-back: the whole netlist is clean.
        let (from, to) = pack_lanes(&netlist, &ports, &stimuli);
        reused.run_lanes(&from, &to);
        assert_eq!(reused.gates_evaluated(), 0);
        assert_eq!(reused.gates_skipped(), netlist.gates().len() as u64);
        assert_eq!(reused.steps(), 0);
    }

    #[test]
    fn set_delays_rescales_and_invalidates() {
        let Rca { netlist, ports, delays } = rca(8, 0x5CA1);
        let stimuli: Vec<_> = lane_stimulus(3, LANES, 8).into_iter().zip(lane_stimulus(4, LANES, 8)).collect();
        let (from, to) = pack_lanes(&netlist, &ports, &stimuli);
        let mut wave = SlicedWaveSimulator::new(&netlist, &delays);
        wave.run_lanes(&from, &to);
        let doubled: Vec<f64> = delays.iter().map(|d| d * 2.0).collect();
        wave.set_delays_ps(&doubled);
        wave.run_lanes(&from, &to);
        assert_eq!(wave.gates_evaluated(), netlist.gates().len() as u64, "invalidate forces full re-eval");
        let mut fresh = SlicedWaveSimulator::new(&netlist, &doubled);
        fresh.run_lanes(&from, &to);
        for &net in &ports.sum {
            for lane in 0..LANES {
                assert_eq!(wave.settle_or_zero(net, lane).to_bits(), fresh.settle_or_zero(net, lane).to_bits());
            }
        }
    }
}
