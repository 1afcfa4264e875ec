//! Pass 1 — netlist verifier.
//!
//! Operates on a [`CircuitModel`], a plain gate/net graph extracted from a
//! [`pufatt_silicon::Netlist`]. The model is deliberately constructible by
//! hand: the silicon builder makes several of these defects (cycles,
//! multi-driven nets) impossible to *create*, but the verifier must still
//! prove their absence — and the golden tests must be able to seed them —
//! so the pass checks the graph, not the builder.
//!
//! Checks:
//!
//! * `NET001` — combinational loops, found with an iterative Tarjan SCC.
//! * `NET002` — floating nets (no driver, not a primary input).
//! * `NET003` — multi-driven nets (including driven primary inputs).
//! * `NET004` — gates on no primary-input→primary-output path.
//! * `NET005` — a fanout CSR that disagrees with the gate edge list.
//! * `NET006` — arbiter asymmetry: the logic cones feeding each pair of
//!   raced outputs must be structurally isomorphic (same gate kinds, same
//!   topology, same shared leaves). An asymmetric cone biases the race
//!   systematically — a defect the inter/intra-chip Hamming-distance
//!   statistics can only detect after thousands of evaluations, and only
//!   statistically.

use crate::{Diagnostic, LintId};
use pufatt_alupuf::device::AluPufDesign;
use pufatt_silicon::netlist::{FanoutCsr, GateKind, Netlist};
use std::collections::HashMap;

/// One gate of the analysable graph (net references are raw indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitGate {
    /// Logic function.
    pub kind: GateKind,
    /// Input net indices (`kind.arity()` of them).
    pub inputs: Vec<usize>,
    /// Output net index.
    pub output: usize,
}

/// Fanout adjacency to cross-check against the edge list, in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrView {
    /// `net_count + 1` offsets into `targets`.
    pub offsets: Vec<u32>,
    /// Reader gate indices, grouped by net.
    pub targets: Vec<u32>,
}

/// The verifier's input: a gate/net graph plus optional CSR to cross-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitModel {
    /// Display name used in diagnostic locations.
    pub name: String,
    /// Total number of nets.
    pub net_count: usize,
    /// The gates.
    pub gates: Vec<CircuitGate>,
    /// Primary input net indices.
    pub primary_inputs: Vec<usize>,
    /// Primary output net indices.
    pub primary_outputs: Vec<usize>,
    /// Optional net names for diagnostics.
    pub net_names: Vec<Option<String>>,
    /// Optional fanout CSR to verify against the edge list.
    pub csr: Option<CsrView>,
}

impl CircuitModel {
    /// Extracts the model from a netlist plus an externally held CSR (the
    /// one simulators actually use — verifying a freshly built CSR would
    /// only test the builder against itself).
    pub fn from_netlist_with_csr(name: impl Into<String>, netlist: &Netlist, csr: &FanoutCsr) -> Self {
        let gates = netlist
            .gates()
            .iter()
            .map(|g| CircuitGate {
                kind: g.kind,
                inputs: g.input_nets().map(|n| n.index()).collect(),
                output: g.output.index(),
            })
            .collect();
        let mut offsets = Vec::with_capacity(csr.net_count() + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for net in 0..csr.net_count() {
            for &reader in csr.readers_at(net) {
                targets.push(reader.index() as u32);
            }
            offsets.push(targets.len() as u32);
        }
        CircuitModel {
            name: name.into(),
            net_count: netlist.net_count(),
            gates,
            primary_inputs: netlist.primary_inputs().iter().map(|n| n.index()).collect(),
            primary_outputs: netlist.primary_outputs().iter().map(|n| n.index()).collect(),
            net_names: netlist.nets().map(|(_, n)| n.name.clone()).collect(),
            csr: Some(CsrView { offsets, targets }),
        }
    }

    fn net_label(&self, net: usize) -> String {
        match self.net_names.get(net).and_then(|n| n.as_deref()) {
            Some(name) => format!("n{net} ({name})"),
            None => format!("n{net}"),
        }
    }

    fn location(&self, what: &str) -> String {
        format!("netlist {}/{what}", self.name)
    }

    /// Driver gates per net (well-formed graphs have at most one).
    fn drivers(&self) -> Vec<Vec<usize>> {
        let mut d = vec![Vec::new(); self.net_count];
        for (i, g) in self.gates.iter().enumerate() {
            if g.output < self.net_count {
                d[g.output].push(i);
            }
        }
        d
    }

    /// Runs every structural check except the arbiter-symmetry pass (which
    /// needs the raced output pairing — see [`CircuitModel::arbiter_symmetry`]).
    pub fn verify(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let drivers = self.drivers();
        self.check_driven(&drivers, &mut out);
        self.check_loops(&mut out);
        self.check_reachability(&drivers, &mut out);
        self.check_csr(&mut out);
        out
    }

    /// `NET002` + `NET003`.
    fn check_driven(&self, drivers: &[Vec<usize>], out: &mut Vec<Diagnostic>) {
        for (net, d) in drivers.iter().enumerate() {
            let is_pi = self.primary_inputs.contains(&net);
            if d.is_empty() && !is_pi {
                out.push(Diagnostic::new(
                    LintId::FloatingNet,
                    self.location(&format!("net {}", self.net_label(net))),
                    "net has no driving gate and is not a primary input; it reads as a constant X",
                    "connect a driver or declare the net as a primary input",
                ));
            }
            if d.len() > 1 {
                out.push(Diagnostic::new(
                    LintId::MultiDrivenNet,
                    self.location(&format!("net {}", self.net_label(net))),
                    format!("net is driven by {} gates ({:?}); contention makes its value undefined", d.len(), d),
                    "give each gate its own output net and combine them through logic",
                ));
            }
            if !d.is_empty() && is_pi {
                out.push(Diagnostic::new(
                    LintId::MultiDrivenNet,
                    self.location(&format!("net {}", self.net_label(net))),
                    format!("primary input is also driven by gate g{}", d[0]),
                    "primary inputs must be driven only by the testbench",
                ));
            }
        }
    }

    /// `NET001` via iterative Tarjan SCC over the gate graph.
    fn check_loops(&self, out: &mut Vec<Diagnostic>) {
        let n = self.gates.len();
        // successors(g) = gates reading g's output net.
        let mut readers = vec![Vec::new(); self.net_count];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                if inp < self.net_count {
                    readers[inp].push(i);
                }
            }
        }
        let succ = |g: usize| -> &[usize] { &readers[self.gates[g].output] };

        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        // Explicit DFS frames: (gate, next successor position).
        let mut frames: Vec<(usize, usize)> = Vec::new();

        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            frames.push((start, 0));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if *pos < succ(v).len() {
                    let w = succ(v)[*pos];
                    *pos += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // v is the root of an SCC; pop it off.
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().unwrap_or(v);
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop = scc.len() == 1 && succ(scc[0]).contains(&scc[0]);
                        if scc.len() > 1 || self_loop {
                            scc.sort_unstable();
                            let kinds: Vec<String> =
                                scc.iter().map(|&g| format!("g{g}:{}", self.gates[g].kind)).collect();
                            out.push(Diagnostic::new(
                                LintId::CombinationalLoop,
                                self.location(&format!("gates {:?}", scc)),
                                format!(
                                    "combinational cycle through {} gate(s): {}; the netlist has no stable \
                                     evaluation order",
                                    scc.len(),
                                    kinds.join(" -> ")
                                ),
                                "break the cycle with a register or rewire the feedback path",
                            ));
                        }
                    }
                }
            }
        }
    }

    /// `NET004`: gates must be forward-reachable from a primary input and
    /// backward-reachable from a primary output.
    fn check_reachability(&self, drivers: &[Vec<usize>], out: &mut Vec<Diagnostic>) {
        let mut readers = vec![Vec::new(); self.net_count];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                if inp < self.net_count {
                    readers[inp].push(i);
                }
            }
        }
        // Forward: from PI nets through reader gates.
        let mut fwd_gate = vec![false; self.gates.len()];
        let mut fwd_net = vec![false; self.net_count];
        let mut work: Vec<usize> = self.primary_inputs.clone();
        for &n in &work {
            fwd_net[n] = true;
        }
        while let Some(net) = work.pop() {
            for &g in &readers[net] {
                if !fwd_gate[g] && self.gates[g].inputs.iter().all(|&i| fwd_net[i]) {
                    fwd_gate[g] = true;
                    let o = self.gates[g].output;
                    if !fwd_net[o] {
                        fwd_net[o] = true;
                        work.push(o);
                    }
                }
            }
        }
        // Backward: from PO nets through driver gates.
        let mut bwd_gate = vec![false; self.gates.len()];
        let mut bwd_net = vec![false; self.net_count];
        let mut work: Vec<usize> = self.primary_outputs.clone();
        for &n in &work {
            bwd_net[n] = true;
        }
        while let Some(net) = work.pop() {
            for &g in &drivers[net] {
                if !bwd_gate[g] {
                    bwd_gate[g] = true;
                    for &i in &self.gates[g].inputs {
                        if !bwd_net[i] {
                            bwd_net[i] = true;
                            work.push(i);
                        }
                    }
                }
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if !fwd_gate[i] || !bwd_gate[i] {
                let why = match (fwd_gate[i], bwd_gate[i]) {
                    (false, true) => "not fed (transitively) by the primary inputs",
                    (true, false) => "feeds no primary output",
                    _ => "connected to neither primary inputs nor outputs",
                };
                out.push(Diagnostic::new(
                    LintId::UnreachableGate,
                    self.location(&format!("gate g{i} ({})", g.kind)),
                    format!("gate is {why}; it is dead logic the delay model still pays for"),
                    "remove the gate or wire its cone to the design's ports",
                ));
            }
        }
    }

    /// `NET005`: the CSR must encode exactly the edge list, net by net.
    fn check_csr(&self, out: &mut Vec<Diagnostic>) {
        let Some(csr) = &self.csr else { return };
        let loc = |what: &str| self.location(what);
        if csr.offsets.len() != self.net_count + 1 || csr.offsets.first() != Some(&0) {
            out.push(Diagnostic::new(
                LintId::FanoutCsrMismatch,
                loc("fanout CSR"),
                format!(
                    "offset table has {} entries for {} nets (expected {}, starting at 0)",
                    csr.offsets.len(),
                    self.net_count,
                    self.net_count + 1
                ),
                "rebuild the CSR from the netlist edge list",
            ));
            return;
        }
        if csr.offsets.windows(2).any(|w| w[0] > w[1])
            || csr.offsets.last().copied().unwrap_or(0) as usize != csr.targets.len()
        {
            out.push(Diagnostic::new(
                LintId::FanoutCsrMismatch,
                loc("fanout CSR"),
                "offset table is not monotone or does not cover the target array",
                "rebuild the CSR from the netlist edge list",
            ));
            return;
        }
        // Expected readers per net, from the gate edge list.
        let mut expected = vec![Vec::new(); self.net_count];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                if inp < self.net_count {
                    expected[inp].push(i as u32);
                }
            }
        }
        for (net, want) in expected.iter().enumerate() {
            let lo = csr.offsets[net] as usize;
            let hi = csr.offsets[net + 1] as usize;
            let mut got: Vec<u32> = csr.targets[lo..hi].to_vec();
            got.sort_unstable();
            let mut want = want.clone();
            want.sort_unstable();
            if got != want {
                out.push(Diagnostic::new(
                    LintId::FanoutCsrMismatch,
                    loc(&format!("net {}", self.net_label(net))),
                    format!("CSR lists readers {got:?} but the edge list has {want:?}"),
                    "rebuild the CSR from the netlist edge list",
                ));
            }
        }
    }

    /// `NET006`: the logic cones feeding each `(left, right)` output pair
    /// must be structurally isomorphic — same gate kinds and topology,
    /// terminating in the *same* shared leaf nets.
    ///
    /// Cones are canonicalised by hash-consing: every net gets a shape id;
    /// primary inputs (and any undriven net) are unique leaves, a gate's
    /// shape is its kind plus its children's shapes, with children sorted
    /// for commutative kinds. Two cones are isomorphic iff their roots get
    /// the same shape id. Depths are compared too, so the diagnostic can
    /// report *how* the cones diverge.
    pub fn arbiter_symmetry(&self, pairs: &[(usize, usize)]) -> Vec<Diagnostic> {
        let drivers = self.drivers();
        let mut out = Vec::new();
        let mut ctx = ShapeCtx {
            interner: HashMap::new(),
            // Shape ids: leaves get `net_index`, interned gate shapes get
            // `net_count + k`, so the two ranges never collide.
            shape: vec![None; self.net_count],
            depth: vec![0; self.net_count],
            expanding: vec![false; self.net_count],
        };
        for (bit, &(left, right)) in pairs.iter().enumerate() {
            let sl = ctx.resolve(self, &drivers, left);
            let sr = ctx.resolve(self, &drivers, right);
            if sl != sr {
                let (dl, dr) = (ctx.depth[left], ctx.depth[right]);
                let detail = if dl != dr {
                    format!("logic depths differ: {dl} vs {dr} levels")
                } else {
                    "same depth but different gate kinds or topology".to_string()
                };
                out.push(Diagnostic::new(
                    LintId::ArbiterAsymmetry,
                    self.location(&format!(
                        "arbiter bit {bit} ({} vs {})",
                        self.net_label(left),
                        self.net_label(right)
                    )),
                    format!(
                        "the two racing cones are not isomorphic ({detail}); the race is structurally biased \
                         independent of process variation"
                    ),
                    "make both ALU cones gate-for-gate identical; only delay parameters may differ",
                ));
            }
        }
        out
    }
}

/// Memoised hash-consing state for cone canonicalisation.
struct ShapeCtx {
    interner: HashMap<(GateKind, Vec<u64>), u64>,
    shape: Vec<Option<u64>>,
    depth: Vec<u32>,
    /// Guards against combinational cycles (which `NET001` reports
    /// separately): a net re-entered while its own cone is being expanded
    /// is treated as a leaf so canonicalisation still terminates.
    expanding: Vec<bool>,
}

impl ShapeCtx {
    /// Iterative post-order: the canonical shape id of `root`'s cone.
    fn resolve(&mut self, model: &CircuitModel, drivers: &[Vec<usize>], root: usize) -> u64 {
        let mut stack = vec![(root, false)];
        while let Some((net, expanded)) = stack.pop() {
            if self.shape[net].is_some() {
                continue;
            }
            let Some(&gate) = drivers.get(net).and_then(|d| d.first()) else {
                // Primary input, floating or otherwise undriven net: a
                // unique leaf (identity matters — symmetric cones must
                // bottom out on the SAME shared nets).
                self.shape[net] = Some(net as u64);
                self.depth[net] = 0;
                continue;
            };
            let g = &model.gates[gate];
            if expanded {
                self.expanding[net] = false;
                let mut children: Vec<u64> = g.inputs.iter().map(|&i| self.shape[i].unwrap_or(i as u64)).collect();
                if g.kind.arity() == 2 && commutative(g.kind) {
                    children.sort_unstable();
                }
                let next = model.net_count as u64 + self.interner.len() as u64;
                let id = *self.interner.entry((g.kind, children)).or_insert(next);
                self.shape[net] = Some(id);
                self.depth[net] = g.inputs.iter().map(|&i| self.depth[i]).max().unwrap_or(0) + 1;
            } else {
                if self.expanding[net] {
                    // Cycle: break it by treating the net as a leaf.
                    self.shape[net] = Some(net as u64);
                    continue;
                }
                self.expanding[net] = true;
                stack.push((net, true));
                for &i in &g.inputs {
                    if self.shape[i].is_none() {
                        stack.push((i, false));
                    }
                }
            }
        }
        self.shape[root].unwrap_or(root as u64)
    }
}

fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And2 | GateKind::Or2 | GateKind::Xor2 | GateKind::Nand2 | GateKind::Nor2 | GateKind::Xnor2
    )
}

/// Verifies a full ALU PUF design: structural checks plus arbiter symmetry
/// over every raced `(alu0, alu1)` output pair (the `w` sum bits and the
/// carry-out).
pub fn verify_alu_puf(name: impl Into<String>, design: &AluPufDesign) -> Vec<Diagnostic> {
    let model = CircuitModel::from_netlist_with_csr(name, design.netlist(), design.fanout_csr());
    let mut out = model.verify();
    let (sum0, sum1) = design.sum_buses();
    let mut pairs: Vec<(usize, usize)> = sum0.iter().zip(sum1).map(|(&a, &b)| (a.index(), b.index())).collect();
    // The couts are the last primary output of each ALU's port group.
    let pos = design.netlist().primary_outputs();
    let w = design.width();
    if pos.len() == 2 * (w + 1) {
        pairs.push((pos[w].index(), pos[2 * w + 1].index()));
    }
    out.extend(model.arbiter_symmetry(&pairs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built, correct 1-bit half adder model.
    fn half_adder() -> CircuitModel {
        CircuitModel {
            name: "half-adder".into(),
            net_count: 4,
            gates: vec![
                CircuitGate { kind: GateKind::Xor2, inputs: vec![0, 1], output: 2 },
                CircuitGate { kind: GateKind::And2, inputs: vec![0, 1], output: 3 },
            ],
            primary_inputs: vec![0, 1],
            primary_outputs: vec![2, 3],
            net_names: vec![None; 4],
            csr: None,
        }
    }

    #[test]
    fn clean_model_verifies_clean() {
        assert!(half_adder().verify().is_empty());
    }

    #[test]
    fn detects_self_loop() {
        let mut m = half_adder();
        // Rewire the XOR to read its own output.
        m.gates[0].inputs = vec![2, 1];
        let d = m.verify();
        assert!(d.iter().any(|d| d.lint == LintId::CombinationalLoop), "{d:?}");
    }

    #[test]
    fn detects_two_gate_cycle() {
        let mut m = half_adder();
        // xor reads and's output, and reads xor's output.
        m.gates[0].inputs = vec![0, 3];
        m.gates[1].inputs = vec![2, 1];
        let d = m.verify();
        let loops: Vec<_> = d.iter().filter(|d| d.lint == LintId::CombinationalLoop).collect();
        assert_eq!(loops.len(), 1, "{d:?}");
        assert!(loops[0].message.contains("2 gate(s)"));
    }

    #[test]
    fn symmetric_cones_pass_asymmetric_fail() {
        // Two XOR cones over shared inputs; the right one gets an extra
        // buffer — exactly the arbiter-bias defect.
        let mut m = CircuitModel {
            name: "race".into(),
            net_count: 6,
            gates: vec![
                CircuitGate { kind: GateKind::Xor2, inputs: vec![0, 1], output: 2 },
                CircuitGate { kind: GateKind::Xor2, inputs: vec![1, 0], output: 3 },
            ],
            primary_inputs: vec![0, 1],
            primary_outputs: vec![2, 3],
            net_names: vec![None; 6],
            csr: None,
        };
        // Nets 4, 5 unused so far; make them a buffered variant.
        m.gates.push(CircuitGate { kind: GateKind::Buf, inputs: vec![3], output: 4 });
        m.primary_outputs = vec![2, 4];
        // Input order flipped on a commutative gate: still isomorphic...
        assert!(m.arbiter_symmetry(&[(2, 3)]).is_empty(), "commutative swap must not alarm");
        // ...but the buffered cone is not.
        let d = m.arbiter_symmetry(&[(2, 4)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, LintId::ArbiterAsymmetry);
        assert!(d[0].message.contains("depths differ"), "{}", d[0].message);
        // Net 5 is floating; structural verify reports it.
        let s = m.verify();
        assert!(s.iter().any(|d| d.lint == LintId::FloatingNet));
    }
}
