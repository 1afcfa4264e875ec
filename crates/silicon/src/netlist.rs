//! Combinational netlist data model.
//!
//! A [`Netlist`] is a directed acyclic graph of logic [`Gate`]s connected by
//! [`Net`]s. Nets are either primary inputs or driven by exactly one gate.
//! The model is deliberately minimal — two-input gates plus inverter/buffer —
//! because that is the granularity at which the paper's delay and variation
//! models operate.

use std::fmt;

/// Identifier of a net (a wire) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Returns the raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Returns the raw index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The logic function computed by a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Non-inverting buffer (also used for programmable-delay-line stages).
    Buf,
    /// Inverter.
    Not,
    /// Two-input AND.
    And2,
    /// Two-input OR.
    Or2,
    /// Two-input XOR.
    Xor2,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
    /// Two-input XNOR.
    Xnor2,
}

impl GateKind {
    /// Number of input pins for this gate kind.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            _ => 2,
        }
    }

    /// Evaluates the gate's logic function.
    ///
    /// `b` is ignored for one-input gates.
    ///
    /// Branchless — a 4-bit truth-table lookup indexed by `(a, b)` rather
    /// than a per-kind `match`: functional netlist evaluation calls this
    /// once per gate with data-dependent kinds, and a branch here is
    /// unpredictable in exactly that loop.
    pub fn eval(self, a: bool, b: bool) -> bool {
        (self.truth_table() >> ((u8::from(a) << 1) | u8::from(b))) & 1 == 1
    }

    /// The 4-bit truth table of this gate kind: bit `(a << 1) | b` holds the
    /// output. One-input gates repeat their column so `b` is a don't-care.
    /// Simulation engines expand this into branchless lane masks.
    pub fn truth_table(self) -> u8 {
        // Truth tables in variant order (Buf, Not, And2, Or2, Xor2, Nand2,
        // Nor2, Xnor2).
        const TT: [u8; 8] = [0b1100, 0b0011, 0b1000, 0b1110, 0b0110, 0b0111, 0b0001, 0b1001];
        TT[self as usize]
    }

    /// All gate kinds, useful for exhaustive tests.
    pub const ALL: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xnor2,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::Xnor2 => "XNOR2",
        };
        f.write_str(s)
    }
}

/// Physical placement of a gate on the die, in micrometres.
///
/// Placement drives the spatial correlation of the quad-tree variation model:
/// gates that are close together receive correlated threshold voltages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Placement {
    /// X coordinate in µm.
    pub x: f64,
    /// Y coordinate in µm.
    pub y: f64,
}

/// A logic gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input nets (`kind.arity()` of them).
    pub inputs: [NetId; 2],
    /// Output net; every gate drives exactly one net.
    pub output: NetId,
    /// Die placement (used by the variation model).
    pub placement: Placement,
}

impl Gate {
    /// Iterates over the gate's used input pins.
    pub fn input_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.inputs.iter().copied().take(self.kind.arity())
    }
}

/// A wire in the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Gate driving this net, or `None` for primary inputs.
    pub driver: Option<GateId>,
    /// Optional human-readable name (ports are always named).
    pub name: Option<String>,
}

/// Errors reported by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is neither a primary input nor driven by any gate.
    UndrivenNet(NetId),
    /// The gate graph contains a combinational cycle.
    CombinationalCycle,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet(n) => write!(f, "net {n} has no driver and is not a primary input"),
            NetlistError::CombinationalCycle => write!(f, "netlist contains a combinational cycle"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A combinational netlist: gates, nets, primary inputs and outputs.
///
/// Gates are appended through the builder-style methods ([`Netlist::gate`],
/// [`Netlist::and2`], …) which allocate the output net automatically. The
/// structure is append-only; generators compose by sharing `&mut Netlist`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    gates: Vec<Gate>,
    nets: Vec<Net>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    cursor: Placement,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// All gates in insertion order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Looks up a gate.
    pub fn gate_at(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// All nets in id order, paired with their ids (used by external
    /// analyses such as `pufatt-analyze`'s netlist verifier).
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i as u32), n))
    }

    /// Primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Declares a new primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.alloc_net(Some(name.into()), None);
        self.primary_inputs.push(id);
        id
    }

    /// Declares a bus of `width` primary inputs named `name[0..width]`,
    /// least-significant bit first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width).map(|i| self.input(format!("{name}[{i}]"))).collect()
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        let name = name.into();
        let slot = &mut self.nets[net.index()];
        if slot.name.is_none() {
            slot.name = Some(name);
        }
        self.primary_outputs.push(net);
    }

    /// Sets the placement cursor; gates created afterwards are placed there
    /// until the cursor moves again.
    pub fn place_at(&mut self, x: f64, y: f64) {
        self.cursor = Placement { x, y };
    }

    /// Appends a gate with the current placement cursor and returns its
    /// freshly allocated output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the arity of `kind` or references a
    /// net that does not exist.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "gate {kind} takes {} inputs", kind.arity());
        for &n in inputs {
            assert!(n.index() < self.nets.len(), "input net {n} does not exist");
        }
        let gate_id = GateId(self.gates.len() as u32);
        let output = self.alloc_net(None, Some(gate_id));
        let pad = inputs[0];
        self.gates.push(Gate {
            kind,
            inputs: [inputs[0], *inputs.get(1).unwrap_or(&pad)],
            output,
            placement: self.cursor,
        });
        output
    }

    /// Appends a buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Buf, &[a])
    }

    /// Appends an inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Not, &[a])
    }

    /// Appends a two-input AND gate.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::And2, &[a, b])
    }

    /// Appends a two-input OR gate.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Or2, &[a, b])
    }

    /// Appends a two-input XOR gate.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xor2, &[a, b])
    }

    /// Appends a two-input NAND gate.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Nand2, &[a, b])
    }

    fn alloc_net(&mut self, name: Option<String>, driver: Option<GateId>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { driver, name });
        id
    }

    /// Fanout list: for each net, the gates that read it.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut fo = vec![Vec::new(); self.nets.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for n in g.input_nets() {
                fo[n.index()].push(GateId(i as u32));
            }
        }
        fo
    }

    /// Fanout adjacency in compressed-sparse-row form — two flat arrays
    /// instead of one `Vec` per net. Compute it once per netlist and share
    /// it between simulators, the delay model and timing analyses.
    pub fn fanout_csr(&self) -> FanoutCsr {
        FanoutCsr::build(self)
    }

    /// Fanout count per net (load model input).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nets.len()];
        for g in &self.gates {
            for n in g.input_nets() {
                fo[n.index()] += 1;
            }
        }
        fo
    }

    /// Gates in topological order (inputs before outputs).
    ///
    /// Because gates are append-only and may only reference already-existing
    /// nets, insertion order *is* a topological order; this method exists to
    /// make that invariant explicit at call sites.
    pub fn topological_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i as u32), g))
    }

    /// Evaluates the netlist functionally (zero-delay) for the given primary
    /// input assignment, returning the value of every net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.nets.len()];
        self.evaluate_into(inputs, &mut values);
        values
    }

    /// In-place variant of [`Netlist::evaluate`]: fills `values` (resized to
    /// the net count) without allocating when `values` already has capacity.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate_into(&self, inputs: &[bool], values: &mut Vec<bool>) {
        assert_eq!(inputs.len(), self.primary_inputs.len(), "input vector length mismatch");
        values.clear();
        values.resize(self.nets.len(), false);
        for (net, &v) in self.primary_inputs.iter().zip(inputs) {
            values[net.index()] = v;
        }
        for g in &self.gates {
            let a = values[g.inputs[0].index()];
            let b = values[g.inputs[1].index()];
            values[g.output.index()] = g.kind.eval(a, b);
        }
    }

    /// Builds a primary-input assignment from named buses.
    ///
    /// Each `(bus, value)` pair assigns bit `i` of `value` to `bus[i]`.
    /// Inputs not covered by any bus default to `false`.
    pub fn input_vector(&self, buses: &[(&[NetId], u64)]) -> Vec<bool> {
        let mut v = vec![false; self.primary_inputs.len()];
        // Map net-id -> position among the primary inputs.
        for (pos, &pi) in self.primary_inputs.iter().enumerate() {
            for (bus, value) in buses {
                if let Some(bit) = bus.iter().position(|&n| n == pi) {
                    v[pos] = (value >> bit) & 1 == 1;
                }
            }
        }
        v
    }

    /// Extracts a word from a net-value map, treating `bus[i]` as bit `i`.
    pub fn word_of(values: &[bool], bus: &[NetId]) -> u64 {
        bus.iter()
            .enumerate()
            .fold(0u64, |acc, (i, n)| acc | ((values[n.index()] as u64) << i))
    }

    /// Structural validation: every net must be driven or be a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndrivenNet`] for a floating net. (Cycles are
    /// impossible by construction but the variant is kept for future
    /// sequential extensions.)
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            let id = NetId(i as u32);
            if net.driver.is_none() && !self.primary_inputs.contains(&id) {
                return Err(NetlistError::UndrivenNet(id));
            }
        }
        Ok(())
    }

    /// Logic depth of every net: the maximum number of gates on any path
    /// from a primary input (primary inputs have depth 0).
    pub fn logic_depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.nets.len()];
        for g in &self.gates {
            let worst = g.input_nets().map(|n| depth[n.index()]).max().unwrap_or(0);
            depth[g.output.index()] = worst + 1;
        }
        depth
    }

    /// The netlist's maximum logic depth (levels of gates).
    pub fn max_depth(&self) -> u32 {
        self.logic_depths().iter().copied().max().unwrap_or(0)
    }

    /// Counts gates per kind — the input to the FPGA resource estimator.
    pub fn kind_histogram(&self) -> Vec<(GateKind, usize)> {
        GateKind::ALL
            .iter()
            .map(|&k| (k, self.gates.iter().filter(|g| g.kind == k).count()))
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

/// Fanout adjacency of a netlist in compressed-sparse-row (CSR) layout.
///
/// `targets[offsets[n] .. offsets[n + 1]]` are the gates reading net `n`.
/// Compared to `Vec<Vec<GateId>>` this is two contiguous allocations total,
/// cache-friendly to traverse, and cheap to share: build it once per
/// [`Netlist`] and hand `&FanoutCsr` to every consumer (event simulator,
/// delay model, timing analysis) instead of re-deriving the adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCsr {
    offsets: Vec<u32>,
    targets: Vec<GateId>,
}

impl FanoutCsr {
    /// Builds the CSR adjacency for `netlist`.
    pub fn build(netlist: &Netlist) -> Self {
        let nets = netlist.net_count();
        // Counting pass: offsets[n + 1] accumulates net n's reader count.
        let mut offsets = vec![0u32; nets + 1];
        for g in &netlist.gates {
            for n in g.input_nets() {
                offsets[n.index() + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Filling pass, using a per-net write cursor.
        let mut cursor: Vec<u32> = offsets[..nets].to_vec();
        let mut targets = vec![GateId(0); offsets[nets] as usize];
        for (i, g) in netlist.gates.iter().enumerate() {
            for n in g.input_nets() {
                let slot = &mut cursor[n.index()];
                targets[*slot as usize] = GateId(i as u32);
                *slot += 1;
            }
        }
        FanoutCsr { offsets, targets }
    }

    /// Number of nets this adjacency covers.
    pub fn net_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The gates reading `net`, in gate-id order.
    pub fn readers(&self, net: NetId) -> &[GateId] {
        self.readers_at(net.index())
    }

    /// [`FanoutCsr::readers`] by raw net index, for hot loops that already
    /// hold the index.
    pub fn readers_at(&self, net_index: usize) -> &[GateId] {
        let lo = self.offsets[net_index] as usize;
        let hi = self.offsets[net_index + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Fanout count of `net` (the load-model input).
    pub fn count(&self, net: NetId) -> u32 {
        self.offsets[net.index() + 1] - self.offsets[net.index()]
    }

    /// Total number of (net, reader) edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_kind_truth_tables() {
        assert!(GateKind::And2.eval(true, true));
        assert!(!GateKind::And2.eval(true, false));
        assert!(GateKind::Or2.eval(false, true));
        assert!(!GateKind::Or2.eval(false, false));
        assert!(GateKind::Xor2.eval(true, false));
        assert!(!GateKind::Xor2.eval(true, true));
        assert!(GateKind::Nand2.eval(false, false));
        assert!(!GateKind::Nand2.eval(true, true));
        assert!(GateKind::Nor2.eval(false, false));
        assert!(!GateKind::Nor2.eval(false, true));
        assert!(GateKind::Xnor2.eval(true, true));
        assert!(!GateKind::Xnor2.eval(false, true));
        assert!(GateKind::Buf.eval(true, false));
        assert!(!GateKind::Not.eval(true, true));
    }

    #[test]
    fn arity_matches_kind() {
        for k in GateKind::ALL {
            let expected = matches!(k, GateKind::Buf | GateKind::Not);
            assert_eq!(k.arity() == 1, expected, "{k}");
        }
    }

    #[test]
    fn build_and_evaluate_half_adder() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let sum = nl.xor2(a, b);
        let carry = nl.and2(a, b);
        nl.mark_output(sum, "sum");
        nl.mark_output(carry, "carry");
        nl.validate().unwrap();

        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = nl.evaluate(&[va, vb]);
            assert_eq!(values[sum.index()], va ^ vb);
            assert_eq!(values[carry.index()], va & vb);
        }
    }

    #[test]
    fn input_vector_round_trip() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus("x", 8);
        let v = nl.input_vector(&[(&bus, 0xA5)]);
        assert_eq!(Netlist::word_of(&v, &bus), 0xA5);
    }

    #[test]
    fn fanout_counts_track_usage() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor2(a, b);
        let _y = nl.and2(a, x);
        let fo = nl.fanout_counts();
        assert_eq!(fo[a.index()], 2);
        assert_eq!(fo[b.index()], 1);
        assert_eq!(fo[x.index()], 1);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n = nl.not(a);
        nl.mark_output(n, "q");
        assert_eq!(nl.validate(), Ok(()));
    }

    #[test]
    fn kind_histogram_counts() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        nl.xor2(a, b);
        nl.xor2(a, b);
        nl.and2(a, b);
        let h = nl.kind_histogram();
        assert!(h.contains(&(GateKind::Xor2, 2)));
        assert!(h.contains(&(GateKind::And2, 1)));
    }

    #[test]
    fn placement_cursor_applies_to_new_gates() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        nl.place_at(10.0, 20.0);
        let n = nl.not(a);
        let g = nl.net(n).driver.unwrap();
        assert_eq!(nl.gate_at(g).placement, Placement { x: 10.0, y: 20.0 });
    }

    #[test]
    fn logic_depth_of_chain_and_adder() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut n = a;
        for _ in 0..5 {
            n = nl.not(n);
        }
        assert_eq!(nl.max_depth(), 5);
        assert_eq!(nl.logic_depths()[a.index()], 0);

        // A ripple-carry adder's depth grows ~3 levels per bit slice.
        let mut rca = Netlist::new();
        crate::gen::ripple_carry_adder(&mut rca, 8, "alu");
        let d8 = rca.max_depth();
        let mut rca16 = Netlist::new();
        crate::gen::ripple_carry_adder(&mut rca16, 16, "alu");
        assert!(rca16.max_depth() > d8);
    }

    #[test]
    #[should_panic(expected = "takes 2 inputs")]
    fn wrong_arity_panics() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        nl.gate(GateKind::And2, &[a]);
    }

    #[test]
    fn fanout_csr_matches_nested_fanouts() {
        let mut nl = Netlist::new();
        crate::gen::ripple_carry_adder(&mut nl, 8, "alu");
        let nested = nl.fanouts();
        let csr = nl.fanout_csr();
        assert_eq!(csr.net_count(), nl.net_count());
        assert_eq!(csr.edge_count(), nested.iter().map(Vec::len).sum::<usize>());
        for (i, readers) in nested.iter().enumerate() {
            let net = NetId(i as u32);
            assert_eq!(csr.readers(net), readers.as_slice(), "net {net}");
            assert_eq!(csr.count(net) as usize, readers.len());
        }
        let counts = nl.fanout_counts();
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(csr.count(NetId(i as u32)), c);
        }
    }

    #[test]
    fn evaluate_into_matches_evaluate_and_reuses_buffer() {
        let mut nl = Netlist::new();
        let p = crate::gen::ripple_carry_adder(&mut nl, 8, "alu");
        let inputs = nl.input_vector(&[(&p.a, 0xA7), (&p.b, 0x15)]);
        let fresh = nl.evaluate(&inputs);
        let mut buf = Vec::new();
        nl.evaluate_into(&inputs, &mut buf);
        assert_eq!(buf, fresh);
        // A second call must not need to grow the buffer.
        let cap = buf.capacity();
        nl.evaluate_into(&inputs, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(Netlist::word_of(&buf, &p.sum), (0xA7 + 0x15) & 0xFF);
    }
}
