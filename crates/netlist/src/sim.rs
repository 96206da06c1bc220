//! 64-bit word-parallel simulation and random equivalence checking.
//!
//! Every `u64` word carries 64 independent simulation lanes. A [`Simulator`]
//! compiles a network once into a flat program — the combinational
//! topological order, one op code per node and the fanins in a CSR array —
//! and one kernel evaluates that program over a fixed number of words per
//! node. [`equivalent_random`] and [`equivalent_random_sequential`] run it
//! eight words (512 vectors) wide through one reused value buffer, comparing
//! two networks on seeded random vectors — the workhorse check that every
//! technology-mapped netlist still computes the function of its subject
//! graph. [`Simulator::eval`] is the same kernel one word wide.

use std::collections::HashMap;

use crate::{NetlistError, Network, NodeFn, NodeId};

/// Words per node in one pass of the equivalence checkers: eight rounds of
/// 64 vectors, one 64-byte cache line per node.
const BLOCK: usize = 8;

// Op codes. The low bit complements the fold, so a buffer is a one-fanin
// AND, an inverter a one-fanin NAND, and the constants are zero-fanin folds
// (AND of nothing is all ones, OR of nothing all zeros).
const OP_AND: u8 = 0;
const OP_NAND: u8 = 1;
const OP_OR: u8 = 2;
const OP_NOR: u8 = 3;
const OP_XOR: u8 = 4;
const OP_XNOR: u8 = 5;
/// `Mux`, `Maj` and `Sop`: evaluated a word at a time by
/// [`NodeFn::eval_words`].
const OP_FUNC: u8 = 6;

/// Golden-ratio increment of [`SplitMix64`].
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic splitmix64 generator so the crate stays dependency-free.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Advances past `draws` outputs without producing them: the state is a
    /// counter, so this is one multiply-add.
    fn skip(&mut self, draws: usize) {
        self.0 = self.0.wrapping_add((draws as u64).wrapping_mul(GAMMA));
    }
}

/// A network compiled for word-parallel evaluation: the combinational
/// topological order is captured once, each evaluated node gets an op code,
/// and its fanins sit in one flat array.
///
/// ```
/// use dagmap_netlist::{Network, NodeFn, sim::Simulator};
///
/// # fn main() -> Result<(), dagmap_netlist::NetlistError> {
/// let mut net = Network::new("n");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let f = net.add_node(NodeFn::And, vec![a, b])?;
/// net.add_output("f", f);
/// let sim = Simulator::new(&net)?;
/// let values = sim.eval(&[0b1100, 0b1010]);
/// assert_eq!(values.output(&net, "f"), Some(0b1000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    net: &'a Network,
    /// Node written by each step, in topological order. Primary inputs and
    /// latches are sources whose words the caller writes: they get no step.
    nodes: Vec<NodeId>,
    /// Op code of each step.
    ops: Vec<u8>,
    /// Step `s` reads `fanins[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    fanins: Vec<NodeId>,
    /// `(latch, data fanin)` pairs.
    latches: Vec<(NodeId, NodeId)>,
    /// Widest `OP_FUNC` fanin list: the scratch capacity the kernel needs.
    func_arity: usize,
}

/// Per-node lane values produced by one evaluation pass.
#[derive(Debug, Clone)]
pub struct SimValues {
    values: Vec<u64>,
}

impl SimValues {
    /// Value word of an arbitrary node.
    pub fn node(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Value word of a primary output looked up by name.
    pub fn output(&self, net: &Network, name: &str) -> Option<u64> {
        net.outputs()
            .iter()
            .find(|o| o.name == name)
            .map(|o| self.values[o.driver.index()])
    }
}

impl<'a> Simulator<'a> {
    /// Compiles a network for simulation.
    ///
    /// # Errors
    ///
    /// Fails if the combinational part of the network is cyclic.
    pub fn new(net: &'a Network) -> Result<Self, NetlistError> {
        // `Network::add_node` only accepts existing fanins, so id order is
        // topological unless an edit rewired a node to a later one. Checking
        // that is one walk over the fanins, far cheaper than computing an
        // order; an id order with no back edge also has no cycle to report.
        let mut edges = 0;
        let mut ids_are_topological = true;
        for id in net.node_ids() {
            let node = net.node(id);
            edges += node.fanins().len();
            ids_are_topological &=
                matches!(node.func(), NodeFn::Latch) || node.fanins().iter().all(|&f| f < id);
        }
        let mut sim = Simulator {
            net,
            nodes: Vec::with_capacity(net.num_nodes()),
            ops: Vec::with_capacity(net.num_nodes()),
            starts: Vec::with_capacity(net.num_nodes() + 1),
            fanins: Vec::with_capacity(edges),
            latches: Vec::new(),
            func_arity: 0,
        };
        sim.starts.push(0);
        if ids_are_topological {
            net.node_ids().for_each(|id| sim.push_step(id));
        } else {
            net.topo_order()?
                .into_iter()
                .for_each(|id| sim.push_step(id));
        }
        Ok(sim)
    }

    /// Appends node `id`'s step, or registers it as a source.
    fn push_step(&mut self, id: NodeId) {
        let node = self.net.node(id);
        let op = match node.func() {
            NodeFn::Input => return,
            NodeFn::Latch => {
                self.latches.push((id, node.fanins()[0]));
                return;
            }
            NodeFn::Const(true) | NodeFn::Buf | NodeFn::And => OP_AND,
            NodeFn::Not | NodeFn::Nand => OP_NAND,
            NodeFn::Const(false) | NodeFn::Or => OP_OR,
            NodeFn::Nor => OP_NOR,
            NodeFn::Xor => OP_XOR,
            NodeFn::Xnor => OP_XNOR,
            NodeFn::Mux | NodeFn::Maj | NodeFn::Sop(_) => {
                self.func_arity = self.func_arity.max(node.fanins().len());
                OP_FUNC
            }
        };
        self.nodes.push(id);
        self.ops.push(op);
        self.fanins.extend_from_slice(node.fanins());
        self.starts
            .push(u32::try_from(self.fanins.len()).expect("fanin count overflows u32"));
    }

    /// Evaluates one combinational pass. `inputs` supplies one word per
    /// primary input in [`Network::inputs`] order; latches evaluate to 0.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input count.
    pub fn eval(&self, inputs: &[u64]) -> SimValues {
        self.eval_with_state(inputs, &HashMap::new())
    }

    /// Evaluates one combinational pass with explicit latch output values
    /// (missing latches read 0).
    pub fn eval_with_state(&self, inputs: &[u64], state: &HashMap<NodeId, u64>) -> SimValues {
        assert_eq!(
            inputs.len(),
            self.net.inputs().len(),
            "one input word per primary input"
        );
        let mut values = vec![[0u64; 1]; self.net.num_nodes()];
        for (id, &word) in self.net.inputs().iter().zip(inputs) {
            values[id.index()] = [word];
        }
        for &(latch, _) in &self.latches {
            values[latch.index()] = [state.get(&latch).copied().unwrap_or(0)];
        }
        self.run(&mut values, &mut Vec::with_capacity(self.func_arity));
        SimValues {
            values: values.into_flattened(),
        }
    }

    /// Advances latch state by one clock edge given the values of a completed
    /// combinational pass.
    pub fn next_state(&self, values: &SimValues) -> HashMap<NodeId, u64> {
        self.latches
            .iter()
            .map(|&(latch, data)| (latch, values.node(data)))
            .collect()
    }

    /// The kernel: evaluates every step over `W` words per node. Input and
    /// latch words must already be in `values`; `scratch` is reused for the
    /// fanin words of `OP_FUNC` steps.
    fn run<const W: usize>(&self, values: &mut [[u64; W]], scratch: &mut Vec<u64>) {
        for (s, (&node, &op)) in self.nodes.iter().zip(&self.ops).enumerate() {
            let fanins = &self.fanins[self.starts[s] as usize..self.starts[s + 1] as usize];
            let mut out = match op & !1 {
                OP_AND => fold(values, fanins, u64::MAX, |x, y| x & y),
                OP_OR => fold(values, fanins, 0, |x, y| x | y),
                OP_XOR => fold(values, fanins, 0, |x, y| x ^ y),
                _ => {
                    let func = self.net.node(node).func();
                    std::array::from_fn(|w| {
                        scratch.clear();
                        scratch.extend(fanins.iter().map(|f| values[f.index()][w]));
                        func.eval_words(scratch)
                    })
                }
            };
            if op & 1 == 1 {
                out = out.map(|x| !x);
            }
            values[node.index()] = out;
        }
    }

    /// Clocks every latch: it takes its data fanin's words from the pass just
    /// evaluated. All data words are read before any latch is written, since
    /// a latch may feed another directly.
    fn clock<const W: usize>(&self, values: &mut [[u64; W]], next: &mut Vec<[u64; W]>) {
        next.clear();
        next.extend(self.latches.iter().map(|&(_, data)| values[data.index()]));
        for (&(latch, _), &words) in self.latches.iter().zip(next.iter()) {
            values[latch.index()] = words;
        }
    }
}

/// Folds the fanins' words with `op`, `W` lanes at a time.
#[inline(always)]
fn fold<const W: usize>(
    values: &[[u64; W]],
    fanins: &[NodeId],
    init: u64,
    op: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    let mut acc = [init; W];
    for f in fanins {
        for (a, &x) in acc.iter_mut().zip(&values[f.index()]) {
            *a = op(*a, x);
        }
    }
    acc
}

/// Interface pairing: `a`'s inputs with `b`'s, then `a`'s output drivers with
/// `b`'s, each pair matched by name.
type Alignment = (Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// Pairs the inputs and outputs of two networks by name. Where `b` repeats a
/// name, its first input or output of that name is the match.
fn align(a: &Network, b: &Network) -> Result<Alignment, NetlistError> {
    if a.inputs().len() != b.inputs().len() {
        return Err(NetlistError::Invariant(format!(
            "input counts differ: {} vs {}",
            a.inputs().len(),
            b.inputs().len()
        )));
    }
    let mut b_inputs: HashMap<&str, NodeId> = HashMap::with_capacity(b.inputs().len());
    for &x in b.inputs() {
        if let Some(name) = b.node(x).name() {
            b_inputs.entry(name).or_insert(x);
        }
    }
    let mut ins = Vec::with_capacity(a.inputs().len());
    for &ai in a.inputs() {
        let name = a.node(ai).name().expect("primary inputs are named");
        let &bi = b_inputs
            .get(name)
            .ok_or_else(|| NetlistError::UndefinedSignal(name.to_owned()))?;
        ins.push((ai, bi));
    }
    if a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::Invariant(format!(
            "output counts differ: {} vs {}",
            a.outputs().len(),
            b.outputs().len()
        )));
    }
    let mut b_outputs: HashMap<&str, NodeId> = HashMap::with_capacity(b.outputs().len());
    for o in b.outputs() {
        b_outputs.entry(o.name.as_str()).or_insert(o.driver);
    }
    let mut outs = Vec::with_capacity(a.outputs().len());
    for ao in a.outputs() {
        let &bd = b_outputs
            .get(ao.name.as_str())
            .ok_or_else(|| NetlistError::UndefinedSignal(ao.name.clone()))?;
        outs.push((ao.driver, bd));
    }
    Ok((ins, outs))
}

/// Checks two *combinational* networks for equality on `rounds * 64` seeded
/// random vectors, pairing inputs and outputs by name.
///
/// A `false` result proves inequivalence; `true` is strong statistical
/// evidence of equivalence (and exact whenever `rounds * 64` covers the whole
/// input space).
///
/// # Errors
///
/// Fails if either network is cyclic or their interfaces cannot be paired.
pub fn equivalent_random(
    a: &Network,
    b: &Network,
    rounds: usize,
    seed: u64,
) -> Result<bool, NetlistError> {
    equivalent_random_sequential(a, b, 1, rounds, seed)
}

/// Checks two *sequential* networks (latches start at 0) over `rounds`
/// random input streams of `cycles` cycles each; one cycle is the
/// combinational check.
///
/// The vectors are one SplitMix64 stream drawn round by round, then cycle
/// by cycle, then input by input, except that round 0's first cycle
/// enumerates all minterms when there are at most six inputs.
///
/// # Errors
///
/// Fails if either network is cyclic or their interfaces cannot be paired.
pub fn equivalent_random_sequential(
    a: &Network,
    b: &Network,
    cycles: usize,
    rounds: usize,
    seed: u64,
) -> Result<bool, NetlistError> {
    // Rounds run [`BLOCK`] per pass, round `first + k` in word `k` of every
    // node. Each round of a block draws from its own copy of the stream,
    // skipped ahead to where the round-by-round order reaches it, so the
    // vectors are those of simulating one round at a time. Lanes past the
    // last requested round are evaluated but never compared.
    let (ins, outs) = align(a, b)?;
    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    let (cycles, rounds) = (cycles.max(1), rounds.max(1));
    let n = ins.len();
    let exhaustive = |round: usize, cycle: usize| round == 0 && cycle == 0 && n <= 6;

    let mut va = vec![[0u64; BLOCK]; a.num_nodes()];
    let mut vb = vec![[0u64; BLOCK]; b.num_nodes()];
    let mut next_a = Vec::with_capacity(sim_a.latches.len());
    let mut next_b = Vec::with_capacity(sim_b.latches.len());
    let mut scratch = Vec::with_capacity(sim_a.func_arity.max(sim_b.func_arity));
    let mut rng = SplitMix64::new(seed);
    let mut streams = Vec::with_capacity(BLOCK);
    for first in (0..rounds).step_by(BLOCK) {
        let lanes = BLOCK.min(rounds - first);
        streams.clear();
        for round in first..first + lanes {
            streams.push(rng.clone());
            let drawn = if exhaustive(round, 0) {
                cycles - 1
            } else {
                cycles
            };
            rng.skip(drawn * n);
        }
        for &(latch, _) in &sim_a.latches {
            va[latch.index()] = [0; BLOCK];
        }
        for &(latch, _) in &sim_b.latches {
            vb[latch.index()] = [0; BLOCK];
        }
        for cycle in 0..cycles {
            for (k, stream) in streams.iter_mut().enumerate() {
                let exhaustive = exhaustive(first + k, cycle);
                for (i, &(ia, ib)) in ins.iter().enumerate() {
                    let word = if exhaustive {
                        exhaustive_word(i).expect("n <= 6 guards the index")
                    } else {
                        stream.next_u64()
                    };
                    va[ia.index()][k] = word;
                    vb[ib.index()][k] = word;
                }
            }
            sim_a.run(&mut va, &mut scratch);
            sim_b.run(&mut vb, &mut scratch);
            if outs
                .iter()
                .any(|&(da, db)| va[da.index()][..lanes] != vb[db.index()][..lanes])
            {
                return Ok(false);
            }
            sim_a.clock(&mut va, &mut next_a);
            sim_b.clock(&mut vb, &mut next_b);
        }
    }
    Ok(true)
}

/// The classic truth-table word for input position `i`: lane `l` holds bit
/// `i` of `l`, so up to 6 inputs get exhaustively covered by one word.
///
/// Returns `None` for `i >= 6` — a 64-lane word cannot enumerate a seventh
/// variable, and the old behaviour of silently yielding `0` would have let a
/// caller believe a wide interface was covered exhaustively when lanes past
/// the sixth input were pinned to constant zero.
pub fn exhaustive_word(i: usize) -> Option<u64> {
    debug_assert!(i < 6, "exhaustive lanes only cover 6 inputs, got index {i}");
    match i {
        0 => Some(0xAAAA_AAAA_AAAA_AAAA),
        1 => Some(0xCCCC_CCCC_CCCC_CCCC),
        2 => Some(0xF0F0_F0F0_F0F0_F0F0),
        3 => Some(0xFF00_FF00_FF00_FF00),
        4 => Some(0xFFFF_0000_FFFF_0000),
        5 => Some(0xFFFF_FFFF_0000_0000),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SopCover;

    fn xor_net(name: &str) -> Network {
        let mut net = Network::new(name);
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        net.add_output("f", f);
        net
    }

    fn xor_via_nands(name: &str) -> Network {
        let mut net = Network::new(name);
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let l = net.add_node(NodeFn::Nand, vec![a, t]).unwrap();
        let r = net.add_node(NodeFn::Nand, vec![t, b]).unwrap();
        let f = net.add_node(NodeFn::Nand, vec![l, r]).unwrap();
        net.add_output("f", f);
        net
    }

    #[test]
    fn equivalent_structures_compare_equal() {
        assert!(equivalent_random(&xor_net("a"), &xor_via_nands("b"), 32, 1).unwrap());
    }

    #[test]
    fn different_functions_compare_unequal() {
        let mut and_net = Network::new("and");
        let a = and_net.add_input("a");
        let b = and_net.add_input("b");
        let f = and_net.add_node(NodeFn::And, vec![a, b]).unwrap();
        and_net.add_output("f", f);
        assert!(!equivalent_random(&xor_net("x"), &and_net, 4, 1).unwrap());
    }

    #[test]
    fn input_pairing_is_by_name_not_position() {
        // Same function but inputs declared in swapped order: a AND NOT b.
        let mut p = Network::new("p");
        let a = p.add_input("a");
        let b = p.add_input("b");
        let nb = p.add_node(NodeFn::Not, vec![b]).unwrap();
        let f = p.add_node(NodeFn::And, vec![a, nb]).unwrap();
        p.add_output("f", f);

        let mut q = Network::new("q");
        let b2 = q.add_input("b");
        let a2 = q.add_input("a");
        let nb2 = q.add_node(NodeFn::Not, vec![b2]).unwrap();
        let f2 = q.add_node(NodeFn::And, vec![a2, nb2]).unwrap();
        q.add_output("f", f2);

        assert!(equivalent_random(&p, &q, 8, 9).unwrap());
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let mut p = Network::new("p");
        let _ = p.add_input("a");
        let mut q = Network::new("q");
        let _ = q.add_input("zzz");
        assert!(equivalent_random(&p, &q, 1, 0).is_err());
    }

    #[test]
    fn sequential_toggle_counts() {
        // One-latch accumulator: q' = q XOR in.
        let build = |name: &str| {
            let mut net = Network::new(name);
            let i = net.add_input("i");
            // placeholder chain: latch fed by xor(q, i) requires q first; use
            // the two-step idiom with replace is internal; here simply create
            // xor after the latch by pre-creating the latch on the input and
            // checking a different but equal structure is not possible; so
            // both networks share the same construction order.
            let l = net.add_node(NodeFn::Latch, vec![i]).unwrap();
            let x = net.add_node(NodeFn::Xor, vec![l, i]).unwrap();
            net.add_output("o", x);
            net
        };
        assert!(equivalent_random_sequential(&build("a"), &build("b"), 16, 4, 5).unwrap());
    }

    #[test]
    fn exhaustive_words_enumerate_minterms() {
        // Lane l of word i must equal bit i of l.
        for lane in 0..64u64 {
            for i in 0..6 {
                let bit = (exhaustive_word(i).unwrap() >> lane) & 1;
                assert_eq!(bit, (lane >> i) & 1);
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exhaustive lanes"))]
    fn exhaustive_word_rejects_wide_indices() {
        // Release builds get `None`; debug builds assert loudly. Either way
        // no caller can mistake index 6 for a covered variable.
        assert_eq!(exhaustive_word(6), None);
    }

    #[test]
    fn sequential_checker_is_exhaustive_on_tiny_interfaces() {
        // A single-input pair differing only on a rare input pattern: with
        // the round-0 exhaustive cycle, one round suffices to distinguish
        // functions a purely random draw could miss.
        let build = |twist: bool| {
            let mut net = Network::new("t");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let c = net.add_input("c");
            let and1 = net.add_node(NodeFn::And, vec![a, b]).unwrap();
            let and2 = net.add_node(NodeFn::And, vec![and1, c]).unwrap();
            let l = net.add_node(NodeFn::Latch, vec![and2]).unwrap();
            let f = if twist {
                net.add_node(NodeFn::Or, vec![l, and2]).unwrap()
            } else {
                net.add_node(NodeFn::Xor, vec![l, and2]).unwrap()
            };
            net.add_output("f", f);
            net
        };
        // OR and XOR of (latch, data) differ whenever both are 1, which the
        // exhaustive first cycle always sets up in some lane by cycle two.
        assert!(
            !equivalent_random_sequential(&build(false), &build(true), 4, 1, 42).unwrap(),
            "exhaustive round 0 must expose the planted difference"
        );
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    fn interface(name: &str, inputs: &[&str], outputs: &[&str]) -> Network {
        let mut net = Network::new(name);
        let ids: Vec<NodeId> = inputs.iter().map(|&n| net.add_input(n)).collect();
        for (k, &o) in outputs.iter().enumerate() {
            // A distinct driver per output, so pairings are observable.
            let d = net.add_node(NodeFn::Buf, vec![ids[k % ids.len()]]).unwrap();
            net.add_output(o, d);
        }
        net
    }

    #[test]
    fn alignment_pairs_repeated_names_with_the_first_match() {
        let a = interface("a", &["x", "x", "y"], &["f", "f"]);
        let b = interface("b", &["y", "x", "x"], &["f", "f"]);
        let (ins, outs) = align(&a, &b).unwrap();
        let (ai, bi) = (a.inputs(), b.inputs());
        assert_eq!(ins, [(ai[0], bi[1]), (ai[1], bi[1]), (ai[2], bi[0])]);
        let (ao, bo) = (a.outputs(), b.outputs());
        assert_eq!(
            outs,
            [(ao[0].driver, bo[0].driver), (ao[1].driver, bo[0].driver)]
        );
    }

    #[test]
    fn alignment_reports_a_missing_input() {
        let a = interface("a", &["p", "q"], &["f"]);
        let b = interface("b", &["p", "r"], &["f"]);
        assert_eq!(
            align(&a, &b).unwrap_err(),
            NetlistError::UndefinedSignal("q".into())
        );
        assert_eq!(
            equivalent_random(&a, &b, 1, 0).unwrap_err(),
            NetlistError::UndefinedSignal("q".into())
        );
    }

    #[test]
    fn alignment_reports_a_missing_output() {
        let a = interface("a", &["p"], &["f", "g"]);
        let b = interface("b", &["p"], &["f", "h"]);
        assert_eq!(
            align(&a, &b).unwrap_err(),
            NetlistError::UndefinedSignal("g".into())
        );
    }

    #[test]
    fn alignment_reports_unequal_counts() {
        let a = interface("a", &["p"], &["f"]);
        let wide = interface("b", &["p", "q"], &["f", "g"]);
        let tall = interface("c", &["p"], &["f", "g"]);
        // Inputs are checked before outputs.
        assert_eq!(
            align(&a, &wide).unwrap_err(),
            NetlistError::Invariant("input counts differ: 1 vs 2".into())
        );
        assert_eq!(
            align(&a, &tall).unwrap_err(),
            NetlistError::Invariant("output counts differ: 1 vs 2".into())
        );
    }

    #[test]
    fn rewired_networks_compile_in_topological_order() {
        // `f` is created before `g` but rewired to read it: id order is not
        // topological, so the program must follow `topo_order`.
        let mut net = Network::new("rewired");
        let x = net.add_input("x");
        let f = net.add_node(NodeFn::Buf, vec![x]).unwrap();
        let g = net.add_node(NodeFn::Not, vec![x]).unwrap();
        net.replace_single_fanin(f, g);
        net.add_output("f", f);
        let sim = Simulator::new(&net).unwrap();
        assert_eq!(sim.eval(&[0b10]).output(&net, "f"), Some(!0b10));

        // Closing the loop is a cycle, reported exactly as `topo_order` does.
        net.replace_single_fanin(g, f);
        let cycle = net.topo_order().unwrap_err();
        assert!(matches!(cycle, NetlistError::CombinationalCycle(_)));
        assert_eq!(Simulator::new(&net).unwrap_err(), cycle);
        assert_eq!(equivalent_random(&net, &net, 1, 0).unwrap_err(), cycle);
    }

    fn below(rng: &mut SplitMix64, bound: usize) -> usize {
        (rng.next_u64() % bound as u64) as usize
    }

    fn random_cover(rng: &mut SplitMix64) -> SopCover {
        use crate::sop::{Cube, CubeLit};
        let width = 1 + below(rng, 4);
        let cubes = (0..below(rng, 4))
            .map(|_| {
                Cube(
                    (0..width)
                        .map(|_| [CubeLit::Zero, CubeLit::One, CubeLit::DontCare][below(rng, 3)])
                        .collect(),
                )
            })
            .collect();
        SopCover::new(width, cubes, rng.next_u64() & 1 == 1).unwrap()
    }

    /// A seeded random network over every `NodeFn`: `n` inputs named `i*`,
    /// `latches` latches fed back from random nodes, `gates` logic nodes and
    /// four outputs `o*`. `reverse` declares the inputs in reverse order
    /// without changing the logic. `twist` XORs output 0 with an AND of that
    /// many input literals, so the pair differs on a sliver of the inputs.
    fn random_network(
        seed: u64,
        n: usize,
        latches: usize,
        gates: usize,
        twist: usize,
        reverse: bool,
    ) -> Network {
        let mut rng = SplitMix64::new(seed);
        let mut net = Network::new("r");
        let mut inputs = vec![NodeId::from_index(0); n];
        for i in 0..n {
            let i = if reverse { n - 1 - i } else { i };
            inputs[i] = net.add_input(format!("i{i}"));
        }
        let latch_ids: Vec<NodeId> = (0..latches)
            .map(|_| net.add_node(NodeFn::Latch, vec![inputs[0]]).unwrap())
            .collect();
        let mut pool: Vec<NodeId> = inputs.iter().chain(&latch_ids).copied().collect();
        for _ in 0..gates {
            let func = match below(&mut rng, 13) {
                0 => NodeFn::And,
                1 => NodeFn::Or,
                2 => NodeFn::Nand,
                3 => NodeFn::Nor,
                4 => NodeFn::Xor,
                5 => NodeFn::Xnor,
                6 => NodeFn::Buf,
                7 => NodeFn::Not,
                8 => NodeFn::Mux,
                9 => NodeFn::Maj,
                10 => NodeFn::Const(rng.next_u64() & 1 == 1),
                _ => NodeFn::Sop(random_cover(&mut rng)),
            };
            let arity = match &func {
                NodeFn::Buf | NodeFn::Not => 1,
                NodeFn::Mux | NodeFn::Maj => 3,
                NodeFn::Const(_) => 0,
                NodeFn::Sop(cover) => cover.num_inputs(),
                _ => 1 + below(&mut rng, 5),
            };
            let fanins: Vec<NodeId> = (0..arity)
                .map(|_| pool[below(&mut rng, pool.len())])
                .collect();
            pool.push(net.add_node(func, fanins).unwrap());
        }
        for &latch in &latch_ids {
            net.replace_single_fanin(latch, pool[below(&mut rng, pool.len())]);
        }
        let mut drivers: Vec<NodeId> = (0..4)
            .map(|_| pool[pool.len() / 2 + below(&mut rng, pool.len() - pool.len() / 2)])
            .collect();
        if twist > 0 {
            let literals: Vec<NodeId> = (0..twist)
                .map(|j| {
                    let x = inputs[j % n];
                    if rng.next_u64() & 1 == 1 {
                        net.add_node(NodeFn::Not, vec![x]).unwrap()
                    } else {
                        x
                    }
                })
                .collect();
            let sliver = net.add_node(NodeFn::And, literals).unwrap();
            drivers[0] = net.add_node(NodeFn::Xor, vec![drivers[0], sliver]).unwrap();
        }
        for (k, d) in drivers.into_iter().enumerate() {
            net.add_output(format!("o{k}"), d);
        }
        net
    }

    /// Reference semantics: every node's `NodeFn::eval_words` in topological
    /// order, one word per node.
    fn reference_eval(net: &Network, inputs: &[u64], state: &HashMap<NodeId, u64>) -> Vec<u64> {
        let mut values = vec![0u64; net.num_nodes()];
        for (id, &w) in net.inputs().iter().zip(inputs) {
            values[id.index()] = w;
        }
        for id in net.topo_order().unwrap() {
            let node = net.node(id);
            values[id.index()] = match node.func() {
                NodeFn::Input => values[id.index()],
                NodeFn::Latch => state.get(&id).copied().unwrap_or(0),
                f => {
                    let ins: Vec<u64> = node.fanins().iter().map(|x| values[x.index()]).collect();
                    f.eval_words(&ins)
                }
            };
        }
        values
    }

    fn reference_next_state(net: &Network, values: &[u64]) -> HashMap<NodeId, u64> {
        net.node_ids()
            .filter(|&id| matches!(net.node(id).func(), NodeFn::Latch))
            .map(|id| (id, values[net.node(id).fanins()[0].index()]))
            .collect()
    }

    /// Reference checker: one round of one cycle at a time, vectors drawn
    /// round, then cycle, then input, with round 0's first cycle exhaustive
    /// for at most six inputs; interfaces paired by linear search.
    fn reference_equivalent(
        a: &Network,
        b: &Network,
        cycles: usize,
        rounds: usize,
        seed: u64,
    ) -> bool {
        let n = a.inputs().len();
        let positions: Vec<usize> = a
            .inputs()
            .iter()
            .map(|&ai| {
                b.inputs()
                    .iter()
                    .position(|&x| b.node(x).name() == a.node(ai).name())
                    .unwrap()
            })
            .collect();
        let mut rng = SplitMix64::new(seed);
        for round in 0..rounds.max(1) {
            let (mut state_a, mut state_b) = (HashMap::new(), HashMap::new());
            for cycle in 0..cycles.max(1) {
                let words_a: Vec<u64> = (0..n)
                    .map(|i| {
                        if round == 0 && cycle == 0 && n <= 6 {
                            exhaustive_word(i).unwrap()
                        } else {
                            rng.next_u64()
                        }
                    })
                    .collect();
                let mut words_b = vec![0u64; n];
                for (i, &p) in positions.iter().enumerate() {
                    words_b[p] = words_a[i];
                }
                let va = reference_eval(a, &words_a, &state_a);
                let vb = reference_eval(b, &words_b, &state_b);
                for ao in a.outputs() {
                    let bo = b.outputs().iter().find(|o| o.name == ao.name).unwrap();
                    if va[ao.driver.index()] != vb[bo.driver.index()] {
                        return false;
                    }
                }
                state_a = reference_next_state(a, &va);
                state_b = reference_next_state(b, &vb);
            }
        }
        true
    }

    #[test]
    fn kernel_matches_the_reference_evaluator_word_for_word() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40u64 {
            let n = 1 + seed as usize % 9;
            let net = random_network(seed, n, seed as usize % 3, 80, 0, false);
            for id in net.node_ids() {
                let node = net.node(id);
                let phase = match node.func() {
                    NodeFn::Sop(c) => format!("{}", c.output_value()),
                    _ => String::new(),
                };
                seen.insert(format!(
                    "{}{}/{}",
                    node.func().name(),
                    phase,
                    node.fanins().len()
                ));
            }
            let sim = Simulator::new(&net).unwrap();
            let mut rng = SplitMix64::new(!seed);
            for _ in 0..4 {
                let inputs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let state: HashMap<NodeId, u64> =
                    reference_next_state(&net, &vec![0; net.num_nodes()])
                        .into_keys()
                        .map(|id| (id, rng.next_u64()))
                        .collect();
                let got = sim.eval_with_state(&inputs, &state);
                let want = reference_eval(&net, &inputs, &state);
                for id in net.node_ids() {
                    assert_eq!(got.node(id), want[id.index()], "seed {seed}, node {id:?}");
                }
                assert_eq!(sim.next_state(&got), reference_next_state(&net, &want));
            }
        }
        for f in ["and", "or", "nand", "nor", "xor", "xnor"] {
            for arity in 1..=5 {
                assert!(
                    seen.contains(&format!("{f}/{arity}")),
                    "{f}/{arity} never generated"
                );
            }
        }
        for f in [
            "input/0", "latch/1", "buf/1", "not/1", "mux/3", "maj/3", "const0/0", "const1/0",
        ] {
            assert!(seen.contains(f), "{f} never generated");
        }
        assert!(seen.iter().any(|f| f.starts_with("soptrue/")));
        assert!(seen.iter().any(|f| f.starts_with("sopfalse/")));
    }

    #[test]
    fn block_lanes_match_the_one_word_view() {
        for seed in 0..12u64 {
            let n = 1 + seed as usize % 7;
            let net = random_network(seed, n, 2, 60, 0, false);
            let sim = Simulator::new(&net).unwrap();
            let mut rng = SplitMix64::new(seed.wrapping_mul(7));
            let mut block = vec![[0u64; BLOCK]; net.num_nodes()];
            for &id in net
                .inputs()
                .iter()
                .chain(sim.latches.iter().map(|(l, _)| l))
            {
                block[id.index()] = std::array::from_fn(|_| rng.next_u64());
            }
            sim.run(&mut block, &mut Vec::new());
            let word = |id: NodeId, k: usize| block[id.index()][k];
            for k in 0..BLOCK {
                let inputs: Vec<u64> = net.inputs().iter().map(|&id| word(id, k)).collect();
                let state = sim.latches.iter().map(|&(l, _)| (l, word(l, k))).collect();
                let one = sim.eval_with_state(&inputs, &state);
                for id in net.node_ids() {
                    assert_eq!(word(id, k), one.node(id), "seed {seed}, lane word {k}");
                }
            }
        }
    }

    /// Compares the checkers' verdicts with the reference over equal pairs
    /// (inputs declared in reverse) and twisted pairs, at round counts on
    /// both sides of the block boundaries.
    fn verdicts_match_reference(latches: usize, cycles: usize) {
        let mut verdicts = [0usize; 2];
        let mut late = 0;
        for seed in 0..24u64 {
            let n = 2 + seed as usize % 11;
            let golden = random_network(seed, n, latches, 40, 0, false);
            let same = random_network(seed, n, latches, 40, 0, true);
            let twisted = random_network(seed, n, latches, 40, 9, true);
            for (other, label) in [(&same, "same"), (&twisted, "twisted")] {
                let mut caught = Vec::new();
                for rounds in [1, 7, 8, 9, 33] {
                    let got = if latches == 0 {
                        equivalent_random(&golden, other, rounds, seed).unwrap()
                    } else {
                        equivalent_random_sequential(&golden, other, cycles, rounds, seed).unwrap()
                    };
                    let want = reference_equivalent(&golden, other, cycles, rounds, seed);
                    assert_eq!(got, want, "seed {seed}, {label}, rounds {rounds}");
                    verdicts[usize::from(got)] += 1;
                    caught.push(!got);
                }
                late += usize::from(!caught[0] && caught[4]);
            }
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "verdicts {verdicts:?}");
        assert!(late > 0, "no twist was caught only after the first round");
    }

    #[test]
    fn combinational_verdicts_match_the_reference_stream() {
        verdicts_match_reference(0, 1);
    }

    #[test]
    fn sequential_verdicts_match_the_reference_stream() {
        verdicts_match_reference(3, 5);
    }

    #[test]
    fn skipping_matches_drawing() {
        let mut drawn = SplitMix64::new(3);
        for _ in 0..37 {
            drawn.next_u64();
        }
        let mut skipped = SplitMix64::new(3);
        skipped.skip(37);
        assert_eq!(drawn.next_u64(), skipped.next_u64());
    }
}
