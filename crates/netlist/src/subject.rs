use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::sop::CubeLit;
use crate::strash::{Signatures, StrashArena, StrashStats};
use crate::{NetlistError, Network, NodeFn, NodeId};

/// Classification of a subject-graph node.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum SubjectKind {
    /// Primary input.
    Input,
    /// Constant (kept only when constant folding reaches an output).
    Const(bool),
    /// Two-input NAND.
    Nand2,
    /// Inverter.
    Inv,
    /// Edge-triggered latch (sequential circuits only).
    Latch,
}

/// How n-ary gates are shaped during decomposition.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum DecompShape {
    /// Minimum-depth pairing.
    #[default]
    Balanced,
    /// Maximum-depth left-leaning chain (ripple style).
    LeftChain,
}

/// Decomposition configuration (see [`SubjectGraph::from_network_with`]).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct DecomposeOptions {
    /// Structurally hash NAND/INV nodes so equal subterms are shared.
    /// Turning this off is an ablation: it removes the intra-decomposition
    /// multi-fanout points whose treatment separates tree from DAG covering.
    pub strash: bool,
    /// Shape of n-ary gate reductions. The choice biases which library
    /// patterns can match — the subject-graph-choice problem the paper's
    /// Section 4 discusses via Lehman et al.'s mapping graphs.
    pub shape: DecompShape,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions {
            strash: true,
            shape: DecompShape::Balanced,
        }
    }
}

/// A *subject graph*: the NAND2/INV decomposition of a Boolean network that
/// technology mapping covers with library pattern graphs (Keutzer, DAGON).
///
/// The decomposition is structurally hashed, so equal NAND/INV subterms are
/// shared — which is exactly what creates the multi-fanout points whose
/// treatment distinguishes tree covering from DAG covering in the paper.
/// Balanced trees are used for n-ary gates to keep depth low, `inv(inv(x))`
/// collapses, and constants fold.
///
/// ```
/// use dagmap_netlist::{Network, NodeFn, SubjectGraph, SubjectKind};
///
/// # fn main() -> Result<(), dagmap_netlist::NetlistError> {
/// let mut net = Network::new("n");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let f = net.add_node(NodeFn::Nand, vec![a, b])?;
/// net.add_output("f", f);
/// let subject = SubjectGraph::from_network(&net)?;
/// let root = subject.network().outputs()[0].driver;
/// assert_eq!(subject.kind(root), SubjectKind::Nand2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SubjectGraph {
    net: Network,
    /// See [`SubjectGraph::uid`].
    uid: u64,
    flat: crate::FlatNet,
    /// Computed on the first [`SubjectGraph::signatures`] call.
    sigs: OnceLock<Signatures>,
    strash: StrashStats,
    /// Wall-clock seconds the constructor took, finishing steps included.
    decompose_seconds: f64,
}

/// NAND2/INV decomposition builder: n-ary reductions over the hash-consing
/// [`StrashArena`], so every decomposition path shares one dedup domain.
struct Builder {
    arena: StrashArena,
    opts: DecomposeOptions,
    /// Scratch for balanced reductions, reused across nodes.
    level: Vec<NodeId>,
}

impl Builder {
    fn new(name: &str, opts: DecomposeOptions) -> Self {
        Builder {
            arena: StrashArena::new(name, opts.strash),
            opts,
            level: Vec::new(),
        }
    }

    /// Interface construction (inputs, latch materialization) goes straight
    /// to the network; gates go through the arena primitives below.
    fn net_mut(&mut self) -> &mut Network {
        self.arena.network_mut()
    }

    fn constant(&mut self, v: bool) -> NodeId {
        self.arena.constant(v)
    }

    fn const_value(&self, id: NodeId) -> Option<bool> {
        self.arena.const_value(id)
    }

    fn inv(&mut self, a: NodeId) -> NodeId {
        self.arena.inv(a)
    }

    fn nand2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.arena.nand2(a, b)
    }

    fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.nand2(a, b);
        self.inv(n)
    }

    fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let na = self.inv(a);
        let nb = self.inv(b);
        self.nand2(na, nb)
    }

    /// Exclusive-or in sum-of-products form, `a·!b + !a·b`, i.e.
    /// `nand(nand(a, !b), nand(!a, b))` — the same shape a library XOR
    /// gate's expression decomposes into, so XOR patterns match XOR logic.
    fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.inv(b),
            (_, Some(true)) => return self.inv(a),
            _ => {}
        }
        if a == b {
            return self.constant(false);
        }
        let na = self.inv(a);
        let nb = self.inv(b);
        let l = self.nand2(a, nb);
        let r = self.nand2(na, b);
        self.nand2(l, r)
    }

    /// Reduction of `xs` by a binary operator, shaped per the options. The
    /// balanced shape pairs neighbours level by level, left to right, in
    /// place in one reused buffer.
    fn balanced(&mut self, xs: &[NodeId], op: fn(&mut Self, NodeId, NodeId) -> NodeId) -> NodeId {
        assert!(!xs.is_empty(), "reduction needs at least one term");
        match self.opts.shape {
            DecompShape::Balanced => {
                let mut level = std::mem::take(&mut self.level);
                level.clear();
                level.extend_from_slice(xs);
                while level.len() > 1 {
                    let half = level.len().div_ceil(2);
                    for i in 0..half {
                        level[i] = match level.get(2 * i + 1) {
                            Some(&b) => op(self, level[2 * i], b),
                            None => level[2 * i],
                        };
                    }
                    level.truncate(half);
                }
                let root = level[0];
                self.level = level;
                root
            }
            DecompShape::LeftChain => {
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc = op(self, acc, x);
                }
                acc
            }
        }
    }

    fn and_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.balanced(xs, Builder::and2)
    }

    fn or_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.balanced(xs, Builder::or2)
    }

    fn xor_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.balanced(xs, Builder::xor2)
    }

    fn mux(&mut self, s: NodeId, a: NodeId, b: NodeId) -> NodeId {
        let ns = self.inv(s);
        let l = self.nand2(a, ns);
        let r = self.nand2(b, s);
        self.nand2(l, r)
    }

    fn maj(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        let ab = self.and2(a, b);
        let bc = self.and2(b, c);
        let ac = self.and2(a, c);
        self.or_tree(&[ab, bc, ac])
    }
}

impl SubjectGraph {
    /// Decomposes `source` into a structurally-hashed NAND2/INV subject graph.
    ///
    /// Logic not reachable from any primary output or latch data input is
    /// dropped. Latches survive decomposition unchanged (their data cone is
    /// decomposed).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic combinational
    /// logic.
    pub fn from_network(source: &Network) -> Result<SubjectGraph, NetlistError> {
        SubjectGraph::from_network_with(source, DecomposeOptions::default())
    }

    /// Like [`SubjectGraph::from_network`] with explicit decomposition
    /// options (sharing and shape ablations).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic combinational
    /// logic.
    pub fn from_network_with(
        source: &Network,
        options: DecomposeOptions,
    ) -> Result<SubjectGraph, NetlistError> {
        let t0 = Instant::now();
        let mut obs_span = dagmap_obs::span("decompose");
        obs_span.set_u64("source_nodes", source.num_nodes() as u64);
        let order = source.topo_order()?;
        let reach = source.reachable_from_outputs();
        let mut b = Builder::new(source.name(), options);
        // Map from source node to its subject-graph signal.
        let mut sig: Vec<Option<NodeId>> = vec![None; source.num_nodes()];

        // The interface is preserved exactly: every primary input exists in
        // the subject graph (in declaration order) even if its cone is dead.
        for &pi in source.inputs() {
            let name = source
                .node(pi)
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("pi_{}", pi.index()));
            sig[pi.index()] = Some(b.net_mut().add_input(name));
        }

        // Latches can appear before their fanins in the combinational order;
        // create their subject nodes in a second pass, so first create every
        // latch as a placeholder source.
        for id in source.node_ids() {
            if matches!(source.node(id).func(), NodeFn::Latch) && reach[id.index()] {
                // Temporarily give the latch a dummy fanin; it is replaced by
                // rebuilding below. Instead we add latches after the cone is
                // built -- but consumers need the latch signal first. Use an
                // Input-like placeholder: a fresh latch node whose fanin is
                // patched at the end is not supported by Network, so model the
                // latch output as a fresh Input named after it and convert
                // back at the end.
                let name = source
                    .node(id)
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("latch_{}", id.index()));
                let ph = b.net_mut().add_input(format!("__latch__{name}"));
                sig[id.index()] = Some(ph);
            }
        }

        // Per-node buffers, reused: the fanin signals, one cube's literals
        // and a cover's product terms.
        let (mut ins, mut lits, mut terms) = (Vec::new(), Vec::new(), Vec::new());
        for id in order {
            if !reach[id.index()] || sig[id.index()].is_some() {
                continue;
            }
            let node = source.node(id);
            ins.clear();
            ins.extend(
                node.fanins()
                    .iter()
                    .map(|f| sig[f.index()].expect("fanins decomposed before consumers")),
            );
            let out = match node.func() {
                NodeFn::Input => unreachable!("inputs were pre-created"),
                NodeFn::Const(v) => b.constant(*v),
                NodeFn::Buf => ins[0],
                NodeFn::Not => b.inv(ins[0]),
                NodeFn::And => b.and_tree(&ins),
                NodeFn::Or => b.or_tree(&ins),
                NodeFn::Nand => {
                    let t = b.and_tree(&ins);
                    b.inv(t)
                }
                NodeFn::Nor => {
                    let t = b.or_tree(&ins);
                    b.inv(t)
                }
                NodeFn::Xor => b.xor_tree(&ins),
                NodeFn::Xnor => {
                    let t = b.xor_tree(&ins);
                    b.inv(t)
                }
                NodeFn::Mux => b.mux(ins[0], ins[1], ins[2]),
                NodeFn::Maj => b.maj(ins[0], ins[1], ins[2]),
                NodeFn::Sop(cover) => {
                    if cover.cubes().is_empty() {
                        b.constant(!cover.output_value())
                    } else {
                        terms.clear();
                        for cube in cover.cubes() {
                            lits.clear();
                            for (pos, lit) in cube.0.iter().enumerate() {
                                match lit {
                                    CubeLit::One => lits.push(ins[pos]),
                                    CubeLit::Zero => {
                                        let n = b.inv(ins[pos]);
                                        lits.push(n);
                                    }
                                    CubeLit::DontCare => {}
                                }
                            }
                            terms.push(if lits.is_empty() {
                                b.constant(true)
                            } else {
                                b.and_tree(&lits)
                            });
                        }
                        let or = b.or_tree(&terms);
                        if cover.output_value() {
                            or
                        } else {
                            b.inv(or)
                        }
                    }
                }
                NodeFn::Latch => unreachable!("latches were pre-created"),
            };
            sig[id.index()] = Some(out);
        }

        // Materialize latches: replace each placeholder input by a real latch
        // node fed by the decomposed data cone.
        let mut placeholder_to_latch: HashMap<NodeId, NodeId> = HashMap::new();
        for id in source.node_ids() {
            if matches!(source.node(id).func(), NodeFn::Latch) && reach[id.index()] {
                let data_src = source.node(id).fanins()[0];
                let data = sig[data_src.index()].expect("latch data cone decomposed");
                let latch = b
                    .net_mut()
                    .add_node(NodeFn::Latch, vec![data])
                    .expect("latch arity is 1");
                if let Some(name) = source.node(id).name() {
                    b.net_mut().set_node_name(latch, name);
                }
                placeholder_to_latch.insert(sig[id.index()].expect("placeholder exists"), latch);
            }
        }
        if !placeholder_to_latch.is_empty() {
            let (built, stats) = b.arena.into_parts();
            return SubjectGraph::rebuild_with_latches(
                source,
                built,
                &sig,
                &placeholder_to_latch,
                stats,
                t0,
            );
        }
        let (net, stats) = {
            let (mut net, stats) = b.arena.into_parts();
            for out in source.outputs() {
                let driver = sig[out.driver.index()].expect("output cone decomposed");
                net.add_output(&out.name, driver);
            }
            (net, stats)
        };
        SubjectGraph::finish(net, stats, t0)
    }

    /// Final wrapping step shared by every constructor: the flat view with
    /// its levels and a fresh identity. `t0` is when the constructor
    /// started; the build time runs to the end of this step. The structural
    /// value numbers are left to the first [`SubjectGraph::signatures`]
    /// call: only incremental relabeling reads them.
    fn finish(
        net: Network,
        strash: StrashStats,
        t0: Instant,
    ) -> Result<SubjectGraph, NetlistError> {
        static NEXT_UID: AtomicU64 = AtomicU64::new(1);
        let flat = {
            let _s = dagmap_obs::span("decompose.flatten");
            crate::FlatNet::build(&net)?
        };
        let subject = SubjectGraph {
            net,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            flat,
            sigs: OnceLock::new(),
            strash,
            decompose_seconds: t0.elapsed().as_secs_f64(),
        };
        if dagmap_obs::enabled() {
            dagmap_obs::count("decompose.gates", subject.num_gates() as u64);
            dagmap_obs::count("decompose.multi_fanout", subject.num_multi_fanout() as u64);
            dagmap_obs::count("decompose.levels", u64::from(subject.depth()));
            dagmap_obs::count("strash.raw", subject.strash.raw as u64);
            dagmap_obs::count("strash.unique", subject.strash.unique as u64);
            dagmap_obs::count("strash.dedup_hits", subject.strash.dedup_hits as u64);
        }
        Ok(subject)
    }

    /// Rebuild step used when the source network contains latches: the
    /// builder represented latch outputs as placeholder inputs; here we emit
    /// a final network where placeholders become latch nodes whose data fanin
    /// is the (already built) decomposed cone.
    fn rebuild_with_latches(
        source: &Network,
        built: Network,
        sig: &[Option<NodeId>],
        placeholder_to_latch: &HashMap<NodeId, NodeId>,
        strash: StrashStats,
        t0: Instant,
    ) -> Result<SubjectGraph, NetlistError> {
        // `built` is acyclic if we treat placeholders as inputs. In the final
        // network, placeholder p is replaced by a latch whose fanin is
        // remap(data(p)). Because latches are ordering sources, we can emit:
        // inputs first, then combinational nodes in `built` topological order
        // (placeholders become latches with a *deferred* fanin patch), then
        // patch latch fanins. Network has no patching API, so emit latches as
        // soon as encountered with their final fanin -- which may not exist
        // yet. To avoid that, emit in two layers: all placeholders become
        // latch nodes at the very start fed by a constant, and a final fixup
        // swaps fanins in place via a rebuilt node list. Rather than extend
        // Network with mutation for everyone, do the fixup privately here.
        let order = built.topo_order().expect("builder output is acyclic");
        let mut rebuilt = Network::new(source.name());
        let mut remap: Vec<Option<NodeId>> = vec![None; built.num_nodes()];
        let zero = rebuilt
            .add_node(NodeFn::Const(false), Vec::new())
            .expect("constants are nullary");
        let mut pending_latch: Vec<(NodeId, NodeId)> = Vec::new(); // (rebuilt latch, built data)
        for id in &order {
            let id = *id;
            let node = built.node(id);
            let new_id = if let Some(&latch) = placeholder_to_latch.get(&id) {
                let l = rebuilt
                    .add_node(NodeFn::Latch, vec![zero])
                    .expect("latch arity is 1");
                if let Some(name) = built.node(latch).name() {
                    rebuilt.set_node_name(l, name);
                }
                pending_latch.push((l, built.node(latch).fanins()[0]));
                l
            } else {
                match node.func() {
                    NodeFn::Input => rebuilt.add_input(node.name().unwrap_or("pi")),
                    NodeFn::Latch => continue, // replaced via placeholders
                    f => {
                        let fin: Vec<NodeId> = node
                            .fanins()
                            .iter()
                            .map(|x| remap[x.index()].expect("fanin emitted"))
                            .collect();
                        rebuilt
                            .add_node(f.clone(), fin)
                            .expect("arity preserved by rebuild")
                    }
                }
            };
            remap[id.index()] = Some(new_id);
        }
        // Patch latch data fanins now that every cone exists.
        for (latch, data) in pending_latch {
            let new_data = remap[data.index()].expect("latch data cone emitted");
            rebuilt.replace_single_fanin(latch, new_data);
        }
        for out in source.outputs() {
            let driver = sig[out.driver.index()].expect("output cone decomposed");
            let driver = remap[driver.index()].expect("driver emitted");
            rebuilt.add_output(&out.name, driver);
        }
        SubjectGraph::finish(rebuilt, strash, t0)
    }

    /// Wraps a network that is *already* in NAND2/INV form (for example one
    /// read back from BLIF).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invariant`] if any internal node is not a
    /// two-input NAND, an inverter, a constant, or a latch, and
    /// [`NetlistError::CombinationalCycle`] if the network is cyclic.
    pub fn from_subject_network(net: Network) -> Result<SubjectGraph, NetlistError> {
        let t0 = Instant::now();
        for id in net.node_ids() {
            let node = net.node(id);
            let ok = match node.func() {
                NodeFn::Input | NodeFn::Const(_) | NodeFn::Latch => true,
                NodeFn::Nand => node.fanins().len() == 2,
                NodeFn::Not => true,
                _ => false,
            };
            if !ok {
                return Err(NetlistError::Invariant(format!(
                    "node {id} ({}) is not allowed in a subject graph",
                    node.func().name()
                )));
            }
        }
        // No construction ran through the arena, so there is nothing to
        // attribute to folding or dedup: the stats just describe the size.
        let gates = net
            .node_ids()
            .filter(|&id| matches!(net.node(id).func(), NodeFn::Nand | NodeFn::Not))
            .count();
        let stats = StrashStats {
            raw: gates,
            folded: 0,
            dedup_hits: 0,
            unique: gates,
        };
        SubjectGraph::finish(net, stats, t0)
    }

    /// The underlying NAND2/INV network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consumes the wrapper, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Classifies a node.
    pub fn kind(&self, id: NodeId) -> SubjectKind {
        match self.net.node(id).func() {
            NodeFn::Input => SubjectKind::Input,
            NodeFn::Const(v) => SubjectKind::Const(*v),
            NodeFn::Nand => SubjectKind::Nand2,
            NodeFn::Not => SubjectKind::Inv,
            NodeFn::Latch => SubjectKind::Latch,
            other => unreachable!("subject graphs never hold {}", other.name()),
        }
    }

    /// Unit-delay level of a node (inputs, constants and latches are 0).
    pub fn level(&self, id: NodeId) -> u32 {
        self.flat.level(id)
    }

    /// A process-unique identity, assigned when the subject graph is built
    /// and shared by its clones (which have the same structure). Per-subject
    /// caches key on it, never on an address or a node count.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The flat CSR view of the subject graph — the representation the
    /// labeling and matching hot paths traverse, and the subject's one
    /// level structure: [`crate::FlatNet::level_group`] yields the
    /// wavefronts a level-synchronized labeling pass iterates.
    pub fn flat(&self) -> &crate::FlatNet {
        &self.flat
    }

    /// Per-node structural value numbers (see [`crate::strash`]): the
    /// content addresses incremental relabeling recognizes the untouched
    /// region of an edited network by. Computed on the first call, outside
    /// [`SubjectGraph::decompose_seconds`].
    pub fn signatures(&self) -> &Signatures {
        self.sigs.get_or_init(|| {
            let _s = dagmap_obs::span("decompose.sigs");
            crate::strash::signatures(&self.net)
        })
    }

    /// How much structural hashing compressed this decomposition.
    pub fn strash_stats(&self) -> &StrashStats {
        &self.strash
    }

    /// Wall-clock seconds this subject graph took to build: decomposition
    /// (or validation, for [`SubjectGraph::from_subject_network`]) plus
    /// the flat view with its levels. Signatures are computed later, on
    /// demand, and are not included.
    pub fn decompose_seconds(&self) -> f64 {
        self.decompose_seconds
    }

    /// Unit-delay depth: the maximum level over primary-output drivers and
    /// latch data inputs.
    pub fn depth(&self) -> u32 {
        let mut d = 0;
        for out in self.net.outputs() {
            d = d.max(self.flat.level(out.driver));
        }
        for id in self.net.node_ids() {
            if matches!(self.net.node(id).func(), NodeFn::Latch) {
                d = d.max(self.flat.level(self.net.node(id).fanins()[0]));
            }
        }
        d
    }

    /// Number of NAND/INV nodes.
    pub fn num_gates(&self) -> usize {
        self.net
            .node_ids()
            .filter(|&id| matches!(self.kind(id), SubjectKind::Nand2 | SubjectKind::Inv))
            .count()
    }

    /// Count of nodes with more than one fanout edge — the points tree
    /// covering must preserve and DAG covering may dissolve.
    pub fn num_multi_fanout(&self) -> usize {
        self.net
            .node_ids()
            .filter(|&id| self.net.node(id).fanout_count() > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn decompose(net: &Network) -> SubjectGraph {
        let s = SubjectGraph::from_network(net).unwrap();
        s.network().validate().unwrap();
        for id in s.network().node_ids() {
            let _ = s.kind(id); // panics on an illegal node kind
        }
        s
    }

    #[test]
    fn decomposes_all_gate_types_preserving_function() {
        let mut net = Network::new("allgates");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let funcs: Vec<(&str, NodeFn, Vec<NodeId>)> = vec![
            ("and", NodeFn::And, vec![a, b, c]),
            ("or", NodeFn::Or, vec![a, b, c]),
            ("nand", NodeFn::Nand, vec![a, b, c]),
            ("nor", NodeFn::Nor, vec![a, b, c]),
            ("xor", NodeFn::Xor, vec![a, b, c]),
            ("xnor", NodeFn::Xnor, vec![a, b, c]),
            ("mux", NodeFn::Mux, vec![a, b, c]),
            ("maj", NodeFn::Maj, vec![a, b, c]),
            ("not", NodeFn::Not, vec![a]),
            ("buf", NodeFn::Buf, vec![b]),
        ];
        for (name, f, ins) in funcs {
            let n = net.add_node(f, ins).unwrap();
            net.add_output(name, n);
        }
        let subject = decompose(&net);
        assert!(sim::equivalent_random(&net, subject.network(), 16, 7).unwrap());
    }

    #[test]
    fn strash_shares_structure() {
        let mut net = Network::new("share");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let y = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let f = net.add_node(NodeFn::Or, vec![x, y]).unwrap();
        net.add_output("f", f);
        let subject = decompose(&net);
        // or(x, x) with x = and(a,b): folds to a tiny graph, certainly fewer
        // than two separate AND cones.
        assert!(subject.num_gates() <= 3);
    }

    #[test]
    fn double_inverters_fold() {
        let mut net = Network::new("ii");
        let a = net.add_input("a");
        let n1 = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let n2 = net.add_node(NodeFn::Not, vec![n1]).unwrap();
        net.add_output("f", n2);
        let subject = decompose(&net);
        assert_eq!(subject.network().outputs()[0].driver, {
            // output collapses straight to the input
            subject.network().inputs()[0]
        });
    }

    #[test]
    fn constants_fold_through() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let k = net.add_node(NodeFn::Const(true), vec![]).unwrap();
        let f = net.add_node(NodeFn::And, vec![a, k]).unwrap();
        net.add_output("f", f);
        let subject = decompose(&net);
        // and(a, 1) = a
        assert_eq!(
            subject.network().outputs()[0].driver,
            subject.network().inputs()[0]
        );
    }

    #[test]
    fn xor_uses_sop_shape() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        net.add_output("f", f);
        let subject = decompose(&net);
        // nand(nand(a, !b), nand(!a, b)): 3 NANDs + 2 INVs.
        assert_eq!(subject.num_gates(), 5);
        assert_eq!(subject.depth(), 3);
        assert!(sim::equivalent_random(&net, subject.network(), 8, 3).unwrap());
    }

    #[test]
    fn levels_and_depth_agree() {
        let mut net = Network::new("lvl");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let f = net.add_node(NodeFn::And, vec![a, b, c, d]).unwrap();
        net.add_output("f", f);
        let subject = decompose(&net);
        let driver = subject.network().outputs()[0].driver;
        assert_eq!(subject.level(driver), subject.depth());
    }

    #[test]
    fn latches_survive_decomposition() {
        let mut net = Network::new("seq");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let q = net.add_node(NodeFn::Latch, vec![g]).unwrap();
        net.set_node_name(q, "q");
        let h = net.add_node(NodeFn::Xor, vec![q, a]).unwrap();
        net.add_output("f", h);
        let subject = decompose(&net);
        assert_eq!(subject.network().num_latches(), 1);
        assert!(sim::equivalent_random_sequential(&net, subject.network(), 8, 16, 11).unwrap());
    }

    #[test]
    fn strash_ablation_duplicates_structure() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        let g = net.add_node(NodeFn::Xnor, vec![a, b]).unwrap();
        net.add_output("f", f);
        net.add_output("g", g);
        let shared = SubjectGraph::from_network(&net).unwrap();
        let unshared = SubjectGraph::from_network_with(
            &net,
            DecomposeOptions {
                strash: false,
                shape: DecompShape::Balanced,
            },
        )
        .unwrap();
        assert!(unshared.num_gates() > shared.num_gates());
        assert!(unshared.num_multi_fanout() <= shared.num_multi_fanout());
        assert!(sim::equivalent_random(&net, unshared.network(), 8, 5).unwrap());
    }

    #[test]
    fn chain_shape_deepens_wide_gates() {
        let mut net = Network::new("w");
        let ins: Vec<NodeId> = (0..8).map(|i| net.add_input(format!("x{i}"))).collect();
        let f = net.add_node(NodeFn::And, ins).unwrap();
        net.add_output("f", f);
        let balanced = SubjectGraph::from_network(&net).unwrap();
        let chained = SubjectGraph::from_network_with(
            &net,
            DecomposeOptions {
                strash: true,
                shape: DecompShape::LeftChain,
            },
        )
        .unwrap();
        assert!(chained.depth() > balanced.depth());
        assert!(sim::equivalent_random(&net, chained.network(), 8, 6).unwrap());
    }

    #[test]
    fn sop_nodes_decompose() {
        use crate::SopCover;
        let mut net = Network::new("sop");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let cover = SopCover::parse_cubes(3, &["1-0", "011"], true).unwrap();
        let f = net.add_node(NodeFn::Sop(cover), vec![a, b, c]).unwrap();
        net.add_output("f", f);
        let subject = decompose(&net);
        assert!(sim::equivalent_random(&net, subject.network(), 8, 5).unwrap());
    }
}
