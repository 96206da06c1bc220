use std::fmt;

use crate::{NetlistError, NodeFn, NodeId};

/// A read-only view of one node of a [`Network`]: a function applied to
/// ordered fanins. The view is `Copy` and borrows the network's flat
/// arrays; it owns nothing.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    net: &'a Network,
    index: usize,
}

impl<'a> Node<'a> {
    /// The node's logic function.
    pub fn func(self) -> &'a NodeFn {
        &self.net.funcs[self.index]
    }

    /// Ordered fanins (drivers) of the node.
    pub fn fanins(self) -> &'a [NodeId] {
        self.net.fanins_of(self.index)
    }

    /// Number of fanout edges: one per consuming edge, so a consumer using
    /// this node twice counts twice, and a latch's data edge counts.
    pub fn fanout_count(self) -> usize {
        self.net.fanout_count[self.index] as usize
    }

    /// Optional signal name (primary inputs always have one).
    pub fn name(self) -> Option<&'a str> {
        let span = self.net.name_spans[self.index];
        (span.len != NO_NAME).then(|| {
            let start = span.start as usize;
            &self.net.names[start..start + span.len as usize]
        })
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name())
            .field("func", self.func())
            .field("fanins", &self.fanins())
            .field("fanout_count", &self.fanout_count())
            .finish()
    }
}

/// Length marking an unnamed node's span in the name table.
const NO_NAME: u32 = u32::MAX;

/// Where a node's name lives in [`Network`]'s name table.
#[derive(Debug, Clone, Copy)]
struct NameSpan {
    start: u32,
    len: u32,
}

/// Converts an arena length to a `u32` offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("network arrays are u32-indexed")
}

/// A local, structure-preserving edit to a [`Network`] — the unit of change
/// the incremental re-mapping path (`remap` in the serve protocol) reasons
/// about. Edits never delete nodes: detached logic is simply unreachable and
/// gets dropped by the next decomposition's reachability pass.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEdit {
    /// Adds a primary input named `name`.
    AddInput {
        /// Port name.
        name: String,
    },
    /// Adds an internal node computing `func` over existing fanins.
    AddNode {
        /// Logic function.
        func: NodeFn,
        /// Ordered drivers (must already exist).
        fanins: Vec<NodeId>,
        /// Optional signal name.
        name: Option<String>,
    },
    /// Rewires fanin `pin` of `node` to `new_fanin`.
    ReplaceFanin {
        /// The consumer being rewired.
        node: NodeId,
        /// Which fanin position to rewire.
        pin: usize,
        /// The new driver.
        new_fanin: NodeId,
    },
    /// Redirects the primary output named `output` to `driver`.
    SetOutputDriver {
        /// Output port name.
        output: String,
        /// The new driving node.
        driver: NodeId,
    },
}

/// A named primary output and the node that drives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Port name.
    pub name: String,
    /// Driving node.
    pub driver: NodeId,
}

/// A multi-level Boolean network: a DAG of [`Node`]s with named primary
/// inputs and outputs, plus optional edge-triggered [`NodeFn::Latch`] state.
///
/// Nodes are created in dependency order or out of order — fanins must merely
/// exist when a node is added. Combinational cycles are rejected by
/// [`Network::topo_order`] and [`Network::validate`]; cycles through latches
/// are legal.
///
/// Storage is flat: one function array, the fanins of every node in one
/// arena with per-node offsets, a fanout-edge count per node and every name
/// in one string table. Building, cloning and dropping a network allocate
/// per array, not per node.
///
/// ```
/// use dagmap_netlist::{Network, NodeFn};
///
/// # fn main() -> Result<(), dagmap_netlist::NetlistError> {
/// let mut net = Network::new("half_adder");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let sum = net.add_node(NodeFn::Xor, [a, b])?;
/// let carry = net.add_node(NodeFn::And, [a, b])?;
/// net.add_output("sum", sum);
/// net.add_output("carry", carry);
/// assert_eq!(net.num_nodes(), 4);
/// assert_eq!(net.num_internal(), 2);
/// assert_eq!(net.node(a).fanout_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    /// Per-node function.
    funcs: Vec<NodeFn>,
    /// Fanin offsets: node `i`'s fanins are `fanins[fanin_off[i]..fanin_off[i + 1]]`.
    fanin_off: Vec<u32>,
    /// Every node's fanins, concatenated in id order. Rewiring writes in
    /// place, so a node's fanin count never changes.
    fanins: Vec<NodeId>,
    /// Per-node fanout-edge count.
    fanout_count: Vec<u32>,
    /// Per-node span in `names` (`len == NO_NAME` when unnamed).
    name_spans: Vec<NameSpan>,
    /// Every node name, concatenated; renaming appends and leaves a hole.
    names: String,
    inputs: Vec<NodeId>,
    outputs: Vec<Output>,
}

impl Network {
    /// Creates an empty network with a model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            funcs: Vec::new(),
            fanin_off: vec![0],
            fanins: Vec::new(),
            fanout_count: Vec::new(),
            name_spans: Vec::new(),
            names: String::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Reserves room for `nodes` more nodes carrying `fanins` more fanin
    /// edges, so a builder that knows its size grows each array once.
    pub fn reserve(&mut self, nodes: usize, fanins: usize) {
        self.funcs.reserve(nodes);
        self.fanin_off.reserve(nodes);
        self.fanout_count.reserve(nodes);
        self.name_spans.reserve(nodes);
        self.fanins.reserve(fanins);
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Fanins of node `index`.
    fn fanins_of(&self, index: usize) -> &[NodeId] {
        &self.fanins[self.fanin_off[index] as usize..self.fanin_off[index + 1] as usize]
    }

    /// Appends a node; the fanins must already be checked.
    fn push(&mut self, func: NodeFn, fanins: &[NodeId]) -> NodeId {
        let id = NodeId::from_index(self.funcs.len());
        for &f in fanins {
            self.fanout_count[f.index()] += 1;
        }
        self.funcs.push(func);
        self.fanins.extend_from_slice(fanins);
        self.fanin_off.push(offset(self.fanins.len()));
        self.fanout_count.push(0);
        self.name_spans.push(NameSpan {
            start: 0,
            len: NO_NAME,
        });
        id
    }

    /// Adds a named primary input and returns its id.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NodeId {
        let id = self.push(NodeFn::Input, &[]);
        self.set_node_name(id, name);
        self.inputs.push(id);
        id
    }

    /// Adds an internal node computing `func` over `fanins` (any slice-like
    /// list: an array, a slice or a `Vec`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Arity`] if the fanin count is illegal for
    /// `func`, or [`NetlistError::UnknownNode`] if a fanin id is stale.
    pub fn add_node(
        &mut self,
        func: NodeFn,
        fanins: impl AsRef<[NodeId]>,
    ) -> Result<NodeId, NetlistError> {
        let fanins = fanins.as_ref();
        if let Err(expected) = func.check_arity(fanins.len()) {
            return Err(NetlistError::Arity {
                func: func.name(),
                got: fanins.len(),
                expected,
            });
        }
        if let Some(&f) = fanins.iter().find(|f| f.index() >= self.funcs.len()) {
            return Err(NetlistError::UnknownNode(f));
        }
        Ok(self.push(func, fanins))
    }

    /// Assigns a signal name to a node (used by the BLIF reader/writer).
    pub fn set_node_name(&mut self, id: NodeId, name: impl AsRef<str>) {
        let name = name.as_ref();
        let span = NameSpan {
            start: offset(self.names.len()),
            len: offset(name.len()),
        };
        assert!(span.len != NO_NAME, "node name too long");
        self.names.push_str(name);
        self.name_spans[id.index()] = span;
    }

    /// Declares `driver` as the primary output `name`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) {
        self.outputs.push(Output {
            name: name.into(),
            driver,
        });
    }

    /// A view of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different network and is out of range.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(id.index() < self.funcs.len(), "node {id} is out of range");
        Node {
            net: self,
            index: id.index(),
        }
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Total node count (inputs, constants, logic, latches).
    pub fn num_nodes(&self) -> usize {
        self.funcs.len()
    }

    /// Count of internal nodes (everything that is not a primary input).
    pub fn num_internal(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| !matches!(f, NodeFn::Input))
            .count()
    }

    /// Count of latch nodes.
    pub fn num_latches(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| matches!(f, NodeFn::Latch))
            .count()
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.fanins.len()
    }

    /// Iterator over all node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.funcs.len()).map(NodeId::from_index)
    }

    /// Looks a node up by signal name (inputs and named internal nodes).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_ids()
            .find(|&id| self.node(id).name() == Some(name))
    }

    /// Combinational topological order.
    ///
    /// Latches and primary inputs act as sources (a latch's output value is
    /// available at the start of the cycle); latch *data* fanins impose no
    /// ordering constraint on the latch itself. Every node appears exactly
    /// once.
    ///
    /// The order is Kahn's: sources in id order, then each released node's
    /// combinational consumers in consumer-id order, one visit per edge.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the latch-free part of
    /// the network is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.funcs.len();
        let is_latch = |i: usize| matches!(self.funcs[i], NodeFn::Latch);
        // Combinational fanout CSR, consumers in id order. Edges into a
        // latch are left out: the latch is a source, its data fanin is
        // consumed at the end of the cycle.
        let mut out_off = vec![0u32; n + 1];
        for v in (0..n).filter(|&v| !is_latch(v)) {
            for f in self.fanins_of(v) {
                out_off[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            out_off[i + 1] += out_off[i];
        }
        let mut fill = out_off.clone();
        let mut consumers = vec![0u32; out_off[n] as usize];
        let mut indeg = vec![0u32; n];
        for v in (0..n).filter(|&v| !is_latch(v)) {
            let fanins = self.fanins_of(v);
            indeg[v] = offset(fanins.len());
            for f in fanins {
                let slot = &mut fill[f.index()];
                consumers[*slot as usize] = v as u32;
                *slot += 1;
            }
        }
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0).map(NodeId::from_index));
        let mut head = 0;
        while head < order.len() {
            let u = order[head].index();
            head += 1;
            for &v in &consumers[out_off[u] as usize..out_off[u + 1] as usize] {
                let v = v as usize;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    order.push(NodeId::from_index(v));
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .expect("some node must be stuck when the order is short");
            return Err(NetlistError::CombinationalCycle(NodeId::from_index(stuck)));
        }
        Ok(order)
    }

    /// Checks structural invariants: acyclicity of the combinational part,
    /// well-formed fanin offsets, fanin ids in range, and every node's
    /// fanout count equal to the fanin edges naming it.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.funcs.len();
        let consistent = self.fanin_off.len() == n + 1
            && self.fanin_off[0] == 0
            && self.fanin_off[n] as usize == self.fanins.len()
            && self.fanin_off.windows(2).all(|w| w[0] <= w[1]);
        if !consistent {
            return Err(NetlistError::Invariant(
                "fanin offsets do not partition the fanin arena".into(),
            ));
        }
        if let Some(&f) = self.fanins.iter().find(|f| f.index() >= n) {
            return Err(NetlistError::UnknownNode(f));
        }
        self.topo_order()?;
        let mut counts = vec![0u32; n];
        for f in &self.fanins {
            counts[f.index()] += 1;
        }
        if counts != self.fanout_count {
            return Err(NetlistError::Invariant(
                "fanout counts disagree with the fanin edges".into(),
            ));
        }
        Ok(())
    }

    /// Replaces the single fanin of a one-fanin node, keeping fanout counts
    /// consistent.
    ///
    /// This exists for the latch-construction idiom: a latch participates in
    /// cycles, so it is created first with a placeholder fanin and patched
    /// once its data cone exists.
    ///
    /// # Panics
    ///
    /// Panics if the node does not have exactly one fanin.
    pub fn replace_single_fanin(&mut self, id: NodeId, new_fanin: NodeId) {
        assert_eq!(
            self.fanins_of(id.index()).len(),
            1,
            "replace_single_fanin needs arity 1"
        );
        self.rewire(id, 0, new_fanin);
    }

    /// Points fanin `pin` of `id` at `new_fanin` in place and moves one
    /// fanout edge from the old driver to the new one. Panics if `id` has
    /// no fanin `pin`, rather than writing into the next node's fanins.
    fn rewire(&mut self, id: NodeId, pin: usize, new_fanin: NodeId) {
        let start = self.fanin_off[id.index()] as usize;
        let end = self.fanin_off[id.index() + 1] as usize;
        let slot = &mut self.fanins[start..end][pin];
        let old = std::mem::replace(slot, new_fanin);
        self.fanout_count[old.index()] -= 1;
        self.fanout_count[new_fanin.index()] += 1;
    }

    /// Replaces fanin `pin` of any node, keeping fanout counts consistent.
    ///
    /// The generalization of [`Network::replace_single_fanin`] backing
    /// [`NetEdit::ReplaceFanin`]. Acyclicity is *not* re-checked here — batch
    /// callers go through [`Network::apply_edits`], which validates once at
    /// the end.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] for stale ids and
    /// [`NetlistError::Invariant`] for an out-of-range pin.
    pub fn replace_fanin(
        &mut self,
        id: NodeId,
        pin: usize,
        new_fanin: NodeId,
    ) -> Result<(), NetlistError> {
        if id.index() >= self.funcs.len() {
            return Err(NetlistError::UnknownNode(id));
        }
        if new_fanin.index() >= self.funcs.len() {
            return Err(NetlistError::UnknownNode(new_fanin));
        }
        if pin >= self.fanins_of(id.index()).len() {
            return Err(NetlistError::Invariant(format!(
                "node {id} has no fanin pin {pin}"
            )));
        }
        self.rewire(id, pin, new_fanin);
        Ok(())
    }

    /// Applies one [`NetEdit`], returning the created node id for the
    /// `Add*` variants.
    ///
    /// Combinational acyclicity is not re-checked per edit (a rewire can be
    /// transiently cyclic mid-batch); use [`Network::apply_edits`] to apply
    /// a batch and validate the result once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] / [`NetlistError::Arity`] /
    /// [`NetlistError::Invariant`] for edits referencing stale ids, illegal
    /// fanin counts, bad pins, or unknown output names.
    pub fn apply_edit(&mut self, edit: NetEdit) -> Result<Option<NodeId>, NetlistError> {
        match edit {
            NetEdit::AddInput { name } => Ok(Some(self.add_input(name))),
            NetEdit::AddNode { func, fanins, name } => {
                let id = self.add_node(func, fanins)?;
                if let Some(n) = name {
                    self.set_node_name(id, n);
                }
                Ok(Some(id))
            }
            NetEdit::ReplaceFanin {
                node,
                pin,
                new_fanin,
            } => {
                self.replace_fanin(node, pin, new_fanin)?;
                Ok(None)
            }
            NetEdit::SetOutputDriver { output, driver } => {
                if driver.index() >= self.funcs.len() {
                    return Err(NetlistError::UnknownNode(driver));
                }
                let out = self
                    .outputs
                    .iter_mut()
                    .find(|o| o.name == output)
                    .ok_or_else(|| {
                        NetlistError::Invariant(format!("no primary output named {output}"))
                    })?;
                out.driver = driver;
                Ok(None)
            }
        }
    }

    /// Applies a batch of edits, then re-validates combinational acyclicity.
    /// Returns the created node id per edit (aligned with the input).
    ///
    /// # Errors
    ///
    /// Fails fast on the first bad edit; returns
    /// [`NetlistError::CombinationalCycle`] if the batch as a whole created
    /// a cycle. On error the network may hold a prefix of the batch —
    /// callers treating edits as transactional should clone first.
    pub fn apply_edits(
        &mut self,
        edits: Vec<NetEdit>,
    ) -> Result<Vec<Option<NodeId>>, NetlistError> {
        let mut created = Vec::with_capacity(edits.len());
        for edit in edits {
            created.push(self.apply_edit(edit)?);
        }
        self.topo_order()?;
        Ok(created)
    }

    /// Removes logic not reachable from any primary output or latch,
    /// returning the swept network and the number of nodes dropped.
    /// Primary inputs are always kept (the interface is preserved).
    pub fn sweep(&self) -> (Network, usize) {
        let reach = self.reachable_from_outputs();
        let mut swept = Network::new(self.name());
        let mut remap: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        // Latches may sit in cycles: create them first on a placeholder.
        let any_latch = self
            .funcs
            .iter()
            .enumerate()
            .any(|(i, f)| matches!(f, NodeFn::Latch) && reach[i]);
        let zero = any_latch.then(|| {
            swept
                .add_node(NodeFn::Const(false), [])
                .expect("constants are nullary")
        });
        for &pi in self.inputs() {
            let id = swept.add_input(self.node(pi).name().unwrap_or("pi"));
            remap[pi.index()] = Some(id);
        }
        let mut latch_patch: Vec<(NodeId, NodeId)> = Vec::new();
        for id in self.node_ids() {
            if matches!(self.node(id).func(), NodeFn::Latch) && reach[id.index()] {
                let l = swept
                    .add_node(NodeFn::Latch, [zero.expect("placeholder exists")])
                    .expect("latch arity is 1");
                if let Some(name) = self.node(id).name() {
                    swept.set_node_name(l, name);
                }
                remap[id.index()] = Some(l);
                latch_patch.push((l, self.node(id).fanins()[0]));
            }
        }
        let order = self
            .topo_order()
            .expect("sweep requires an acyclic network");
        let mut dropped = 0;
        let mut fanins: Vec<NodeId> = Vec::new();
        for id in order {
            if remap[id.index()].is_some() {
                continue;
            }
            if !reach[id.index()] {
                dropped += 1;
                continue;
            }
            let node = self.node(id);
            fanins.clear();
            fanins.extend(
                node.fanins()
                    .iter()
                    .map(|f| remap[f.index()].expect("fanins of live nodes are live")),
            );
            let new_id = swept
                .add_node(node.func().clone(), &fanins)
                .expect("arity preserved");
            if let Some(name) = node.name() {
                swept.set_node_name(new_id, name);
            }
            remap[id.index()] = Some(new_id);
        }
        for (l, data) in latch_patch {
            swept.replace_single_fanin(l, remap[data.index()].expect("latch data is live"));
        }
        for out in self.outputs() {
            swept.add_output(
                &out.name,
                remap[out.driver.index()].expect("outputs are live"),
            );
        }
        (swept, dropped)
    }

    /// Marks every node on a path to a primary output (or a latch data input,
    /// since latches observe their fanin).
    pub fn reachable_from_outputs(&self) -> Vec<bool> {
        let mut mark = vec![false; self.funcs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for out in &self.outputs {
            stack.push(out.driver.index());
        }
        for (i, f) in self.funcs.iter().enumerate() {
            if matches!(f, NodeFn::Latch) {
                stack.push(i);
            }
        }
        while let Some(u) = stack.pop() {
            if mark[u] {
                continue;
            }
            mark[u] = true;
            stack.extend(self.fanins_of(u).iter().map(|f| f.index()));
        }
        mark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Network, NodeId) {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
        let k = net.add_node(NodeFn::Or, vec![g, h]).unwrap();
        net.add_output("f", k);
        (net, g)
    }

    #[test]
    fn builds_and_counts() {
        let (net, g) = diamond();
        assert_eq!(net.num_nodes(), 5);
        assert_eq!(net.num_internal(), 3);
        assert_eq!(net.num_edges(), 5);
        assert_eq!(net.node(g).fanout_count(), 2);
        net.validate().unwrap();
    }

    #[test]
    fn topo_order_respects_edges() {
        let (net, _) = diamond();
        let order = net.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; net.num_nodes()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for id in net.node_ids() {
            for f in net.node(id).fanins() {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn rejects_bad_arity() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let err = net.add_node(NodeFn::Not, vec![a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::Arity { .. }));
    }

    #[test]
    #[should_panic(expected = "replace_single_fanin needs arity 1")]
    fn replace_single_fanin_on_an_input_panics() {
        let (mut net, g) = diamond();
        let a = net.find_by_name("a").unwrap();
        net.replace_single_fanin(a, g);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn rewire_never_writes_past_the_nodes_own_fanins() {
        // Input `a` has no fanins; its pin 0 would be the AND's first fanin.
        let (mut net, g) = diamond();
        let a = net.find_by_name("a").unwrap();
        net.rewire(a, 0, g);
    }

    #[test]
    fn latch_cycles_are_legal() {
        // A toggle: latch feeds an inverter that feeds the latch.
        let mut net = Network::new("toggle");
        // Create the inverter lazily: add latch with a placeholder input first
        // is impossible (fanins must exist), so build inverter on a dummy then
        // rebuild: instead build inv(latch) with latch on inv -- we need
        // two-step: create input-free? Use the supported pattern:
        let a = net.add_input("seed");
        let inv = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let latch = net.add_node(NodeFn::Latch, vec![inv]).unwrap();
        let inv2 = net.add_node(NodeFn::Not, vec![latch]).unwrap();
        let _latch2 = net.add_node(NodeFn::Latch, vec![inv2]).unwrap();
        net.add_output("q", latch);
        assert!(net.topo_order().is_ok());
        assert_eq!(net.num_latches(), 2);
    }

    #[test]
    fn finds_nodes_by_name() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let g = net.add_node(NodeFn::Not, vec![a]).unwrap();
        net.set_node_name(g, "g");
        assert_eq!(net.find_by_name("a"), Some(a));
        assert_eq!(net.find_by_name("g"), Some(g));
        assert_eq!(net.find_by_name("zzz"), None);
    }

    #[test]
    fn sweep_drops_dead_logic_and_keeps_function() {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let live = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        let dead1 = net.add_node(NodeFn::Or, vec![a, b]).unwrap();
        let _dead2 = net.add_node(NodeFn::Not, vec![dead1]).unwrap();
        net.add_output("f", live);
        let (swept, dropped) = net.sweep();
        assert_eq!(dropped, 2);
        assert_eq!(swept.num_internal(), 1);
        assert_eq!(swept.inputs().len(), 2, "interface preserved");
        assert!(crate::sim::equivalent_random(&net, &swept, 8, 1).unwrap());
        swept.validate().unwrap();
    }

    #[test]
    fn sweep_preserves_sequential_behaviour() {
        let mut net = Network::new("seq");
        let a = net.add_input("a");
        let l = net.add_node(NodeFn::Latch, vec![a]).unwrap(); // placeholder
        let x = net.add_node(NodeFn::Xor, vec![l, a]).unwrap();
        net.replace_single_fanin(l, x);
        let dead = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let _ = dead;
        net.add_output("q", l);
        let (swept, dropped) = net.sweep();
        assert_eq!(dropped, 1);
        assert_eq!(swept.num_latches(), 1);
        assert!(crate::sim::equivalent_random_sequential(&net, &swept, 8, 8, 2).unwrap());
    }

    /// Kahn's order over per-node fanout lists kept the way node-owned
    /// storage kept them: `add_node` appends the consumer once per pin, and
    /// a rewire swap-removes it from the old driver and pushes it onto the
    /// new one. Latch consumers release nothing.
    struct FanoutListOrder(Vec<Vec<usize>>);

    impl FanoutListOrder {
        fn add(&mut self, net: &Network, id: NodeId) {
            self.0.push(Vec::new());
            for f in net.node(id).fanins() {
                self.0[f.index()].push(id.index());
            }
        }

        fn rewire(&mut self, id: NodeId, old: NodeId, new: NodeId) {
            let list = &mut self.0[old.index()];
            let pos = list.iter().position(|&t| t == id.index()).unwrap();
            list.swap_remove(pos);
            self.0[new.index()].push(id.index());
        }

        fn order(&self, net: &Network) -> Vec<NodeId> {
            let is_latch = |i: usize| matches!(net.funcs[i], NodeFn::Latch);
            let n = net.num_nodes();
            let mut indeg: Vec<usize> = (0..n)
                .map(|i| {
                    if is_latch(i) {
                        0
                    } else {
                        net.fanins_of(i).len()
                    }
                })
                .collect();
            let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in self.0[u].iter().filter(|&&v| !is_latch(v)) {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        queue.push(v);
                    }
                }
            }
            queue.into_iter().map(NodeId::from_index).collect()
        }
    }

    #[test]
    fn topo_order_matches_fanout_lists_when_only_latches_are_patched() {
        // Subject graphs are numbered in this order, so it must stay the
        // order node-owned fanout lists gave on every network whose only
        // rewires are latch patches off a placeholder that only latches
        // read (the parser's, lowering's and generators' idiom). A gate
        // reading the placeholder would be reordered by the swap-remove.
        let mut rng = crate::sim::SplitMix64::new(7);
        let mut below = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        for _ in 0..20 {
            let mut net = Network::new("r");
            let mut lists = FanoutListOrder(Vec::new());
            for i in 0..4 {
                let id = net.add_input(format!("x{i}"));
                lists.add(&net, id);
            }
            let zero = net.add_node(NodeFn::Const(false), []).unwrap();
            lists.add(&net, zero);
            let latches: Vec<NodeId> = (0..3)
                .map(|_| {
                    let l = net.add_node(NodeFn::Latch, [zero]).unwrap();
                    lists.add(&net, l);
                    l
                })
                .collect();
            for _ in 0..60 {
                let n = net.num_nodes();
                let fanins: Vec<NodeId> = (0..1 + below(3))
                    .map(|_| match below(n) {
                        i if i == zero.index() => NodeId::from_index(0),
                        i => NodeId::from_index(i),
                    })
                    .collect();
                let func = [NodeFn::And, NodeFn::Or, NodeFn::Xor][below(3)].clone();
                let id = net.add_node(func, &fanins).unwrap();
                lists.add(&net, id);
            }
            for &l in &latches {
                let data = NodeId::from_index(below(net.num_nodes()));
                net.replace_single_fanin(l, data);
                lists.rewire(l, zero, data);
            }
            net.validate().unwrap();
            assert_eq!(net.topo_order().unwrap(), lists.order(&net));
        }
    }

    #[test]
    fn reachability_marks_cones() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let used = net.add_node(NodeFn::Not, vec![a]).unwrap();
        let unused = net.add_node(NodeFn::Not, vec![b]).unwrap();
        net.add_output("f", used);
        let mark = net.reachable_from_outputs();
        assert!(mark[used.index()]);
        assert!(mark[a.index()]);
        assert!(!mark[unused.index()]);
    }
}
