use std::collections::HashMap;

use crate::{NetlistError, NodeFn, NodeId};

/// A node of a [`Network`]: a function applied to ordered fanins.
#[derive(Debug, Clone)]
pub struct Node {
    name: Option<String>,
    func: NodeFn,
    fanins: Vec<NodeId>,
    fanouts: Vec<NodeId>,
}

impl Node {
    /// The node's logic function.
    pub fn func(&self) -> &NodeFn {
        &self.func
    }

    /// Ordered fanins (drivers) of the node.
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }

    /// Fanout consumers of the node, one entry per consuming edge
    /// (a consumer using this node twice appears twice).
    pub fn fanouts(&self) -> &[NodeId] {
        &self.fanouts
    }

    /// Optional signal name (primary inputs always have one).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
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
/// ```
/// use dagmap_netlist::{Network, NodeFn};
///
/// # fn main() -> Result<(), dagmap_netlist::NetlistError> {
/// let mut net = Network::new("half_adder");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let sum = net.add_node(NodeFn::Xor, vec![a, b])?;
/// let carry = net.add_node(NodeFn::And, vec![a, b])?;
/// net.add_output("sum", sum);
/// net.add_output("carry", carry);
/// assert_eq!(net.num_nodes(), 4);
/// assert_eq!(net.num_internal(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<Output>,
}

impl Network {
    /// Creates an empty network with a model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a named primary input and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: Some(name.into()),
            func: NodeFn::Input,
            fanins: Vec::new(),
            fanouts: Vec::new(),
        });
        self.inputs.push(id);
        id
    }

    /// Adds an internal node computing `func` over `fanins`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Arity`] if the fanin count is illegal for
    /// `func`, or [`NetlistError::UnknownNode`] if a fanin id is stale.
    pub fn add_node(&mut self, func: NodeFn, fanins: Vec<NodeId>) -> Result<NodeId, NetlistError> {
        if let Err(expected) = func.check_arity(fanins.len()) {
            return Err(NetlistError::Arity {
                func: func.name(),
                got: fanins.len(),
                expected,
            });
        }
        for &f in &fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(f));
            }
        }
        let id = NodeId::from_index(self.nodes.len());
        for &f in &fanins {
            self.nodes[f.index()].fanouts.push(id);
        }
        self.nodes.push(Node {
            name: None,
            func,
            fanins,
            fanouts: Vec::new(),
        });
        Ok(id)
    }

    /// Assigns a signal name to a node (used by the BLIF reader/writer).
    pub fn set_node_name(&mut self, id: NodeId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    /// Declares `driver` as the primary output `name`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) {
        self.outputs.push(Output {
            name: name.into(),
            driver,
        });
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different network and is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
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
        self.nodes.len()
    }

    /// Count of internal nodes (everything that is not a primary input).
    pub fn num_internal(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.func, NodeFn::Input))
            .count()
    }

    /// Count of latch nodes.
    pub fn num_latches(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.func, NodeFn::Latch))
            .count()
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.fanins.len()).sum()
    }

    /// Iterator over all node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Looks a node up by signal name (inputs and named internal nodes).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_ids()
            .find(|&id| self.nodes[id.index()].name.as_deref() == Some(name))
    }

    /// Combinational topological order.
    ///
    /// Latches and primary inputs act as sources (a latch's output value is
    /// available at the start of the cycle); latch *data* fanins impose no
    /// ordering constraint on the latch itself. Every node appears exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the latch-free part of
    /// the network is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.nodes.len();
        // In-degree over combinational edges only: an edge u -> v constrains v
        // unless v is a latch (its data input is consumed at the *end* of the
        // cycle) or u is... never exempt: latch outputs are ready at t=0, but
        // the latch node itself is a source, so edges out of latches still
        // order consumers after the (zero-indegree) latch.
        let mut indeg = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.func, NodeFn::Latch) {
                continue; // latch is a source: ignore its data fanin
            }
            indeg[i] = node.fanins.len();
        }
        let mut queue: Vec<usize> = Vec::with_capacity(n);
        queue.extend((0..n).filter(|&i| indeg[i] == 0));
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(NodeId::from_index(u));
            for &v in &self.nodes[u].fanouts {
                let vi = v.index();
                if matches!(self.nodes[vi].func, NodeFn::Latch) {
                    continue;
                }
                indeg[vi] -= 1;
                if indeg[vi] == 0 {
                    queue.push(vi);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0 && !matches!(self.nodes[i].func, NodeFn::Latch))
                .expect("some node must be stuck when the order is short");
            return Err(NetlistError::CombinationalCycle(NodeId::from_index(stuck)));
        }
        Ok(order)
    }

    /// Checks structural invariants: acyclicity of the combinational part and
    /// fanin/fanout cross-consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.topo_order()?;
        // Each fanin edge must be mirrored by exactly one fanout entry.
        let mut counts: HashMap<(usize, usize), i64> = HashMap::new();
        for (v, node) in self.nodes.iter().enumerate() {
            for f in &node.fanins {
                *counts.entry((f.index(), v)).or_insert(0) += 1;
            }
        }
        for (u, node) in self.nodes.iter().enumerate() {
            for t in &node.fanouts {
                *counts.entry((u, t.index())).or_insert(0) -= 1;
            }
        }
        if counts.values().any(|&c| c != 0) {
            return Err(NetlistError::Invariant(
                "fanin and fanout edge multisets disagree".into(),
            ));
        }
        Ok(())
    }

    /// Replaces the single fanin of a one-fanin node, keeping fanout lists
    /// consistent.
    ///
    /// This exists for the latch-construction idiom: a latch participates in
    /// cycles, so it is created first with a placeholder fanin and patched
    /// once its data cone exists.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the node does not have exactly one fanin.
    pub fn replace_single_fanin(&mut self, id: NodeId, new_fanin: NodeId) {
        let old = {
            let node = &self.nodes[id.index()];
            debug_assert_eq!(node.fanins.len(), 1, "replace_single_fanin needs arity 1");
            node.fanins[0]
        };
        if old == new_fanin {
            return;
        }
        self.nodes[id.index()].fanins[0] = new_fanin;
        let fanouts = &mut self.nodes[old.index()].fanouts;
        let pos = fanouts
            .iter()
            .position(|&t| t == id)
            .expect("fanout entry mirrors the fanin edge");
        fanouts.swap_remove(pos);
        self.nodes[new_fanin.index()].fanouts.push(id);
    }

    /// Replaces fanin `pin` of any node, keeping fanout lists consistent.
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
        if id.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(id));
        }
        if new_fanin.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(new_fanin));
        }
        let old = *self.nodes[id.index()].fanins.get(pin).ok_or_else(|| {
            NetlistError::Invariant(format!("node {id} has no fanin pin {pin}"))
        })?;
        if old == new_fanin {
            return Ok(());
        }
        self.nodes[id.index()].fanins[pin] = new_fanin;
        let fanouts = &mut self.nodes[old.index()].fanouts;
        let pos = fanouts
            .iter()
            .position(|&t| t == id)
            .expect("fanout entry mirrors the fanin edge");
        fanouts.swap_remove(pos);
        self.nodes[new_fanin.index()].fanouts.push(id);
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
                if driver.index() >= self.nodes.len() {
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
    pub fn apply_edits(&mut self, edits: Vec<NetEdit>) -> Result<Vec<Option<NodeId>>, NetlistError> {
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
            .nodes
            .iter()
            .enumerate()
            .any(|(i, n)| matches!(n.func, NodeFn::Latch) && reach[i]);
        let zero = any_latch.then(|| {
            swept
                .add_node(NodeFn::Const(false), Vec::new())
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
                    .add_node(NodeFn::Latch, vec![zero.expect("placeholder exists")])
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
        for id in order {
            if remap[id.index()].is_some() {
                continue;
            }
            if !reach[id.index()] {
                dropped += 1;
                continue;
            }
            let node = self.node(id);
            let fanins: Vec<NodeId> = node
                .fanins()
                .iter()
                .map(|f| remap[f.index()].expect("fanins of live nodes are live"))
                .collect();
            let new_id = swept
                .add_node(node.func().clone(), fanins)
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
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for out in &self.outputs {
            stack.push(out.driver.index());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.func, NodeFn::Latch) {
                stack.push(i);
            }
        }
        while let Some(u) = stack.pop() {
            if mark[u] {
                continue;
            }
            mark[u] = true;
            for f in &self.nodes[u].fanins {
                stack.push(f.index());
            }
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
        assert_eq!(net.node(g).fanouts().len(), 2);
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
