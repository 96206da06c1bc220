use dagmap_netlist::{Network, NodeFn, NodeId, SubjectGraph};

use crate::{Expr, GenlibError, TreeShape};

/// One node of a [`PatternGraph`]; fanins are indices into the pattern's
/// topologically-ordered node list.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum PatternNode {
    /// Binds to an arbitrary subject node; `pin` is the gate input it feeds.
    Leaf {
        /// Canonical pin index of the gate.
        pin: usize,
    },
    /// Must bind to a subject inverter.
    Inv {
        /// Fanin node index.
        fanin: usize,
    },
    /// Must bind to a subject two-input NAND.
    Nand {
        /// Fanin node indices.
        fanins: [usize; 2],
    },
}

/// The NAND2/INV decomposition of a gate function, rooted at its output.
///
/// Nodes are stored in topological order with the root last. Each gate pin
/// contributes exactly one leaf, so a pin used several times in the
/// expression makes the pattern a *leaf-DAG* (XOR is the classic case), and
/// shared internal subterms would make it a general DAG — all of which the
/// paper's DAG mapper accepts.
///
/// Patterns are produced by the very same decomposition rules as subject
/// graphs (shared via [`SubjectGraph::from_network`]), which is what makes
/// structural matching meaningful.
///
/// ```
/// use dagmap_genlib::{Expr, PatternGraph, TreeShape};
///
/// # fn main() -> Result<(), dagmap_genlib::GenlibError> {
/// let xor = Expr::parse("a*!b + !a*b")?;
/// let p = PatternGraph::from_expr(&xor, &xor.vars(), TreeShape::Balanced)?
///     .expect("xor is not degenerate");
/// assert_eq!(p.num_pins(), 2);
/// assert_eq!(p.num_internal(), 5); // 3 NANDs + 2 INVs
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternGraph {
    nodes: Vec<PatternNode>,
    fanout: Vec<u32>,
    num_pins: usize,
}

impl PatternGraph {
    /// Decomposes `expr` over the canonical pin order `pins` using `shape`
    /// for n-ary operators.
    ///
    /// Returns `Ok(None)` when the function degenerates to a constant after
    /// folding (such gates cannot cover subject logic).
    ///
    /// # Errors
    ///
    /// Propagates decomposition failures (which indicate malformed
    /// expressions rather than user errors in practice).
    pub fn from_expr(
        expr: &Expr,
        pins: &[String],
        shape: TreeShape,
    ) -> Result<Option<PatternGraph>, GenlibError> {
        let mut net = Network::new("pattern");
        let ids: Vec<NodeId> = pins.iter().map(|pin| net.add_input(pin)).collect();
        let binding = |v: &str| pins.iter().position(|p| p == v).map(|i| ids[i]);
        let out = expr.lower_into(&mut net, &binding, shape, &mut Vec::new());
        net.add_output("o", out);
        let subject = SubjectGraph::from_network(&net)
            .map_err(|e| GenlibError::Validate(format!("gate decomposition failed: {e}")))?;
        let snet = subject.network();
        let root = snet.outputs()[0].driver;
        if matches!(snet.node(root).func(), NodeFn::Const(_)) {
            return Ok(None);
        }

        // Emit the cone of `root` in topological order, root last.
        let order = snet.topo_order().expect("subject graphs are acyclic");
        let mut in_cone = vec![false; snet.num_nodes()];
        {
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                if in_cone[u.index()] {
                    continue;
                }
                in_cone[u.index()] = true;
                for f in snet.node(u).fanins() {
                    stack.push(*f);
                }
            }
        }
        let mut index: Vec<Option<usize>> = vec![None; snet.num_nodes()];
        let mut nodes = Vec::new();
        for id in order {
            if !in_cone[id.index()] || id == root {
                continue;
            }
            let pn = Self::convert(snet, id, pins, &index)?;
            index[id.index()] = Some(nodes.len());
            nodes.push(pn);
        }
        let pn = Self::convert(snet, root, pins, &index)?;
        index[root.index()] = Some(nodes.len());
        nodes.push(pn);

        let mut fanout = vec![0u32; nodes.len()];
        for node in &nodes {
            match node {
                PatternNode::Leaf { .. } => {}
                PatternNode::Inv { fanin } => fanout[*fanin] += 1,
                PatternNode::Nand { fanins } => {
                    fanout[fanins[0]] += 1;
                    fanout[fanins[1]] += 1;
                }
            }
        }
        Ok(Some(PatternGraph {
            nodes,
            fanout,
            num_pins: pins.len(),
        }))
    }

    fn convert(
        snet: &Network,
        id: NodeId,
        pins: &[String],
        index: &[Option<usize>],
    ) -> Result<PatternNode, GenlibError> {
        let node = snet.node(id);
        Ok(match node.func() {
            NodeFn::Input => {
                let name = node.name().expect("pattern inputs are named");
                let pin = pins
                    .iter()
                    .position(|p| p == name)
                    .expect("inputs come from the pin list");
                PatternNode::Leaf { pin }
            }
            NodeFn::Not => PatternNode::Inv {
                fanin: index[node.fanins()[0].index()].expect("topological emission"),
            },
            NodeFn::Nand => PatternNode::Nand {
                fanins: [
                    index[node.fanins()[0].index()].expect("topological emission"),
                    index[node.fanins()[1].index()].expect("topological emission"),
                ],
            },
            other => {
                return Err(GenlibError::Validate(format!(
                    "unexpected {} node in decomposed pattern",
                    other.name()
                )))
            }
        })
    }

    /// Nodes in topological order (root last).
    pub fn nodes(&self) -> &[PatternNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// A specific node.
    pub fn node(&self, i: usize) -> PatternNode {
        self.nodes[i]
    }

    /// Number of consumers of node `i` *within* the pattern (the root has 0).
    pub fn fanout_count(&self, i: usize) -> u32 {
        self.fanout[i]
    }

    /// Number of gate pins (= number of distinct leaves).
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Total node count, the unit of the paper's matching cost `p`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the pattern has no nodes (never produced by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Count of NAND/INV nodes (excludes leaves).
    pub fn num_internal(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, PatternNode::Leaf { .. }))
            .count()
    }

    /// True for degenerate wire patterns (`O = a`), which cannot cover logic.
    pub fn is_trivial(&self) -> bool {
        matches!(self.nodes[self.root()], PatternNode::Leaf { .. })
    }

    /// NAND/INV depth of the pattern.
    pub fn depth(&self) -> u32 {
        let mut level = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            level[i] = match n {
                PatternNode::Leaf { .. } => 0,
                PatternNode::Inv { fanin } => level[*fanin] + 1,
                PatternNode::Nand { fanins } => level[fanins[0]].max(level[fanins[1]]) + 1,
            };
        }
        level[self.root()]
    }

    /// Evaluates the pattern on one assignment of pin values — used to check
    /// that decomposition preserved the gate function.
    pub fn eval(&self, pin_values: &[bool]) -> bool {
        let mut val = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            val[i] = match n {
                PatternNode::Leaf { pin } => pin_values[*pin],
                PatternNode::Inv { fanin } => !val[*fanin],
                PatternNode::Nand { fanins } => !(val[fanins[0]] && val[fanins[1]]),
            };
        }
        val[self.root()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(text: &str, shape: TreeShape) -> PatternGraph {
        let e = Expr::parse(text).unwrap();
        PatternGraph::from_expr(&e, &e.vars(), shape)
            .unwrap()
            .expect("non-degenerate")
    }

    fn check_function(text: &str) {
        let e = Expr::parse(text).unwrap();
        let vars = e.vars();
        for shape in TreeShape::ALL {
            let p = PatternGraph::from_expr(&e, &vars, shape)
                .unwrap()
                .expect("non-degenerate");
            for m in 0..(1usize << vars.len()) {
                let pin_values: Vec<bool> = (0..vars.len()).map(|i| (m >> i) & 1 == 1).collect();
                let want = e.eval(&|name| {
                    let i = vars.iter().position(|v| v == name).unwrap();
                    pin_values[i]
                });
                assert_eq!(p.eval(&pin_values), want, "{text} minterm {m} {shape:?}");
            }
        }
    }

    #[test]
    fn decomposition_preserves_functions() {
        for text in [
            "!a",
            "!(a*b)",
            "!(a+b)",
            "a*b",
            "a+b",
            "!(a*b+c)",
            "!((a+b)*c)",
            "a*!b + !a*b",
            "!(a*!b + !a*b)",
            "!(a*b*c*d)",
            "a*b + c*d",
            "!(a*b + c*d + e*f)",
            "!s*a + s*b",
        ] {
            check_function(text);
        }
    }

    #[test]
    fn inverter_pattern_shape() {
        let p = pattern("!a", TreeShape::Balanced);
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_internal(), 1);
        assert_eq!(p.depth(), 1);
        assert!(matches!(p.node(p.root()), PatternNode::Inv { .. }));
    }

    #[test]
    fn nand2_pattern_shape() {
        let p = pattern("!(a*b)", TreeShape::Balanced);
        assert_eq!(p.num_internal(), 1);
        assert!(matches!(p.node(p.root()), PatternNode::Nand { .. }));
    }

    #[test]
    fn xor_is_a_leaf_dag() {
        let p = pattern("a*!b + !a*b", TreeShape::Balanced);
        // Each leaf feeds two consumers (one NAND directly, one INV).
        let leaf_fanouts: Vec<u32> = (0..p.len())
            .filter(|&i| matches!(p.node(i), PatternNode::Leaf { .. }))
            .map(|i| p.fanout_count(i))
            .collect();
        assert_eq!(leaf_fanouts, vec![2, 2]);
        // Internal nodes all have a single consumer (root has none).
        for i in 0..p.len() {
            if !matches!(p.node(i), PatternNode::Leaf { .. }) && i != p.root() {
                assert_eq!(p.fanout_count(i), 1);
            }
        }
    }

    #[test]
    fn constant_expressions_are_degenerate() {
        let e = Expr::parse("a + !a").unwrap();
        // a + !a folds... only if strash notices; or2(a, !a) = nand(!a, a):
        // no constant folding happens structurally, so this stays a pattern.
        let p = PatternGraph::from_expr(&e, &e.vars(), TreeShape::Balanced).unwrap();
        assert!(p.is_some());
        let e = Expr::parse("CONST1").unwrap();
        assert!(PatternGraph::from_expr(&e, &[], TreeShape::Balanced)
            .unwrap()
            .is_none());
    }

    #[test]
    fn wire_patterns_are_trivial() {
        let e = Expr::parse("a").unwrap();
        let p = PatternGraph::from_expr(&e, &e.vars(), TreeShape::Balanced)
            .unwrap()
            .expect("wire still yields a pattern");
        assert!(p.is_trivial());
    }

    #[test]
    fn shapes_change_structure_for_wide_gates() {
        let bal = pattern("!(a*b*c*d)", TreeShape::Balanced);
        let chain = pattern("!(a*b*c*d)", TreeShape::LeftChain);
        assert_ne!(bal, chain);
        assert!(chain.depth() > bal.depth());
    }

    #[test]
    fn nand4_balanced_matches_subject_convention() {
        // Subject graphs decompose 4-ary NAND as inv-folded balanced tree:
        // nand4(a,b,c,d) = nand(and2(a,b) as inv(nand), ...). The pattern
        // must have the identical shape: root NAND over two INVs over NANDs.
        let p = pattern("!(a*b*c*d)", TreeShape::Balanced);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.num_internal(), 5); // 3 NANDs + 2 INVs
    }
}
