//! Seeded random logic networks for property-based testing and as filler
//! "control logic" in the ISCAS-85 analogues.

use dagmap_rng::StdRng;

use dagmap_netlist::{Network, NodeFn, NodeId};

/// Generates a random combinational network with `num_inputs` inputs and
/// `num_gates` internal gates (AND/OR/NAND/NOR/XOR/NOT mix).
///
/// Fanins are biased toward recently created nodes so the DAG grows deep
/// rather than flat; every sink becomes a primary output. Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `num_inputs` is 0.
pub fn random_network(num_inputs: usize, num_gates: usize, seed: u64) -> Network {
    assert!(num_inputs > 0, "need at least one input");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(format!("random_{num_inputs}x{num_gates}_s{seed}"));
    let mut pool: Vec<NodeId> = (0..num_inputs)
        .map(|i| net.add_input(format!("x{i}")))
        .collect();
    for _ in 0..num_gates {
        // Bias toward the recent half of the pool for depth.
        let pick = |rng: &mut StdRng, pool: &[NodeId]| -> NodeId {
            let lo = if pool.len() > 4 && rng.random_bool(0.7) {
                pool.len() / 2
            } else {
                0
            };
            pool[rng.random_range(lo..pool.len())]
        };
        let a = pick(&mut rng, &pool);
        let node = match rng.random_range(0..6u32) {
            0 => net.add_node(NodeFn::And, vec![a, pick(&mut rng, &pool)]),
            1 => net.add_node(NodeFn::Or, vec![a, pick(&mut rng, &pool)]),
            2 => net.add_node(NodeFn::Nand, vec![a, pick(&mut rng, &pool)]),
            3 => net.add_node(NodeFn::Nor, vec![a, pick(&mut rng, &pool)]),
            4 => net.add_node(NodeFn::Xor, vec![a, pick(&mut rng, &pool)]),
            _ => net.add_node(NodeFn::Not, vec![a]),
        }
        .expect("arities are static");
        pool.push(node);
    }
    let mut any_output = false;
    for id in net.node_ids().collect::<Vec<_>>() {
        if net.node(id).fanout_count() == 0 && !matches!(net.node(id).func(), NodeFn::Input) {
            let name = format!("o{}", id.index());
            net.add_output(name, id);
            any_output = true;
        }
    }
    if !any_output {
        let last = *pool.last().expect("pool is never empty");
        net.add_output("o_last", last);
    }
    net
}

/// Size/shape knobs for [`random_network_with`].
///
/// [`random_network`] keeps its historical fixed shape (and exact rng
/// stream); the fuzzer drives this spec instead to sweep tall/flat,
/// narrow/wide and parity-heavy subject graphs from one seed space.
#[derive(Debug, Clone)]
pub struct RandomNetSpec {
    /// Primary input count (must be at least 1).
    pub inputs: usize,
    /// Internal gate count.
    pub gates: usize,
    /// Generator seed; everything is deterministic in it.
    pub seed: u64,
    /// Probability of drawing fanins from the recent half of the pool:
    /// `0.0` grows flat fanout-heavy networks, `0.9` deep chains.
    pub depth_bias: f64,
    /// Maximum gate arity, clamped to `2..=3`; ternary gates exercise the
    /// NAND2/INV decomposition harder.
    pub max_arity: usize,
    /// Doubles the weight of XOR/XNOR picks (parity trees are where match
    /// enumeration and duplication get interesting).
    pub xor_heavy: bool,
    /// `true` exposes only the final gate as a primary output (deep single
    /// cone); `false` exposes every sink, the [`random_network`] behaviour.
    pub single_output: bool,
}

impl Default for RandomNetSpec {
    fn default() -> Self {
        RandomNetSpec {
            inputs: 6,
            gates: 40,
            seed: 0,
            depth_bias: 0.7,
            max_arity: 2,
            xor_heavy: false,
            single_output: false,
        }
    }
}

/// Generates a random combinational network under the shape knobs of
/// `spec`. Deterministic in `spec.seed`.
///
/// # Panics
///
/// Panics if `spec.inputs` is 0.
pub fn random_network_with(spec: &RandomNetSpec) -> Network {
    assert!(spec.inputs > 0, "need at least one input");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut net = Network::new(format!(
        "random_{}x{}_s{}",
        spec.inputs, spec.gates, spec.seed
    ));
    let max_arity = spec.max_arity.clamp(2, 3);
    let mut pool: Vec<NodeId> = (0..spec.inputs)
        .map(|i| net.add_input(format!("x{i}")))
        .collect();
    let pick = |rng: &mut StdRng, pool: &[NodeId], bias: f64| -> NodeId {
        let lo = if pool.len() > 4 && rng.random_bool(bias) {
            pool.len() / 2
        } else {
            0
        };
        pool[rng.random_range(lo..pool.len())]
    };
    for _ in 0..spec.gates {
        let a = pick(&mut rng, &pool, spec.depth_bias);
        let arity = if max_arity > 2 && rng.random_bool(0.3) {
            3
        } else {
            2
        };
        let mut ins = vec![a];
        while ins.len() < arity {
            ins.push(pick(&mut rng, &pool, spec.depth_bias));
        }
        let op_roll = rng.random_range(0..if spec.xor_heavy { 10u32 } else { 8 });
        let node = match op_roll {
            0 => net.add_node(NodeFn::And, ins),
            1 => net.add_node(NodeFn::Or, ins),
            2 => net.add_node(NodeFn::Nand, ins),
            3 => net.add_node(NodeFn::Nor, ins),
            4 => net.add_node(NodeFn::Not, vec![a]),
            5 => {
                // Mux/Maj want exactly three fanins.
                while ins.len() < 3 {
                    ins.push(pick(&mut rng, &pool, spec.depth_bias));
                }
                ins.truncate(3);
                if rng.random_bool(0.5) {
                    net.add_node(NodeFn::Mux, ins)
                } else {
                    net.add_node(NodeFn::Maj, ins)
                }
            }
            6 | 8 => net.add_node(NodeFn::Xor, ins),
            _ => net.add_node(NodeFn::Xnor, ins),
        }
        .expect("arities are static");
        pool.push(node);
    }
    if spec.single_output {
        let last = *pool.last().expect("pool is never empty");
        net.add_output("f", last);
    } else {
        let mut any_output = false;
        for id in net.node_ids().collect::<Vec<_>>() {
            if net.node(id).fanout_count() == 0 && !matches!(net.node(id).func(), NodeFn::Input) {
                net.add_output(format!("o{}", id.index()), id);
                any_output = true;
            }
        }
        if !any_output {
            let last = *pool.last().expect("pool is never empty");
            net.add_output("o_last", last);
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::SubjectGraph;

    #[test]
    fn spec_generator_is_deterministic_and_decomposes() {
        for seed in 0..4 {
            let spec = RandomNetSpec {
                inputs: 5,
                gates: 30,
                seed,
                depth_bias: 0.5,
                max_arity: 3,
                xor_heavy: true,
                single_output: seed % 2 == 0,
            };
            let a = random_network_with(&spec);
            let b = random_network_with(&spec);
            assert!(dagmap_netlist::sim::equivalent_random(&a, &b, 4, 1).unwrap());
            let subject = SubjectGraph::from_network(&a).unwrap();
            subject.network().validate().unwrap();
        }
    }

    #[test]
    fn is_deterministic() {
        let a = random_network(8, 50, 7);
        let b = random_network(8, 50, 7);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert!(dagmap_netlist::sim::equivalent_random(&a, &b, 4, 1).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_network(8, 50, 1);
        let b = random_network(8, 50, 2);
        // Either structure or function differs; comparing structure is
        // enough for the purpose of this test.
        assert!(
            a.num_edges() != b.num_edges()
                || !dagmap_netlist::sim::equivalent_random(&a, &b, 4, 1).unwrap_or(false)
        );
    }

    #[test]
    fn decomposes_cleanly() {
        for seed in 0..5 {
            let net = random_network(6, 40, seed);
            let subject = SubjectGraph::from_network(&net).unwrap();
            subject.network().validate().unwrap();
        }
    }
}
