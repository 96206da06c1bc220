//! Structural analogues of the ISCAS-85 circuits the paper evaluates on.
//!
//! The real netlists are not redistributable, so each generator reproduces
//! the documented *function and structure* of its namesake at comparable
//! scale: C6288 genuinely is a 16×16 carry-save array multiplier, C7552 a
//! 34-bit adder/comparator with parity, and C2670/C3540/C5315 are
//! ALU-plus-control designs. The tree-vs-DAG comparison depends on subject-
//! graph structure (arithmetic reconvergence, multi-fanout density), which
//! these analogues share with the originals.

use dagmap_rng::StdRng;

use dagmap_netlist::{Network, NodeFn, NodeId};

use crate::alu::alu_into;
use crate::arith::{carry_select_into, comparator_into, multiplier_into, ripple_into};
use crate::misc::{barrel_into, decoder_into, mux_tree_into, parity_into, priority_into};
use crate::{input_bus, output_bus};

/// Sprinkles random 2-input control gates over `pool`, returning the sinks.
fn control_cloud(net: &mut Network, pool: &[NodeId], gates: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = pool.to_vec();
    let mut fresh = Vec::new();
    for _ in 0..gates {
        let a = nodes[rng.random_range(0..nodes.len())];
        let b = nodes[rng.random_range(0..nodes.len())];
        let g = match rng.random_range(0..4u32) {
            0 => net.add_node(NodeFn::And, vec![a, b]),
            1 => net.add_node(NodeFn::Or, vec![a, b]),
            2 => net.add_node(NodeFn::Nand, vec![a, b]),
            _ => net.add_node(NodeFn::Nor, vec![a, b]),
        }
        .expect("arities are static");
        nodes.push(g);
        fresh.push(g);
    }
    // Keep only sinks among the freshly added gates.
    fresh
        .into_iter()
        .filter(|&g| net.node(g).fanout_count() == 0)
        .collect()
}

/// C2670 analogue: a 12-bit ALU plus an 8-bit comparator and random control
/// logic (the original is an ALU-and-control design with ~2300 gates).
pub fn c2670_like() -> Network {
    let mut net = Network::new("c2670_like");
    let a = input_bus(&mut net, "a", 12);
    let b = input_bus(&mut net, "b", 12);
    let op = input_bus(&mut net, "op", 2);
    let cin = net.add_input("cin");
    let (y, cout, zero) = alu_into(&mut net, &a, &b, &op, cin);
    output_bus(&mut net, "y", &y);
    net.add_output("cout", cout);
    net.add_output("zero", zero);

    let (eq, lt) = comparator_into(&mut net, &a[..8], &b[..8]);
    net.add_output("eq", eq);
    net.add_output("lt", lt);

    let ctl = input_bus(&mut net, "c", 10);
    let mut pool = ctl.clone();
    pool.extend_from_slice(&y);
    pool.push(eq);
    pool.push(lt);
    for (i, s) in control_cloud(&mut net, &pool, 160, 0x2670)
        .into_iter()
        .enumerate()
    {
        net.add_output(format!("ctl{i}"), s);
    }
    net
}

/// C3540 analogue: an 8-bit ALU with a barrel shifter and decoder (the
/// original is an 8-bit ALU with shifting and BCD logic).
pub fn c3540_like() -> Network {
    let mut net = Network::new("c3540_like");
    let a = input_bus(&mut net, "a", 8);
    let b = input_bus(&mut net, "b", 8);
    let op = input_bus(&mut net, "op", 2);
    let cin = net.add_input("cin");
    let (y, cout, zero) = alu_into(&mut net, &a, &b, &op, cin);
    net.add_output("cout", cout);
    net.add_output("zero", zero);

    let sh = input_bus(&mut net, "sh", 3);
    let shifted = barrel_into(&mut net, &y, &sh);
    output_bus(&mut net, "ys", &shifted);

    let dec = decoder_into(&mut net, &sh);
    // Decoder lines gate the raw ALU result into status bits.
    for (i, (&d, &bit)) in dec.iter().zip(y.iter().cycle()).enumerate() {
        let s = net.add_node(NodeFn::And, vec![d, bit]).expect("and2");
        net.add_output(format!("st{i}"), s);
    }
    let par = parity_into(&mut net, &y);
    net.add_output("parity", par);

    // The original mixes in BCD correction and comparison logic; a second
    // comparator plus a control cloud lands the analogue at similar scale.
    let (eq, lt) = comparator_into(&mut net, &a, &shifted);
    net.add_output("eq", eq);
    net.add_output("lt", lt);
    let mut pool = a.clone();
    pool.extend_from_slice(&shifted);
    pool.push(eq);
    pool.push(lt);
    for (i, s) in control_cloud(&mut net, &pool, 180, 0x3540)
        .into_iter()
        .enumerate()
    {
        net.add_output(format!("ctl{i}"), s);
    }
    net
}

/// C5315 analogue: a 16-bit carry-select ALU datapath with priority logic
/// and a multiplexer bank (the original is a 9-bit ALU with ~2300 gates;
/// the wider datapath compensates for its simpler control).
pub fn c5315_like() -> Network {
    let mut net = Network::new("c5315_like");
    let a = input_bus(&mut net, "a", 16);
    let b = input_bus(&mut net, "b", 16);
    let cin = net.add_input("cin");
    let (sum, cout) = carry_select_into(&mut net, &a, &b, cin, 4);
    output_bus(&mut net, "s", &sum);
    net.add_output("cout", cout);

    let op = input_bus(&mut net, "op", 2);
    let (y, cout2, zero) = alu_into(&mut net, &a[..8], &b[..8], &op, cin);
    output_bus(&mut net, "y", &y);
    net.add_output("cout2", cout2);
    net.add_output("zero", zero);

    let (grants, valid) = priority_into(&mut net, &sum[..8]);
    output_bus(&mut net, "g", &grants);
    net.add_output("valid", valid);

    let sel = input_bus(&mut net, "sel", 2);
    for i in 0..4 {
        let m = mux_tree_into(&mut net, &sel, &[sum[i], y[i], grants[i], b[i]]);
        net.add_output(format!("m{i}"), m);
    }
    net
}

/// C6288 analogue: the 16×16 carry-save array multiplier (the original *is*
/// one — 2406 gates, 32 inputs, 32 outputs, depth ~120).
pub fn c6288_like() -> Network {
    let mut net = Network::new("c6288_like");
    let a = input_bus(&mut net, "a", 16);
    let b = input_bus(&mut net, "b", 16);
    let p = multiplier_into(&mut net, &a, &b);
    output_bus(&mut net, "p", &p);
    net
}

/// C7552 analogue: a 34-bit adder/magnitude-comparator with input parity
/// checking (matching the documented function of the original).
pub fn c7552_like() -> Network {
    let mut net = Network::new("c7552_like");
    let a = input_bus(&mut net, "a", 34);
    let b = input_bus(&mut net, "b", 34);
    let cin = net.add_input("cin");
    let (sum, cout) = ripple_into(&mut net, &a, &b, cin);
    output_bus(&mut net, "s", &sum);
    net.add_output("cout", cout);

    let (eq, lt) = comparator_into(&mut net, &a, &b);
    net.add_output("eq", eq);
    net.add_output("lt", lt);

    let pa = parity_into(&mut net, &a);
    let pb = parity_into(&mut net, &b);
    net.add_output("pa", pa);
    net.add_output("pb", pb);

    let mut pool = a.clone();
    pool.extend_from_slice(&sum[..16]);
    for (i, s) in control_cloud(&mut net, &pool, 120, 0x7552)
        .into_iter()
        .enumerate()
    {
        net.add_output(format!("ctl{i}"), s);
    }
    net
}

/// The five-circuit suite of Tables 1–3, in the paper's order.
pub fn iscas_suite() -> Vec<(&'static str, Network)> {
    vec![
        ("C2670", c2670_like()),
        ("C3540", c3540_like()),
        ("C5315", c5315_like()),
        ("C6288", c6288_like()),
        ("C7552", c7552_like()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::{sim::Simulator, SubjectGraph};

    #[test]
    fn suite_decomposes_and_validates() {
        for (name, net) in iscas_suite() {
            net.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let s = SubjectGraph::from_network(&net).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.num_gates() > 300, "{name} too small: {}", s.num_gates());
            assert!(s.num_multi_fanout() > 20, "{name} has no sharing");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let net = c6288_like();
        let sim = Simulator::new(&net).unwrap();
        // Drive lanes with different (a, b) pairs via bit-sliced words.
        let pairs: [(u64, u64); 4] = [(3, 5), (65535, 65535), (0, 1234), (40000, 2)];
        let mut a_words = vec![0u64; 16];
        let mut b_words = vec![0u64; 16];
        for (lane, (a, b)) in pairs.iter().enumerate() {
            for i in 0..16 {
                a_words[i] |= ((a >> i) & 1) << lane;
                b_words[i] |= ((b >> i) & 1) << lane;
            }
        }
        let mut inputs = a_words;
        inputs.extend(b_words);
        let v = sim.eval(&inputs);
        for (lane, (a, b)) in pairs.iter().enumerate() {
            let mut product: u64 = 0;
            for i in 0..32 {
                let w = v.output(&net, &format!("p{i}")).expect("product bit");
                product |= ((w >> lane) & 1) << i;
            }
            assert_eq!(product, a * b, "lane {lane}: {a} x {b}");
        }
    }

    #[test]
    fn c7552_adds_and_compares() {
        let net = c7552_like();
        let sim = Simulator::new(&net).unwrap();
        let (a, b): (u64, u64) = (0x3_1234_5678, 0x1_0FED_CBA9);
        let mut inputs = Vec::new();
        for i in 0..34 {
            inputs.push((a >> i) & 1);
        }
        for i in 0..34 {
            inputs.push((b >> i) & 1);
        }
        inputs.push(0); // cin
        let v = sim.eval(&inputs);
        let mut sum: u64 = 0;
        for i in 0..34 {
            sum |= (v.output(&net, &format!("s{i}")).expect("sum bit") & 1) << i;
        }
        assert_eq!(sum, (a + b) & ((1 << 34) - 1));
        assert_eq!(v.output(&net, "lt").unwrap() & 1, 0, "a > b");
        assert_eq!(v.output(&net, "eq").unwrap() & 1, 0);
        assert_eq!(
            v.output(&net, "pa").unwrap() & 1,
            u64::from(a.count_ones() % 2 == 1)
        );
    }

    #[test]
    fn suite_sizes_are_comparable_to_the_originals() {
        // The originals span roughly 1.2k-3.5k gates; analogues should land
        // in the same order of magnitude after decomposition.
        for (name, net) in iscas_suite() {
            let s = SubjectGraph::from_network(&net).unwrap();
            let gates = s.num_gates();
            assert!(
                (400..12000).contains(&gates),
                "{name}: {gates} subject gates"
            );
        }
    }

    #[test]
    fn multiplier_is_deep() {
        let s = SubjectGraph::from_network(&c6288_like()).unwrap();
        assert!(s.depth() > 60, "depth {}", s.depth());
    }
}
