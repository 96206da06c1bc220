//! Control-logic generators: parity trees, decoders, shifters, encoders.

use dagmap_netlist::{Network, NodeFn, NodeId};

use crate::{input_bus, output_bus};

/// Parity (XOR) tree fragment.
pub(crate) fn parity_into(net: &mut Network, bits: &[NodeId]) -> NodeId {
    net.add_node(NodeFn::Xor, bits).expect("wide xor")
}

/// `width`-input parity tree: output `p`.
pub fn parity_tree(width: usize) -> Network {
    let mut net = Network::new(format!("parity{width}"));
    let a = input_bus(&mut net, "a", width);
    let p = parity_into(&mut net, &a);
    net.add_output("p", p);
    net
}

/// Decoder fragment: 2^sel one-hot outputs.
pub(crate) fn decoder_into(net: &mut Network, sel: &[NodeId]) -> Vec<NodeId> {
    let n = sel.len();
    let nots: Vec<NodeId> = sel
        .iter()
        .map(|&s| net.add_node(NodeFn::Not, vec![s]).expect("not"))
        .collect();
    (0..(1usize << n))
        .map(|code| {
            let lits: Vec<NodeId> = (0..n)
                .map(|i| {
                    if (code >> i) & 1 == 1 {
                        sel[i]
                    } else {
                        nots[i]
                    }
                })
                .collect();
            net.add_node(NodeFn::And, lits).expect("wide and")
        })
        .collect()
}

/// `sel_bits`-to-2^`sel_bits` one-hot decoder: inputs `s*`, outputs `d*`.
pub fn decoder(sel_bits: usize) -> Network {
    let mut net = Network::new(format!("decoder{sel_bits}"));
    let sel = input_bus(&mut net, "s", sel_bits);
    let outs = decoder_into(&mut net, &sel);
    output_bus(&mut net, "d", &outs);
    net
}

/// Multiplexer-tree fragment selecting one of `data` by `sel` (LSB-first).
pub(crate) fn mux_tree_into(net: &mut Network, sel: &[NodeId], data: &[NodeId]) -> NodeId {
    assert_eq!(data.len(), 1usize << sel.len(), "data size must be 2^sel");
    let mut level: Vec<NodeId> = data.to_vec();
    for &s in sel {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            next.push(
                net.add_node(NodeFn::Mux, vec![s, pair[0], pair[1]])
                    .expect("mux"),
            );
        }
        level = next;
    }
    level[0]
}

/// 2^`sel_bits`:1 multiplexer tree: inputs `d*`, `s*`; output `y`.
pub fn mux_tree(sel_bits: usize) -> Network {
    let mut net = Network::new(format!("mux{}", 1usize << sel_bits));
    let data = input_bus(&mut net, "d", 1usize << sel_bits);
    let sel = input_bus(&mut net, "s", sel_bits);
    let y = mux_tree_into(&mut net, &sel, &data);
    net.add_output("y", y);
    net
}

/// Logarithmic left barrel shifter fragment (zero fill).
pub(crate) fn barrel_into(net: &mut Network, data: &[NodeId], shift: &[NodeId]) -> Vec<NodeId> {
    let zero = net.add_node(NodeFn::Const(false), vec![]).expect("const");
    let mut cur: Vec<NodeId> = data.to_vec();
    for (stage, &s) in shift.iter().enumerate() {
        let amount = 1usize << stage;
        cur = (0..cur.len())
            .map(|i| {
                let shifted = if i >= amount { cur[i - amount] } else { zero };
                net.add_node(NodeFn::Mux, vec![s, cur[i], shifted])
                    .expect("mux")
            })
            .collect();
    }
    cur
}

/// `width`-bit logarithmic barrel shifter: inputs `d*`, `sh*`; outputs `y*`.
///
/// # Panics
///
/// Panics if `width` is not a power of two.
pub fn barrel_shifter(width: usize) -> Network {
    assert!(width.is_power_of_two(), "width must be a power of two");
    let stages = width.trailing_zeros() as usize;
    let mut net = Network::new(format!("barrel{width}"));
    let data = input_bus(&mut net, "d", width);
    let shift = input_bus(&mut net, "sh", stages);
    let y = barrel_into(&mut net, &data, &shift);
    output_bus(&mut net, "y", &y);
    net
}

/// Priority encoder fragment: (`onehot grant bits`, `valid`).
pub(crate) fn priority_into(net: &mut Network, req: &[NodeId]) -> (Vec<NodeId>, NodeId) {
    // grant_i = req_i & !req_{i-1} & ... & !req_0 (LSB has priority).
    let mut grants = Vec::with_capacity(req.len());
    let mut blocked: Option<NodeId> = None;
    for &r in req {
        let g = match blocked {
            None => r,
            Some(b) => {
                let nb = net.add_node(NodeFn::Not, vec![b]).expect("not");
                net.add_node(NodeFn::And, vec![r, nb]).expect("and2")
            }
        };
        grants.push(g);
        blocked = Some(match blocked {
            None => r,
            Some(b) => net.add_node(NodeFn::Or, vec![b, r]).expect("or2"),
        });
    }
    (grants, blocked.expect("at least one request line"))
}

/// `width`-line priority encoder: inputs `r*`, outputs `g*` (one-hot) and
/// `valid`.
pub fn priority_encoder(width: usize) -> Network {
    let mut net = Network::new(format!("priority{width}"));
    let req = input_bus(&mut net, "r", width);
    let (grants, valid) = priority_into(&mut net, &req);
    output_bus(&mut net, "g", &grants);
    net.add_output("valid", valid);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::sim::Simulator;

    /// Evaluates a network on one assignment given LSB-first input bits.
    fn eval_single(net: &Network, bits: &[u64]) -> Vec<u64> {
        let sim = Simulator::new(net).unwrap();
        let v = sim.eval(bits);
        net.outputs().iter().map(|o| v.node(o.driver) & 1).collect()
    }

    #[test]
    fn parity_counts_ones() {
        let net = parity_tree(7);
        let outs = eval_single(&net, &[1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(outs[0], 1);
        let outs = eval_single(&net, &[1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(outs[0], 0);
    }

    #[test]
    fn decoder_is_one_hot() {
        let net = decoder(3);
        for code in 0..8u64 {
            let bits: Vec<u64> = (0..3).map(|i| (code >> i) & 1).collect();
            let outs = eval_single(&net, &bits);
            for (i, &o) in outs.iter().enumerate() {
                assert_eq!(o, u64::from(i as u64 == code), "code {code} line {i}");
            }
        }
    }

    #[test]
    fn mux_tree_selects() {
        let net = mux_tree(2); // 4:1, inputs d0..d3 then s0..s1
        for sel in 0..4u64 {
            for hot in 0..4usize {
                let mut bits = vec![0u64; 6];
                bits[hot] = 1;
                bits[4] = sel & 1;
                bits[5] = (sel >> 1) & 1;
                let outs = eval_single(&net, &bits);
                assert_eq!(outs[0], u64::from(hot as u64 == sel), "sel {sel} hot {hot}");
            }
        }
    }

    #[test]
    fn barrel_shifts_left_with_zero_fill() {
        let net = barrel_shifter(8); // d0..d7, sh0..sh2
        let data: u64 = 0b1011_0011;
        for shift in 0..8u64 {
            let mut bits: Vec<u64> = (0..8).map(|i| (data >> i) & 1).collect();
            bits.extend((0..3).map(|i| (shift >> i) & 1));
            let outs = eval_single(&net, &bits);
            let got: u64 = outs.iter().enumerate().map(|(i, &b)| b << i).sum();
            assert_eq!(got, (data << shift) & 0xFF, "shift {shift}");
        }
    }

    #[test]
    fn priority_grants_the_lowest_request() {
        let net = priority_encoder(5);
        let outs = eval_single(&net, &[0, 1, 0, 1, 1]);
        assert_eq!(&outs[..5], &[0, 1, 0, 0, 0]);
        assert_eq!(outs[5], 1, "valid");
        let outs = eval_single(&net, &[0, 0, 0, 0, 0]);
        assert_eq!(outs[5], 0, "no request, not valid");
    }
}
