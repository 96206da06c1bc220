//! Reader and writer for the ASCII AIGER format (`aag`), the and-inverter
//! graph interchange used by ABC-era logic-synthesis tools.
//!
//! An AIG is ANDs plus complemented edges; reading produces a [`Network`]
//! of `And`/`Not`/`Latch` nodes, and any network can be written by first
//! decomposing to a [`SubjectGraph`] (NAND2/INV is
//! AND/INV up to output inverters).
//!
//! ```
//! use dagmap_netlist::aiger;
//!
//! # fn main() -> Result<(), dagmap_netlist::NetlistError> {
//! let text = "\
//! aag 3 2 0 1 1
//! 2
//! 4
//! 6
//! 6 2 4
//! ";
//! let net = aiger::parse_ascii(text)?;
//! assert_eq!(net.inputs().len(), 2);
//! let round_trip = aiger::parse_ascii(&aiger::to_ascii(&net)?)?;
//! assert!(dagmap_netlist::sim::equivalent_random(&net, &round_trip, 4, 1)?);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{NetlistError, Network, NodeFn, NodeId, SubjectGraph};

fn parse_err(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses an ASCII AIGER (`aag`) file into a [`Network`].
///
/// Supports the base format: header `aag M I L O A`, one literal per input
/// line, `next [init]` per latch line (init must be 0 or absent), one
/// literal per output line, `lhs rhs0 rhs1` per AND line, and the optional
/// symbol table (`iN`/`lN`/`oN` names). Comments after `c` are ignored.
///
/// # Errors
///
/// Reports malformed headers, out-of-range literals and non-zero latch
/// initializers with line numbers.
pub fn parse_ascii(text: &str) -> Result<Network, NetlistError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty file"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(parse_err(1, "header must be `aag M I L O A`"));
    }
    let nums: Vec<usize> = fields[1..]
        .iter()
        .map(|f| f.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| parse_err(1, "header fields must be numbers"))?;
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);

    let mut take_line = |what: &str| -> Result<(usize, Vec<usize>), NetlistError> {
        for (idx, raw) in lines.by_ref() {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let vals: Vec<usize> = raw
                .split_whitespace()
                .map(|t| t.parse::<usize>())
                .collect::<Result<_, _>>()
                .map_err(|_| parse_err(idx + 1, format!("expected numbers for {what}")))?;
            return Ok((idx + 1, vals));
        }
        Err(parse_err(
            0,
            format!("unexpected end of file reading {what}"),
        ))
    };

    let mut input_lits = Vec::with_capacity(i);
    for _ in 0..i {
        let (ln, vals) = take_line("an input literal")?;
        if vals.len() != 1 || vals[0] % 2 != 0 || vals[0] == 0 {
            return Err(parse_err(ln, "input lines hold one even positive literal"));
        }
        input_lits.push(vals[0]);
    }
    let mut latch_specs = Vec::with_capacity(l);
    for _ in 0..l {
        let (ln, vals) = take_line("a latch line")?;
        if vals.is_empty() || vals.len() > 3 {
            return Err(parse_err(ln, "latch lines hold `lit next [init]`"));
        }
        // Base `aag` latch lines are `lit next [init]`; some writers omit
        // the defined literal — require the two-value form at minimum.
        if vals.len() < 2 {
            return Err(parse_err(ln, "latch lines hold `lit next [init]`"));
        }
        if vals.len() == 3 && vals[2] != 0 {
            return Err(parse_err(ln, "only zero-initialized latches are supported"));
        }
        latch_specs.push((vals[0], vals[1]));
    }
    let mut output_lits = Vec::with_capacity(o);
    for _ in 0..o {
        let (ln, vals) = take_line("an output literal")?;
        if vals.len() != 1 {
            return Err(parse_err(ln, "output lines hold one literal"));
        }
        output_lits.push(vals[0]);
    }
    let mut and_specs = Vec::with_capacity(a);
    for _ in 0..a {
        let (ln, vals) = take_line("an AND line")?;
        if vals.len() != 3 || vals[0] % 2 != 0 {
            return Err(parse_err(
                ln,
                "AND lines hold `lhs rhs0 rhs1` with even lhs",
            ));
        }
        and_specs.push((ln, vals[0], vals[1], vals[2]));
    }
    // Symbol table.
    let mut input_names: HashMap<usize, String> = HashMap::new();
    let mut latch_names: HashMap<usize, String> = HashMap::new();
    let mut output_names: HashMap<usize, String> = HashMap::new();
    for (idx, raw) in lines {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        if raw == "c" || raw.starts_with("c ") {
            break;
        }
        let (kind, rest) = raw.split_at(1);
        let (pos_text, name) = rest
            .split_once(' ')
            .ok_or_else(|| parse_err(idx + 1, "symbol lines are `<k><pos> <name>`"))?;
        let pos: usize = pos_text
            .parse()
            .map_err(|_| parse_err(idx + 1, "bad symbol position"))?;
        match kind {
            "i" => input_names.insert(pos, name.to_owned()),
            "l" => latch_names.insert(pos, name.to_owned()),
            "o" => output_names.insert(pos, name.to_owned()),
            _ => return Err(parse_err(idx + 1, "symbol kind must be i, l or o")),
        };
    }

    // Build the network. `var_node[v]` is the node for AIG variable v.
    let mut net = Network::new("aiger");
    let mut var_node: Vec<Option<NodeId>> = vec![None; m + 1];
    for (pos, &lit) in input_lits.iter().enumerate() {
        let name = input_names
            .get(&pos)
            .cloned()
            .unwrap_or_else(|| format!("i{pos}"));
        var_node[lit / 2] = Some(net.add_input(name));
    }
    let zero = if l > 0
        || output_lits.iter().any(|&x| x < 2)
        || and_specs.iter().any(|&(_, _, r0, r1)| r0 < 2 || r1 < 2)
    {
        Some(net.add_node(NodeFn::Const(false), Vec::new())?)
    } else {
        None
    };
    // Latches first (placeholder data patched at the end).
    let mut latch_nodes = Vec::with_capacity(l);
    for (pos, &(lit, _)) in latch_specs.iter().enumerate() {
        let node = net.add_node(NodeFn::Latch, vec![zero.expect("placeholder exists")])?;
        let name = latch_names
            .get(&pos)
            .cloned()
            .unwrap_or_else(|| format!("l{pos}"));
        net.set_node_name(node, name);
        if lit % 2 != 0 || lit / 2 > m {
            return Err(parse_err(0, format!("bad latch literal {lit}")));
        }
        var_node[lit / 2] = Some(node);
        latch_nodes.push(node);
    }
    // ANDs may be out of order in `aag`; resolve iteratively.
    let mut remaining = and_specs;
    let resolve_lit = |lit: usize,
                       net: &mut Network,
                       var_node: &Vec<Option<NodeId>>|
     -> Result<Option<NodeId>, NetlistError> {
        if lit < 2 {
            let z = zero.expect("constant was pre-created");
            return Ok(Some(if lit == 1 {
                net.add_node(NodeFn::Not, vec![z])?
            } else {
                z
            }));
        }
        let var = lit / 2;
        if var > m {
            return Err(parse_err(0, format!("literal {lit} exceeds M={m}")));
        }
        Ok(match var_node[var] {
            Some(node) => Some(if lit % 2 == 1 {
                net.add_node(NodeFn::Not, vec![node])?
            } else {
                node
            }),
            None => None,
        })
    };
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut next_round = Vec::new();
        for (ln, lhs, rhs0, rhs1) in remaining {
            let a0 = resolve_lit(rhs0, &mut net, &var_node)?;
            let a1 = resolve_lit(rhs1, &mut net, &var_node)?;
            match (a0, a1) {
                (Some(x), Some(y)) => {
                    var_node[lhs / 2] = Some(net.add_node(NodeFn::And, vec![x, y])?);
                }
                _ => next_round.push((ln, lhs, rhs0, rhs1)),
            }
        }
        if next_round.len() == before {
            let (ln, lhs, ..) = next_round[0];
            return Err(parse_err(
                ln,
                format!("AND {lhs} depends on an undefined literal"),
            ));
        }
        remaining = next_round;
    }
    // Patch latch data and declare outputs.
    for (&(_, next), &node) in latch_specs.iter().zip(&latch_nodes) {
        let data = resolve_lit(next, &mut net, &var_node)?
            .ok_or_else(|| parse_err(0, format!("latch next-state literal {next} is undefined")))?;
        net.replace_single_fanin(node, data);
    }
    for (pos, &lit) in output_lits.iter().enumerate() {
        let driver = resolve_lit(lit, &mut net, &var_node)?
            .ok_or_else(|| parse_err(0, format!("output literal {lit} is undefined")))?;
        let name = output_names
            .get(&pos)
            .cloned()
            .unwrap_or_else(|| format!("o{pos}"));
        net.add_output(name, driver);
    }
    net.validate()?;
    Ok(net)
}

/// Serializes a network as ASCII AIGER (`aag`), decomposing it first (the
/// NAND2/INV subject form maps 1:1 onto AND nodes with complemented edges).
///
/// # Errors
///
/// Fails if the network cannot be decomposed (combinational cycles).
pub fn to_ascii(net: &Network) -> Result<String, NetlistError> {
    let subject = SubjectGraph::from_network(net)?;
    let snet = subject.network();

    // Literal per subject node: NANDs become AND variables read through a
    // complemented edge; inverters and constants fold into literals.
    let order = snet.topo_order()?;
    let mut lit: Vec<usize> = vec![usize::MAX; snet.num_nodes()];
    let mut next_var = 1usize;
    let mut inputs = Vec::new();
    for &id in snet.inputs() {
        lit[id.index()] = 2 * next_var;
        inputs.push((
            2 * next_var,
            snet.node(id).name().unwrap_or("pi").to_owned(),
        ));
        next_var += 1;
    }
    let mut latches: Vec<(usize, NodeId, String)> = Vec::new();
    for id in snet.node_ids() {
        if matches!(snet.node(id).func(), NodeFn::Latch) {
            lit[id.index()] = 2 * next_var;
            latches.push((
                2 * next_var,
                snet.node(id).fanins()[0],
                snet.node(id).name().unwrap_or("l").to_owned(),
            ));
            next_var += 1;
        }
    }
    let mut ands: Vec<(usize, usize, usize)> = Vec::new();
    for &id in &order {
        let node = snet.node(id);
        match node.func() {
            NodeFn::Input | NodeFn::Latch => {}
            NodeFn::Const(v) => lit[id.index()] = usize::from(*v),
            NodeFn::Not => lit[id.index()] = lit[node.fanins()[0].index()] ^ 1,
            NodeFn::Nand => {
                let lhs = 2 * next_var;
                next_var += 1;
                ands.push((
                    lhs,
                    lit[node.fanins()[0].index()],
                    lit[node.fanins()[1].index()],
                ));
                // NAND = complemented AND.
                lit[id.index()] = lhs ^ 1;
            }
            other => unreachable!("subject graphs never hold {}", other.name()),
        }
    }

    let outputs: Vec<(usize, String)> = snet
        .outputs()
        .iter()
        .map(|o| (lit[o.driver.index()], o.name.clone()))
        .collect();
    let m = next_var - 1;
    let mut s = String::new();
    writeln!(
        s,
        "aag {m} {} {} {} {}",
        inputs.len(),
        latches.len(),
        outputs.len(),
        ands.len()
    )
    .expect("string write");
    for (l, _) in &inputs {
        writeln!(s, "{l}").expect("string write");
    }
    for (l, data, _) in &latches {
        writeln!(s, "{l} {}", lit[data.index()]).expect("string write");
    }
    for (l, _) in &outputs {
        writeln!(s, "{l}").expect("string write");
    }
    for (lhs, r0, r1) in &ands {
        writeln!(s, "{lhs} {r0} {r1}").expect("string write");
    }
    for (pos, (_, name)) in inputs.iter().enumerate() {
        writeln!(s, "i{pos} {name}").expect("string write");
    }
    for (pos, (_, _, name)) in latches.iter().enumerate() {
        writeln!(s, "l{pos} {name}").expect("string write");
    }
    for (pos, (_, name)) in outputs.iter().enumerate() {
        writeln!(s, "o{pos} {name}").expect("string write");
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn parses_the_spec_example() {
        // The AIGER spec's and-gate example: o0 = i0 AND i1.
        let net = parse_ascii("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
        let s = sim::Simulator::new(&net).unwrap();
        let v = s.eval(&[0b1100, 0b1010]);
        assert_eq!(v.output(&net, "o0").unwrap() & 0b1111, 0b1000);
    }

    #[test]
    fn complemented_edges_and_constants() {
        // o0 = !(i0 & !i1); o1 = const true.
        let net = parse_ascii("aag 3 2 0 2 1\n2\n4\n7\n1\n6 2 5\n").unwrap();
        let s = sim::Simulator::new(&net).unwrap();
        let v = s.eval(&[0b1100, 0b1010]);
        assert_eq!(v.output(&net, "o0").unwrap() & 0b1111, !0b0100u64 & 0b1111);
        assert_eq!(v.output(&net, "o1").unwrap(), u64::MAX);
    }

    #[test]
    fn latches_round_trip() {
        // Toggle: latch next-state = !latch.
        let net = parse_ascii("aag 1 0 1 1 0\n2 3\n2\n").unwrap();
        assert_eq!(net.num_latches(), 1);
        let back = parse_ascii(&to_ascii(&net).unwrap()).unwrap();
        assert!(sim::equivalent_random_sequential(&net, &back, 8, 4, 9).unwrap());
    }

    #[test]
    fn networks_round_trip_through_aiger() {
        use crate::{Network, NodeFn};
        let mut net = Network::new("rt");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        let y = net.add_node(NodeFn::Mux, vec![c, x, a]).unwrap();
        net.add_output("f", y);
        net.add_output("g", x);
        let text = to_ascii(&net).unwrap();
        let back = parse_ascii(&text).unwrap();
        assert!(sim::equivalent_random(&net, &back, 16, 0xA1).unwrap());
    }

    #[test]
    fn symbol_tables_name_ports() {
        let net =
            parse_ascii("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 alpha\ni1 beta\no0 gamma\n").unwrap();
        assert!(net.find_by_name("alpha").is_some());
        assert!(net.outputs()[0].name == "gamma");
    }

    #[test]
    fn malformed_files_error_cleanly() {
        for text in [
            "",
            "aig 1 0 0 0 0\n",
            "aag x y z w v\n",
            "aag 1 1 0 0 0\n3\n",           // odd input literal
            "aag 2 1 0 1 1\n2\n4\n4 2 9\n", // literal exceeds M
            "aag 1 0 1 0 0\n2 3 1\n",       // init value 1 unsupported
        ] {
            assert!(parse_ascii(text).is_err(), "accepted: {text:?}");
        }
    }
}
