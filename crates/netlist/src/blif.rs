//! Reader and writer for the Berkeley BLIF interchange format.
//!
//! The subset implemented is the one technology mapping needs: `.model`,
//! `.inputs`, `.outputs`, `.names` (single-output SOP covers), `.latch`
//! (edge-triggered, initial value treated as 0), `.end`, comments and line
//! continuations. Sub-circuits (`.subckt`) and gate libraries (`.gate`) are
//! out of scope — mapped netlists have their own report formats in
//! `dagmap-core`.
//!
//! ```
//! use dagmap_netlist::blif;
//!
//! # fn main() -> Result<(), dagmap_netlist::NetlistError> {
//! let text = "\
//! .model toy
//! .inputs a b
//! .outputs f
//! .names a b f
//! 11 1
//! .end
//! ";
//! let net = blif::parse(text)?;
//! assert_eq!(net.name(), "toy");
//! let round_trip = blif::parse(&blif::to_string(&net)?)?;
//! assert!(dagmap_netlist::sim::equivalent_random(&net, &round_trip, 4, 1)?);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::sop::{Cube, CubeLit};
use crate::{NetlistError, Network, NodeFn, NodeId, SopCover};

/// One logical (continuation-joined, comment-stripped) BLIF line.
struct Line {
    number: usize,
    tokens: Vec<String>,
}

fn logical_lines(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let no_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = no_comment.trim_end();
        if let Some(stripped) = trimmed.strip_suffix('\\') {
            if pending.is_empty() {
                pending_start = number;
            }
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        let (full, start) = if pending.is_empty() {
            (trimmed.to_owned(), number)
        } else {
            let mut f = std::mem::take(&mut pending);
            f.push_str(trimmed);
            (f, pending_start)
        };
        let tokens: Vec<String> = full.split_whitespace().map(str::to_owned).collect();
        if !tokens.is_empty() {
            out.push(Line {
                number: start,
                tokens,
            });
        }
    }
    if !pending.is_empty() {
        let tokens: Vec<String> = pending.split_whitespace().map(str::to_owned).collect();
        if !tokens.is_empty() {
            out.push(Line {
                number: pending_start,
                tokens,
            });
        }
    }
    out
}

#[derive(Debug)]
struct NamesSpec {
    line: usize,
    inputs: Vec<String>,
    output: String,
    cubes: Vec<(Cube, bool)>,
}

#[derive(Debug)]
struct LatchSpec {
    line: usize,
    input: String,
    output: String,
}

/// Parses BLIF text into a [`Network`] (first `.model` only).
///
/// # Errors
///
/// Reports malformed directives and cubes with line numbers, undefined or
/// redefined signals, and combinational cycles.
pub fn parse(text: &str) -> Result<Network, NetlistError> {
    let mut obs_span = dagmap_obs::span("parse.blif");
    obs_span.set_u64("bytes", text.len() as u64);
    let lines = logical_lines(text);
    let mut model_name = String::from("blif");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut names: Vec<NamesSpec> = Vec::new();
    let mut latches: Vec<LatchSpec> = Vec::new();

    let mut i = 0;
    let mut saw_model = false;
    while i < lines.len() {
        let line = &lines[i];
        let head = line.tokens[0].as_str();
        match head {
            ".model" => {
                if saw_model {
                    break; // only the first model
                }
                saw_model = true;
                if let Some(name) = line.tokens.get(1) {
                    model_name = name.clone();
                }
                i += 1;
            }
            ".inputs" => {
                inputs.extend(line.tokens[1..].iter().cloned());
                i += 1;
            }
            ".outputs" => {
                outputs.extend(line.tokens[1..].iter().cloned());
                i += 1;
            }
            ".names" => {
                if line.tokens.len() < 2 {
                    return Err(NetlistError::Parse {
                        line: line.number,
                        message: ".names needs at least an output signal".into(),
                    });
                }
                let output = line.tokens.last().expect("checked length").clone();
                let ins: Vec<String> = line.tokens[1..line.tokens.len() - 1].to_vec();
                let mut cubes = Vec::new();
                i += 1;
                while i < lines.len() && !lines[i].tokens[0].starts_with('.') {
                    let cl = &lines[i];
                    let (cube_text, value_text) = if ins.is_empty() {
                        // Constant node: a bare "1" or "0".
                        (String::new(), cl.tokens[0].clone())
                    } else if cl.tokens.len() == 2 {
                        (cl.tokens[0].clone(), cl.tokens[1].clone())
                    } else {
                        return Err(NetlistError::Parse {
                            line: cl.number,
                            message: format!("expected `<cube> <value>`, got {:?}", cl.tokens),
                        });
                    };
                    let value = match value_text.as_str() {
                        "1" => true,
                        "0" => false,
                        other => {
                            return Err(NetlistError::Parse {
                                line: cl.number,
                                message: format!("output value must be 0 or 1, got `{other}`"),
                            })
                        }
                    };
                    let cube = Cube::parse(&cube_text).ok_or_else(|| NetlistError::Parse {
                        line: cl.number,
                        message: format!("bad cube `{cube_text}`"),
                    })?;
                    if cube.0.len() != ins.len() {
                        return Err(NetlistError::Parse {
                            line: cl.number,
                            message: format!(
                                "cube width {} does not match {} inputs",
                                cube.0.len(),
                                ins.len()
                            ),
                        });
                    }
                    cubes.push((cube, value));
                    i += 1;
                }
                names.push(NamesSpec {
                    line: line.number,
                    inputs: ins,
                    output,
                    cubes,
                });
            }
            ".latch" => {
                if line.tokens.len() < 3 {
                    return Err(NetlistError::Parse {
                        line: line.number,
                        message: ".latch needs input and output signals".into(),
                    });
                }
                latches.push(LatchSpec {
                    line: line.number,
                    input: line.tokens[1].clone(),
                    output: line.tokens[2].clone(),
                });
                i += 1;
            }
            ".end" => break,
            ".exdc" | ".subckt" | ".gate" | ".mlatch" => {
                return Err(NetlistError::Parse {
                    line: line.number,
                    message: format!("directive `{head}` is not supported"),
                });
            }
            other if other.starts_with('.') => {
                // Unknown benign directives (.clock etc.) are skipped.
                i += 1;
            }
            _ => {
                return Err(NetlistError::Parse {
                    line: line.number,
                    message: format!("unexpected token `{head}` outside a .names block"),
                });
            }
        }
    }

    // Validate covers: all cubes of one .names must agree on the output value.
    for spec in &names {
        if spec.cubes.windows(2).any(|w| w[0].1 != w[1].1) {
            return Err(NetlistError::Parse {
                line: spec.line,
                message: format!("cover for `{}` mixes output phases", spec.output),
            });
        }
    }

    // Producer table.
    let mut producer: HashMap<&str, usize> = HashMap::new(); // index into names
    for (idx, spec) in names.iter().enumerate() {
        if producer.insert(spec.output.as_str(), idx).is_some() {
            return Err(NetlistError::RedefinedSignal(spec.output.clone()));
        }
    }
    let latch_out: HashMap<&str, usize> = latches
        .iter()
        .enumerate()
        .map(|(i, l)| (l.output.as_str(), i))
        .collect();
    for spec in &names {
        if latch_out.contains_key(spec.output.as_str()) || inputs.iter().any(|i| i == &spec.output)
        {
            return Err(NetlistError::RedefinedSignal(spec.output.clone()));
        }
    }

    let mut net = Network::new(model_name);
    let mut signal: HashMap<String, NodeId> = HashMap::new();
    for name in &inputs {
        if signal.contains_key(name) {
            return Err(NetlistError::RedefinedSignal(name.clone()));
        }
        let id = net.add_input(name);
        signal.insert(name.clone(), id);
    }
    // Latch outputs become latch nodes fed by a placeholder constant; the
    // data fanin is patched once its cone exists.
    let mut latch_nodes = Vec::with_capacity(latches.len());
    let zero = if latches.is_empty() {
        None
    } else {
        Some(
            net.add_node(NodeFn::Const(false), Vec::new())
                .expect("constants are nullary"),
        )
    };
    for l in &latches {
        let zero = zero.expect("placeholder exists when latches exist");
        if signal.contains_key(&l.output) {
            return Err(NetlistError::RedefinedSignal(l.output.clone()));
        }
        let id = net
            .add_node(NodeFn::Latch, vec![zero])
            .expect("latch arity is 1");
        net.set_node_name(id, &l.output);
        signal.insert(l.output.clone(), id);
        latch_nodes.push(id);
    }

    // Instantiate .names nodes in dependency order (iterative DFS).
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark = vec![Mark::White; names.len()];
    fn instantiate(
        idx: usize,
        names: &[NamesSpec],
        producer: &HashMap<&str, usize>,
        mark: &mut [Mark],
        net: &mut Network,
        signal: &mut HashMap<String, NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if let Some(&id) = signal.get(&names[idx].output) {
            return Ok(id);
        }
        if mark[idx] == Mark::Grey {
            return Err(NetlistError::Parse {
                line: names[idx].line,
                message: format!("combinational cycle through `{}`", names[idx].output),
            });
        }
        mark[idx] = Mark::Grey;
        let mut fanins = Vec::with_capacity(names[idx].inputs.len());
        for input in names[idx].inputs.clone() {
            let id = if let Some(&id) = signal.get(&input) {
                id
            } else if let Some(&p) = producer.get(input.as_str()) {
                instantiate(p, names, producer, mark, net, signal)?
            } else {
                return Err(NetlistError::UndefinedSignal(input));
            };
            fanins.push(id);
        }
        let spec = &names[idx];
        let value = spec.cubes.first().map(|c| c.1).unwrap_or(true);
        let cover = SopCover::new(
            spec.inputs.len(),
            spec.cubes.iter().map(|c| c.0.clone()).collect(),
            value,
        )
        .expect("cube widths were validated");
        let id = net
            .add_node(NodeFn::Sop(cover), fanins)
            .expect("arity matches cover");
        net.set_node_name(id, &spec.output);
        mark[idx] = Mark::Black;
        signal.insert(spec.output.clone(), id);
        Ok(id)
    }
    for idx in 0..names.len() {
        instantiate(idx, &names, &producer, &mut mark, &mut net, &mut signal)?;
    }

    // Patch latch data fanins.
    for (l, &node) in latches.iter().zip(&latch_nodes) {
        let data = signal
            .get(&l.input)
            .copied()
            .ok_or_else(|| NetlistError::Parse {
                line: l.line,
                message: format!("latch input `{}` is undefined", l.input),
            })?;
        net.replace_single_fanin(node, data);
    }

    for name in &outputs {
        let id = signal
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UndefinedSignal(name.clone()))?;
        net.add_output(name, id);
    }
    net.validate()?;
    Ok(net)
}

/// Widest XOR/XNOR written as one cube cover (2^(n-1) cubes); wider ones
/// are written as trees of 2-input XORs.
const MAX_PARITY_CUBE_INPUTS: usize = 16;

/// Writes an XOR (XNOR when `invert`) over `inputs`, more than
/// [`MAX_PARITY_CUBE_INPUTS`] signals, as a balanced tree of 2-input XOR
/// `.names` whose root drives `out`. The internal signals get fresh names,
/// registered in `used` under `owner`.
fn write_parity_tree(
    s: &mut String,
    used: &mut HashMap<String, NodeId>,
    owner: NodeId,
    inputs: Vec<String>,
    out: &str,
    invert: bool,
) {
    let mut k = 0;
    let mut level = inputs;
    while level.len() > 2 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            let [a, b] = pair else {
                next.push(pair[0].clone());
                continue;
            };
            let t = loop {
                let t = format!("{out}_x{k}");
                k += 1;
                if !used.contains_key(&t) {
                    break t;
                }
            };
            used.insert(t.clone(), owner);
            writeln!(s, ".names {a} {b} {t}\n01 1\n10 1").expect("string write");
            next.push(t);
        }
        level = next;
    }
    let on_set = if invert { "00 1\n11 1" } else { "01 1\n10 1" };
    writeln!(s, ".names {} {} {out}\n{on_set}", level[0], level[1]).expect("string write");
}

/// Converts a node function to an SOP cover for writing.
fn cover_of(func: &NodeFn, fanins: usize) -> Result<SopCover, NetlistError> {
    let all = |lit: CubeLit| Cube(vec![lit; fanins]);
    let one_hot = |lit: CubeLit| -> Vec<Cube> {
        (0..fanins)
            .map(|i| {
                let mut c = vec![CubeLit::DontCare; fanins];
                c[i] = lit;
                Cube(c)
            })
            .collect()
    };
    let cover = match func {
        NodeFn::Const(v) => SopCover::constant(*v),
        NodeFn::Buf => SopCover::new(1, vec![Cube(vec![CubeLit::One])], true).expect("width 1"),
        NodeFn::Not => SopCover::new(1, vec![Cube(vec![CubeLit::Zero])], true).expect("width 1"),
        NodeFn::And => SopCover::new(fanins, vec![all(CubeLit::One)], true).expect("uniform"),
        NodeFn::Nand => SopCover::new(fanins, vec![all(CubeLit::One)], false).expect("uniform"),
        NodeFn::Or => SopCover::new(fanins, one_hot(CubeLit::One), true).expect("one-hot"),
        NodeFn::Nor => SopCover::new(fanins, one_hot(CubeLit::One), false).expect("one-hot"),
        NodeFn::Xor | NodeFn::Xnor => {
            // Wider parities are written as trees (`write_parity_tree`).
            debug_assert!(fanins <= MAX_PARITY_CUBE_INPUTS);
            let want_odd = matches!(func, NodeFn::Xor);
            let mut cubes = Vec::new();
            for m in 0..(1usize << fanins) {
                let odd = (m.count_ones() & 1) == 1;
                if odd == want_odd {
                    let lits = (0..fanins)
                        .map(|i| {
                            if (m >> i) & 1 == 1 {
                                CubeLit::One
                            } else {
                                CubeLit::Zero
                            }
                        })
                        .collect();
                    cubes.push(Cube(lits));
                }
            }
            SopCover::new(fanins, cubes, true).expect("uniform")
        }
        NodeFn::Mux => SopCover::parse_cubes(3, &["01-", "1-1"], true).expect("static"),
        NodeFn::Maj => SopCover::parse_cubes(3, &["11-", "1-1", "-11"], true).expect("static"),
        NodeFn::Sop(c) => c.clone(),
        NodeFn::Input | NodeFn::Latch => {
            return Err(NetlistError::Invariant(
                "inputs and latches are not .names nodes".into(),
            ))
        }
    };
    Ok(cover)
}

/// Serializes a network to BLIF text.
///
/// Unnamed internal signals get generated `n<k>` names. An XOR or XNOR
/// wider than 16 inputs is written as a tree of 2-input XORs over fresh
/// internal signals.
///
/// # Errors
///
/// Fails only if an input or latch reaches the `.names` writer, which a
/// valid network never lets happen.
pub fn to_string(net: &Network) -> Result<String, NetlistError> {
    let mut used: HashMap<String, NodeId> = HashMap::new();
    // Output port names belong to their drivers: any other node that
    // happens to carry the same name (e.g. the previous driver after an
    // edit redirected the output) must be renamed, or the buffer alias
    // emitted for the port would define the signal twice.
    for o in net.outputs() {
        used.entry(o.name.clone()).or_insert(o.driver);
    }
    let mut name_of: Vec<String> = Vec::with_capacity(net.num_nodes());
    for id in net.node_ids() {
        let base = net
            .node(id)
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("n{}", id.index()));
        let mut name = base.clone();
        let mut k = 0;
        while let Some(&other) = used.get(&name) {
            if other == id {
                break;
            }
            k += 1;
            name = format!("{base}_{k}");
        }
        used.insert(name.clone(), id);
        name_of.push(name);
    }

    let mut s = String::new();
    writeln!(s, ".model {}", net.name()).expect("string write");
    write!(s, ".inputs").expect("string write");
    for &i in net.inputs() {
        write!(s, " {}", name_of[i.index()]).expect("string write");
    }
    writeln!(s).expect("string write");
    write!(s, ".outputs").expect("string write");
    for o in net.outputs() {
        write!(s, " {}", o.name).expect("string write");
    }
    writeln!(s).expect("string write");

    for id in net.node_ids() {
        if matches!(net.node(id).func(), NodeFn::Latch) {
            let d = net.node(id).fanins()[0];
            writeln!(s, ".latch {} {} 0", name_of[d.index()], name_of[id.index()])
                .expect("string write");
        }
    }
    for id in net.node_ids() {
        let node = net.node(id);
        if matches!(node.func(), NodeFn::Input | NodeFn::Latch) {
            continue;
        }
        if matches!(node.func(), NodeFn::Xor | NodeFn::Xnor)
            && node.fanins().len() > MAX_PARITY_CUBE_INPUTS
        {
            let inputs = node
                .fanins()
                .iter()
                .map(|f| name_of[f.index()].clone())
                .collect();
            let invert = matches!(node.func(), NodeFn::Xnor);
            write_parity_tree(&mut s, &mut used, id, inputs, &name_of[id.index()], invert);
            continue;
        }
        let cover = cover_of(node.func(), node.fanins().len())?;
        write!(s, ".names").expect("string write");
        for f in node.fanins() {
            write!(s, " {}", name_of[f.index()]).expect("string write");
        }
        writeln!(s, " {}", name_of[id.index()]).expect("string write");
        let phase = if cover.output_value() { "1" } else { "0" };
        for cube in cover.cubes() {
            if cover.num_inputs() == 0 {
                writeln!(s, "{phase}").expect("string write");
            } else {
                writeln!(s, "{cube} {phase}").expect("string write");
            }
        }
    }
    // Primary outputs whose port name differs from the driver's signal name
    // need a buffer alias.
    for o in net.outputs() {
        let driver_name = &name_of[o.driver.index()];
        if driver_name != &o.name {
            writeln!(s, ".names {} {}\n1 1", driver_name, o.name).expect("string write");
        }
    }
    writeln!(s, ".end").expect("string write");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn parses_simple_model() {
        let net = parse(
            ".model m\n.inputs a b c\n.outputs f\n.names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n.end\n",
        )
        .unwrap();
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.outputs().len(), 1);
        // f = (a&b) | c
        let s = sim::Simulator::new(&net).unwrap();
        let v = s.eval(&[0b1100, 0b1010, 0b0001]);
        assert_eq!(v.output(&net, "f").unwrap() & 0b1111, 0b1001);
    }

    #[test]
    fn handles_out_of_order_definitions() {
        let net =
            parse(".model m\n.inputs a\n.outputs f\n.names t f\n1 1\n.names a t\n0 1\n.end\n")
                .unwrap();
        assert_eq!(net.num_internal(), 2);
    }

    #[test]
    fn joins_continuation_lines_and_strips_comments() {
        let net = parse(
            ".model m # model\n.inputs a \\\nb\n.outputs f\n.names a b f # and\n11 1\n.end\n",
        )
        .unwrap();
        assert_eq!(net.inputs().len(), 2);
    }

    #[test]
    fn detects_combinational_cycles() {
        let err =
            parse(".model m\n.inputs a\n.outputs f\n.names a x f\n11 1\n.names f x\n1 1\n.end\n")
                .unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn rejects_undefined_signals() {
        let err =
            parse(".model m\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n").unwrap_err();
        assert_eq!(err, NetlistError::UndefinedSignal("ghost".into()));
    }

    #[test]
    fn rejects_mixed_phase_covers() {
        let err = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n")
            .unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn latches_round_trip() {
        let text =
            ".model seq\n.inputs d\n.outputs q\n.latch dn q 0\n.names d q dn\n10 1\n01 1\n.end\n";
        let net = parse(text).unwrap();
        assert_eq!(net.num_latches(), 1);
        let back = parse(&to_string(&net).unwrap()).unwrap();
        assert!(sim::equivalent_random_sequential(&net, &back, 8, 8, 3).unwrap());
    }

    #[test]
    fn functional_round_trip_of_every_gate() {
        let mut net = Network::new("gates");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        for (name, f) in [
            ("and", NodeFn::And),
            ("or", NodeFn::Or),
            ("nand", NodeFn::Nand),
            ("nor", NodeFn::Nor),
            ("xor", NodeFn::Xor),
            ("xnor", NodeFn::Xnor),
            ("mux", NodeFn::Mux),
            ("maj", NodeFn::Maj),
        ] {
            let n = net.add_node(f, vec![a, b, c]).unwrap();
            net.add_output(name, n);
        }
        let back = parse(&to_string(&net).unwrap()).unwrap();
        assert!(sim::equivalent_random(&net, &back, 8, 2).unwrap());
    }

    #[test]
    fn constant_nodes_round_trip() {
        let mut net = Network::new("k");
        let one = net.add_node(NodeFn::Const(true), vec![]).unwrap();
        let zero = net.add_node(NodeFn::Const(false), vec![]).unwrap();
        net.add_output("hi", one);
        net.add_output("lo", zero);
        let back = parse(&to_string(&net).unwrap()).unwrap();
        let s = sim::Simulator::new(&back).unwrap();
        let v = s.eval(&[]);
        assert_eq!(v.output(&back, "hi"), Some(u64::MAX));
        assert_eq!(v.output(&back, "lo"), Some(0));
    }
}
