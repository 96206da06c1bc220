//! The BLIF reader and writer as they stood before `Network` became flat:
//! owned tokens, a recursive instantiation, a `String`-keyed signal map
//! and one `SopCover` built per written node. Kept as the reference
//! `blif::{parse, to_string}` are held to, byte for byte and error for
//! error. The code is the old code except that it imports public paths,
//! spells the writer's cubes as text (the literal enum is private to the
//! netlist crate) and opens no trace span.

use std::collections::HashMap;
use std::fmt::Write as _;

use dagmap::netlist::{Cube, NetlistError, Network, NodeFn, NodeId, SopCover};

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
    let cube = |text: &str| Cube::parse(text).expect("cube literal");
    let all_ones = || cube(&"1".repeat(fanins));
    let one_hot = || -> Vec<Cube> {
        (0..fanins)
            .map(|i| {
                let text: String = (0..fanins)
                    .map(|j| if i == j { '1' } else { '-' })
                    .collect();
                cube(&text)
            })
            .collect()
    };
    let cover = match func {
        NodeFn::Const(v) => SopCover::constant(*v),
        NodeFn::Buf => SopCover::new(1, vec![cube("1")], true).expect("width 1"),
        NodeFn::Not => SopCover::new(1, vec![cube("0")], true).expect("width 1"),
        NodeFn::And => SopCover::new(fanins, vec![all_ones()], true).expect("uniform"),
        NodeFn::Nand => SopCover::new(fanins, vec![all_ones()], false).expect("uniform"),
        NodeFn::Or => SopCover::new(fanins, one_hot(), true).expect("one-hot"),
        NodeFn::Nor => SopCover::new(fanins, one_hot(), false).expect("one-hot"),
        NodeFn::Xor | NodeFn::Xnor => {
            // Wider parities are written as trees (`write_parity_tree`).
            debug_assert!(fanins <= MAX_PARITY_CUBE_INPUTS);
            let want_odd = matches!(func, NodeFn::Xor);
            let mut cubes = Vec::new();
            for m in 0..(1usize << fanins) {
                let odd = (m.count_ones() & 1) == 1;
                if odd == want_odd {
                    let text: String = (0..fanins)
                        .map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' })
                        .collect();
                    cubes.push(cube(&text));
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
