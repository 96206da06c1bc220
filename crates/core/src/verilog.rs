//! Structural Verilog export of mapped netlists — one instance per library
//! cell, the customary hand-off format to downstream physical design.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::mapped::{MappedNetlist, Signal};

/// Rewrites a signal name into a legal Verilog identifier.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Emits the mapped netlist as a structural Verilog module.
///
/// Cells become named instances of their library gates with connections by
/// pin name plus an `O` output pin. Latches become a `clk`-triggered
/// `always` block (a `clk` input port is added when any latch exists).
///
/// ```
/// use dagmap_core::{verilog, MapOptions, Mapper};
/// use dagmap_genlib::Library;
/// use dagmap_netlist::{Network, NodeFn, SubjectGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = Network::new("toy");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let f = net.add_node(NodeFn::And, vec![a, b])?;
/// net.add_output("f", f);
/// let subject = SubjectGraph::from_network(&net)?;
/// let mapped = Mapper::new(&Library::lib2_like()).map(&subject, MapOptions::dag())?;
/// let text = verilog::to_verilog(&mapped);
/// assert!(text.contains("module toy"));
/// assert!(text.contains("endmodule"));
/// # Ok(())
/// # }
/// ```
pub fn to_verilog(mapped: &MappedNetlist) -> String {
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut unique = |base: String| -> String {
        let n = used.entry(base.clone()).or_insert(0);
        *n += 1;
        if *n == 1 {
            base
        } else {
            format!("{base}_{}", *n - 1)
        }
    };
    let input_names: Vec<String> = mapped
        .input_names()
        .iter()
        .map(|n| unique(sanitize(n)))
        .collect();
    let cell_names: Vec<String> = (0..mapped.num_cells())
        .map(|i| unique(format!("w{i}")))
        .collect();
    let latch_names: Vec<String> = mapped
        .latches()
        .iter()
        .map(|(n, _)| unique(sanitize(n)))
        .collect();
    let output_names: Vec<String> = mapped
        .outputs()
        .iter()
        .map(|(n, _)| unique(sanitize(n)))
        .collect();

    let signal_name = |s: Signal| -> String {
        match s {
            Signal::Input(i) => input_names[i as usize].clone(),
            Signal::Cell(c) => cell_names[c as usize].clone(),
            Signal::Latch(l) => latch_names[l as usize].clone(),
            Signal::Const(false) => "1'b0".to_owned(),
            Signal::Const(true) => "1'b1".to_owned(),
        }
    };

    let mut v = String::new();
    let has_latches = !mapped.latches().is_empty();
    let mut ports: Vec<String> = Vec::new();
    if has_latches {
        ports.push("clk".to_owned());
    }
    ports.extend(input_names.iter().cloned());
    ports.extend(output_names.iter().cloned());
    writeln!(
        v,
        "// mapped by dagmap: {} cells, delay {:.3}, area {:.1}",
        mapped.num_cells(),
        mapped.delay(),
        mapped.area()
    )
    .expect("string write");
    writeln!(
        v,
        "module {} ({});",
        sanitize(mapped.name()),
        ports.join(", ")
    )
    .expect("string write");
    if has_latches {
        writeln!(v, "  input clk;").expect("string write");
    }
    for name in &input_names {
        writeln!(v, "  input {name};").expect("string write");
    }
    for name in &output_names {
        writeln!(v, "  output {name};").expect("string write");
    }
    for name in &cell_names {
        writeln!(v, "  wire {name};").expect("string write");
    }
    for name in &latch_names {
        writeln!(v, "  reg {name};").expect("string write");
    }
    writeln!(v).expect("string write");
    for (i, cell) in mapped.cells().iter().enumerate() {
        let kind = mapped.kind_of(i);
        let conns: Vec<String> = std::iter::once(format!(
            ".{}({})",
            sanitize(&kind.output_pin),
            cell_names[i]
        ))
        .chain(
            kind.pin_names
                .iter()
                .zip(&cell.fanins)
                .map(|(pin, &f)| format!(".{}({})", sanitize(pin), signal_name(f))),
        )
        .collect();
        writeln!(v, "  {} u{i} ({});", sanitize(&kind.name), conns.join(", "))
            .expect("string write");
    }
    if has_latches {
        writeln!(v, "\n  always @(posedge clk) begin").expect("string write");
        for ((_, data), name) in mapped.latches().iter().zip(&latch_names) {
            writeln!(v, "    {name} <= {};", signal_name(*data)).expect("string write");
        }
        writeln!(v, "  end").expect("string write");
    }
    for ((_, sig), name) in mapped.outputs().iter().zip(&output_names) {
        writeln!(v, "  assign {name} = {};", signal_name(*sig)).expect("string write");
    }
    writeln!(v, "endmodule").expect("string write");
    v
}

/// Parses the structural-Verilog subset emitted by [`to_verilog`] back into
/// a [`Network`](dagmap_netlist::Network), resolving instance gate names
/// against `library`.
///
/// Supported constructs: one `module` with scalar ports, `input`/`output`/
/// `wire`/`reg` declarations, named-connection gate instances, `assign
/// name = name|1'b0|1'b1;`, and the single `always @(posedge clk)` block of
/// non-blocking latch updates the writer produces.
///
/// # Errors
///
/// Reports unknown gates, undeclared signals and malformed syntax with a
/// descriptive [`crate::MapError::Netlist`] message.
pub fn parse_verilog(
    text: &str,
    library: &dagmap_genlib::Library,
) -> Result<dagmap_netlist::Network, crate::MapError> {
    use dagmap_genlib::TreeShape;
    use dagmap_netlist::{NetlistError, Network, NodeFn, NodeId};

    let fail = |msg: String| crate::MapError::Netlist(NetlistError::Invariant(msg));
    // Strip comments, join, and split into `;`-terminated statements (the
    // always block is handled via its `begin`/`end` bracket).
    let mut body = String::new();
    for line in text.lines() {
        let line = match line.find("//") {
            Some(p) => &line[..p],
            None => line,
        };
        body.push_str(line);
        body.push(' ');
    }
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut regs: Vec<String> = Vec::new();
    let mut instances: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let mut assigns: Vec<(String, String)> = Vec::new();
    let mut latch_updates: Vec<(String, String)> = Vec::new();
    let mut module_name = String::from("verilog");

    let mut rest = body.as_str();
    while let Some(semi) = rest.find(';') {
        let mut stmt = rest[..semi].trim();
        rest = &rest[semi + 1..];
        // A closing `end` of an always block rides in front of the next
        // statement; strip it (but leave `endmodule` intact).
        while let Some(after) = stmt.strip_prefix("end") {
            if after.starts_with(char::is_whitespace) {
                stmt = after.trim_start();
            } else {
                break;
            }
        }
        if stmt.is_empty() {
            continue;
        }
        let mut toks = stmt.split_whitespace();
        let head = toks.next().unwrap_or("");
        match head {
            "module" => {
                module_name = stmt
                    .split_whitespace()
                    .nth(1)
                    .map(|s| s.split('(').next().unwrap_or(s).to_owned())
                    .unwrap_or_else(|| "verilog".to_owned());
            }
            "endmodule" => break,
            "input" => {
                let name = toks
                    .next()
                    .ok_or_else(|| fail("input needs a name".into()))?;
                if name != "clk" {
                    inputs.push(name.to_owned());
                }
            }
            "output" => {
                let name = toks
                    .next()
                    .ok_or_else(|| fail("output needs a name".into()))?;
                outputs.push(name.to_owned());
            }
            "wire" => {}
            "reg" => {
                let name = toks.next().ok_or_else(|| fail("reg needs a name".into()))?;
                regs.push(name.to_owned());
            }
            "assign" => {
                // assign lhs = rhs
                let rest_stmt: Vec<&str> = stmt["assign".len()..].split('=').collect();
                if rest_stmt.len() != 2 {
                    return Err(fail(format!("malformed assign `{stmt}`")));
                }
                assigns.push((
                    rest_stmt[0].trim().to_owned(),
                    rest_stmt[1].trim().to_owned(),
                ));
            }
            "always" => {
                // `always @(posedge clk) begin q0 <= d0` — the first update
                // shares this `;`-delimited statement with the header;
                // later updates arrive as their own statements and the
                // closing `end` is stripped in the default arm.
                let pos = stmt.find("begin").ok_or_else(|| {
                    fail("only `always @(posedge clk) begin ... end` is supported".into())
                })?;
                let tail = stmt[pos + "begin".len()..].trim();
                if !tail.is_empty() {
                    let (lhs, rhs) = tail
                        .split_once("<=")
                        .ok_or_else(|| fail(format!("malformed latch update `{tail}`")))?;
                    latch_updates.push((lhs.trim().to_owned(), rhs.trim().to_owned()));
                }
            }
            _ => {
                let stmt_clean = stmt;
                if let Some((lhs, rhs)) = stmt_clean.split_once("<=") {
                    latch_updates.push((lhs.trim().to_owned(), rhs.trim().to_owned()));
                    continue;
                }
                // Gate instance: `gatename instname ( .pin(sig), ... )`.
                let open = stmt_clean
                    .find('(')
                    .ok_or_else(|| fail(format!("unrecognized statement `{stmt_clean}`")))?;
                let header: Vec<&str> = stmt_clean[..open].split_whitespace().collect();
                let gate_name = header
                    .first()
                    .ok_or_else(|| fail("instance needs a gate name".into()))?;
                let conns_text = stmt_clean[open + 1..].trim_end_matches(')').trim();
                let mut conns = Vec::new();
                for part in conns_text.split(',') {
                    let part = part.trim();
                    let part = part
                        .strip_prefix('.')
                        .ok_or_else(|| fail(format!("expected named connection, got `{part}`")))?;
                    let (pin, sig) = part
                        .split_once('(')
                        .ok_or_else(|| fail(format!("malformed connection `{part}`")))?;
                    conns.push((
                        pin.trim().to_owned(),
                        sig.trim_end_matches(')').trim().to_owned(),
                    ));
                }
                instances.push(((*gate_name).to_owned(), conns));
            }
        }
    }

    // Build the network: inputs, then regs (placeholder), then instances in
    // dependency order, then assigns/outputs.
    let mut net = Network::new(module_name);
    let mut signal: std::collections::HashMap<String, NodeId> = std::collections::HashMap::new();
    for name in &inputs {
        let id = net.add_input(name);
        signal.insert(name.clone(), id);
    }
    let zero = (!regs.is_empty())
        .then(|| net.add_node(NodeFn::Const(false), Vec::new()))
        .transpose()
        .map_err(crate::MapError::Netlist)?;
    for name in &regs {
        let l = net
            .add_node(NodeFn::Latch, vec![zero.expect("placeholder")])
            .map_err(crate::MapError::Netlist)?;
        net.set_node_name(l, name);
        signal.insert(name.clone(), l);
    }
    let resolve_const = |sig: &str, net: &mut Network| -> Option<Result<NodeId, NetlistError>> {
        match sig {
            "1'b0" => Some(net.add_node(NodeFn::Const(false), Vec::new())),
            "1'b1" => Some(net.add_node(NodeFn::Const(true), Vec::new())),
            _ => None,
        }
    };
    // Instances may be listed out of order; iterate until all placed.
    let mut remaining = instances;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|(gate_name, conns)| {
            let Some(gid) = library.find_gate(gate_name) else {
                return true; // reported below
            };
            let gate = library.gate(gid);
            let out_pin = gate.output();
            let ready = conns.iter().all(|(pin, sig)| {
                pin == out_pin || signal.contains_key(sig) || sig.starts_with("1'b")
            });
            if !ready {
                return true;
            }
            let mut binding = std::collections::HashMap::new();
            let mut out_sig = None;
            for (pin, sig) in conns {
                if pin == out_pin {
                    out_sig = Some(sig.clone());
                } else {
                    let id = match resolve_const(sig, &mut net) {
                        Some(Ok(id)) => id,
                        Some(Err(_)) => return true,
                        None => signal[sig.as_str()],
                    };
                    binding.insert(pin.clone(), id);
                }
            }
            let pin = |v: &str| binding.get(v).copied();
            let out = gate
                .expr()
                .lower_into(&mut net, &pin, TreeShape::Balanced, &mut Vec::new());
            if let Some(name) = out_sig {
                signal.insert(name, out);
            }
            false
        });
        if remaining.len() == before {
            let (gate_name, _) = &remaining[0];
            return Err(fail(match library.find_gate(gate_name) {
                None => format!("unknown gate `{gate_name}`"),
                Some(_) => format!("unresolvable connections around `{gate_name}` instance"),
            }));
        }
    }
    for (lhs, rhs) in latch_updates {
        let latch = *signal
            .get(&lhs)
            .ok_or_else(|| fail(format!("latch `{lhs}` is not declared as reg")))?;
        let data = match resolve_const(&rhs, &mut net) {
            Some(r) => r.map_err(crate::MapError::Netlist)?,
            None => *signal
                .get(&rhs)
                .ok_or_else(|| fail(format!("latch data `{rhs}` is undefined")))?,
        };
        net.replace_single_fanin(latch, data);
    }
    for (lhs, rhs) in assigns {
        let id = match resolve_const(&rhs, &mut net) {
            Some(r) => r.map_err(crate::MapError::Netlist)?,
            None => *signal
                .get(&rhs)
                .ok_or_else(|| fail(format!("assign source `{rhs}` is undefined")))?,
        };
        signal.insert(lhs.clone(), id);
        if outputs.contains(&lhs) {
            net.add_output(&lhs, id);
        }
    }
    for name in &outputs {
        if net.outputs().iter().any(|o| &o.name == name) {
            continue;
        }
        let id = *signal
            .get(name)
            .ok_or_else(|| fail(format!("output `{name}` is undriven")))?;
        net.add_output(name, id);
    }
    net.validate().map_err(crate::MapError::Netlist)?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{Network, NodeFn, SubjectGraph};

    #[test]
    fn emits_instances_and_ports() {
        let mut net = Network::new("top[0]");
        let a = net.add_input("in[3]");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        net.add_output("f", f);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let mapped = Mapper::new(&Library::lib2_like())
            .map(&subject, MapOptions::dag())
            .unwrap();
        let text = to_verilog(&mapped);
        assert!(text.contains("module top_0_"));
        assert!(text.contains("input in_3_;"));
        assert!(text.contains("and2 u0"));
        assert!(text.contains("assign f = "));
        assert!(text.ends_with("endmodule\n"));
    }

    #[test]
    fn latches_get_a_clock() {
        let mut net = Network::new("seq");
        let a = net.add_input("a");
        let l = net.add_node(NodeFn::Latch, vec![a]).unwrap();
        net.set_node_name(l, "q");
        let f = net.add_node(NodeFn::Not, vec![l]).unwrap();
        net.add_output("o", f);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let mapped = Mapper::new(&Library::minimal())
            .map(&subject, MapOptions::dag())
            .unwrap();
        let text = to_verilog(&mapped);
        assert!(text.contains("input clk;"));
        assert!(text.contains("always @(posedge clk)"));
        assert!(text.contains("reg q;"));
    }

    #[test]
    fn verilog_round_trips_combinational() {
        let net = {
            let mut n = Network::new("rt");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let x = n.add_node(NodeFn::Xor, vec![a, b]).unwrap();
            let y = n.add_node(NodeFn::And, vec![x, c]).unwrap();
            n.add_output("f", y);
            n.add_output("g", x);
            n
        };
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .unwrap();
        let text = to_verilog(&mapped);
        let back = parse_verilog(&text, &library).unwrap();
        assert!(dagmap_netlist::sim::equivalent_random(&net, &back, 16, 0x7E).unwrap());
    }

    #[test]
    fn verilog_round_trips_sequential() {
        let net = {
            let mut n = Network::new("seq");
            let a = n.add_input("a");
            let l = n.add_node(NodeFn::Latch, vec![a]).unwrap();
            n.set_node_name(l, "q");
            let x = n.add_node(NodeFn::Xor, vec![l, a]).unwrap();
            let l2 = n.add_node(NodeFn::Latch, vec![x]).unwrap();
            n.set_node_name(l2, "r");
            n.add_output("f", l2);
            n
        };
        let subject = SubjectGraph::from_network(&net).unwrap();
        let library = Library::lib2_like();
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .unwrap();
        let text = to_verilog(&mapped);
        let back = parse_verilog(&text, &library).unwrap();
        assert!(
            dagmap_netlist::sim::equivalent_random_sequential(&net, &back, 10, 8, 0x5E).unwrap()
        );
    }

    #[test]
    fn parser_rejects_unknown_gates() {
        let library = Library::minimal();
        let text = "module m (a, f);\n  input a;\n  output f;\n  wire w0;\n  mystery u0 (.O(w0), .a(a));\n  assign f = w0;\nendmodule\n";
        let err = parse_verilog(text, &library).unwrap_err();
        assert!(err.to_string().contains("unknown gate"));
    }

    #[test]
    fn name_collisions_are_resolved() {
        let mut net = Network::new("c");
        let a = net.add_input("x");
        let b = net.add_input("x[1]"); // sanitizes toward x_1_
        let f = net.add_node(NodeFn::And, vec![a, b]).unwrap();
        net.add_output("x", f); // output name collides with the input
        let subject = SubjectGraph::from_network(&net).unwrap();
        let mapped = Mapper::new(&Library::lib2_like())
            .map(&subject, MapOptions::dag())
            .unwrap();
        let text = to_verilog(&mapped);
        // Both an `x` and a renamed `x_1` port must exist.
        assert!(text.contains("input x;"));
        assert!(text.contains("output x_1;"));
    }
}
