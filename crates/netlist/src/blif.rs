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

use std::collections::{HashMap, HashSet};

use crate::sop::{Cube, CubeLit};
use crate::{NetlistError, Network, NodeFn, NodeId, SopCover};

/// One logical (continuation-joined, comment-stripped) BLIF line; its
/// tokens are `tokens[start..end]` of the array [`logical_lines`] returns.
struct Line {
    number: usize,
    start: usize,
    end: usize,
}

/// Splits `text` into logical lines over one token array. Every token is
/// a slice of `text`: a `\` continuation joins physical lines with a
/// space, so no token spans two of them.
fn logical_lines(text: &str) -> (Vec<Line>, Vec<&str>) {
    let mut lines = Vec::new();
    let mut tokens = Vec::with_capacity(text.len() / 4);
    // First line number and first token of a continued line.
    let mut pending: Option<(usize, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let no_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = no_comment.trim_end();
        if let Some(stripped) = trimmed.strip_suffix('\\') {
            pending.get_or_insert((number, tokens.len()));
            tokens.extend(stripped.split_whitespace());
            continue;
        }
        let (number, start) = pending.take().unwrap_or((number, tokens.len()));
        tokens.extend(trimmed.split_whitespace());
        if tokens.len() > start {
            lines.push(Line {
                number,
                start,
                end: tokens.len(),
            });
        }
    }
    if let Some((number, start)) = pending {
        if tokens.len() > start {
            lines.push(Line {
                number,
                start,
                end: tokens.len(),
            });
        }
    }
    (lines, tokens)
}

#[derive(Debug)]
struct NamesSpec<'t> {
    line: usize,
    inputs: &'t [&'t str],
    output: &'t str,
    cubes: Vec<Cube>,
    /// Output value of the first cube (`true` for an empty cover).
    phase: bool,
    /// Some cube's output value differs from the first one's.
    mixed: bool,
}

#[derive(Debug)]
struct LatchSpec<'t> {
    line: usize,
    input: &'t str,
    output: &'t str,
}

/// Parses BLIF text into a [`Network`] (first `.model` only).
///
/// Tokens borrow `text`, signal tables are keyed by `&str`, and each
/// `.names` cover is built once and moved into its node. Nodes are created
/// in the post-order of a depth-first walk from each `.names` block in file
/// order, kept on an explicit stack, so a file listing consumers before
/// their producers parses at any depth.
///
/// # Errors
///
/// Reports malformed directives and cubes with line numbers, undefined or
/// redefined signals, and combinational cycles.
pub fn parse(text: &str) -> Result<Network, NetlistError> {
    let mut obs_span = dagmap_obs::span("parse.blif");
    obs_span.set_u64("bytes", text.len() as u64);
    let (lines, tokens) = logical_lines(text);
    let tokens_of = |line: &Line| &tokens[line.start..line.end];
    let mut model_name = "blif";
    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<&str> = Vec::new();
    let mut names: Vec<NamesSpec> = Vec::new();
    let mut latches: Vec<LatchSpec> = Vec::new();

    let mut i = 0;
    let mut saw_model = false;
    while i < lines.len() {
        let line = &lines[i];
        let toks = tokens_of(line);
        let head = toks[0];
        match head {
            ".model" => {
                if saw_model {
                    break; // only the first model
                }
                saw_model = true;
                if let Some(name) = toks.get(1) {
                    model_name = name;
                }
                i += 1;
            }
            ".inputs" => {
                inputs.extend_from_slice(&toks[1..]);
                i += 1;
            }
            ".outputs" => {
                outputs.extend_from_slice(&toks[1..]);
                i += 1;
            }
            ".names" => {
                if toks.len() < 2 {
                    return Err(NetlistError::Parse {
                        line: line.number,
                        message: ".names needs at least an output signal".into(),
                    });
                }
                let output = toks[toks.len() - 1];
                let ins = &toks[1..toks.len() - 1];
                let mut spec = NamesSpec {
                    line: line.number,
                    inputs: ins,
                    output,
                    cubes: Vec::new(),
                    phase: true,
                    mixed: false,
                };
                i += 1;
                while i < lines.len() && !tokens_of(&lines[i])[0].starts_with('.') {
                    let cl = &lines[i];
                    let cl_toks = tokens_of(cl);
                    let (cube_text, value_text) = if ins.is_empty() {
                        // Constant node: a bare "1" or "0".
                        ("", cl_toks[0])
                    } else if cl_toks.len() == 2 {
                        (cl_toks[0], cl_toks[1])
                    } else {
                        return Err(NetlistError::Parse {
                            line: cl.number,
                            message: format!("expected `<cube> <value>`, got {cl_toks:?}"),
                        });
                    };
                    let value = match value_text {
                        "1" => true,
                        "0" => false,
                        other => {
                            return Err(NetlistError::Parse {
                                line: cl.number,
                                message: format!("output value must be 0 or 1, got `{other}`"),
                            })
                        }
                    };
                    let cube = Cube::parse(cube_text).ok_or_else(|| NetlistError::Parse {
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
                    if spec.cubes.is_empty() {
                        spec.phase = value;
                    }
                    spec.mixed |= value != spec.phase;
                    spec.cubes.push(cube);
                    i += 1;
                }
                names.push(spec);
            }
            ".latch" => {
                if toks.len() < 3 {
                    return Err(NetlistError::Parse {
                        line: line.number,
                        message: ".latch needs input and output signals".into(),
                    });
                }
                latches.push(LatchSpec {
                    line: line.number,
                    input: toks[1],
                    output: toks[2],
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
    if let Some(spec) = names.iter().find(|spec| spec.mixed) {
        return Err(NetlistError::Parse {
            line: spec.line,
            message: format!("cover for `{}` mixes output phases", spec.output),
        });
    }

    // Producer table.
    let mut producer: HashMap<&str, usize> = HashMap::with_capacity(names.len());
    for (idx, spec) in names.iter().enumerate() {
        if producer.insert(spec.output, idx).is_some() {
            return Err(NetlistError::RedefinedSignal(spec.output.to_owned()));
        }
    }
    let latch_out: HashSet<&str> = latches.iter().map(|l| l.output).collect();
    let input_set: HashSet<&str> = inputs.iter().copied().collect();
    if let Some(spec) = names
        .iter()
        .find(|spec| latch_out.contains(spec.output) || input_set.contains(spec.output))
    {
        return Err(NetlistError::RedefinedSignal(spec.output.to_owned()));
    }

    let mut net = Network::new(model_name);
    net.reserve(
        inputs.len() + latches.len() + 1 + names.len(),
        latches.len() + names.iter().map(|spec| spec.inputs.len()).sum::<usize>(),
    );
    let mut signal: HashMap<&str, NodeId> =
        HashMap::with_capacity(inputs.len() + latches.len() + names.len());
    for &name in &inputs {
        if signal.contains_key(name) {
            return Err(NetlistError::RedefinedSignal(name.to_owned()));
        }
        let id = net.add_input(name);
        signal.insert(name, id);
    }
    // Latch outputs become latch nodes fed by a placeholder constant; the
    // data fanin is patched once its cone exists.
    let mut latch_nodes = Vec::with_capacity(latches.len());
    let zero = if latches.is_empty() {
        None
    } else {
        Some(
            net.add_node(NodeFn::Const(false), [])
                .expect("constants are nullary"),
        )
    };
    for l in &latches {
        let zero = zero.expect("placeholder exists when latches exist");
        if signal.contains_key(l.output) {
            return Err(NetlistError::RedefinedSignal(l.output.to_owned()));
        }
        let id = net
            .add_node(NodeFn::Latch, [zero])
            .expect("latch arity is 1");
        net.set_node_name(id, l.output);
        signal.insert(l.output, id);
        latch_nodes.push(id);
    }

    instantiate_names(&mut names, &producer, &mut net, &mut signal)?;

    // Patch latch data fanins.
    for (l, &node) in latches.iter().zip(&latch_nodes) {
        let data = signal
            .get(l.input)
            .copied()
            .ok_or_else(|| NetlistError::Parse {
                line: l.line,
                message: format!("latch input `{}` is undefined", l.input),
            })?;
        net.replace_single_fanin(node, data);
    }

    for &name in &outputs {
        let id = signal
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UndefinedSignal(name.to_owned()))?;
        net.add_output(name, id);
    }
    net.validate()?;
    Ok(net)
}

/// Creates one node per `.names` block, producers before consumers: a
/// depth-first walk from each block in file order, creating each node in
/// post-order. The walk keeps its frames on a heap stack and the fanins
/// gathered so far in one shared array, each frame owning the tail it
/// pushed, so its depth is bounded by memory, not by the thread's stack.
fn instantiate_names<'t>(
    names: &mut [NamesSpec<'t>],
    producer: &HashMap<&'t str, usize>,
    net: &mut Network,
    signal: &mut HashMap<&'t str, NodeId>,
) -> Result<(), NetlistError> {
    /// One `.names` block being instantiated.
    struct Frame {
        spec: usize,
        /// Next input to resolve.
        pin: usize,
        /// Where this frame's fanins start in the shared array.
        base: usize,
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark = vec![Mark::White; names.len()];
    let mut stack: Vec<Frame> = Vec::new();
    let mut fanins: Vec<NodeId> = Vec::new();
    for root in 0..names.len() {
        if mark[root] == Mark::Black {
            continue;
        }
        mark[root] = Mark::Grey;
        stack.push(Frame {
            spec: root,
            pin: 0,
            base: 0,
        });
        while let Some(frame) = stack.last_mut() {
            let spec = &mut names[frame.spec];
            if let Some(&input) = spec.inputs.get(frame.pin) {
                if let Some(&id) = signal.get(input) {
                    fanins.push(id);
                    frame.pin += 1;
                } else if let Some(&p) = producer.get(input) {
                    if mark[p] == Mark::Grey {
                        return Err(NetlistError::Parse {
                            line: names[p].line,
                            message: format!("combinational cycle through `{}`", names[p].output),
                        });
                    }
                    mark[p] = Mark::Grey;
                    stack.push(Frame {
                        spec: p,
                        pin: 0,
                        base: fanins.len(),
                    });
                } else {
                    return Err(NetlistError::UndefinedSignal(input.to_owned()));
                }
                continue;
            }
            let cover = SopCover::new(
                spec.inputs.len(),
                std::mem::take(&mut spec.cubes),
                spec.phase,
            )
            .expect("cube widths were validated");
            let id = net
                .add_node(NodeFn::Sop(cover), &fanins[frame.base..])
                .expect("arity matches cover");
            net.set_node_name(id, spec.output);
            signal.insert(spec.output, id);
            mark[frame.spec] = Mark::Black;
            fanins.truncate(frame.base);
            stack.pop();
            if let Some(parent) = stack.last_mut() {
                fanins.push(id);
                parent.pin += 1;
            }
        }
    }
    Ok(())
}

/// Widest XOR/XNOR written as one cube cover (2^(n-1) cubes); wider ones
/// are written as trees of 2-input XORs.
const MAX_PARITY_CUBE_INPUTS: usize = 16;

/// Which node owns each BLIF signal name while [`to_string`] assigns them.
///
/// A generated name `n<k>` (canonical decimal `k` below the node count)
/// resolves through an array indexed by `k`; every other name through a
/// map. Names borrowed from the network (node and port names) are keyed
/// by `&str`; only the names the writer makes up (collision suffixes,
/// parity-tree signals) are owned. Each name string has exactly one slot,
/// so lookups answer exactly as one map over all names would.
struct NameTable<'a> {
    /// Owner of `n<k>`, or `FREE`.
    generated: Vec<u32>,
    borrowed: HashMap<&'a str, NodeId>,
    made: HashMap<String, NodeId>,
}

/// An unclaimed generated name.
const FREE: u32 = u32::MAX;

/// `k` if `name` is `n` followed by `k` in canonical decimal (no sign, no
/// leading zero): the one spelling the writer generates for node `k`.
fn generated_number(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('n')?;
    let canonical = (1..=10).contains(&digits.len())
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    canonical.then(|| digits.parse().expect("at most ten decimal digits"))
}

/// A node's BLIF signal name.
#[derive(Clone, Copy)]
enum SignalName<'a> {
    /// `n<id>`.
    Generated(u32),
    /// A name borrowed from the network.
    Borrowed(&'a str),
    /// `made[i]` of the writer's own names.
    Made(usize),
}

impl<'a> NameTable<'a> {
    fn new(nodes: usize, borrowed: usize) -> Self {
        NameTable {
            generated: vec![FREE; nodes],
            borrowed: HashMap::with_capacity(borrowed),
            made: HashMap::new(),
        }
    }

    /// `k` if `name` is `n<k>` with `k` below the node count.
    fn generated_index(&self, name: &str) -> Option<usize> {
        generated_number(name)
            .filter(|&k| k < self.generated.len() as u64)
            .map(|k| k as usize)
    }

    /// Owner of `n<k>`.
    fn generated_owner(&self, k: usize) -> Option<NodeId> {
        let owner = self.generated[k];
        (owner != FREE).then(|| NodeId::from_index(owner as usize))
    }

    fn owner(&self, name: &str) -> Option<NodeId> {
        match self.generated_index(name) {
            Some(k) => self.generated_owner(k),
            None => self
                .borrowed
                .get(name)
                .or_else(|| self.made.get(name))
                .copied(),
        }
    }

    /// Claims a free name borrowed from the network for `id`.
    fn claim_borrowed(&mut self, name: &'a str, id: NodeId) {
        match self.generated_index(name) {
            Some(k) => self.generated[k] = id.index() as u32,
            None => {
                self.borrowed.insert(name, id);
            }
        }
    }

    /// Claims a free name the writer made up for `id`. Made names
    /// (`base_k`, `out_xk`) always contain `_`, so none is an `n<k>`
    /// and none belongs in the owner array.
    fn claim_made(&mut self, name: String, id: NodeId) {
        debug_assert!(generated_number(&name).is_none());
        self.made.insert(name, id);
    }

    /// Names node `id`: its base name — `explicit`, or `n<id>` when it has
    /// none — if that is free or already `id`'s, else the first `base_1`,
    /// `base_2`, … that is, claimed for `id`.
    fn assign(
        &mut self,
        id: NodeId,
        explicit: Option<&'a str>,
        made_names: &mut Vec<String>,
    ) -> SignalName<'a> {
        let k = id.index();
        let (base, owner) = match explicit {
            Some(text) => (SignalName::Borrowed(text), self.owner(text)),
            None => (SignalName::Generated(k as u32), self.generated_owner(k)),
        };
        match owner {
            None => {
                match explicit {
                    Some(text) => self.claim_borrowed(text, id),
                    None => self.generated[k] = k as u32,
                }
                return base;
            }
            Some(owner) if owner == id => return base,
            Some(_) => {}
        }
        let base_text = explicit.map_or_else(|| format!("n{k}"), str::to_owned);
        let mut suffix = 1;
        let name = loop {
            let name = format!("{base_text}_{suffix}");
            match self.owner(&name) {
                None => {
                    self.claim_made(name.clone(), id);
                    break name;
                }
                Some(owner) if owner == id => break name,
                Some(_) => suffix += 1,
            }
        };
        made_names.push(name);
        SignalName::Made(made_names.len() - 1)
    }
}

/// Appends the decimal digits of `v`.
fn push_decimal(s: &mut String, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// The assigned signal names of a network being written.
struct Names<'a> {
    of: Vec<SignalName<'a>>,
    made: Vec<String>,
}

impl Names<'_> {
    fn push(&self, s: &mut String, id: NodeId) {
        match self.of[id.index()] {
            SignalName::Generated(k) => {
                s.push('n');
                push_decimal(s, k);
            }
            SignalName::Borrowed(text) => s.push_str(text),
            SignalName::Made(i) => s.push_str(&self.made[i]),
        }
    }

    fn text(&self, id: NodeId) -> String {
        let mut s = String::new();
        self.push(&mut s, id);
        s
    }

    /// Whether `id`'s signal is named `name`.
    fn is(&self, id: NodeId, name: &str) -> bool {
        match self.of[id.index()] {
            SignalName::Generated(k) => generated_number(name) == Some(u64::from(k)),
            SignalName::Borrowed(text) => text == name,
            SignalName::Made(i) => self.made[i] == name,
        }
    }
}

/// Writes an XOR (XNOR when `invert`) over `inputs`, more than
/// [`MAX_PARITY_CUBE_INPUTS`] signals, as a balanced tree of 2-input XOR
/// `.names` whose root drives `out`. The internal signals get fresh names,
/// registered in `table` under `owner`.
fn write_parity_tree(
    s: &mut String,
    table: &mut NameTable<'_>,
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
                if table.owner(&t).is_none() {
                    break t;
                }
            };
            table.claim_made(t.clone(), owner);
            for part in [".names ", a, " ", b, " ", &t, "\n01 1\n10 1\n"] {
                s.push_str(part);
            }
            next.push(t);
        }
        level = next;
    }
    let on_set = if invert {
        "00 1\n11 1\n"
    } else {
        "01 1\n10 1\n"
    };
    for part in [".names ", &level[0], " ", &level[1], " ", out, "\n", on_set] {
        s.push_str(part);
    }
}

/// Appends `func`'s cover over `n` fanins in BLIF cube lines: the cubes
/// the function's sum-of-products form lists, each followed by the output
/// phase, or the bare phase per cube for a zero-input cover.
fn write_cover(s: &mut String, func: &NodeFn, n: usize) -> Result<(), NetlistError> {
    let lit = |l: &CubeLit| match l {
        CubeLit::Zero => '0',
        CubeLit::One => '1',
        CubeLit::DontCare => '-',
    };
    match func {
        NodeFn::Const(true) => s.push_str("1\n"),
        NodeFn::Const(false) => {}
        NodeFn::Buf => s.push_str("1 1\n"),
        NodeFn::Not => s.push_str("0 1\n"),
        NodeFn::And | NodeFn::Nand => {
            s.extend(std::iter::repeat_n('1', n));
            s.push_str(if matches!(func, NodeFn::And) {
                " 1\n"
            } else {
                " 0\n"
            });
        }
        NodeFn::Or | NodeFn::Nor => {
            let phase = if matches!(func, NodeFn::Or) {
                " 1\n"
            } else {
                " 0\n"
            };
            for i in 0..n {
                s.extend((0..n).map(|j| if i == j { '1' } else { '-' }));
                s.push_str(phase);
            }
        }
        NodeFn::Xor | NodeFn::Xnor => {
            // Wider parities are written as trees (`write_parity_tree`).
            debug_assert!(n <= MAX_PARITY_CUBE_INPUTS);
            let want_odd = matches!(func, NodeFn::Xor);
            for m in 0..(1usize << n) {
                if (m.count_ones() & 1 == 1) == want_odd {
                    s.extend((0..n).map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' }));
                    s.push_str(" 1\n");
                }
            }
        }
        NodeFn::Mux => s.push_str("01- 1\n1-1 1\n"),
        NodeFn::Maj => s.push_str("11- 1\n1-1 1\n-11 1\n"),
        NodeFn::Sop(cover) => {
            let phase = if cover.output_value() { '1' } else { '0' };
            for cube in cover.cubes() {
                if cover.num_inputs() > 0 {
                    s.extend(cube.0.iter().map(lit));
                    s.push(' ');
                }
                s.push(phase);
                s.push('\n');
            }
        }
        NodeFn::Input | NodeFn::Latch => {
            return Err(NetlistError::Invariant(
                "inputs and latches are not .names nodes".into(),
            ))
        }
    }
    Ok(())
}

/// Serializes a network to BLIF text.
///
/// Unnamed internal signals get generated `n<k>` names (`k` the node's
/// index). A name already taken by another node — an output port name
/// belongs to its driver, and nodes claim names in id order — is
/// disambiguated with the first free `_1`, `_2`, … suffix. An XOR or XNOR
/// wider than 16 inputs is written as a tree of 2-input XORs over fresh
/// internal signals.
///
/// # Errors
///
/// Fails only if an input or latch reaches the `.names` writer, which a
/// valid network never lets happen.
pub fn to_string(net: &Network) -> Result<String, NetlistError> {
    let n = net.num_nodes();
    let explicit = net
        .node_ids()
        .filter(|&id| net.node(id).name().is_some())
        .count();
    let mut table = NameTable::new(n, explicit + net.outputs().len());
    // Output port names belong to their drivers: any other node that
    // happens to carry the same name (e.g. the previous driver after an
    // edit redirected the output) must be renamed, or the buffer alias
    // emitted for the port would define the signal twice.
    for o in net.outputs() {
        if table.owner(&o.name).is_none() {
            table.claim_borrowed(&o.name, o.driver);
        }
    }
    let mut names = Names {
        of: Vec::with_capacity(n),
        made: Vec::new(),
    };
    for id in net.node_ids() {
        let name = table.assign(id, net.node(id).name(), &mut names.made);
        names.of.push(name);
    }

    let mut s = String::with_capacity(64 + 16 * n + 8 * net.num_edges());
    s.push_str(".model ");
    s.push_str(net.name());
    s.push_str("\n.inputs");
    for &i in net.inputs() {
        s.push(' ');
        names.push(&mut s, i);
    }
    s.push_str("\n.outputs");
    for o in net.outputs() {
        s.push(' ');
        s.push_str(&o.name);
    }
    s.push('\n');

    for id in net.node_ids() {
        let node = net.node(id);
        if matches!(node.func(), NodeFn::Latch) {
            s.push_str(".latch ");
            names.push(&mut s, node.fanins()[0]);
            s.push(' ');
            names.push(&mut s, id);
            s.push_str(" 0\n");
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
            let inputs = node.fanins().iter().map(|&f| names.text(f)).collect();
            let invert = matches!(node.func(), NodeFn::Xnor);
            let out = names.text(id);
            write_parity_tree(&mut s, &mut table, id, inputs, &out, invert);
            continue;
        }
        s.push_str(".names");
        for &f in node.fanins() {
            s.push(' ');
            names.push(&mut s, f);
        }
        s.push(' ');
        names.push(&mut s, id);
        s.push('\n');
        write_cover(&mut s, node.func(), node.fanins().len())?;
    }
    // Primary outputs whose port name differs from the driver's signal name
    // need a buffer alias.
    for o in net.outputs() {
        if !names.is(o.driver, &o.name) {
            s.push_str(".names ");
            names.push(&mut s, o.driver);
            s.push(' ');
            s.push_str(&o.name);
            s.push_str("\n1 1\n");
        }
    }
    s.push_str(".end\n");
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
