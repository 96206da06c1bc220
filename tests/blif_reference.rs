//! `blif::{parse, to_string}` against the reader and writer they replaced
//! (`support/reference_blif.rs`): the writer must emit the same bytes, and
//! the parser must build the same network or report the same error, on
//! seeded random networks, lowered mapped netlists, hand-built adversarial
//! networks, the malformed corpus and every line-boundary truncation of a
//! valid file. A consumers-first chain deep enough to overflow a recursive
//! parser must parse on a default-sized thread stack.

#[path = "support/malformed_blif.rs"]
mod malformed_blif;
#[path = "support/reference_blif.rs"]
mod reference;

use dagmap::benchgen::{self, RandomNetSpec};
use dagmap::core::{MapOptions, Mapper};
use dagmap::genlib::Library;
use dagmap::netlist::{blif, NetEdit, Network, NodeFn, NodeId, SopCover, SubjectGraph};

/// Every node (id order), input and output of `net`, so two networks with
/// equal dumps have the same ids, functions, fanins, names and ports.
fn dump(net: &Network) -> String {
    let mut s = format!("model {}\n", net.name());
    for id in net.node_ids() {
        s += &format!("{id}: {:?}\n", net.node(id));
    }
    s += &format!("inputs {:?}\noutputs {:?}\n", net.inputs(), net.outputs());
    s
}

/// Byte offset of the first difference between `a` and `b`.
fn first_difference(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

fn assert_writers_agree(net: &Network, what: &str) -> String {
    let new = blif::to_string(net).unwrap_or_else(|e| panic!("{what}: {e}"));
    let old = reference::to_string(net).unwrap_or_else(|e| panic!("{what}: reference: {e}"));
    assert!(
        new == old,
        "{what}: writers differ at byte {}",
        first_difference(&new, &old)
    );
    new
}

fn assert_parsers_agree(text: &str, what: &str) {
    match (blif::parse(text), reference::parse(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(dump(&new), dump(&old), "{what}: parsed networks differ");
            assert_eq!(
                blif::to_string(&new).unwrap(),
                reference::to_string(&old).unwrap(),
                "{what}: parsed networks write differently"
            );
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}: errors differ"),
        (new, old) => panic!(
            "{what}: parsers disagree: {:?} vs {:?}",
            new.map(|_| ()),
            old.map(|_| ())
        ),
    }
}

/// Writes `net` with both writers, then parses the text with both parsers.
fn assert_round_trips_agree(net: &Network, what: &str) {
    let text = assert_writers_agree(net, what);
    assert_parsers_agree(&text, what);
}

fn random_networks() -> Vec<Network> {
    let mut nets = Vec::new();
    for seed in 1..=6u64 {
        nets.push(benchgen::random_network_with(&RandomNetSpec {
            inputs: 8 + seed as usize,
            gates: 150 * seed as usize,
            seed,
            depth_bias: 0.15 * seed as f64,
            max_arity: 2 + (seed % 2) as usize,
            xor_heavy: seed % 3 == 0,
            single_output: seed % 4 == 0,
        }));
    }
    nets
}

fn lowered_mapped_designs() -> Vec<(String, Network)> {
    let designs = [
        ("mult8", benchgen::array_multiplier(8)),
        ("alu8", benchgen::alu(8)),
        ("c2670", benchgen::c2670_like()),
        ("c7552", benchgen::c7552_like()),
        ("s344", benchgen::s344_like()),
        ("counter8", benchgen::counter(8)),
    ];
    let mut nets = Vec::new();
    for library in [Library::lib2_like(), Library::lib_44_3_like()] {
        for (name, net) in &designs {
            let subject = SubjectGraph::from_network(net).expect("decomposes");
            for (mode, options) in [
                ("dag", MapOptions::dag()),
                ("tree", MapOptions::tree()),
                ("recover", MapOptions::dag().with_area_recovery()),
            ] {
                let mapped = Mapper::new(&library).map(&subject, options).expect("maps");
                nets.push((
                    format!("{name}/{}/{mode}", library.name()),
                    mapped.to_network().expect("lowers"),
                ));
            }
            nets.push((format!("{name}/subject"), subject.network().clone()));
        }
    }
    nets
}

/// A network built to collide with every rule the writer names by:
/// explicit names shaped like generated ones (canonical, padded and out of
/// range), ports named like generated names and like other nodes, duplicate
/// names and `_k` suffix chains, parities wider than 16 inputs next to a
/// name their tree signals want, latches, constants, and 0-phase,
/// don't-care and zero-input covers.
fn adversarial() -> Network {
    let mut net = Network::new("adversarial");
    let a = net.add_input("a"); // n0
    let b = net.add_input("n"); // n1
    let c = net.add_input("n004"); // n2, n4 padded
    let d = net.add_input("n99999999999"); // n3
    let x = net.add_node(NodeFn::And, [a, b]).unwrap(); // n4, unnamed
    let y = net.add_node(NodeFn::Or, [x, c]).unwrap(); // n5
    net.set_node_name(y, "n4"); // taken by x: becomes n4_1
    let z = net.add_node(NodeFn::Nand, [y, d]).unwrap(); // n6
    net.set_node_name(z, "n4_1"); // taken by y's suffix: n4_1_1
    let w = net.add_node(NodeFn::Nor, [x, z, a]).unwrap(); // n7
    net.set_node_name(w, "n9"); // claims n9 before node 9 does
    let dups: Vec<NodeId> = (0..4)
        .map(|i| {
            let g = net
                .add_node(NodeFn::Xnor, [w, if i % 2 == 0 { a } else { b }])
                .unwrap();
            net.set_node_name(g, "dup");
            g
        })
        .collect(); // n8..n11: dup, dup_1, dup_2, dup_3
    let dup1 = net.add_node(NodeFn::Buf, [dups[0]]).unwrap(); // n12
    net.set_node_name(dup1, "dup_1");
    let zero_named = net.add_node(NodeFn::Not, [dup1]).unwrap(); // n13
    net.set_node_name(zero_named, "n0");
    let wide_ins: Vec<NodeId> = (0..20).map(|i| net.add_input(format!("w{i}"))).collect();
    let wide_xor = net.add_node(NodeFn::Xor, &wide_ins[..17]).unwrap(); // n34, unnamed
    let tree_name = net.add_node(NodeFn::Not, [wide_xor]).unwrap();
    net.set_node_name(tree_name, format!("n{}_x0", wide_xor.index()));
    let wide_xnor = net.add_node(NodeFn::Xnor, &wide_ins).unwrap();
    net.set_node_name(wide_xnor, "wide");
    let k1 = net.add_node(NodeFn::Const(true), []).unwrap();
    let k0 = net.add_node(NodeFn::Const(false), []).unwrap();
    let mux = net
        .add_node(NodeFn::Mux, [k1, wide_xnor, tree_name])
        .unwrap();
    let maj = net.add_node(NodeFn::Maj, [mux, k0, dups[3]]).unwrap();
    let low = SopCover::parse_cubes(3, &["1-0", "-11", "0--"], false).unwrap();
    let sop0 = net.add_node(NodeFn::Sop(low), [maj, mux, a]).unwrap();
    let empty = SopCover::new(2, Vec::new(), false).unwrap();
    let sop_empty = net.add_node(NodeFn::Sop(empty), [sop0, b]).unwrap();
    let nullary = SopCover::parse_cubes(0, &[""], false).unwrap();
    let sop_const = net.add_node(NodeFn::Sop(nullary), []).unwrap();
    let single_and = net.add_node(NodeFn::And, [sop_empty]).unwrap();
    let latch = net.add_node(NodeFn::Latch, [k0]).unwrap(); // placeholder data
    let q = net.add_node(NodeFn::Xor, [latch, single_and]).unwrap();
    net.replace_single_fanin(latch, q);
    let named_latch = net.add_node(NodeFn::Latch, [sop_const]).unwrap();
    net.set_node_name(named_latch, "dup_2");
    let last = net.add_node(NodeFn::Or, [named_latch, q]).unwrap();
    net.add_output("n9", last); // port named like a generated name, owned by w
    net.add_output("dup", latch); // port named like another node
    net.add_output(format!("n{}", last.index()), q); // like the driver-to-be's name
    net.add_output("hi", k1);
    net.add_output("lo", sop_const);
    net.add_output("a", a); // port on an input of the same name
    net.add_output("n4", y);
    net.add_output("wide_out", wide_xnor);
    net.add_output("n4294967295", zero_named);
    net
}

/// A named network whose port was redirected: the old driver keeps the
/// port's name, which now belongs to the new driver.
fn redirected() -> Network {
    let text = ".model r\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n\
                .names f b g\n10 1\n.names a g h\n01 1\n.end\n";
    let mut net = blif::parse(text).unwrap();
    let h = net.find_by_name("h").unwrap();
    net.apply_edits(vec![
        NetEdit::SetOutputDriver {
            output: "f".into(),
            driver: h,
        },
        NetEdit::AddNode {
            func: NodeFn::Xor,
            fanins: vec![h, h],
            name: Some("g".into()),
        },
    ])
    .unwrap();
    let a = net.find_by_name("a").unwrap();
    let last = NodeId::from_index(net.num_nodes() - 1);
    net.replace_fanin(last, 1, a).unwrap();
    net
}

#[test]
fn writer_matches_the_reference_on_random_networks() {
    for (i, net) in random_networks().iter().enumerate() {
        assert_round_trips_agree(net, &format!("random #{i}"));
    }
}

#[test]
fn writer_matches_the_reference_on_lowered_netlists() {
    for (what, net) in lowered_mapped_designs() {
        assert_round_trips_agree(&net, &what);
    }
}

#[test]
fn writer_matches_the_reference_on_adversarial_names() {
    for (what, net) in [("adversarial", adversarial()), ("redirected", redirected())] {
        net.validate().unwrap();
        assert_round_trips_agree(&net, what);
    }
}

#[test]
fn parser_matches_the_reference_on_malformed_text() {
    for text in malformed_blif::MALFORMED_BLIF {
        assert_parsers_agree(text, text);
    }
    let extra: &[&str] = &[
        ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n",
        ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.names a f\n1 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names a x f\n11 1\n.names f x\n1 1\n.end\n",
        ".model m\n.inputs a a\n.outputs f\n.names a f\n1 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.latch a f 0\n.latch a f 0\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.latch ghost f 0\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 1 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names f\nx\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names x f\n1 1\n.names f x\n1 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.gate nand2 a=a O=f\n.end\n",
        ".model m\n.inputs a \\\n  b # two inputs\n.outputs f\n.names a b \\\nf\n11 1\n.end",
        ".model m\r\n.inputs a\r\n.outputs f\r\n.names a f\r\n0 1\r\n.end\r\n",
        ".model one\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n.model two\n.end\n",
        ".model m\n.clock c\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n",
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n\\",
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 \\\n\\\n2\n.end\n",
        "",
        ".model",
    ];
    for text in extra {
        assert_parsers_agree(text, text);
    }
}

#[test]
fn parser_matches_the_reference_on_every_truncation() {
    let mut texts = vec![
        blif::to_string(&adversarial()).unwrap(),
        blif::to_string(&benchgen::s27_like()).unwrap(),
    ];
    // Listed consumers first, with continuations and comments.
    texts.push(
        ".model t # truncated\n.inputs a b \\\n c\n.outputs f g\n.latch n q 0\n\
         .names t c f\n1- 1\n-1 1\n.names a b \\\n t\n11 1\n.names q f n\n01 1\n\
         10 1\n.names q g\n0 1\n.end\n"
            .to_owned(),
    );
    for (i, text) in texts.iter().enumerate() {
        let mut cut = 0;
        while let Some(next) = text[cut..].find('\n') {
            cut += next + 1;
            assert_parsers_agree(&text[..cut], &format!("text #{i} cut at byte {cut}"));
        }
    }
}

/// `n` inverters, `s{k}` feeding `s{k+1}`, listed output-first when
/// `consumers_first`.
fn inverter_chain(n: usize, consumers_first: bool) -> String {
    let mut blocks: Vec<String> = (0..n)
        .map(|k| format!(".names s{k} s{}\n0 1\n", k + 1))
        .collect();
    if consumers_first {
        blocks.reverse();
    }
    format!(
        ".model chain\n.inputs s0\n.outputs s{n}\n{}.end\n",
        blocks.concat()
    )
}

#[test]
fn consumers_first_chains_parse_on_a_default_thread_stack() {
    let n = 50_000;
    let (forward, backward) = std::thread::spawn(move || {
        let forward = blif::parse(&inverter_chain(n, false)).expect("producers first");
        let backward = blif::parse(&inverter_chain(n, true)).expect("consumers first");
        (
            blif::to_string(&forward).unwrap(),
            blif::to_string(&backward).unwrap(),
        )
    })
    .join()
    .expect("the parse thread does not overflow its stack");
    assert_eq!(forward, backward);
}
