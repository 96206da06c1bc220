//! Boolean matching vs the paper's structural matching: the structural-bias
//! demonstration, plus the hybrid union that dominates both.
//!
//! ```text
//! cargo run --release --example boolean_matching
//! ```

use dagmap::boolmatch::{map_boolean_with_options, map_hybrid_with_options, LibraryIndex};
use dagmap::core::{verify, MapOptions, Mapper};
use dagmap::genlib::{Library, TreeShape};
use dagmap::netlist::{Network, NodeFn, SubjectGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A maximally skewed AND chain: a*(b)*(c)*(d)*(e). Balanced nand4/and4
    // patterns cannot match this shape structurally, but the 4-input cone
    // function is the same either way.
    let mut net = Network::new("skewed_chain");
    let ins: Vec<_> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|n| net.add_input(*n))
        .collect();
    let mut cur = net.add_node(NodeFn::And, vec![ins[0], ins[1]])?;
    for &x in &ins[2..] {
        cur = net.add_node(NodeFn::And, vec![cur, x])?;
    }
    net.add_output("f", cur);
    let subject = SubjectGraph::from_network(&net)?;

    // Balanced-only patterns: the worst case for structural matching.
    let library = Library::new_with_shapes(
        "balanced_only",
        Library::lib_44_1_like().gates().to_vec(),
        &[TreeShape::Balanced],
    )?;
    let index = LibraryIndex::build(&library, 4);
    println!(
        "library `{}`: {} gates, {} indexed for Boolean matching ({} P-classes)",
        library.name(),
        library.gates().len(),
        index.num_indexed(),
        index.num_classes()
    );

    let structural = Mapper::new(&library).map(&subject, MapOptions::dag())?;
    let (boolean, _, _) = map_boolean_with_options(&subject, &library, 4, MapOptions::dag())?;
    let (hybrid, _, _) = map_hybrid_with_options(&subject, &library, 4, MapOptions::dag())?;
    for m in [&structural, &boolean, &hybrid] {
        verify::check(m, &subject, 0xB0)?;
    }
    println!("\nskewed 5-input AND chain, balanced-only pattern set:");
    println!(
        "  structural matching: delay {:.2} ({} cells)",
        structural.delay(),
        structural.num_cells()
    );
    println!(
        "  boolean matching:    delay {:.2} ({} cells)",
        boolean.delay(),
        boolean.num_cells()
    );
    println!(
        "  hybrid union:        delay {:.2} ({} cells)",
        hybrid.delay(),
        hybrid.num_cells()
    );
    println!("\nstructural matching sees only the chain's 2-input steps; Boolean");
    println!("matching recognizes the 4-input cone function regardless of shape");
    println!("(the paper's §4 structural-bias discussion, solved functionally).");
    Ok(())
}
