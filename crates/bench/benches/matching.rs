//! Matcher throughput: the `O(p)` per-node cost of `graph_match` across
//! match modes and library sizes (footnote 2 / Section 3.4 of the paper).

use std::hint::black_box;

use dagmap_bench::harness::{bench, report};
use dagmap_genlib::Library;
use dagmap_match::{MatchMode, MatchScratch, Matcher};
use dagmap_netlist::SubjectGraph;

fn main() {
    let mut rows = Vec::new();
    let subject =
        SubjectGraph::from_network(&dagmap_benchgen::alu(8)).expect("benchmark decomposes");
    let nodes: Vec<_> = subject.network().node_ids().collect();
    for (lib_name, library) in [
        ("lib2", Library::lib2_like()),
        ("44-3", Library::lib_44_3_like()),
    ] {
        let matcher = Matcher::new(&library);
        let mut scratch = MatchScratch::new();
        for mode in [MatchMode::Exact, MatchMode::Standard, MatchMode::Extended] {
            rows.push(bench(&format!("matching/{lib_name}/{mode:?}"), || {
                let mut total = 0usize;
                for &id in &nodes {
                    total += matcher
                        .for_each_match_at(black_box(&subject), id, mode, &mut scratch, &mut |_| {})
                        .enumerated;
                }
                total
            }));
        }
    }

    // Whole-circuit mapping time by matcher style (the ablation [6] cost
    // side): structural patterns vs Boolean cuts vs their union.
    let library = Library::lib2_like();
    let mapper = dagmap_core::Mapper::new(&library);
    rows.push(bench("matching_styles/structural", || {
        mapper
            .map(black_box(&subject), dagmap_core::MapOptions::dag())
            .expect("maps")
            .delay()
    }));
    rows.push(bench("matching_styles/boolean_k4", || {
        let options = dagmap_core::MapOptions::dag();
        dagmap_boolmatch::map_boolean_with_options(black_box(&subject), &library, 4, options)
            .expect("maps")
            .0
            .delay()
    }));
    rows.push(bench("matching_styles/hybrid_k4", || {
        let options = dagmap_core::MapOptions::dag();
        dagmap_boolmatch::map_hybrid_with_options(black_box(&subject), &library, 4, options)
            .expect("maps")
            .0
            .delay()
    }));
    report("matching", &rows);
}
