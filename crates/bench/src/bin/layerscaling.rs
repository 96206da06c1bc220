//! Per-layer linearity of the whole BLIF-in, BLIF-out pipeline (the
//! one-shot op of the e2e benchmark) in the subject size `s`, up to a
//! million subject nodes: the rest of an op next to Section 3.4's `O(s·p)`
//! labeling claim, which the `scaling` binary checks.
//!
//! ```text
//! cargo run --release -p dagmap-bench --bin layerscaling
//! ```
//!
//! Array multipliers from ~10^4 to ~10^6 subject nodes go through the
//! public calls — `blif::parse`, `SubjectGraph::from_network`,
//! `map_with_report`, `verify::check`, `to_network` + `blif::to_string` —
//! and each layer's ns and allocations per subject node are printed (median
//! of three ops by total time), then each layer's ns/node spread across
//! sizes. Allocations are counted by [`Counting`], the binary's global
//! allocator. Peak RSS is about 0.55 GB at the largest size.

use std::sync::atomic::Ordering;
use std::time::Instant;

use dagmap_bench::harness::{Counting, ALLOCS};
use dagmap_core::{verify, MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};

#[global_allocator]
static COUNTING: Counting = Counting;

/// Seed of the pipeline's equivalence check (the one `dagmap map` uses).
const VERIFY_SEED: u64 = 0xC11;

/// The layers, in pipeline order.
const LAYERS: [&str; 5] = ["parse", "decompose", "map", "verify", "writeback"];

/// Runs `f`, returning its value, its wall-clock seconds and the
/// allocations it made.
fn metered<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let t = Instant::now();
    let value = f();
    let secs = t.elapsed().as_secs_f64();
    (value, secs, ALLOCS.load(Ordering::Relaxed) - allocs)
}

/// One BLIF-in, BLIF-out op through the public calls, per layer: seconds
/// and allocations of parse, decomposition, mapping, verification and
/// writeback, plus the subject's node count. Each value is dropped inside
/// the layer that used it last, as a one-shot op would.
fn pipeline(library: &Library, text: &str) -> (usize, [(f64, usize); 5]) {
    let (net, parse_s, parse_a) = metered(|| blif::parse(text).expect("parses"));
    let (subject, dec_s, dec_a) = metered(|| {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        drop(net);
        subject
    });
    let nodes = subject.network().num_nodes();
    let ((mapped, _), map_s, map_a) = metered(|| {
        Mapper::new(library)
            .map_with_report(&subject, MapOptions::dag())
            .expect("maps")
    });
    let ((), ver_s, ver_a) = metered(|| {
        verify::check(&mapped, &subject, VERIFY_SEED).expect("verifies");
        drop(subject);
    });
    let (out, wb_s, wb_a) = metered(|| {
        let out = blif::to_string(&mapped.to_network().expect("lowers")).expect("writes");
        drop(mapped);
        out
    });
    assert!(!out.is_empty());
    (
        nodes,
        [
            (parse_s, parse_a),
            (dec_s, dec_a),
            (map_s, map_a),
            (ver_s, ver_a),
            (wb_s, wb_a),
        ],
    )
}

fn main() {
    println!("per-layer cost, BLIF in -> BLIF out (lib2, dag), array multipliers:");
    print!("{:>6} {:>9}", "width", "s (nodes)");
    for layer in LAYERS {
        print!(" {:>10}", format!("{layer} ns"));
    }
    for layer in LAYERS {
        print!(" {:>9}", format!("{layer} a"));
    }
    println!();
    let library = Library::lib2_like();
    let mut ns_per_node: Vec<[f64; 5]> = Vec::new();
    for width in [18usize, 32, 64, 128, 180] {
        let text = blif::to_string(&dagmap_benchgen::array_multiplier(width)).expect("writes");
        let mut runs: Vec<(usize, [(f64, usize); 5])> =
            (0..3).map(|_| pipeline(&library, &text)).collect();
        runs.sort_by(|a, b| {
            let total = |r: &[(f64, usize); 5]| r.iter().map(|l| l.0).sum::<f64>();
            total(&a.1).partial_cmp(&total(&b.1)).expect("finite")
        });
        let (nodes, layers) = runs[1];
        let ns = layers.map(|(secs, _)| secs * 1e9 / nodes as f64);
        print!("{width:>6} {nodes:>9}");
        for v in ns {
            print!(" {v:>10.1}");
        }
        for (_, allocs) in layers {
            print!(" {:>9.3}", allocs as f64 / nodes as f64);
        }
        println!();
        ns_per_node.push(ns);
    }
    print!("ns/node spread (max/min over sizes):");
    for (i, layer) in LAYERS.iter().enumerate() {
        let column = ns_per_node.iter().map(|row| row[i]);
        let spread = column.clone().fold(f64::MIN, f64::max) / column.fold(f64::MAX, f64::min);
        print!(" {layer} {spread:.2}x");
    }
    println!("\n(allocation columns are allocations per subject node; linear => flat ns/node)");
}
