//! The allocation bound of Boolean labeling: once the kit's buffers reach
//! their high-water marks, a labeling pass allocates only when a cut
//! function it has not seen before grows the per-function records (and the
//! source's class-reach sets). Matching a cut, deduplicating its bindings
//! and emitting its matches allocate nothing, so the total over all waves
//! stays a small constant however many cuts and matches a design has.
//!
//! Verified with a counting global allocator registered through
//! `dagmap_core::allocmeter`; the labeler meters each wave by reading the
//! counter at the wave boundaries. This file holds exactly one test so the
//! process-global allocator hook cannot race another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dagmap_boolmatch::{BoolSource, HybridSource};
use dagmap_core::{label_with_source, Labels, MatchSource, Objective};
use dagmap_genlib::Library;
use dagmap_netlist::SubjectGraph;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts every allocation-path call (alloc, realloc, alloc_zeroed) and
/// delegates to the system allocator. Frees are not counted.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations a whole labeling pass may make: the growth steps of the
/// per-function records and class-reach sets, plus a few buffers passing
/// their initial capacity.
const PASS_BOUND: usize = 64;

/// Labels `subject` through `source` and checks the metered waves.
fn assert_bounded<S: MatchSource>(what: &str, subject: &SubjectGraph, source: &S) {
    let labels: Labels =
        label_with_source(subject, source, Objective::Delay, None).expect("labels");
    assert_eq!(
        labels.wave_allocs.len(),
        subject.flat().num_levels(),
        "{what}: every wave is metered"
    );
    let total: usize = labels.wave_allocs.iter().sum();
    assert!(
        total <= PASS_BOUND,
        "{what}: waves allocated {total} times: {:?}",
        labels.wave_allocs
    );
}

#[test]
fn boolean_labeling_allocates_only_for_new_cut_functions() {
    dagmap_core::allocmeter::install(&ALLOCS);

    let circuits = [
        ("alu8", dagmap_benchgen::alu(8)),
        ("mult8", dagmap_benchgen::array_multiplier(8)),
        ("c3540", dagmap_benchgen::c3540_like()),
    ];
    let libraries = [
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ];
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        for lib in &libraries {
            for k in [4, 6] {
                let source = BoolSource::new(&subject, lib, k);
                assert_bounded(
                    &format!("{name}/{}/boolean/k={k}", lib.name()),
                    &subject,
                    &source,
                );
            }
        }
        // Hybrid adds the structural matcher, which allocates nothing in
        // its waves.
        for lib in &libraries {
            let source = HybridSource::new(&subject, lib, 4);
            assert_bounded(&format!("{name}/{}/hybrid", lib.name()), &subject, &source);
        }
    }

    dagmap_core::allocmeter::uninstall();
}
