//! The zero-allocation contract of the flat labeling kernel: once the
//! per-mapping arenas are sized (scratch, selection pools, incumbent
//! buffers), steady-state waves perform no heap allocation at all. The
//! equivalence checker that verifies every mapping is held to the same
//! standard: it allocates its compiled programs and value buffers once, so
//! its allocation count depends on neither the round count nor the network
//! size.
//!
//! Verified with a counting global allocator registered through
//! `dagmap_core::allocmeter`; the labeler meters each wave by reading the
//! counter at the wave boundaries. This file holds exactly one test so the
//! process-global allocator hook cannot race another test's allocations —
//! the harness may still run library init on other threads, which is why
//! the meter is read *inside* the labeler rather than asserted around it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dagmap_core::{label_with_config, label_with_shared_store, Objective};
use dagmap_genlib::Library;
use dagmap_match::{MatchConfig, MatchMode, MemoPolicy, SharedMatchStore};
use dagmap_netlist::{sim, SubjectGraph};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts every allocation-path call (alloc, realloc, alloc_zeroed) and
/// delegates to the system allocator. Frees are not counted: the contract
/// is about acquiring memory mid-wave.
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

#[test]
fn steady_state_waves_allocate_nothing() {
    dagmap_core::allocmeter::install(&ALLOCS);

    let circuits = [
        ("alu8", dagmap_benchgen::alu(8)),
        ("mult8", dagmap_benchgen::array_multiplier(8)),
    ];
    let libraries = [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ];
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        for lib in &libraries {
            for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                let labels = label_with_config(
                    &subject,
                    lib,
                    mode,
                    Objective::Delay,
                    Some(1),
                    MatchConfig {
                        index: true,
                        memo: MemoPolicy::Off,
                        strash_ids: false,
                    },
                )
                .expect("labels");
                assert_eq!(
                    labels.wave_allocs.len(),
                    subject.flat().num_levels(),
                    "{name}/{}/{mode:?}: every wave is metered",
                    lib.name()
                );
                let total: usize = labels.wave_allocs.iter().sum();
                assert_eq!(
                    total,
                    0,
                    "{name}/{}/{mode:?}: waves allocated {:?}",
                    lib.name(),
                    labels.wave_allocs
                );
            }
        }
    }

    // The strashed warm steady state: once a shared store has seen a
    // subject, a repeat labeling resolves every gate through the strash-id
    // fast path — a hash probe plus replay through pre-sized buffers — so
    // warm waves allocate nothing either. (The cold run is exempt: it
    // grows the store.)
    let warm_config = MatchConfig {
        index: true,
        memo: MemoPolicy::On,
        strash_ids: true,
    };
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        let lib = Library::lib_44_3_like();
        let shared = SharedMatchStore::for_library(&lib, 16, 1 << 14);
        let cold = label_with_shared_store(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            warm_config,
            &shared,
        )
        .expect("cold labels");
        let warm = label_with_shared_store(
            &subject,
            &lib,
            MatchMode::Standard,
            Objective::Delay,
            warm_config,
            &shared,
        )
        .expect("warm labels");
        assert_eq!(warm.arrival, cold.arrival, "{name}: warm run is bit-identical");
        assert_eq!(warm.best, cold.best, "{name}: warm run is bit-identical");
        assert!(
            warm.memo_id_hits > 0,
            "{name}: warm run resolves through strash ids"
        );
        let total: usize = warm.wave_allocs.iter().sum();
        assert_eq!(
            total, 0,
            "{name}: warm strashed waves allocated {:?}",
            warm.wave_allocs
        );
    }

    // The equivalence checker: one compile per network and one value buffer
    // per network serve every block of rounds.
    for width in [8, 16, 32] {
        let net = dagmap_benchgen::array_multiplier(width);
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let allocs_at = |rounds: usize| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let equal = sim::equivalent_random(&net, subject.network(), rounds, 1);
            let after = ALLOCS.load(Ordering::Relaxed);
            assert!(
                equal.expect("comparable"),
                "mult{width} decomposes faithfully"
            );
            after - before
        };
        let (at8, at64) = (allocs_at(8), allocs_at(64));
        assert_eq!(
            at8, at64,
            "mult{width}: allocations must not grow with the round count"
        );
        assert!(at8 <= 64, "mult{width}: {at8} allocations per check");
    }

    dagmap_core::allocmeter::uninstall();
}
