//! The sharded, bounded cone-class memo every memoized match probe goes
//! through.
//!
//! A long-lived daemon keeps one warm store per library that every request
//! on every worker thread probes, so the thousandth request over a
//! familiar circuit replays memoized enumerations instead of redoing the
//! backtracking search. A one-shot mapping run gives its labeling pass a
//! private store of one shard with no class cap — the same type, probed
//! by the same [`Matcher::for_each_match_shared`](crate::Matcher::for_each_match_shared).
//! [`SharedMatchStore`] provides two properties a resident process needs:
//!
//! * **Sharded locking.** The store is `N` independently locked
//!   [`MatchStore`] shards; a probe hashes its `(mode, capped level,
//!   cone)` key once and locks only the owning shard, so concurrent
//!   requests over disjoint cone classes never contend. The library bounds
//!   every probe reads are plain fields, read without any lock.
//! * **Bounded memory (segmented LRU).** Each shard keeps two
//!   *generations* — `current` and `prev`. Lookups probe `current`, then
//!   `prev`; a `prev` hit *promotes* the class into `current` (copying
//!   key + templates), and when `current` outgrows the shard's class cap
//!   the generations rotate: `prev` is dropped (those classes were not
//!   touched for a whole generation — the eviction), `current` becomes
//!   `prev`, and a fresh `current` starts filling. Hot classes keep
//!   getting promoted and never age out; cold ones fall off after two
//!   rotations. Total resident classes are bounded by `2 × cap` per
//!   shard.
//!
//! Bit-identity is inherited from [`MatchStore`]: replay preserves the
//! recorded enumeration order exactly and keys are subject-graph
//! independent, so a request's mapped netlist is byte-identical whether
//! its cone classes were enumerated fresh, replayed from a warm shard, or
//! promoted out of the previous generation. The differential tests in
//! this module and the serve integration suite assert this.
//!
//! Counters: hits/misses/promotions/evictions/rotations/id hits are
//! process atomics, surfaced per library by the daemon's metrics scrape.
//! Per-run memo counts are the labeling pass's `match.memo_*` counters,
//! not this store's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dagmap_genlib::Library;
use dagmap_netlist::Sig;

use crate::store::{LibraryBounds, MatchStore};

/// One generation pair; see the [module docs](self).
pub(crate) struct Shard {
    pub(crate) current: MatchStore,
    pub(crate) prev: MatchStore,
    /// Monotonic rotation stamp: incremented each time the generations
    /// rotate. Strash-id entries reference classes of this shard as
    /// `(shard index, stamp, class)` — a stamp mismatch on probe means the
    /// referenced generation aged or died, so the reference is discarded
    /// instead of resolving a recycled class id.
    pub(crate) stamp: u64,
}

/// A sharded, capacity-bounded [`MatchStore`] safe to share behind an
/// `Arc` across worker threads. See the [module docs](self).
pub struct SharedMatchStore {
    shards: Vec<Mutex<Shard>>,
    /// `shards.len() - 1`; the shard count is a power of two.
    shard_mask: u64,
    /// Class cap of one shard's `current` generation.
    cap_per_shard: usize,
    /// Library bounds captured at construction (identical across shards).
    bounds: LibraryBounds,
    hits: AtomicU64,
    misses: AtomicU64,
    promotions: AtomicU64,
    evictions: AtomicU64,
    rotations: AtomicU64,
    id_hits: AtomicU64,
}

impl std::fmt::Debug for SharedMatchStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMatchStore")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl SharedMatchStore {
    /// Default shard count: enough to keep a worker pool of a few dozen
    /// threads off each other's locks without fragmenting the class space.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a store for `library` with `shards` independently locked
    /// shards (rounded up to a power of two, minimum 1) and a total class
    /// budget of `max_classes` across all `current` generations. Resident
    /// memory is bounded by twice that (both generations); a run-private
    /// store passes one shard and `usize::MAX`, which never rotates.
    pub fn for_library(library: &Library, shards: usize, max_classes: usize) -> SharedMatchStore {
        let shards = shards.max(1).next_power_of_two();
        let cap_per_shard = (max_classes / shards).max(1);
        let bounds = LibraryBounds::of(library);
        let shard_vec = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    current: MatchStore::with_bounds(bounds),
                    prev: MatchStore::with_bounds(bounds),
                    stamp: 0,
                })
            })
            .collect();
        SharedMatchStore {
            shards: shard_vec,
            shard_mask: (shards - 1) as u64,
            cap_per_shard,
            bounds,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            id_hits: AtomicU64::new(0),
        }
    }

    /// Locks shard `idx`.
    pub(crate) fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The canonical shard of a cone key with FNV digest `hash` — the home
    /// of every cone class, because cone keys are subject-independent. The
    /// high bits pick the shard; the low bits index the per-shard map.
    pub(crate) fn cone_shard_index(&self, hash: u64) -> usize {
        (((hash >> 48) ^ hash) & self.shard_mask) as usize
    }

    /// The shard holding structural signature `sig`'s id entry. The entry
    /// maps the sig to a `(home shard, stamp, class)` reference; the class
    /// itself stays in its canonical cone-addressed home, so the same
    /// structure probed by differently-named subjects (different sigs,
    /// same cone key) shares one resident class.
    pub(crate) fn sig_shard_index(&self, sig: Sig) -> usize {
        let raw = sig.raw();
        let h = (raw as u64) ^ (raw >> 64) as u64;
        (((h >> 48) ^ h) & self.shard_mask) as usize
    }

    /// Locks shard `first` together with shard `second`, in ascending
    /// index order — the store-wide lock order, so two threads pairing
    /// different shards can never deadlock. Returns the second guard only
    /// when it is a distinct shard.
    pub(crate) fn lock_pair(
        &self,
        first: usize,
        second: usize,
    ) -> (MutexGuard<'_, Shard>, Option<MutexGuard<'_, Shard>>) {
        if first == second {
            (self.lock_shard(first), None)
        } else if first < second {
            let a = self.lock_shard(first);
            let b = self.lock_shard(second);
            (a, Some(b))
        } else {
            let b = self.lock_shard(second);
            let a = self.lock_shard(first);
            (a, Some(b))
        }
    }

    /// Class cap of one shard's `current` generation.
    pub(crate) fn cap_per_shard(&self) -> usize {
        self.cap_per_shard
    }

    /// The library bounds every probe reads — no lock taken.
    pub(crate) fn bounds(&self) -> LibraryBounds {
        self.bounds
    }

    /// Asserts the store was built for `library`.
    pub fn check_library(&self, library: &Library) {
        self.bounds.check(library);
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_id_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.id_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_promotion(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rotation(&self, evicted_classes: usize) {
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.evictions
            .fetch_add(evicted_classes as u64, Ordering::Relaxed);
    }

    /// Cross-request lookups that replayed a stored class (including
    /// promotions out of the previous generation).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Hits resolved through the strash-id fast path — no cone extraction,
    /// the structural signature went straight to its class.
    pub fn id_hits(&self) -> u64 {
        self.id_hits.load(Ordering::Relaxed)
    }

    /// Lookups that enumerated fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Previous-generation hits copied forward into `current`.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Classes dropped by generation rotations so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Generation rotations performed across all shards.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Classes currently resident across both generations of every shard.
    pub fn resident_classes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let g = s.lock().unwrap_or_else(|e| e.into_inner());
                g.current.num_classes() + g.prev.num_classes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{MatchConfig, MatchMode, MatchScratch, Matcher, MemoPolicy};
    use dagmap_genlib::Gate;
    use dagmap_netlist::{Network, NodeFn, SubjectGraph};

    fn rich_lib() -> Library {
        let gates = [
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("and2", "a*b"),
            ("nand3", "!(a*b*c)"),
            ("nand4", "!(a*b*c*d)"),
            ("aoi21", "!(a*b+c)"),
            ("xor2", "a*!b + !a*b"),
        ];
        Library::new(
            "test",
            gates
                .iter()
                .map(|(n, e)| Gate::uniform(*n, 1.0, "O", e, 1.0).expect("test gate"))
                .collect(),
        )
        .expect("test library")
    }

    fn ladder_named(n: usize, prefix: &str) -> SubjectGraph {
        let mut net = Network::new("ladder");
        let mut prev = net.add_input(format!("{prefix}x"));
        for i in 0..n {
            let a = net.add_input(format!("{prefix}{i}"));
            let g = net.add_node(NodeFn::Nand, vec![prev, a]).unwrap();
            prev = net.add_node(NodeFn::Not, vec![g]).unwrap();
        }
        net.add_output("f", prev);
        SubjectGraph::from_subject_network(net).expect("valid subject")
    }

    fn ladder(n: usize) -> SubjectGraph {
        ladder_named(n, "a")
    }

    fn memo_on(lib: &Library) -> Matcher<'_> {
        Matcher::with_config(
            lib,
            MatchConfig {
                index: true,
                memo: MemoPolicy::On,
                strash_ids: true,
            },
        )
    }

    #[test]
    fn shared_replay_is_order_identical_to_direct_enumeration() {
        let lib = rich_lib();
        let matcher = memo_on(&lib);
        let shared = SharedMatchStore::for_library(&lib, 4, 256);
        let mut s_direct = MatchScratch::new();
        let mut s_shared = MatchScratch::new();
        for n in [3usize, 6] {
            let subject = ladder(n);
            for node in subject.network().node_ids() {
                for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                    let mut direct = Vec::new();
                    matcher.for_each_match_at(&subject, node, mode, &mut s_direct, &mut |mv| {
                        direct.push(mv.to_match())
                    });
                    let mut via = Vec::new();
                    matcher.for_each_match_shared(
                        &subject,
                        node,
                        mode,
                        &mut s_shared,
                        &shared,
                        &mut |mv| via.push(mv.to_match()),
                    );
                    assert_eq!(direct, via, "node {node:?} mode {mode:?}");
                }
            }
        }
        assert!(shared.hits() > 0, "isomorphic cones replayed across runs");
    }

    #[test]
    fn concurrent_probes_stay_identical_to_serial_reference() {
        let lib = rich_lib();
        let matcher = memo_on(&lib);
        let subject = ladder(8);
        // Serial reference: the unmemoized scan.
        let reference: Vec<Vec<crate::Match>> = subject
            .network()
            .node_ids()
            .map(|node| {
                let mut scratch = MatchScratch::new();
                let mut out = Vec::new();
                matcher.for_each_match_at(
                    &subject,
                    node,
                    MatchMode::Standard,
                    &mut scratch,
                    &mut |mv| out.push(mv.to_match()),
                );
                out
            })
            .collect();
        // One shard puts every sig entry and every class in the same shard,
        // so concurrent probes run the same-shard id path (one lock held
        // from the id probe through replay) and the single-lock pairing of
        // the by-signature fallback; two shards also pair distinct shards.
        for shards in [1, 2] {
            let shared = SharedMatchStore::for_library(&lib, shards, 64);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let mut scratch = MatchScratch::new();
                        for (i, node) in subject.network().node_ids().enumerate() {
                            let mut got = Vec::new();
                            matcher.for_each_match_shared(
                                &subject,
                                node,
                                MatchMode::Standard,
                                &mut scratch,
                                &shared,
                                &mut |mv| got.push(mv.to_match()),
                            );
                            assert_eq!(got, reference[i], "{shards} shards");
                        }
                    });
                }
            });
            assert!(shared.hits() > 0, "{shards} shards");
            assert!(shared.id_hits() > 0, "{shards} shards: strash ids resolved");
        }
    }

    #[test]
    fn capacity_rotation_evicts_but_never_changes_results() {
        let lib = rich_lib();
        let matcher = memo_on(&lib);
        // A tiny cap: every few classes force a rotation, so lookups keep
        // cycling through miss → hit → promote → evict.
        let shared = SharedMatchStore::for_library(&lib, 1, 2);
        let subject = ladder(10);
        let mut scratch = MatchScratch::new();
        let mut reference = MatchScratch::new();
        for _round in 0..3 {
            for node in subject.network().node_ids() {
                let mut via = Vec::new();
                matcher.for_each_match_shared(
                    &subject,
                    node,
                    MatchMode::Standard,
                    &mut scratch,
                    &shared,
                    &mut |mv| via.push(mv.to_match()),
                );
                let mut direct = Vec::new();
                matcher.for_each_match_at(
                    &subject,
                    node,
                    MatchMode::Standard,
                    &mut reference,
                    &mut |mv| direct.push(mv.to_match()),
                );
                assert_eq!(via, direct);
            }
        }
        assert!(shared.rotations() > 0, "cap 2 must force rotations");
        assert!(shared.evictions() > 0, "rotations dropped aged classes");
        // The bound holds: at most 2 generations × cap classes per shard.
        assert!(shared.resident_classes() <= 2 * shared.cap_per_shard());
    }

    #[test]
    fn cone_sharing_survives_renamed_inputs() {
        // Two structurally identical subjects whose input NAMES differ:
        // strash signatures hash interface names, so the id fast path
        // cannot connect them — only canonical cone addressing can. Every
        // cone of the second subject was already enumerated by the first,
        // so mapping it must not add a single miss (this is the
        // cross-circuit sharing a warm serve daemon lives on).
        let lib = rich_lib();
        let matcher = memo_on(&lib);
        let shared = SharedMatchStore::for_library(&lib, 8, 4096);
        let a = ladder_named(6, "a");
        let b = ladder_named(6, "b");
        let mut scratch = MatchScratch::new();
        for node in a.network().node_ids() {
            matcher.for_each_match_shared(
                &a,
                node,
                MatchMode::Standard,
                &mut scratch,
                &shared,
                &mut |_| {},
            );
        }
        let misses_after_a = shared.misses();
        assert!(misses_after_a > 0, "the first subject enumerated fresh");
        let mut reference = MatchScratch::new();
        for node in b.network().node_ids() {
            let mut via = Vec::new();
            matcher.for_each_match_shared(
                &b,
                node,
                MatchMode::Standard,
                &mut scratch,
                &shared,
                &mut |mv| via.push(mv.to_match()),
            );
            let mut direct = Vec::new();
            matcher.for_each_match_at(&b, node, MatchMode::Standard, &mut reference, &mut |mv| {
                direct.push(mv.to_match())
            });
            assert_eq!(via, direct, "node {node:?}");
        }
        assert_eq!(
            shared.misses(),
            misses_after_a,
            "a renamed subject re-enumerated a structure the store already held"
        );
    }

    #[test]
    fn promotion_keeps_hot_classes_across_rotations() {
        let lib = rich_lib();
        let matcher = memo_on(&lib);
        let shared = SharedMatchStore::for_library(&lib, 1, 4);
        let subject = ladder(12);
        let mut scratch = MatchScratch::new();
        for _ in 0..4 {
            for node in subject.network().node_ids() {
                matcher.for_each_match_shared(
                    &subject,
                    node,
                    MatchMode::Standard,
                    &mut scratch,
                    &shared,
                    &mut |_| {},
                );
            }
        }
        assert!(
            shared.promotions() > 0,
            "previous-generation hits were promoted"
        );
    }
}
