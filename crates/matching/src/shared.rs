//! The handle of the retired cross-request cone memo.
//!
//! Since the subtree automaton filters candidates, a fresh enumeration
//! costs less than a cone-memo probe, so nothing memoizes across requests
//! any more. [`SharedMatchStore`] stays as an inert handle because the
//! public mapping calls that used to carry a warm store still take one:
//! they label exactly as the private path does, and the counters read 0.

use dagmap_genlib::Library;

/// An inert stand-in for the retired cross-request memo; see the
/// [module docs](self). It holds nothing and costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedMatchStore;

impl SharedMatchStore {
    /// The shard count callers used to pass; kept for their signatures.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A handle for `library`. The shard count and class budget are
    /// ignored.
    pub fn for_library(
        _library: &Library,
        _shards: usize,
        _max_classes: usize,
    ) -> SharedMatchStore {
        SharedMatchStore
    }

    /// Classes evicted so far: always 0.
    pub fn evictions(&self) -> u64 {
        0
    }

    /// Classes resident: always 0.
    pub fn resident_classes(&self) -> usize {
        0
    }
}
