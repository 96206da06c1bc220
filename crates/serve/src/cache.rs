//! The reply cache: a repeated `map` request is answered with the reply
//! bytes an earlier run of the same request produced.
//!
//! A served map reply is a pure function of the resolved library, the
//! algorithm, `recover` and the request BLIF: the daemon maps through the
//! one-shot calls, and labeling, cover, area recovery, verification and
//! writeback are deterministic. So the encoded reply of one run —
//! everything after its `id` — answers every later request with the same
//! key byte for byte.
//!
//! The request's 64-bit fold hash ([`request_hash`]) picks a bucket, and a
//! hit also compares the library, algorithm, `recover` and the full BLIF
//! text, so two requests whose hashes collide — by accident or crafted by
//! a client — never share an entry. Resident bytes are bounded by a byte
//! budget with least-recently-used eviction. Which replies are worth
//! storing (second sightings, no trace, no retained labels) is the
//! server's decision.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use dagmap_core::MapReport;

/// Byte budget of the daemon's reply cache: stored request and reply
/// bytes plus each entry's fixed size.
pub(crate) const REPLY_CACHE_BYTES: usize = 32 << 20;

/// Most entries one bucket holds. Different keys share a bucket only when
/// their fold hashes collide: the same library and BLIF under another
/// algorithm or `recover` setting (six configurations), or a collision a
/// client crafted. The cap bounds how many keys a lookup compares.
const MAX_BUCKET: usize = 8;

/// Folds a `(library, BLIF)` pair into 64 bits, 8 bytes per multiply (a
/// byte-at-a-time FNV costs tens of microseconds on realistic BLIFs).
/// Stability only matters within this process; each part is
/// length-terminated so the zero-padded final chunk cannot collide with
/// real trailing zeros.
pub(crate) fn request_hash(lib: &str, blif: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut step = |word: u64| {
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x517cc1b727220a95);
    };
    for part in [lib.as_bytes(), blif.as_bytes()] {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            step(u64::from_le_bytes(c.try_into().expect("chunks of 8 bytes")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            step(u64::from_le_bytes(buf));
        }
        step(part.len() as u64);
    }
    h
}

/// Everything a request must match to be answered from an entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyKey<'a> {
    /// The registered (resolved) library name.
    pub lib: &'a str,
    pub algo: &'a str,
    pub recover: bool,
    pub blif: &'a str,
}

/// One stored reply.
#[derive(Debug)]
pub(crate) struct CachedReply {
    /// The encoded reply after its `"ok":true`: op, library, report
    /// fields and the escaped BLIF, exactly as the storing run sent them.
    pub body: String,
    /// The report the body carries, for a hit's request-log line.
    pub report: MapReport,
    /// Mapped BLIF bytes, for a hit's request-log line.
    pub out_bytes: usize,
}

#[derive(Debug)]
struct Entry {
    lib: Box<str>,
    algo: Box<str>,
    recover: bool,
    blif: Box<str>,
    reply: Arc<CachedReply>,
    /// Last use; this entry's key in [`State::recency`].
    tick: u64,
    /// What the entry charges against the budget.
    bytes: usize,
}

impl Entry {
    fn matches(&self, key: &ReplyKey<'_>) -> bool {
        self.recover == key.recover
            && *self.algo == *key.algo
            && *self.lib == *key.lib
            && *self.blif == *key.blif
    }
}

#[derive(Debug, Default)]
struct State {
    buckets: HashMap<u64, Vec<Entry>>,
    /// Last-use tick → bucket of every entry, oldest first.
    recency: BTreeMap<u64, u64>,
    next_tick: u64,
    bytes: usize,
}

impl State {
    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick
    }
}

/// A byte-bounded LRU of encoded map replies.
#[derive(Debug)]
pub(crate) struct ReplyCache {
    budget: usize,
    state: Mutex<State>,
}

impl ReplyCache {
    /// An empty cache holding at most `budget` bytes.
    pub fn new(budget: usize) -> ReplyCache {
        ReplyCache {
            budget,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update below leaves the maps and the byte count consistent
        // before anything that can panic, so a poisoned guard is usable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The reply stored under `key` (whose fold hash is `hash`), marked as
    /// used most recently.
    pub fn get(&self, hash: u64, key: &ReplyKey<'_>) -> Option<Arc<CachedReply>> {
        let mut guard = self.lock();
        let tick = guard.tick();
        let state = &mut *guard;
        let entry = state
            .buckets
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| e.matches(key))?;
        state.recency.remove(&entry.tick);
        entry.tick = tick;
        state.recency.insert(tick, hash);
        Some(Arc::clone(&entry.reply))
    }

    /// Stores `reply` under `key`, evicting least-recently-used entries
    /// until the cache fits its budget again, and returns how many it
    /// evicted. A reply over an eighth of the budget, a key already
    /// stored, or a full bucket stores nothing.
    pub fn insert(&self, hash: u64, key: &ReplyKey<'_>, reply: CachedReply) -> usize {
        let bytes = key.lib.len()
            + key.algo.len()
            + key.blif.len()
            + reply.body.len()
            + std::mem::size_of::<Entry>()
            + std::mem::size_of::<CachedReply>();
        if bytes > self.budget / 8 {
            return 0;
        }
        let mut guard = self.lock();
        let tick = guard.tick();
        let state = &mut *guard;
        let bucket = state.buckets.entry(hash).or_default();
        if bucket.len() >= MAX_BUCKET || bucket.iter().any(|e| e.matches(key)) {
            return 0;
        }
        bucket.push(Entry {
            lib: key.lib.into(),
            algo: key.algo.into(),
            recover: key.recover,
            blif: key.blif.into(),
            reply: Arc::new(reply),
            tick,
            bytes,
        });
        state.recency.insert(tick, hash);
        state.bytes += bytes;
        let mut evicted = 0;
        while state.bytes > self.budget {
            let Some((oldest, hash)) = state.recency.pop_first() else {
                break;
            };
            let bucket = state
                .buckets
                .get_mut(&hash)
                .expect("every recency entry names a live bucket");
            let at = bucket
                .iter()
                .position(|e| e.tick == oldest)
                .expect("every recency entry names a live entry");
            state.bytes -= bucket.swap_remove(at).bytes;
            if bucket.is_empty() {
                state.buckets.remove(&hash);
            }
            evicted += 1;
        }
        evicted
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MapReport {
        MapReport {
            algorithm: "dag",
            delay: 3.0,
            predicted_delay: 3.0,
            area: 5.0,
            num_cells: 2,
            duplicated_subject_nodes: 0,
            matches_enumerated: 9,
            matches_pruned: 0,
            memo_lookups: 0,
            memo_hits: 0,
            memo_id_hits: 0,
            strash_raw_nodes: 4,
            strash_unique_nodes: 4,
            strash_dedup_hits: 0,
            labels_reused: 0,
            match_words: 1,
            match_candidate_bits: 3,
            label_threads: 1,
            levels: 2,
            label_seconds: 0.001,
            cover_seconds: 0.001,
            area_recovery_seconds: 0.0,
            decompose_seconds: 0.001,
        }
    }

    fn reply(body: &str) -> CachedReply {
        CachedReply {
            body: body.to_owned(),
            report: report(),
            out_bytes: body.len(),
        }
    }

    fn key(blif: &str) -> ReplyKey<'_> {
        ReplyKey {
            lib: "lib2_like",
            algo: "dag",
            recover: false,
            blif,
        }
    }

    #[test]
    fn hashes_separate_library_and_content() {
        let h = request_hash("lib2", ".model a");
        assert_eq!(h, request_hash("lib2", ".model a"));
        assert_ne!(h, request_hash("other", ".model a"));
        assert_ne!(h, request_hash("lib2", ".model b"));
        // The length terminator keeps zero padding apart from real zeros.
        assert_ne!(request_hash("", "a"), request_hash("", "a\0"));
    }

    #[test]
    fn a_hit_needs_the_whole_key() {
        let cache = ReplyCache::new(REPLY_CACHE_BYTES);
        let stored = key(".model a");
        assert_eq!(cache.insert(7, &stored, reply("A")), 0);
        assert_eq!(cache.get(7, &stored).unwrap().body, "A");
        for other in [
            ReplyKey {
                lib: "44_3_like",
                ..stored
            },
            ReplyKey {
                algo: "tree",
                ..stored
            },
            ReplyKey {
                recover: true,
                ..stored
            },
            key(".model b"),
        ] {
            assert!(cache.get(7, &other).is_none(), "{other:?}");
        }
        assert!(cache.get(8, &stored).is_none(), "another bucket");
    }

    /// Two different BLIFs forced into one bucket keep two entries, and
    /// each lookup returns its own reply.
    #[test]
    fn colliding_keys_never_share_an_entry() {
        let cache = ReplyCache::new(REPLY_CACHE_BYTES);
        let (a, b) = (key(".model a"), key(".model b"));
        cache.insert(42, &a, reply("A"));
        assert!(cache.get(42, &b).is_none(), "b must not read a's reply");
        cache.insert(42, &b, reply("B"));
        assert_eq!(cache.get(42, &a).unwrap().body, "A");
        assert_eq!(cache.get(42, &b).unwrap().body, "B");
        // A full bucket stores no further colliding key.
        let blifs: Vec<String> = (0..2 * MAX_BUCKET).map(|i| format!("c{i}")).collect();
        for blif in &blifs {
            cache.insert(42, &key(blif), reply(blif));
        }
        let resident = blifs.iter().filter(|b| cache.get(42, &key(b)).is_some());
        assert_eq!(resident.count(), MAX_BUCKET - 2);
    }

    /// A flood of distinct replies never holds more than the budget, and
    /// what it pushes out is counted and least recently used.
    #[test]
    fn resident_bytes_stay_within_the_budget() {
        let budget = 64 << 10;
        let cache = ReplyCache::new(budget);
        let body = "x".repeat(1500);
        let blifs: Vec<String> = (0..400).map(|i| format!(".model d{i}\n")).collect();
        let mut evicted = 0;
        for (i, blif) in blifs.iter().enumerate() {
            evicted += cache.insert(request_hash("lib2_like", blif), &key(blif), reply(&body));
            assert!(cache.bytes() <= budget, "{} > {budget}", cache.bytes());
            // Keep the first design hot: it must survive the flood.
            if i % 8 == 0 {
                let first = &blifs[0];
                assert!(cache
                    .get(request_hash("lib2_like", first), &key(first))
                    .is_some());
            }
        }
        let resident = blifs
            .iter()
            .filter(|b| cache.get(request_hash("lib2_like", b), &key(b)).is_some())
            .count();
        assert!(evicted > 0 && resident > 1);
        assert_eq!(resident + evicted, blifs.len());
        assert!(cache
            .get(request_hash("lib2_like", &blifs[1]), &key(&blifs[1]))
            .is_none());
    }

    #[test]
    fn oversized_replies_are_served_but_not_stored() {
        let budget = 64 << 10;
        let cache = ReplyCache::new(budget);
        let big = key(".model big");
        cache.insert(1, &big, reply(&"x".repeat(budget / 8)));
        assert!(cache.get(1, &big).is_none());
        assert_eq!(cache.bytes(), 0);
    }
}
