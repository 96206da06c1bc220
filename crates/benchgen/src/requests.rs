//! Seeded synthetic request streams for the `dagmap serve` daemon.
//!
//! Real mapping traffic is not uniform: a handful of hot designs dominate
//! (incremental re-maps during optimization loops) with a long tail of
//! one-off circuits. [`request_stream`] models that as a hot set of
//! circuits hit with probability `hot_fraction`, the remainder drawn from a
//! larger cold pool, with library choice round-robined per request so a
//! multi-library daemon exercises every shared cache.
//!
//! Streams are fully determined by the seed, so a benchmark run is
//! reproducible and a serve-side reply can be checked bit-for-bit against a
//! one-shot mapping of the same `blif` text.

use dagmap_rng::StdRng;

use crate::{
    alu, array_multiplier, barrel_shifter, comparator, decoder, mux_tree, parity_tree, ripple_adder,
};

/// One request of a synthetic traffic stream.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Circuit name, unique per distinct circuit (stable across requests
    /// that repeat the circuit).
    pub circuit: String,
    /// Library index into the caller's library list.
    pub lib_index: usize,
    /// BLIF text of the circuit, as a daemon would receive it.
    pub blif: String,
    /// Whether this request repeats a circuit already seen in the stream.
    pub repeat: bool,
}

/// Traffic-stream shape.
#[derive(Debug, Clone)]
pub struct RequestStreamSpec {
    /// PRNG seed; equal seeds produce byte-identical streams.
    pub seed: u64,
    /// Total requests to generate.
    pub num_requests: usize,
    /// Number of libraries the daemon serves (round-robined).
    pub num_libs: usize,
    /// Distinct circuits in the hot set.
    pub hot_set: usize,
    /// Probability a request draws from the hot set.
    pub hot_fraction: f64,
}

impl Default for RequestStreamSpec {
    fn default() -> RequestStreamSpec {
        RequestStreamSpec {
            seed: 0xD46C,
            num_requests: 1000,
            num_libs: 2,
            hot_set: 6,
            hot_fraction: 0.8,
        }
    }
}

/// The circuit pool requests are drawn from: index `i` names a small-to-mid
/// combinational circuit. The pool cycles, so any `hot_set`/cold-pool size
/// works.
fn pool_circuit(i: usize) -> (String, dagmap_netlist::Network) {
    match i % 8 {
        0 => (format!("adder{}", 4 + i % 3), ripple_adder(4 + i % 3)),
        1 => (format!("cmp{}", 6 + i % 4), comparator(6 + i % 4)),
        2 => (format!("mult{}", 3 + i % 3), array_multiplier(3 + i % 3)),
        3 => (format!("parity{}", 8 + i % 9), parity_tree(8 + i % 9)),
        4 => (format!("mux{}", 3 + i % 2), mux_tree(3 + i % 2)),
        5 => (format!("dec{}", 3 + i % 3), decoder(3 + i % 3)),
        6 => (
            format!("shift{}", 8 << (i % 2)),
            barrel_shifter(8 << (i % 2)),
        ),
        _ => (format!("alu{}", 4 + i % 3), alu(4 + i % 3)),
    }
}

/// Generates a seeded, hot-set-skewed request stream per `spec`.
///
/// # Panics
///
/// Panics if `spec.num_libs == 0`, `spec.hot_set == 0`, or a pool circuit
/// fails to serialize to BLIF (a generator bug).
#[must_use]
pub fn request_stream(spec: &RequestStreamSpec) -> Vec<ServeRequest> {
    assert!(spec.num_libs > 0, "need at least one library");
    assert!(spec.hot_set > 0, "need a nonempty hot set");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Cold pool: distinct indices past the hot set, one per cold request at
    // most (fresh circuits, repeated only by accident of the pool
    // cycling).
    let mut next_cold = spec.hot_set;
    let mut blif_cache: Vec<Option<(String, String)>> = Vec::new();
    let mut seen: Vec<bool> = Vec::new();
    let mut stream = Vec::with_capacity(spec.num_requests);
    for req in 0..spec.num_requests {
        let index = if rng.random_bool(spec.hot_fraction) {
            rng.random_range(0..spec.hot_set)
        } else {
            let i = next_cold;
            next_cold += 1;
            i
        };
        if blif_cache.len() <= index {
            blif_cache.resize(index + 1, None);
            seen.resize(index + 1, false);
        }
        let (circuit, blif) = match &blif_cache[index] {
            Some(entry) => entry.clone(),
            None => {
                let (name, net) = pool_circuit(index);
                let text = dagmap_netlist::blif::to_string(&net).expect("pool circuits serialize");
                blif_cache[index] = Some((name.clone(), text.clone()));
                (name, text)
            }
        };
        let repeat = seen[index];
        seen[index] = true;
        stream.push(ServeRequest {
            circuit,
            lib_index: req % spec.num_libs,
            blif,
            repeat,
        });
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let spec = RequestStreamSpec {
            num_requests: 64,
            ..RequestStreamSpec::default()
        };
        let a = request_stream(&spec);
        let b = request_stream(&spec);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.circuit, y.circuit);
            assert_eq!(x.lib_index, y.lib_index);
            assert_eq!(x.blif, y.blif);
            assert_eq!(x.repeat, y.repeat);
        }
    }

    #[test]
    fn hot_skew_produces_repeats_and_spreads_libraries() {
        let spec = RequestStreamSpec {
            num_requests: 200,
            num_libs: 3,
            ..RequestStreamSpec::default()
        };
        let stream = request_stream(&spec);
        let repeats = stream.iter().filter(|r| r.repeat).count();
        assert!(
            repeats > stream.len() / 2,
            "hot-set skew should make most requests repeats, got {repeats}/200"
        );
        for lib in 0..3 {
            assert!(stream.iter().any(|r| r.lib_index == lib));
        }
        // Repeated circuit names carry identical BLIF text: same bytes in,
        // so a repeat is a true repeat request.
        for r in &stream {
            let first = stream.iter().find(|s| s.circuit == r.circuit).unwrap();
            assert_eq!(first.blif, r.blif);
        }
    }

    #[test]
    fn cold_requests_are_fresh_circuits() {
        let spec = RequestStreamSpec {
            num_requests: 100,
            hot_fraction: 0.0,
            ..RequestStreamSpec::default()
        };
        let stream = request_stream(&spec);
        assert!(stream.iter().all(|r| !r.repeat));
    }
}
