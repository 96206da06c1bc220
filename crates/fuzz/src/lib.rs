#![warn(missing_docs)]
//! Seeded differential fuzzing for the `dagmap` mapper, with automatic
//! shrinking of failing cases.
//!
//! The paper's claim is *optimality*: DAG covering must never be beaten on
//! delay by tree covering, must always stay functionally equivalent to its
//! subject graph, and must produce bit-identical results across every
//! performance configuration (automaton index, incremental re-mapping).
//! This crate sweeps that whole
//! matrix adversarially:
//!
//! 1. **Generate** a random combinational or sequential network from a seed
//!    (reusing `dagmap-benchgen`'s knob-driven generators).
//! 2. **Check** three invariant families per case against every library
//!    under test ([`check_network`]):
//!    * *functional* — equivalence + timing consistency via `core::verify`,
//!      for the structural, boolean, and hybrid matchers alike,
//!    * *bit-identity* — mapped BLIF and critical delay agree bit-for-bit
//!      across acceleration settings, and incremental re-mapping along a
//!      chain of three edits derived from the case equals a cold map at
//!      every step (sequential cases also run the minimum clock period
//!      search, which must finish without error),
//!    * *optimality ordering* — DAG delay ≤ tree delay, extended-match
//!      delay ≤ standard, supergate-extended library ≤ its base, area
//!      recovery never worsens delay, hybrid matching ≤ both structural
//!      and boolean-only (its candidate set is a superset of each), and
//!      everything ≥ the depth lower bound [`depth_lower_bound`].
//! 3. **Shrink** any violation by delta-debugging the subject network
//!    ([`shrink::minimize`]) down to a minimal BLIF repro and write it to a
//!    corpus directory, where `tests/fuzz_corpus.rs` replays it as an
//!    ordinary regression.
//!
//! # Example
//!
//! ```
//! use dagmap_fuzz::{run, FuzzOptions};
//!
//! let report = run(&FuzzOptions {
//!     seed: 1,
//!     cases: 2,
//!     supergates: false,
//!     ..FuzzOptions::default()
//! })
//! .expect("fuzzing runs");
//! assert_eq!(report.cases, 2);
//! assert!(report.failures.is_empty(), "the mapper holds its invariants");
//! ```

mod case;
mod checks;
pub mod shrink;

use std::error::Error;
use std::path::PathBuf;

pub use case::{generate_case, Case};
pub use checks::{
    check_network, depth_lower_bound, libraries_under_test, CaseOutcome, CaseViolation,
    InvariantKind, LibUnderTest, Matrix,
};

/// Boxed error: the fuzzer only errors on substrate failures (I/O, cyclic
/// networks); invariant violations are *data*, reported in [`FuzzReport`].
pub type FuzzError = Box<dyn Error + Send + Sync>;

/// Fuzzing run configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Ceiling on generated gate counts (the per-case roll stays below it).
    pub max_gates: usize,
    /// Also test supergate-extended variants of `lib2` and `44-1`.
    pub supergates: bool,
    /// Run the sequential mapper's minimum clock period search on
    /// sequential cases.
    pub check_retime: bool,
    /// Delta-debug failing cases down to minimal repros.
    pub shrink: bool,
    /// Directory minimized repros are written to (created on demand);
    /// `None` keeps them in memory only.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            cases: 100,
            max_gates: 60,
            supergates: true,
            check_retime: true,
            shrink: true,
            corpus_dir: None,
        }
    }
}

/// One minimized failure.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Index of the failing case within the run.
    pub case: usize,
    /// The case's derived seed (re-generate with `generate_case`).
    pub case_seed: u64,
    /// Generator family that produced the subject.
    pub generator: String,
    /// The violation, as found on the full-size case.
    pub violation: CaseViolation,
    /// Node count before shrinking.
    pub original_nodes: usize,
    /// Node count of the minimized repro.
    pub minimized_nodes: usize,
    /// Minimized repro as BLIF text.
    pub minimized_blif: String,
    /// Where the repro was written, when a corpus directory was given.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Libraries in the matrix (built-ins plus supergate extensions).
    pub libraries: usize,
    /// Total mapper invocations across the matrix.
    pub maps: usize,
    /// Every violation found, minimized.
    pub failures: Vec<FailureReport>,
}

/// Runs the differential fuzzer.
///
/// # Errors
///
/// Fails on substrate errors only — generator bugs, I/O problems writing
/// the corpus, or libraries that cannot map at all. Invariant violations
/// are returned in [`FuzzReport::failures`].
pub fn run(options: &FuzzOptions) -> Result<FuzzReport, FuzzError> {
    let libs = libraries_under_test(options.supergates)?;
    let matrix = Matrix {
        check_retime: options.check_retime,
        check_boolean: true,
    };
    let mut report = FuzzReport {
        cases: options.cases,
        libraries: libs.len(),
        maps: 0,
        failures: Vec::new(),
    };
    if let Some(dir) = &options.corpus_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut fuzz_span = dagmap_obs::span("fuzz");
    if fuzz_span.is_recording() {
        fuzz_span.set_u64("cases", options.cases as u64);
        fuzz_span.set_u64("libraries", libs.len() as u64);
    }
    for index in 0..options.cases {
        let mut case_span = dagmap_obs::span("fuzz.case");
        if case_span.is_recording() {
            case_span.set_u64("case", index as u64);
        }
        let case = generate_case(options.seed, index, options.max_gates);
        let outcome = check_network(&case.network, &libs, &matrix)?;
        if case_span.is_recording() {
            case_span.set_u64("maps", outcome.maps as u64);
        }
        dagmap_obs::count("fuzz.maps", outcome.maps as u64);
        report.maps += outcome.maps;
        for violation in outcome.violations {
            let minimized = if options.shrink {
                let v = violation.clone();
                let libs_ref = &libs;
                let matrix_ref = &matrix;
                shrink::minimize(&case.network, &mut |candidate| {
                    check_network(candidate, libs_ref, matrix_ref)
                        .map(|o| o.violations.iter().any(|w| w.same_invariant(&v)))
                        .unwrap_or(false)
                })
            } else {
                case.network.clone()
            };
            let mut tagged = minimized.clone();
            let tag = format!(
                "fuzz_s{}_c{}_{}_{}",
                options.seed,
                index,
                violation.kind.slug(),
                libs[violation.library].name.replace(['-', '+'], "_"),
            );
            tagged.set_name(&tag);
            let blif = dagmap_netlist::blif::to_string(&tagged)?;
            let repro_path = match &options.corpus_dir {
                Some(dir) => {
                    let path = dir.join(format!("{tag}.blif"));
                    std::fs::write(&path, &blif)?;
                    Some(path)
                }
                None => None,
            };
            report.failures.push(FailureReport {
                case: index,
                case_seed: case.seed,
                generator: case.generator.clone(),
                violation,
                original_nodes: case.network.num_nodes(),
                minimized_nodes: minimized.num_nodes(),
                minimized_blif: blif,
                repro_path,
            });
        }
    }
    Ok(report)
}
