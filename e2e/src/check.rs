//! The output checker. Every op's output is checked outside the timed
//! region, so a faster-but-wrong change counts as failed, not fast.
//!
//! An op fails when it returned an error, when its output BLIF does not
//! re-parse, when the re-parsed output is not equivalent to the input
//! network under random simulation, or when its delay differs from the
//! job's one-shot reference. Simulation runs once per distinct output;
//! later ops are byte-compared against the outputs already proven. Served
//! replies are held to more: their bytes must equal the in-process one-shot
//! mapping ([`Reference::digest`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use dagmap_netlist::{blif, sim, Network};

/// 64-lane simulation rounds per equivalence check (4096 vectors, and
/// exhaustive for interfaces of at most six inputs).
const SIM_ROUNDS: usize = 64;
const SIM_SEED: u64 = 0xE2E;

/// What one mapping op handed back.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// The mapped netlist as BLIF text.
    pub blif: String,
    /// Critical-path delay of the mapped netlist.
    pub delay: f64,
    /// Total cell area of the mapped netlist.
    pub area: f64,
}

/// A job's validated one-shot result: every later op of the job is held
/// to it.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Digest of the reference BLIF bytes.
    pub digest: u64,
    /// Critical-path delay of the reference mapping.
    pub delay: f64,
    /// Cell area of the reference mapping.
    pub area: f64,
    /// Subject-graph nodes of the job's input.
    pub nodes: usize,
}

/// Digest of output bytes, for byte comparison without keeping the text.
pub fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Checks that `output_blif` re-parses and is equivalent to `input`.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn equivalent_output(input: &Network, output_blif: &str) -> Result<(), String> {
    let output = blif::parse(output_blif).map_err(|e| format!("output does not re-parse: {e}"))?;
    match sim::equivalent_random(input, &output, SIM_ROUNDS, SIM_SEED) {
        Ok(true) => Ok(()),
        Ok(false) => Err("output is not equivalent to the input".into()),
        Err(e) => Err(format!("output does not pair with the input: {e}")),
    }
}

impl Reference {
    /// Validates the one-shot `output` of a job over `input` and makes it
    /// the job's reference.
    ///
    /// # Errors
    ///
    /// As for [`equivalent_output`].
    pub fn validate(input: &Network, output: &OpOutput, nodes: usize) -> Result<Reference, String> {
        equivalent_output(input, &output.blif)?;
        Ok(Reference {
            digest: digest(&output.blif),
            delay: output.delay,
            area: output.area,
            nodes,
        })
    }
}

/// Checks ops against their job's [`Reference`], simulating each distinct
/// output once.
#[derive(Debug, Default)]
pub struct Checker {
    /// `(reference digest, output digest)` pairs already simulated.
    proven: HashSet<(u64, u64)>,
}

impl Checker {
    /// A checker that has proven nothing yet.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Checks one op's output.
    ///
    /// # Errors
    ///
    /// Why the op counts as failed.
    pub fn check(
        &mut self,
        reference: &Reference,
        input: &Network,
        output: &OpOutput,
    ) -> Result<(), String> {
        if output.delay != reference.delay {
            return Err(format!(
                "delay {} differs from the one-shot reference {}",
                output.delay, reference.delay
            ));
        }
        let d = digest(&output.blif);
        // Proofs are per job: identical bytes are only known equivalent to
        // the input they were simulated against.
        let key = (reference.digest, d);
        if d == reference.digest || self.proven.contains(&key) {
            return Ok(());
        }
        equivalent_output(input, &output.blif)?;
        self.proven.insert(key);
        Ok(())
    }
}
