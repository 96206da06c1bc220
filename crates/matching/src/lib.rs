#![warn(missing_docs)]
//! Pattern matching between subject graphs and library pattern graphs.
//!
//! Implements the three match semantics the paper distinguishes
//! (Definitions 1–3):
//!
//! * **standard** — a one-to-one embedding of the pattern into the subject
//!   that preserves edges and in-degrees; fanout *out of* covered nodes is
//!   allowed (this is what DAG covering needs),
//! * **exact** — a standard match whose internal nodes also agree on fanout
//!   counts, i.e. covered logic has no escaping fanout (this is what
//!   classical tree covering needs),
//! * **extended** — a standard match without the one-to-one requirement, so
//!   the pattern may *unfold* reconvergent subject structure (Figure 1 of
//!   the paper).
//!
//! The matcher enumerates every successful match of every library pattern
//! rooted at a given subject node, trying both fanin orders at each NAND —
//! which explores input permutations the way SIS's expanded pattern set
//! does — except at NANDs the library marks symmetric
//! ([`dagmap_genlib::LibPattern::symmetric`]). There the second order
//! would only permute pins of equal timing in a binding the first order
//! already produced, so it is skipped. Each match therefore comes back in
//! one pin order per distinct way of feeding the gate, not once per
//! permutation of interchangeable pins.
//!
//! One acceleration stage (switchable via [`MatchConfig`]) sits in front
//! of the backtracking search. The *index*, on by default, is the
//! library's bottom-up tree automaton over its pattern subtrees
//! ([`dagmap_genlib::Automaton`]): a subject node's state names the pattern
//! subtrees that embed there under a relaxed match, so only patterns whose
//! root subtree is in the state are tried, and partial bindings the state
//! rules out are abandoned. It preserves the enumeration order of the
//! naive full scan exactly, so labels, tie-breaks and mapped netlists are
//! bit-identical with the index on or off. A [`MatchStore`] records one
//! enumeration per bounded-depth cone class for callers that keep match
//! templates themselves ([`Matcher::class_at`]); mapping runs enumerate
//! fresh, which the automaton makes cheaper than a cone probe.
//! [`SharedMatchStore`] is the inert handle left from the retired
//! cross-request memo.
//!
//! # Example
//!
//! ```
//! use dagmap_genlib::Library;
//! use dagmap_match::{Matcher, MatchMode};
//! use dagmap_netlist::{Network, NodeFn, SubjectGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Network::new("n");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_node(NodeFn::Nand, vec![a, b])?;
//! net.add_output("f", g);
//! let subject = SubjectGraph::from_network(&net)?;
//!
//! let library = Library::minimal();
//! let matcher = Matcher::new(&library);
//! let root = subject.network().outputs()[0].driver;
//! let matches = matcher.matches_at(&subject, root, MatchMode::Standard);
//! // The bare nand2 gate, once: its pins are interchangeable, so the
//! // permuted binding (b, a) is not enumerated.
//! assert_eq!(matches.len(), 1);
//! assert_eq!(library.gate(matches[0].gate).name(), "nand2");
//! assert_eq!(matches[0].leaves, [a, b]);
//! # Ok(())
//! # }
//! ```

mod matcher;
pub mod shared;
pub mod store;

pub use matcher::{Match, MatchConfig, MatchMode, MatchScratch, MatchStats, MatchView, Matcher};
pub use shared::SharedMatchStore;
pub use store::{ClassId, MatchStore, TemplateRef};
