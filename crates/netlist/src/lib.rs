#![warn(missing_docs)]
//! Boolean-network substrate for the `dagmap` technology-mapping project.
//!
//! This crate provides everything the DAC 1998 DAG-covering mapper needs
//! underneath it:
//!
//! * [`Network`] — a multi-level Boolean network (a DAG of logic nodes with
//!   named primary inputs and outputs, plus edge-triggered latches),
//! * [`SopCover`] — sum-of-products node functions as used by BLIF `.names`,
//! * [`SubjectGraph`] — the NAND2/INV decomposition of a network that
//!   technology mapping covers with library patterns,
//! * [`FlatNet`] — a subject graph's structure-of-arrays view and its one
//!   level structure: the topological levels whose groups are the
//!   wavefronts of the labeling pass,
//! * [`blif`] — a reader and writer for the Berkeley BLIF interchange format,
//! * [`sim`] — 64-bit word-parallel simulation and random equivalence
//!   checking,
//! * [`shrink`] — structural reduction operators backing the fuzzer's
//!   delta-debugging loop,
//! * [`sta`] — simple static timing (arrival-time propagation / depth),
//! * [`fingerprint`] — bounded-depth cone canonicalization over a
//!   [`FlatNet`], backing the cone-class match store of `dagmap-match`,
//! * [`strash`] — the hash-consing construction arena and 128-bit Merkle
//!   value numbers (signatures) that make structurally identical cones
//!   recognizable in O(1), within one network and across requests.
//!
//! # Example
//!
//! Build a tiny network, decompose it into a subject graph and measure its
//! depth:
//!
//! ```
//! use dagmap_netlist::{Network, NodeFn, SubjectGraph};
//!
//! # fn main() -> Result<(), dagmap_netlist::NetlistError> {
//! let mut net = Network::new("toy");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let g = net.add_node(NodeFn::And, vec![a, b])?;
//! let h = net.add_node(NodeFn::Xor, vec![g, c])?;
//! net.add_output("f", h);
//!
//! let subject = SubjectGraph::from_network(&net)?;
//! assert!(subject.depth() >= 2);
//! # Ok(())
//! # }
//! ```

pub mod aiger;
pub mod blif;
mod error;
pub mod fingerprint;
mod flat;
mod id;
mod logic;
mod network;
pub mod shrink;
pub mod sim;
mod sop;
pub mod sta;
pub mod strash;
mod subject;

pub use error::NetlistError;
pub use flat::{FlatNet, KIND_INV, KIND_NAND, KIND_SOURCE};
pub use id::NodeId;
pub use logic::NodeFn;
pub use network::{NetEdit, Network, Node, Output};
pub use sop::{Cube, SopCover};
pub use strash::{Sig, Signatures, StrashArena, StrashStats};
pub use subject::{DecompShape, DecomposeOptions, SubjectGraph, SubjectKind};
