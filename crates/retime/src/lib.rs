#![warn(missing_docs)]
//! Retiming and sequential technology mapping — the Section 4 extension of
//! the DAC 1998 paper.
//!
//! Two layers:
//!
//! * [`SeqGraph`] / [`retime`] — classical Leiserson–Saxe minimum-period
//!   retiming: the `W`/`D` matrices, a Bellman–Ford feasibility test over
//!   difference constraints, binary search over candidate periods, and
//!   application of the lags back onto a [`Network`](dagmap_netlist::Network),
//! * [`seqmap`] — the Pan–Liu-style *mapping-aware* decision procedure the
//!   paper sketches: the FlowMap-like l-value labeling where k-cut
//!   enumeration is replaced by library pattern matching, iterated to
//!   fixpoint across register boundaries, inside a binary search for the
//!   minimum achievable clock period under combined retiming + mapping.
//!
//! # Example
//!
//! Balance a register-imbalanced ring down to its optimal period:
//!
//! ```
//! use dagmap_retime::{retime, SeqGraph};
//! use dagmap_netlist::{Network, NodeFn};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A loop of four unit-delay inverters with both registers bunched
//! // together: period 3 as built (the longest register-free path runs
//! // from the registers through n2..n4 to the probe), 2 after retiming.
//! let mut net = Network::new("ring");
//! let seed = net.add_input("seed");
//! let n1 = net.add_node(NodeFn::Not, vec![seed])?;
//! let l1 = net.add_node(NodeFn::Latch, vec![n1])?;
//! let l2 = net.add_node(NodeFn::Latch, vec![l1])?;
//! let n2 = net.add_node(NodeFn::Not, vec![l2])?;
//! let n3 = net.add_node(NodeFn::Not, vec![n2])?;
//! let n4 = net.add_node(NodeFn::Not, vec![n3])?;
//! net.add_output("out", n4);
//!
//! let graph = SeqGraph::from_network(&net, |_| 1.0)?;
//! assert_eq!(graph.clock_period()?, 3.0);
//! let result = retime::minimize_period(&graph)?;
//! assert_eq!(result.period, 2.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod graph;
pub mod retime;
pub mod seqmap;

pub use error::RetimeError;
pub use graph::{SeqEdge, SeqGraph, SeqVertex};
pub use retime::{minimize_period, Retiming};
pub use seqmap::{min_cycle_period, period_feasible, SeqMapResult};
