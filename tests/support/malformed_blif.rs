//! Malformed BLIF texts every parser must reject with an error.

/// Empty files and a bare `.model` parse leniently (as empty networks), so
/// they are not here; everything structurally wrong is.
pub const MALFORMED_BLIF: &[&str] = &[
    ".names\n",
    ".model m\n.inputs a\n.outputs f\n.names a f\nxx 1\n.end",
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end",
    ".model m\n.inputs a\n.outputs f\n.names a a\n1 1\n.end", // redefines input
    ".model m\n.outputs f\n.end",                             // undefined output
    ".model m\n.inputs a\n.outputs f\n.subckt foo x=a y=f\n.end",
    ".model m\n.inputs a\n.outputs f\n.names a b f\n11 1\n.end", // undefined b
    ".model m\n.inputs a\n.outputs f\n.latch\n.end",
    "garbage tokens before any directive",
    ".model m\n.inputs a\n.outputs f\n.names a f\n1- 1\n.end", // cube too wide
];
