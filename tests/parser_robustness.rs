//! Parser robustness: malformed BLIF and genlib inputs must produce
//! descriptive errors, never panics; well-formed expressions survive
//! print-parse round trips (seeded random sweep — the workspace builds with
//! no external property-testing framework).

use dagmap::genlib::{Expr, Library};
use dagmap::netlist::blif;
use dagmap::rng::StdRng;

#[path = "support/malformed_blif.rs"]
mod malformed_blif;

#[test]
fn malformed_blif_yields_errors_not_panics() {
    for text in malformed_blif::MALFORMED_BLIF {
        assert!(blif::parse(text).is_err(), "accepted malformed: {text:?}");
    }
}

#[test]
fn malformed_genlib_yields_errors_not_panics() {
    let corpora: &[&str] = &[
        "GATE",
        "GATE inv",
        "GATE inv area O=!a;",
        "GATE inv 1.0 O=!a",   // missing semicolon
        "GATE inv 1.0 O=!(a;", // broken expression
        "GATE inv 1.0 O=!a; PIN * BAD 1 2 3 4 5 6",
        "GATE inv 1.0 O=!a; PIN * INV 1 2 3",
        "GATE g 1.0 O=a*b; PIN a INV 1 2 3 4 5 6", // pin b missing
        "LATCH dff 1.0 Q=D;",
        "NOTAKEYWORD x",
    ];
    for text in corpora {
        assert!(
            Library::from_genlib(text).is_err(),
            "accepted malformed: {text:?}"
        );
    }
}

/// A random expression tree over `v0..v3`, at most `depth` operators deep —
/// the old proptest strategy, hand-rolled over the workspace PRNG.
fn arbitrary_expr(rng: &mut StdRng, depth: u32) -> Expr {
    let roll = if depth == 0 {
        rng.random_range(0..2u32) // leaves only
    } else {
        rng.random_range(0..5u32)
    };
    match roll {
        0 => Expr::Var(format!("v{}", rng.random_range(0..4u32))),
        1 => Expr::Const(rng.random_bool(0.5)),
        2 => Expr::Not(Box::new(arbitrary_expr(rng, depth - 1))),
        op => {
            let n = rng.random_range(2..4usize);
            let kids = (0..n).map(|_| arbitrary_expr(rng, depth - 1)).collect();
            if op == 3 {
                Expr::And(kids)
            } else {
                Expr::Or(kids)
            }
        }
    }
}

#[test]
fn expressions_round_trip_through_display() {
    let vars: Vec<String> = (0..4).map(|i| format!("v{i}")).collect();
    let mut rng = StdRng::seed_from_u64(0xE09);
    for case in 0..64 {
        let e = arbitrary_expr(&mut rng, 4);
        let text = e.to_string();
        let parsed = Expr::parse(&text).expect("printed expressions parse");
        assert_eq!(
            e.truth_table(&vars).expect("few variables"),
            parsed.truth_table(&vars).expect("few variables"),
            "case={case}: {text}"
        );
    }
}

#[test]
fn gates_from_random_expressions_build_libraries() {
    use dagmap::genlib::Gate;
    let mut rng = StdRng::seed_from_u64(0x6A7E);
    for case in 0..64 {
        let e = arbitrary_expr(&mut rng, 4);
        // Any expression with at least one variable makes a legal gate; the
        // library must either build or report a clean validation error.
        if e.vars().is_empty() {
            continue;
        }
        let gate = Gate::uniform("g", 1.0, "O", &e.to_string(), 1.0).expect("well-formed gate");
        let _ = Library::new("r", vec![gate]).unwrap_or_else(|err| {
            panic!("case={case}: single-gate library builds: {err}");
        });
    }
}
