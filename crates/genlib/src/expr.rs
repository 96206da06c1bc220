use std::fmt;

use dagmap_netlist::{Network, NodeFn, NodeId};

use crate::GenlibError;

/// A Boolean expression in genlib syntax.
///
/// Supports `!x` and `x'` complement, `*` conjunction, `+` disjunction,
/// parentheses, and the `CONST0`/`CONST1` keywords. `And`/`Or` are n-ary and
/// flattened.
///
/// ```
/// use dagmap_genlib::Expr;
///
/// # fn main() -> Result<(), dagmap_genlib::GenlibError> {
/// let e = Expr::parse("!(a*b) + c'")?;
/// assert_eq!(e.vars(), ["a", "b", "c"]);
/// // a=1 b=1 c=1: !(1) + !1 = 0
/// assert!(!e.eval(&|v| v != "zzz"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// `CONST0` / `CONST1`.
    Const(bool),
    /// A named input pin.
    Var(String),
    /// Complement.
    Not(Box<Expr>),
    /// n-ary conjunction (flattened, at least two terms).
    And(Vec<Expr>),
    /// n-ary disjunction (flattened, at least two terms).
    Or(Vec<Expr>),
}

struct Tokens<'a> {
    text: &'a str,
    pos: usize,
}

#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    Bang,
    Quote,
    Star,
    Plus,
    LParen,
    RParen,
    End,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens { text, pos: 0 }
    }

    fn peek(&mut self) -> Result<Tok, GenlibError> {
        let save = self.pos;
        let t = self.next()?;
        self.pos = save;
        Ok(t)
    }

    fn next(&mut self) -> Result<Tok, GenlibError> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Tok::End);
        }
        let c = bytes[self.pos];
        self.pos += 1;
        Ok(match c {
            b'!' => Tok::Bang,
            b'\'' => Tok::Quote,
            b'*' => Tok::Star,
            b'+' => Tok::Plus,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            _ if c.is_ascii_alphanumeric() || c == b'_' || c == b'[' || c == b']' || c == b'.' => {
                let start = self.pos - 1;
                while self.pos < bytes.len() {
                    let d = bytes[self.pos];
                    if d.is_ascii_alphanumeric() || d == b'_' || d == b'[' || d == b']' || d == b'.'
                    {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Tok::Ident(self.text[start..self.pos].to_owned())
            }
            other => {
                return Err(GenlibError::ParseExpr(format!(
                    "unexpected character `{}`",
                    other as char
                )))
            }
        })
    }
}

impl Expr {
    /// Parses genlib expression syntax.
    ///
    /// # Errors
    ///
    /// Returns [`GenlibError::ParseExpr`] on malformed input.
    pub fn parse(text: &str) -> Result<Expr, GenlibError> {
        let mut toks = Tokens::new(text);
        let e = parse_or(&mut toks)?;
        match toks.next()? {
            Tok::End => Ok(e),
            t => Err(GenlibError::ParseExpr(format!(
                "trailing tokens near {t:?}"
            ))),
        }
    }

    /// Input names in order of first occurrence.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expr::Not(e) => e.collect_vars(out),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
        }
    }

    /// Evaluates under an assignment function.
    pub fn eval(&self, assign: &impl Fn(&str) -> bool) -> bool {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => assign(v),
            Expr::Not(e) => !e.eval(assign),
            Expr::And(es) => es.iter().all(|e| e.eval(assign)),
            Expr::Or(es) => es.iter().any(|e| e.eval(assign)),
        }
    }

    /// Number of literal occurrences (a simple area proxy).
    pub fn num_literals(&self) -> usize {
        match self {
            Expr::Const(_) => 0,
            Expr::Var(_) => 1,
            Expr::Not(e) => e.num_literals(),
            Expr::And(es) | Expr::Or(es) => es.iter().map(Expr::num_literals).sum(),
        }
    }

    /// Truth table over `vars` (at most 16 of them).
    ///
    /// # Errors
    ///
    /// Fails if more than 16 variables are requested or the expression uses a
    /// variable outside `vars`.
    pub fn truth_table(&self, vars: &[String]) -> Result<TruthTable, GenlibError> {
        TruthTable::from_fn(vars.len(), |m| {
            self.eval(&|name| {
                vars.iter()
                    .position(|v| v == name)
                    .map(|i| (m >> i) & 1 == 1)
                    .unwrap_or(false)
            })
        })
        .ok_or_else(|| GenlibError::Validate(format!("{} inputs exceed 16", vars.len())))
    }

    /// Lowers the expression into `net` as binary `And`/`Or`/`Not` nodes over
    /// the signals `pin` resolves variable names to, shaping n-ary operators
    /// per `shape`.
    ///
    /// The same lowering convention is used for subject graphs, so gate
    /// patterns and subject structures decompose identically. `scratch`
    /// holds n-ary operators' terms while they are reduced and is left as
    /// it was found, so one buffer serves any number of lowerings.
    ///
    /// # Panics
    ///
    /// Panics if `pin` resolves a variable of the expression to `None`.
    pub fn lower_into(
        &self,
        net: &mut Network,
        pin: &impl Fn(&str) -> Option<NodeId>,
        shape: TreeShape,
        scratch: &mut Vec<NodeId>,
    ) -> NodeId {
        match self {
            Expr::Const(v) => net
                .add_node(NodeFn::Const(*v), [])
                .expect("constants are nullary"),
            Expr::Var(v) => pin(v).unwrap_or_else(|| panic!("pin `{v}` missing from binding")),
            Expr::Not(e) => {
                let x = e.lower_into(net, pin, shape, scratch);
                net.add_node(NodeFn::Not, [x]).expect("arity 1")
            }
            Expr::And(es) => lower_nary(net, pin, shape, es, NodeFn::And, scratch),
            Expr::Or(es) => lower_nary(net, pin, shape, es, NodeFn::Or, scratch),
        }
    }
}

/// Lowers the terms onto the end of `stack`, reduces them there and
/// truncates `stack` back, so nested operators share one buffer.
fn lower_nary(
    net: &mut Network,
    pin: &impl Fn(&str) -> Option<NodeId>,
    shape: TreeShape,
    es: &[Expr],
    op: NodeFn,
    stack: &mut Vec<NodeId>,
) -> NodeId {
    let base = stack.len();
    for e in es {
        let term = e.lower_into(net, pin, shape, stack);
        stack.push(term);
    }
    let root = match shape {
        TreeShape::Balanced => {
            // Neighbours pair level by level, left to right, in place.
            let mut len = stack.len() - base;
            while len > 1 {
                let half = len.div_ceil(2);
                for i in 0..half {
                    let a = stack[base + 2 * i];
                    stack[base + i] = if 2 * i + 1 < len {
                        let b = stack[base + 2 * i + 1];
                        net.add_node(op.clone(), [a, b]).expect("arity 2")
                    } else {
                        a
                    };
                }
                len = half;
            }
            stack[base]
        }
        TreeShape::LeftChain => {
            let mut acc = stack[base];
            for &t in &stack[base + 1..] {
                acc = net.add_node(op.clone(), [acc, t]).expect("arity 2");
            }
            acc
        }
    };
    stack.truncate(base);
    root
}

/// How n-ary operators are shaped when decomposed into binary nodes.
///
/// Both shapes are generated as patterns for every gate (and deduplicated
/// when equal), enlarging the expanded pattern set exactly like the input
/// permutations footnote 2 of the paper describes.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum TreeShape {
    /// Minimum-depth pairing (`((a·b)·(c·d))`).
    Balanced,
    /// Maximum-depth chain (`((a·b)·c)·d`), matching ripple structures.
    LeftChain,
}

impl TreeShape {
    /// Both shapes, in generation order.
    pub const ALL: [TreeShape; 2] = [TreeShape::Balanced, TreeShape::LeftChain];
}

fn parse_or(toks: &mut Tokens) -> Result<Expr, GenlibError> {
    let mut terms = vec![parse_and(toks)?];
    while toks.peek()? == Tok::Plus {
        toks.next()?;
        terms.push(parse_and(toks)?);
    }
    Ok(if terms.len() == 1 {
        terms.pop().expect("one term")
    } else {
        Expr::Or(flatten(terms, true))
    })
}

fn parse_and(toks: &mut Tokens) -> Result<Expr, GenlibError> {
    let mut terms = vec![parse_lit(toks)?];
    loop {
        match toks.peek()? {
            Tok::Star => {
                toks.next()?;
                terms.push(parse_lit(toks)?);
            }
            // Juxtaposition (`a b` or `a(b+c)`) also means AND in genlib.
            Tok::Ident(_) | Tok::LParen | Tok::Bang => {
                terms.push(parse_lit(toks)?);
            }
            _ => break,
        }
    }
    Ok(if terms.len() == 1 {
        terms.pop().expect("one term")
    } else {
        Expr::And(flatten(terms, false))
    })
}

fn flatten(terms: Vec<Expr>, or: bool) -> Vec<Expr> {
    let mut out = Vec::with_capacity(terms.len());
    for t in terms {
        match (or, t) {
            (true, Expr::Or(inner)) => out.extend(inner),
            (false, Expr::And(inner)) => out.extend(inner),
            (_, other) => out.push(other),
        }
    }
    out
}

fn parse_lit(toks: &mut Tokens) -> Result<Expr, GenlibError> {
    let mut e = match toks.next()? {
        Tok::Bang => {
            let inner = parse_lit(toks)?;
            Expr::Not(Box::new(inner))
        }
        Tok::LParen => {
            let inner = parse_or(toks)?;
            match toks.next()? {
                Tok::RParen => inner,
                t => return Err(GenlibError::ParseExpr(format!("expected `)`, found {t:?}"))),
            }
        }
        Tok::Ident(name) => match name.as_str() {
            "CONST0" => Expr::Const(false),
            "CONST1" => Expr::Const(true),
            _ => Expr::Var(name),
        },
        t => return Err(GenlibError::ParseExpr(format!("unexpected token {t:?}"))),
    };
    while toks.peek()? == Tok::Quote {
        toks.next()?;
        e = Expr::Not(Box::new(e));
    }
    Ok(e)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(e: &Expr) -> u8 {
            match e {
                Expr::Or(_) => 0,
                Expr::And(_) => 1,
                _ => 2,
            }
        }
        fn write_child(e: &Expr, min: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if prec(e) < min {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        }
        match self {
            Expr::Const(false) => f.write_str("CONST0"),
            Expr::Const(true) => f.write_str("CONST1"),
            Expr::Var(v) => f.write_str(v),
            Expr::Not(e) => {
                f.write_str("!")?;
                write_child(e, 2, f)
            }
            Expr::And(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str("*")?;
                    }
                    write_child(e, 1, f)?;
                }
                Ok(())
            }
            Expr::Or(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str("+")?;
                    }
                    write_child(e, 1, f)?;
                }
                Ok(())
            }
        }
    }
}

/// A truth table of up to 16 inputs, one bit per minterm.
///
/// ```
/// use dagmap_genlib::{Expr, TruthTable};
///
/// # fn main() -> Result<(), dagmap_genlib::GenlibError> {
/// let e = Expr::parse("a*b")?;
/// let tt = e.truth_table(&e.vars())?;
/// assert!(tt.bit(0b11));
/// assert!(!tt.bit(0b01));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// Returns `None` if `num_vars > 16`.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(usize) -> bool) -> Option<TruthTable> {
        if num_vars > 16 {
            return None;
        }
        let minterms = 1usize << num_vars;
        let mut words = vec![0u64; minterms.div_ceil(64)];
        for m in 0..minterms {
            if f(m) {
                words[m / 64] |= 1 << (m % 64);
            }
        }
        Some(TruthTable { num_vars, words })
    }

    /// Number of inputs.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Value at a minterm (input `i` is bit `i` of `minterm`).
    pub fn bit(&self, minterm: usize) -> bool {
        (self.words[minterm / 64] >> (minterm % 64)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn parses_precedence() {
        let e = Expr::parse("a+b*c").unwrap();
        assert_eq!(
            e,
            Expr::Or(vec![
                Expr::Var("a".into()),
                Expr::And(vec![Expr::Var("b".into()), Expr::Var("c".into())]),
            ])
        );
    }

    #[test]
    fn postfix_quote_complements() {
        let e = Expr::parse("(a+b)'").unwrap();
        assert!(!e.eval(&|_| true));
        assert!(e.eval(&|_| false));
    }

    #[test]
    fn juxtaposition_is_and() {
        let e = Expr::parse("a b").unwrap();
        assert_eq!(e, Expr::parse("a*b").unwrap());
    }

    #[test]
    fn nested_flattening() {
        let e = Expr::parse("a*(b*c)*d").unwrap();
        match e {
            Expr::And(terms) => assert_eq!(terms.len(), 4),
            other => panic!("expected flattened AND, got {other:?}"),
        }
    }

    #[test]
    fn consts_parse() {
        assert_eq!(Expr::parse("CONST1").unwrap(), Expr::Const(true));
        assert!(Expr::parse("a+CONST0").unwrap().eval(&|_| true));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Expr::parse("a+@").is_err());
        assert!(Expr::parse("(a").is_err());
        assert!(Expr::parse("a b )").is_err());
        assert!(Expr::parse("").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in ["!(a*b)+c'", "a*b*c", "(a+b)*(c+d)", "!(a+!(b*c))"] {
            let e = Expr::parse(text).unwrap();
            let again = Expr::parse(&e.to_string()).unwrap();
            let vars = e.vars();
            assert_eq!(
                e.truth_table(&vars).unwrap(),
                again.truth_table(&vars).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn truth_tables_match_eval() {
        let e = Expr::parse("a*!b + !a*b").unwrap();
        let tt = e.truth_table(&e.vars()).unwrap();
        assert!(!tt.bit(0b00));
        assert!(tt.bit(0b01));
        assert!(tt.bit(0b10));
        assert!(!tt.bit(0b11));
    }

    #[test]
    fn lowering_preserves_function() {
        use dagmap_netlist::sim::Simulator;
        let e = Expr::parse("!(a*b*c) + d").unwrap();
        for shape in TreeShape::ALL {
            let mut net = Network::new("g");
            let mut pins = HashMap::new();
            for v in e.vars() {
                let id = net.add_input(&v);
                pins.insert(v, id);
            }
            let out = e.lower_into(&mut net, &|v| pins.get(v).copied(), shape, &mut Vec::new());
            net.add_output("o", out);
            let sim = Simulator::new(&net).unwrap();
            let words: Vec<u64> = (0..4)
                .map(|i| dagmap_netlist::sim::exhaustive_word(i).unwrap())
                .collect();
            let v = sim.eval(&words);
            let got = v.output(&net, "o").unwrap();
            for lane in 0..16usize {
                let expect = e.eval(&|name| {
                    let idx = e.vars().iter().position(|x| x == name).unwrap();
                    (lane >> idx) & 1 == 1
                });
                assert_eq!(
                    (got >> lane) & 1 == 1,
                    expect,
                    "lane {lane} shape {shape:?}"
                );
            }
        }
    }

    #[test]
    fn shapes_differ_in_depth() {
        let e = Expr::parse("a*b*c*d*e*f*g*h").unwrap();
        let depth = |shape| {
            let mut net = Network::new("g");
            let mut pins = HashMap::new();
            for v in e.vars() {
                let id = net.add_input(&v);
                pins.insert(v, id);
            }
            let out = e.lower_into(&mut net, &|v| pins.get(v).copied(), shape, &mut Vec::new());
            net.add_output("o", out);
            dagmap_netlist::sta::unit_depth(&net).unwrap()
        };
        assert_eq!(depth(TreeShape::Balanced), 3);
        assert_eq!(depth(TreeShape::LeftChain), 7);
    }
}
