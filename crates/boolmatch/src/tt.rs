//! Small truth tables (≤ 6 inputs, one `u64`) with support reduction,
//! permutation-canonical (P) and negation-permutation-negation-canonical
//! (NPN) forms.

use std::fmt;

/// Largest supported input count (one 64-bit word of minterms).
pub const MAX_INPUTS: usize = 6;

/// Minterm masks selecting the half-space where input `i` is 0 — the
/// building block of input negation (`flip_input`), input exchange
/// (`swap_inputs`) and the dependence test.
const FLIP_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Negates input `i` of a truth table: swaps the two cofactor half-spaces.
fn flip_input(bits: u64, i: usize) -> u64 {
    let s = 1u32 << i;
    ((bits & FLIP_MASKS[i]) << s) | ((bits >> s) & FLIP_MASKS[i])
}

/// Exchanges inputs `i` and `j` of a truth table: one delta swap moves
/// every minterm with input `lo` = 1, `hi` = 0 to its partner with the two
/// bits exchanged, `2^hi - 2^lo` positions up.
fn swap_inputs(bits: u64, i: usize, j: usize) -> u64 {
    if i == j {
        return bits;
    }
    let (lo, hi) = (i.min(j), i.max(j));
    let shift = (1u32 << hi) - (1u32 << lo);
    let pairs = !FLIP_MASKS[lo] & FLIP_MASKS[hi];
    let delta = ((bits >> shift) ^ bits) & pairs;
    bits ^ delta ^ (delta << shift)
}

/// An input permutation stored inline; entries past the table's input
/// count are unused.
type Perm = [u8; MAX_INPUTS];

const IDENTITY: Perm = [0, 1, 2, 3, 4, 5];

/// Widens the first `n` entries of an inline permutation.
fn perm_vec(perm: &Perm, n: usize) -> Vec<usize> {
    perm[..n].iter().map(|&p| usize::from(p)).collect()
}

/// Mask selecting the meaningful minterm bits for `n` inputs.
fn mask(n: usize) -> u64 {
    if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

/// A completely-specified Boolean function of up to [`MAX_INPUTS`] inputs:
/// bit `m` holds the value on minterm `m` (input `i` = bit `i` of `m`).
///
/// ```
/// use dagmap_boolmatch::TruthTable;
///
/// let and2 = TruthTable::from_fn(2, |m| m == 0b11);
/// assert!(and2.depends_on(0) && and2.depends_on(1));
/// assert_eq!(and2.num_inputs(), 2);
/// ```
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    bits: u64,
    num_inputs: u8,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_INPUTS`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> bool) -> TruthTable {
        assert!(n <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
        let mut bits = 0u64;
        for m in 0..(1usize << n) {
            if f(m) {
                bits |= 1 << m;
            }
        }
        TruthTable {
            bits,
            num_inputs: u8::try_from(n).expect("n is tiny"),
        }
    }

    /// Wraps raw minterm bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_INPUTS`.
    pub fn from_bits(n: usize, bits: u64) -> TruthTable {
        assert!(n <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
        TruthTable {
            bits: bits & mask(n),
            num_inputs: u8::try_from(n).expect("n is tiny"),
        }
    }

    /// Raw minterm bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Value on one minterm.
    pub fn eval(&self, minterm: usize) -> bool {
        (self.bits >> minterm) & 1 == 1
    }

    /// True when the function is constant.
    pub fn is_constant(&self) -> bool {
        let m = mask(self.num_inputs());
        self.bits == 0 || self.bits == m
    }

    /// True when the output actually depends on input `i`; always false
    /// for an input the table does not have (`i >= num_inputs()`).
    pub fn depends_on(&self, i: usize) -> bool {
        i < self.num_inputs() && ((self.bits >> (1u32 << i)) ^ self.bits) & FLIP_MASKS[i] != 0
    }

    /// Drops inputs the function does not depend on, returning the reduced
    /// table and the kept original input positions (ascending).
    pub fn reduce_support(&self) -> (TruthTable, Vec<usize>) {
        let (reduced, kept) = self.shrink_support();
        (reduced, perm_vec(&kept, reduced.num_inputs()))
    }

    /// [`TruthTable::reduce_support`] without allocation: the kept
    /// positions are the first `reduced.num_inputs()` entries of the array.
    /// Each live input is swapped down into the next free slot, so the live
    /// inputs keep their order and the dead ones end up above the new width.
    pub(crate) fn shrink_support(&self) -> (TruthTable, Perm) {
        let mut bits = self.bits;
        let mut kept = IDENTITY;
        let mut width = 0;
        for i in 0..self.num_inputs() {
            if self.depends_on(i) {
                bits = swap_inputs(bits, width, i);
                kept[width] = i as u8;
                width += 1;
            }
        }
        (TruthTable::from_bits(width, bits), kept)
    }

    /// Applies an input permutation: input `i` of the result reads what
    /// input `perm[i]` of `self` read, i.e.
    /// `result(x_0..x_{n-1}) = self(x_{σ^{-1}(0)}, ...)` arranged so that
    /// `permute(perm).eval(m) == self.eval(apply(perm, m))` where
    /// `apply` moves bit `i` of `m` to position `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_inputs`.
    pub fn permute(&self, perm: &[usize]) -> TruthTable {
        let n = self.num_inputs();
        assert_eq!(perm.len(), n, "permutation length");
        TruthTable::from_fn(n, |m| {
            let mut original = 0usize;
            for (i, &p) in perm.iter().enumerate() {
                if (m >> i) & 1 == 1 {
                    original |= 1 << p;
                }
            }
            self.eval(original)
        })
    }

    /// The lexicographically-smallest table over all input permutations,
    /// together with one permutation `perm` achieving it
    /// (`self.permute(&perm) == canonical`). Functions are P-equivalent iff
    /// their canonical tables are equal. The witness is the first
    /// permutation reaching the minimum in one fixed order: depth first,
    /// position `k` exchanged with each position `i ≥ k` in turn.
    pub fn p_canonical(&self) -> (TruthTable, Vec<usize>) {
        let n = self.num_inputs();
        let mut best = (self.bits, IDENTITY);
        for_each_permutation(self.bits, n, &mut |bits, perm| {
            if bits < best.0 {
                best = (bits, *perm);
            }
        });
        (self.with_bits(best.0), perm_vec(&best.1, n))
    }

    /// Applies a full NPN transform: permutation, per-input negation, output
    /// negation. Defined so that `self.apply_npn(&t)` evaluated on minterm
    /// `m` reads original input `t.perm[i]` as `m_i ^ t.input_neg_i` and
    /// XORs the result with `t.output_neg` — i.e. the transform's *result*
    /// input `i` corresponds to `self`'s input `t.perm[i]`, possibly
    /// negated.
    ///
    /// # Panics
    ///
    /// Panics if `t.perm` is not a permutation of `0..num_inputs`.
    pub fn apply_npn(&self, t: &NpnTransform) -> TruthTable {
        let n = self.num_inputs();
        assert_eq!(t.perm.len(), n, "transform arity");
        TruthTable::from_fn(n, |m| {
            let mut original = 0usize;
            for (i, &p) in t.perm.iter().enumerate() {
                if ((m >> i) & 1 == 1) != ((t.input_neg >> i) & 1 == 1) {
                    original |= 1 << p;
                }
            }
            self.eval(original) != t.output_neg
        })
    }

    /// The lexicographically-smallest table over all input permutations,
    /// input negations and output negation, with one transform achieving it
    /// (`self.apply_npn(&t) == canonical`). Functions are NPN-equivalent iff
    /// their canonical tables are equal — so a NOR cone and an OR gate land
    /// in one class, where [`TruthTable::p_canonical`] keeps them apart.
    ///
    /// The search walks the permutations in [`TruthTable::p_canonical`]'s
    /// order, sweeps each one's `2^n` input negations in Gray-code order
    /// (one cofactor swap each) and tests both output polarities per step;
    /// the first transform reaching the minimum in that fixed order is
    /// returned, so the witness is deterministic. Permutations and sweep
    /// quarters that provably hold no smaller candidate are skipped, which
    /// cannot change that first transform.
    pub fn npn_canonical(&self) -> (TruthTable, NpnTransform) {
        let c = self.canonical();
        let t = NpnTransform {
            perm: perm_vec(&c.npn_perm, self.num_inputs()),
            input_neg: c.input_neg,
            output_neg: c.output_neg,
        };
        debug_assert_eq!(self.apply_npn(&t), c.npn, "witness replays");
        (c.npn, t)
    }

    /// Both canonical forms in one permutation walk. The P candidate of
    /// each permutation is the first (no negation) candidate of its NPN
    /// sweep, so the P half equals [`TruthTable::p_canonical`]'s result,
    /// witness included; [`TruthTable::npn_canonical`] returns the NPN
    /// half.
    pub(crate) fn canonical(&self) -> Canonical {
        let n = self.num_inputs();
        let mut p = (self.bits, IDENTITY);
        let mut npn = NpnSearch::new(n);
        for_each_permutation(self.bits, n, &mut |bits, perm| {
            if bits < p.0 {
                p = (bits, *perm);
            }
            npn.sweep(bits, perm);
        });
        Canonical {
            p: self.with_bits(p.0),
            p_perm: p.1,
            npn: self.with_bits(npn.best),
            npn_perm: npn.perm,
            input_neg: npn.input_neg,
            output_neg: npn.output_neg,
        }
    }

    /// A table of the same width with other minterm bits.
    fn with_bits(&self, bits: u64) -> TruthTable {
        TruthTable {
            bits,
            num_inputs: self.num_inputs,
        }
    }
}

/// Both canonical forms of one function with their witnesses, inline:
/// what Boolean matching records once per distinct cut function. The
/// fields mean what [`TruthTable::p_canonical`]'s permutation and
/// [`TruthTable::npn_canonical`]'s [`NpnTransform`] mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Canonical {
    pub(crate) p: TruthTable,
    pub(crate) p_perm: Perm,
    pub(crate) npn: TruthTable,
    pub(crate) npn_perm: Perm,
    pub(crate) input_neg: u8,
    pub(crate) output_neg: bool,
}

/// The running minimum of an NPN search and its transform.
struct NpnSearch {
    n: usize,
    mask: u64,
    best: u64,
    perm: Perm,
    input_neg: u8,
    output_neg: bool,
}

impl NpnSearch {
    /// Starts from the all-ones table under the identity transform.
    fn new(n: usize) -> NpnSearch {
        NpnSearch {
            n,
            mask: mask(n),
            best: mask(n),
            perm: IDENTITY,
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Offers every input negation of one permuted table, in Gray-code
    /// order: gray(g) and gray(g+1) differ in bit `trailing_ones(g)`, so
    /// each step is one half-space swap. Both output polarities are tested
    /// per step, and only a strictly smaller table replaces the minimum.
    ///
    /// Gray order fixes the negations of the top two inputs over each
    /// quarter of the sweep, so each quarter's candidates carry two known
    /// cofactors in their top two quarters. A quarter is skipped when the
    /// smallest table with those cofactors' ones counts (complemented, for
    /// the negated output) is no smaller than the minimum so far: none of
    /// its candidates could replace it.
    fn sweep(&mut self, permuted: u64, perm: &Perm) {
        let n = self.n;
        let steps = 1u32 << n;
        if n < 2 {
            self.run(permuted, perm, 0, steps);
            return;
        }
        // A quarter of the sweep has as many steps as a cofactor on the
        // top two inputs has minterms.
        let quarter = steps / 4;
        let (upper, left) = (!FLIP_MASKS[n - 1], !FLIP_MASKS[n - 2]);
        let ones = [
            [
                (permuted & !upper & !left).count_ones(),
                (permuted & !upper & left).count_ones(),
            ],
            [
                (permuted & upper & !left).count_ones(),
                (permuted & upper & left).count_ones(),
            ],
        ];
        let smallest = |top: u32, next: u32| {
            (((1u64 << top) - 1) << (3 * quarter)) | (((1u64 << next) - 1) << (2 * quarter))
        };
        for start in (0..steps).step_by(quarter as usize) {
            let neg = start ^ (start >> 1);
            let (a, b) = ((neg >> (n - 1)) as usize & 1, (neg >> (n - 2)) as usize & 1);
            let (top, next) = (ones[1 ^ a][1 ^ b], ones[1 ^ a][b]);
            let floor = smallest(top, next).min(smallest(quarter - top, quarter - next));
            if floor < self.best {
                self.run(negate_inputs(permuted, neg), perm, start, start + quarter);
            }
        }
    }

    /// Tests Gray steps `start..end`, given `bits` negated by gray(start).
    fn run(&mut self, mut bits: u64, perm: &Perm, start: u32, end: u32) {
        for g in start..end {
            let neg = (g ^ (g >> 1)) as u8;
            for (cand, out) in [(bits, false), (!bits & self.mask, true)] {
                if cand < self.best {
                    self.best = cand;
                    self.perm = *perm;
                    self.input_neg = neg;
                    self.output_neg = out;
                }
            }
            if g + 1 < end {
                bits = flip_input(bits, (g + 1).trailing_zeros() as usize);
            }
        }
    }
}

/// Negates every input selected by `neg`.
fn negate_inputs(mut bits: u64, neg: u32) -> u64 {
    for i in 0..MAX_INPUTS {
        if (neg >> i) & 1 == 1 {
            bits = flip_input(bits, i);
        }
    }
    bits
}

/// A recorded NPN transform: `f.apply_npn(&t)` permutes inputs by
/// `t.perm`, negates the inputs selected by `t.input_neg` and XORs the
/// output with `t.output_neg`. Matching composes two of these (the cut's
/// and the gate's canonicalizers) to derive pin bindings and polarities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnTransform {
    /// Result input `i` reads original input `perm[i]`.
    pub perm: Vec<usize>,
    /// Bit `i`: result input `i` is negated relative to original input
    /// `perm[i]`.
    pub input_neg: u8,
    /// The result is the complement of the original function.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform on `n` inputs.
    pub fn identity(n: usize) -> NpnTransform {
        NpnTransform {
            perm: (0..n).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Visits the input permutations of an `n`-input table in one fixed
/// order — depth first, position `k` exchanged with each position `i ≥ k`
/// in turn — passing the permuted table (`permute(perm)`'s bits) with the
/// permutation. The table is carried down the recursion: each exchange of
/// `perm[k]` and `perm[i]` is one delta swap of inputs `k` and `i`, so no
/// candidate is rebuilt minterm by minterm.
///
/// An exchange that yields the same table as an earlier sibling's (inputs
/// `k` and `i` symmetric) is skipped: its subtree would repeat that
/// sibling's tables leaf for leaf. Every distinct table is still visited
/// at the first permutation producing it, so a search that keeps only
/// strictly smaller tables finds the same minimum and witness as the full
/// walk.
fn for_each_permutation(bits: u64, n: usize, visit: &mut impl FnMut(u64, &Perm)) {
    fn walk(bits: u64, perm: &mut Perm, k: usize, n: usize, visit: &mut impl FnMut(u64, &Perm)) {
        if k == n {
            visit(bits, perm);
            return;
        }
        let mut siblings = [0u64; MAX_INPUTS];
        for i in k..n {
            let next = swap_inputs(bits, k, i);
            if siblings[..i - k].contains(&next) {
                continue;
            }
            siblings[i - k] = next;
            perm.swap(k, i);
            walk(next, perm, k + 1, n, visit);
            perm.swap(k, i);
        }
    }
    let mut perm = IDENTITY;
    walk(bits, &mut perm, 0, n, visit);
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:0width$b}",
            self.bits,
            width = 1usize << self.num_inputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_reduction_drops_dead_inputs() {
        // f(a, b, c) = a & c (b is dead).
        let t = TruthTable::from_fn(3, |m| (m & 0b101) == 0b101);
        let (r, kept) = t.reduce_support();
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(r.num_inputs(), 2);
        assert!(r.eval(0b11));
        assert!(!r.eval(0b01));
    }

    #[test]
    fn permutation_semantics() {
        // f(a, b) = a & !b; swapping inputs gives !a & b.
        let t = TruthTable::from_fn(2, |m| m == 0b01);
        let swapped = t.permute(&[1, 0]);
        assert!(swapped.eval(0b10));
        assert!(!swapped.eval(0b01));
    }

    #[test]
    fn canonical_forms_identify_p_equivalent_functions() {
        // a & !b & c under all input orders canonicalizes identically.
        let base = TruthTable::from_fn(3, |m| m == 0b101);
        let variants = [
            base,
            base.permute(&[1, 0, 2]),
            base.permute(&[2, 1, 0]),
            base.permute(&[1, 2, 0]),
        ];
        let canon = base.p_canonical().0;
        for v in variants {
            assert_eq!(v.p_canonical().0, canon);
        }
        // A different function does not collide.
        let other = TruthTable::from_fn(3, |m| m == 0b111);
        assert_ne!(other.p_canonical().0, canon);
    }

    #[test]
    fn canonical_permutation_is_a_witness() {
        let t = TruthTable::from_fn(4, |m| (m.count_ones() & 1) == 1 || m == 0b1100);
        let (canon, perm) = t.p_canonical();
        assert_eq!(t.permute(&perm), canon);
    }

    #[test]
    fn constants_and_dependence() {
        let zero = TruthTable::from_bits(3, 0);
        assert!(zero.is_constant());
        assert!(!zero.depends_on(1));
        let one = TruthTable::from_fn(2, |_| true);
        assert!(one.is_constant());
    }

    #[test]
    fn masks_out_excess_bits() {
        let t = TruthTable::from_bits(2, u64::MAX);
        assert_eq!(t.bits(), 0b1111);
    }

    #[test]
    fn nor_and_or_share_an_npn_class_but_not_a_p_class() {
        // The satellite-bug regression pair: P-only canonicalization keeps a
        // NOR cone and an OR gate apart (structural bias the paper's §4
        // concedes); NPN identifies them through output negation.
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let nor2 = TruthTable::from_fn(2, |m| m == 0);
        assert_ne!(or2.p_canonical().0, nor2.p_canonical().0);
        assert_eq!(or2.npn_canonical().0, nor2.npn_canonical().0);
    }

    #[test]
    fn the_and_or_nand_nor_family_is_one_npn_class() {
        let and2 = TruthTable::from_fn(2, |m| m == 0b11);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let nand2 = TruthTable::from_fn(2, |m| m != 0b11);
        let nor2 = TruthTable::from_fn(2, |m| m == 0);
        let canon = and2.npn_canonical().0;
        for f in [or2, nand2, nor2] {
            assert_eq!(f.npn_canonical().0, canon);
        }
        // XOR is a different class.
        let xor2 = TruthTable::from_fn(2, |m| (m.count_ones() & 1) == 1);
        assert_ne!(xor2.npn_canonical().0, canon);
    }

    #[test]
    fn npn_transform_is_a_witness() {
        for (n, bits) in [
            (2, 0b0110u64),
            (3, 0b1011_0010),
            (4, 0xB6A1),
            (5, 0xDEAD_BEEF),
            (6, 0x0123_4567_89AB_CDEF),
        ] {
            let t = TruthTable::from_bits(n, bits);
            let (canon, tr) = t.npn_canonical();
            assert_eq!(t.apply_npn(&tr), canon, "n={n}");
        }
    }

    #[test]
    fn npn_canonical_is_invariant_under_random_npn_transforms() {
        let base = TruthTable::from_fn(4, |m| (m & 0b1001) == 0b1001 || m == 0b0110);
        let canon = base.npn_canonical().0;
        // Permutations, input negations and output negation all preserve it.
        let variants = [
            base.apply_npn(&NpnTransform {
                perm: vec![2, 0, 3, 1],
                input_neg: 0b0101,
                output_neg: false,
            }),
            base.apply_npn(&NpnTransform {
                perm: vec![3, 2, 1, 0],
                input_neg: 0b1110,
                output_neg: true,
            }),
            base.apply_npn(&NpnTransform {
                perm: vec![0, 1, 2, 3],
                input_neg: 0,
                output_neg: true,
            }),
        ];
        for v in variants {
            assert_eq!(v.npn_canonical().0, canon);
        }
    }

    #[test]
    fn inputs_a_table_lacks_are_not_dependencies() {
        // Regression: an out-of-range input read as a dependency of every
        // non-constant table, and a 6-input table's `depends_on(6)` shifted
        // past the word (a panic in debug builds).
        let and2 = TruthTable::from_fn(2, |m| m == 0b11);
        assert!(!and2.depends_on(2));
        assert!(!and2.depends_on(3));
        let wide = TruthTable::from_bits(6, 0x0123_4567_89AB_CDEF);
        assert!((0..6).all(|i| wide.depends_on(i)));
        assert!(!wide.depends_on(6));
        assert!(!wide.depends_on(usize::MAX));
    }

    /// The minterm-loop canonicalizers the swap-based ones replaced, kept
    /// as the reference their tables and witnesses must equal.
    mod reference {
        use super::super::*;

        /// Every permutation of `perm[k..]`, in `for_each_permutation`'s order.
        fn permute_all(perm: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
            if k == perm.len() {
                visit(perm);
                return;
            }
            for i in k..perm.len() {
                perm.swap(k, i);
                permute_all(perm, k + 1, visit);
                perm.swap(k, i);
            }
        }

        pub(super) fn reduce_support(t: &TruthTable) -> (TruthTable, Vec<usize>) {
            let n = t.num_inputs();
            let dead = |i: usize| (0..1usize << n).all(|m| t.eval(m) == t.eval(m ^ (1 << i)));
            let support: Vec<usize> = (0..n).filter(|&i| !dead(i)).collect();
            let reduced = TruthTable::from_fn(support.len(), |m| {
                let mut full = 0usize;
                for (new_pos, &old_pos) in support.iter().enumerate() {
                    if (m >> new_pos) & 1 == 1 {
                        full |= 1 << old_pos;
                    }
                }
                t.eval(full)
            });
            (reduced, support)
        }

        pub(super) fn p_canonical(t: &TruthTable) -> (TruthTable, Vec<usize>) {
            let n = t.num_inputs();
            let mut best = *t;
            let mut best_perm: Vec<usize> = (0..n).collect();
            let mut perm: Vec<usize> = (0..n).collect();
            permute_all(&mut perm, 0, &mut |p| {
                let candidate = t.permute(p);
                if candidate.bits < best.bits {
                    best = candidate;
                    best_perm = p.to_vec();
                }
            });
            (best, best_perm)
        }

        pub(super) fn npn_canonical(t: &TruthTable) -> (TruthTable, NpnTransform) {
            let n = t.num_inputs();
            let m = mask(n);
            let mut best = TruthTable::from_bits(n, m);
            let mut best_t = NpnTransform::identity(n);
            let mut perm: Vec<usize> = (0..n).collect();
            permute_all(&mut perm, 0, &mut |p| {
                let mut bits = t.permute(p).bits;
                for g in 0..(1u32 << n) {
                    let neg = (g ^ (g >> 1)) as u8;
                    for (cand_bits, out) in [(bits, false), (!bits & m, true)] {
                        if cand_bits < best.bits {
                            best = TruthTable::from_bits(n, cand_bits);
                            best_t = NpnTransform {
                                perm: p.to_vec(),
                                input_neg: neg,
                                output_neg: out,
                            };
                        }
                    }
                    if g + 1 < (1u32 << n) {
                        bits = flip_input(bits, (g + 1).trailing_zeros() as usize);
                    }
                }
            });
            (best, best_t)
        }
    }

    /// Asserts that the swap-based support reduction and canonical forms
    /// equal the reference, witnesses included.
    fn assert_matches_reference(t: TruthTable) {
        assert_eq!(t.reduce_support(), reference::reduce_support(&t), "{t}");
        let (p, p_perm) = reference::p_canonical(&t);
        let (npn, npn_t) = reference::npn_canonical(&t);
        assert_eq!(t.p_canonical(), (p, p_perm.clone()), "{t}");
        assert_eq!(t.npn_canonical(), (npn, npn_t), "{t}");
        // The one-walk form's P half (its NPN half is `npn_canonical`).
        let c = t.canonical();
        assert_eq!(
            (c.p, perm_vec(&c.p_perm, t.num_inputs())),
            (p, p_perm),
            "{t}"
        );
    }

    #[test]
    fn swap_canonicalization_equals_the_reference_exhaustively_to_three_inputs() {
        for n in 0..=3 {
            for bits in 0..1u64 << (1 << n) {
                assert_matches_reference(TruthTable::from_bits(n, bits));
            }
        }
    }

    #[test]
    fn swap_canonicalization_equals_the_reference_on_random_wide_tables() {
        let mut rng = dagmap_rng::StdRng::seed_from_u64(0x5A4B);
        for (n, cases) in [(4, 256), (5, 64), (6, 16)] {
            for _ in 0..cases {
                let t = TruthTable::from_bits(n, rng.next_u64());
                assert_matches_reference(t);
                // Dead inputs exercise the support reduction's swaps.
                let dead = rng.random_range(0..n);
                let sparse = t.bits() & FLIP_MASKS[dead];
                assert_matches_reference(TruthTable::from_bits(
                    n,
                    sparse | (sparse << (1 << dead)),
                ));
                // Symmetric input pairs exercise the walk's skipped subtrees.
                let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
                let sym = t.bits() | swap_inputs(t.bits(), i, j);
                let sym = sym & swap_inputs(sym, 0, n - 1);
                assert_matches_reference(TruthTable::from_bits(n, sym));
            }
        }
    }

    #[test]
    fn npn_refines_p() {
        // P-equivalent functions are always NPN-equivalent.
        let t = TruthTable::from_fn(3, |m| m == 0b101 || m == 0b011);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(t.npn_canonical().0, p.npn_canonical().0);
    }
}
