//! Fixed-width Montgomery arithmetic: `FpW<N>` over `[u64; N]` limbs.
//!
//! This is the allocation-free engine under the pairing hot path. A
//! [`MontCtx`] precomputes everything CIOS Montgomery multiplication
//! needs for an odd modulus of **exactly** `N` limbs (top limb
//! nonzero), so `R = 2^{64N}` — deliberately the same convention as
//! `sempair_bigint::Montgomery` for a `k = N` limb modulus, which makes
//! Montgomery-form limbs portable between the two backends with plain
//! copies.
//!
//! All constructors are `const fn`, so paper-scale parameters can be
//! instantiated at compile time (see [`crate::p512`]).
//!
//! # Lazy reduction (`Wide`)
//!
//! Quadratic-extension multiplication wants to defer reductions across
//! a mul/sub chain. The usual "no-carry" trick needs `2p < R`, which
//! the paper's 512-bit prime violates (`p > R/2`), so we instead work
//! with exact double-width values **mod `p·R`**:
//!
//! - a product of two reduced elements is `< p² < pR`;
//! - [`MontCtx::sub_wide`] keeps representatives in `[0, pR)` by
//!   adding `pR` (which is `p` shifted up `N` limbs) on borrow;
//! - **no wide additions are performed** — `2p² > pR` is possible for
//!   this prime, so chains are arranged as subtractions only;
//! - [`MontCtx::redc_wide`] reduces any `t < pR` to `t·R⁻¹ mod p`:
//!   after adding `N` rounds of `m·p` the running value is
//!   `< pR + Rp = 2pR < 2^{128N+1}` (one extra bit), and the shifted
//!   result is `< 2p`, fixed by a single conditional subtraction.
//!
//! Since `pR ≡ 0 (mod p)`, working with representatives mod `pR` never
//! changes the reduced result.

use crate::limb::{adc, bit_len, mac, sbb};

/// An `N`-limb field element in Montgomery form (little-endian limbs,
/// value `< p`).
///
/// `FpW` is a plain `Copy` value with no back-pointer to its context;
/// mixing elements of different contexts is a logic error (as with the
/// bigint backend). Secret-bearing *copies that outlive an operation*
/// should live in [`crate::secret::SecretLimbs`], which zeroizes on
/// drop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FpW<const N: usize>(pub [u64; N]);

impl<const N: usize> FpW<N> {
    /// The raw Montgomery-form limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64; N] {
        &self.0
    }

    /// `true` iff this is the zero element (all limbs zero).
    #[inline]
    pub fn is_zero(&self) -> bool {
        let mut acc = 0u64;
        let mut i = 0;
        while i < N {
            acc |= self.0[i];
            i += 1;
        }
        acc == 0
    }

    /// Constant-time equality: folds all limb differences into one
    /// accumulator, no early exit.
    #[inline]
    pub fn ct_eq(&self, other: &Self) -> bool {
        let mut acc = 0u64;
        for i in 0..N {
            acc |= self.0[i] ^ other.0[i];
        }
        acc == 0
    }

    /// Constant-time select: `a` if `flag`, else `b`, without a
    /// data-dependent branch.
    #[inline]
    pub fn select(flag: bool, a: &Self, b: &Self) -> Self {
        let mask = (flag as u64).wrapping_neg();
        let mut out = [0u64; N];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (a.0[i] & mask) | (b.0[i] & !mask);
        }
        FpW(out)
    }
}

// --- const limb helpers (usable at compile time) -------------------------

const fn limbs_ge<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    let mut i = N;
    while i > 0 {
        i -= 1;
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a - b`, returning the final borrow.
const fn limbs_sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < N {
        let (d, bo) = sbb(a[i], b[i], borrow);
        out[i] = d;
        borrow = bo;
        i += 1;
    }
    (out, borrow)
}

/// `a + b`, returning the final carry.
const fn limbs_add<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut carry = 0u64;
    let mut i = 0;
    while i < N {
        let (s, c) = adc(a[i], b[i], carry);
        out[i] = s;
        carry = c;
        i += 1;
    }
    (out, carry)
}

/// Branchless `if cond { a } else { b }` on limb arrays.
const fn limbs_select<const N: usize>(cond: bool, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mask = (cond as u64).wrapping_neg();
    let mut out = [0u64; N];
    let mut i = 0;
    while i < N {
        out[i] = (a[i] & mask) | (b[i] & !mask);
        i += 1;
    }
    out
}

/// `(sum, carry) → sum mod n`, assuming `sum + carry·2^{64N} < 2n`.
const fn reduce_once<const N: usize>(sum: [u64; N], carry: u64, n: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = limbs_sub(&sum, n);
    // If the addition carried out, the subtraction's borrow is
    // consumed by that extra bit and `diff` is the reduced value.
    limbs_select(carry == 1 || borrow == 0, &diff, &sum)
}

const fn add_mod<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N]) -> [u64; N] {
    let (sum, carry) = limbs_add(a, b);
    reduce_once(sum, carry, n)
}

/// Inverse of an odd `x` modulo `2^64` (Newton iteration).
const fn inv_mod_u64(x: u64) -> u64 {
    let mut inv = x; // correct to 3 bits: x·x ≡ 1 (mod 8) for odd x
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
        i += 1;
    }
    inv
}

/// Double-width value in `[0, p·R)` awaiting Montgomery reduction:
/// conceptually limbs `lo[0..N]` then `hi[0..N]`.
///
/// Built by [`MontCtx::mul_wide`], combined with
/// [`MontCtx::sub_wide`] (subtraction only — see the module docs for
/// why additions are excluded), consumed by [`MontCtx::redc_wide`].
#[derive(Clone, Copy, Debug)]
pub struct Wide<const N: usize> {
    lo: [u64; N],
    hi: [u64; N],
}

/// Precomputed Montgomery context for an odd modulus of exactly `N`
/// nonzero-top limbs.
#[derive(Clone, Debug)]
pub struct MontCtx<const N: usize> {
    n: [u64; N],
    n0_inv: u64,  // -n⁻¹ mod 2^64
    r1: [u64; N], // R mod n (Montgomery form of 1)
    r2: [u64; N], // R² mod n
    /// `(p + 1) / 4` when `p ≡ 3 (mod 4)` — the square-root exponent.
    sqrt_exp: Option<[u64; N]>,
}

impl<const N: usize> MontCtx<N> {
    /// Builds a context at compile time; panics (at compile time when
    /// used in a `const`) if the modulus is invalid.
    pub const fn new(n: [u64; N]) -> Self {
        match Self::new_checked(n) {
            Some(ctx) => ctx,
            None => panic!("MontCtx: modulus must be odd with a nonzero top limb"),
        }
    }

    /// Builds a context, returning `None` for an invalid modulus
    /// (`N = 0`, even, or top limb zero — i.e. the width must be exact).
    pub const fn new_checked(n: [u64; N]) -> Option<Self> {
        if N == 0 || n[0] & 1 == 0 || n[N - 1] == 0 {
            return None;
        }
        let n0_inv = inv_mod_u64(n[0]).wrapping_neg();
        // R mod n by 64N doublings of 1, then R² by 64N more.
        let mut one = [0u64; N];
        one[0] = 1;
        let mut acc = one;
        let mut i = 0;
        while i < 64 * N {
            acc = add_mod(&acc, &acc, &n);
            i += 1;
        }
        let r1 = acc;
        let mut i = 0;
        while i < 64 * N {
            acc = add_mod(&acc, &acc, &n);
            i += 1;
        }
        let r2 = acc;
        let sqrt_exp = if n[0] & 3 == 3 {
            // (n + 1) / 4: the +1 may carry out of N limbs (n + 1 can
            // be exactly 2^{64N}); inject that carry while shifting.
            let (n1, carry) = limbs_add(&n, &one);
            let mut e = [0u64; N];
            let mut i = 0;
            while i < N {
                let next = if i + 1 < N { n1[i + 1] } else { carry };
                e[i] = (n1[i] >> 2) | (next << 62);
                i += 1;
            }
            Some(e)
        } else {
            None
        };
        Some(MontCtx {
            n,
            n0_inv,
            r1,
            r2,
            sqrt_exp,
        })
    }

    /// Runtime constructor from a little-endian limb slice; `None`
    /// unless the slice is exactly `N` limbs of a valid modulus.
    pub fn from_limbs(limbs: &[u64]) -> Option<Self> {
        if limbs.len() != N {
            return None;
        }
        let mut n = [0u64; N];
        n.copy_from_slice(limbs);
        Self::new_checked(n)
    }

    /// The modulus limbs.
    pub fn modulus(&self) -> &[u64; N] {
        &self.n
    }

    /// The additive identity.
    #[inline]
    pub fn zero(&self) -> FpW<N> {
        FpW([0u64; N])
    }

    /// The multiplicative identity (`R mod n`).
    #[inline]
    pub fn one(&self) -> FpW<N> {
        FpW(self.r1)
    }

    /// Converts a canonical value `< n` into Montgomery form.
    pub fn to_mont(&self, canonical: &[u64; N]) -> FpW<N> {
        self.mul(&FpW(*canonical), &FpW(self.r2))
    }

    /// Montgomery form of a small integer (`v` must be `< n`).
    pub fn from_u64(&self, v: u64) -> FpW<N> {
        let mut c = [0u64; N];
        c[0] = v;
        self.to_mont(&c)
    }

    /// Converts back to the canonical representative in `[0, n)`.
    pub fn from_mont(&self, a: &FpW<N>) -> [u64; N] {
        let mut one_raw = [0u64; N];
        one_raw[0] = 1;
        self.mul(a, &FpW(one_raw)).0
    }

    /// `a + b`.
    #[inline]
    pub fn add(&self, a: &FpW<N>, b: &FpW<N>) -> FpW<N> {
        let (sum, carry) = limbs_add(&a.0, &b.0);
        FpW(reduce_once(sum, carry, &self.n))
    }

    /// `2a`.
    #[inline]
    pub fn double(&self, a: &FpW<N>) -> FpW<N> {
        self.add(a, a)
    }

    /// `a - b`.
    #[inline]
    pub fn sub(&self, a: &FpW<N>, b: &FpW<N>) -> FpW<N> {
        let (diff, borrow) = limbs_sub(&a.0, &b.0);
        let (fixed, _) = limbs_add(&diff, &self.n);
        FpW(limbs_select(borrow == 1, &fixed, &diff))
    }

    /// `-a`.
    #[inline]
    pub fn neg(&self, a: &FpW<N>) -> FpW<N> {
        self.sub(&self.zero(), a)
    }

    /// CIOS Montgomery multiplication: `a·b·R⁻¹ mod n`, result reduced
    /// to `[0, n)`.
    ///
    /// Identical algorithm (and therefore identical limb results) to
    /// `sempair_bigint::Montgomery::mul`, minus its heap-allocated
    /// scratch row — the whole state is `N + 2` limbs of stack.
    pub fn mul(&self, a: &FpW<N>, b: &FpW<N>) -> FpW<N> {
        let mut t = [0u64; N];
        let mut t_n = 0u64; // t[N]

        for i in 0..N {
            // t += a[i] · b
            let ai = a.0[i];
            let mut carry = 0u64;
            for (tj, bj) in t.iter_mut().zip(b.0.iter()) {
                let (lo, hi) = mac(*tj, ai, *bj, carry);
                *tj = lo;
                carry = hi;
            }
            let (s, c) = adc(t_n, carry, 0);
            t_n = s;
            let t_n1 = c; // t[N+1], always 0 or 1

            // t += m · n, then shift one limb right.
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, self.n[0], 0);
            for j in 1..N {
                let (lo, hi) = mac(t[j], m, self.n[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (s, c) = adc(t_n, carry, 0);
            t[N - 1] = s;
            t_n = t_n1 + c;
        }
        debug_assert!(t_n <= 1);
        FpW(reduce_once(t, t_n, &self.n))
    }

    /// `a²` through the CIOS multiplication.
    ///
    /// A naive dedicated squaring (off-diagonal products once, doubled,
    /// plus the diagonal, then `redc_wide`) was measured at N = 8 on a
    /// 2-core x86-64 VM: 8% faster in isolation, but `prepare_g1` got
    /// 15% and 160-bit scalar multiplication 7% slower in context,
    /// with the single pairing flat. The codegen of the N = 8 CIOS
    /// loops should be inspected before a second carry chain is added.
    #[inline]
    pub fn sqr(&self, a: &FpW<N>) -> FpW<N> {
        self.mul(a, a)
    }

    /// Full double-width product of two reduced elements (`< p² < pR`),
    /// reduction deferred.
    pub fn mul_wide(&self, a: &FpW<N>, b: &FpW<N>) -> Wide<N> {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for i in 0..N {
            let ai = a.0[i];
            let mut carry = 0u64;
            let split = N - i; // first `split` targets land in `lo`
            for j in 0..split {
                let (l, h) = mac(lo[i + j], ai, b.0[j], carry);
                lo[i + j] = l;
                carry = h;
            }
            for j in split..N {
                let (l, h) = mac(hi[j - split], ai, b.0[j], carry);
                hi[j - split] = l;
                carry = h;
            }
            hi[i] = carry; // fresh position t[i+N]
        }
        Wide { lo, hi }
    }

    /// `a - b` on double-width values, as representatives mod `p·R`:
    /// a borrow is repaired by adding `pR` (= `p` shifted up `N`
    /// limbs), keeping the result in `[0, pR)`.
    pub fn sub_wide(&self, a: &Wide<N>, b: &Wide<N>) -> Wide<N> {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        let mut borrow = 0u64;
        for (i, l) in lo.iter_mut().enumerate() {
            let (d, bo) = sbb(a.lo[i], b.lo[i], borrow);
            *l = d;
            borrow = bo;
        }
        for (i, h) in hi.iter_mut().enumerate() {
            let (d, bo) = sbb(a.hi[i], b.hi[i], borrow);
            *h = d;
            borrow = bo;
        }
        // On borrow add pR: the wrap cancels exactly (result < pR).
        let (fixed, _) = limbs_add(&hi, &self.n);
        Wide {
            lo,
            hi: limbs_select(borrow == 1, &fixed, &hi),
        }
    }

    /// Montgomery-reduces a double-width `t < pR` to `t·R⁻¹ mod p`,
    /// result reduced to `[0, p)`.
    pub fn redc_wide(&self, t: &Wide<N>) -> FpW<N> {
        let mut lo = t.lo;
        let mut hi = t.hi;
        // Rolling carry for position `i + N`: iteration `i` produces a
        // carry-out landing there, and any overflow from that addition
        // lands at `i + 1 + N` — exactly where iteration `i + 1` adds
        // its own carry. Keeping it in a register instead of walking
        // the upper limbs keeps every loop fixed-length.
        let mut top = 0u64;
        for i in 0..N {
            let m = lo[i].wrapping_mul(self.n0_inv);
            let mut carry = 0u64;
            let split = N - i;
            for j in 0..split {
                let (l, h) = mac(lo[i + j], m, self.n[j], carry);
                lo[i + j] = l;
                carry = h;
            }
            for j in split..N {
                let (l, h) = mac(hi[j - split], m, self.n[j], carry);
                hi[j - split] = l;
                carry = h;
            }
            let (s, c) = adc(hi[i], carry, top);
            hi[i] = s;
            top = c;
        }
        debug_assert!(top <= 1);
        // Value / R = hi (+ top·2^{64N}) < 2p: one conditional sub.
        FpW(reduce_once(hi, top, &self.n))
    }

    /// `a⁻¹`, or `None` for zero — binary extended GCD on the raw
    /// Montgomery limbs.
    ///
    /// Inverting the Montgomery form `vR` yields `v⁻¹R⁻¹`; two
    /// `to_mont` multiplications restore `v⁻¹R`. The iteration is
    /// **variable-time** (like the bigint backend's Euclid-based
    /// inverse): every inversion in the pairing stack is of a line
    /// denominator or a projective `Z`, values already blinded by the
    /// curve arithmetic, and the reference backend has the same
    /// profile.
    pub fn inv(&self, a: &FpW<N>) -> Option<FpW<N>> {
        if a.is_zero() {
            return None;
        }
        let mut u = a.0;
        let mut v = self.n;
        let mut x1 = [0u64; N];
        x1[0] = 1;
        let mut x2 = [0u64; N];
        let one = x1;
        while u != one && v != one {
            while u[0] & 1 == 0 {
                shr1(&mut u, 0);
                halve_mod(&mut x1, &self.n);
            }
            while v[0] & 1 == 0 {
                shr1(&mut v, 0);
                halve_mod(&mut x2, &self.n);
            }
            if limbs_ge(&u, &v) {
                let (d, _) = limbs_sub(&u, &v);
                u = d;
                x1 = sub_mod(&x1, &x2, &self.n);
            } else {
                let (d, _) = limbs_sub(&v, &u);
                v = d;
                x2 = sub_mod(&x2, &x1, &self.n);
            }
        }
        let raw_inv = FpW(if u == one { x1 } else { x2 });
        // raw_inv = (vR)⁻¹ = v⁻¹R⁻¹; ·R² via two to_mont steps.
        let r2 = FpW(self.r2);
        Some(self.mul(&self.mul(&raw_inv, &r2), &r2))
    }

    /// `a^e` for a little-endian limb exponent (square-and-multiply,
    /// MSB first — matches the bigint backend's `Fp` pow shape).
    pub fn pow(&self, a: &FpW<N>, e: &[u64]) -> FpW<N> {
        let bits = bit_len(e);
        let mut acc = self.one();
        for i in (0..bits).rev() {
            acc = self.sqr(&acc);
            if crate::limb::bit(e, i) {
                acc = self.mul(&acc, a);
            }
        }
        acc
    }

    /// A square root of `a`, if one exists (`p ≡ 3 (mod 4)` fast path
    /// only; contexts for other primes return `None` — callers fall
    /// back to the reference backend's Tonelli–Shanks).
    pub fn sqrt(&self, a: &FpW<N>) -> Option<FpW<N>> {
        if a.is_zero() {
            return Some(self.zero());
        }
        let exp = self.sqrt_exp?;
        let r = self.pow(a, &exp);
        if self.sqr(&r) == *a {
            Some(r)
        } else {
            None
        }
    }

    /// `true` iff the context has the `p ≡ 3 (mod 4)` sqrt fast path.
    pub fn has_sqrt(&self) -> bool {
        self.sqrt_exp.is_some()
    }

    /// Parity (lsb) of the canonical representative.
    pub fn parity(&self, a: &FpW<N>) -> bool {
        self.from_mont(a)[0] & 1 == 1
    }
}

/// In-place right shift by one bit, injecting `top_bit` at the top.
fn shr1<const N: usize>(a: &mut [u64; N], top_bit: u64) {
    for i in 0..N - 1 {
        a[i] = (a[i] >> 1) | (a[i + 1] << 63);
    }
    a[N - 1] = (a[N - 1] >> 1) | (top_bit << 63);
}

/// `x / 2 mod n` for odd `n`: halve if even, else halve `x + n`
/// (keeping the carry bit as the incoming top bit).
fn halve_mod<const N: usize>(x: &mut [u64; N], n: &[u64; N]) {
    if x[0] & 1 == 0 {
        shr1(x, 0);
    } else {
        let (sum, carry) = limbs_add(x, n);
        *x = sum;
        shr1(x, carry);
    }
}

/// `a - b mod n` on canonical limbs.
fn sub_mod<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = limbs_sub(a, b);
    let (fixed, _) = limbs_add(&diff, n);
    limbs_select(borrow == 1, &fixed, &diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    // 2^127 − 1: Mersenne prime ≡ 3 (mod 4), two limbs.
    const P127: [u64; 2] = [u64::MAX, u64::MAX >> 1];
    const CTX: MontCtx<2> = MontCtx::new(P127);

    fn fe(v: u64) -> FpW<2> {
        CTX.from_u64(v)
    }

    #[test]
    fn const_context_is_valid() {
        // R mod p for p = 2^127 − 1: R = 2^128 ≡ 2 (mod p).
        assert_eq!(CTX.from_mont(&CTX.one()), [1, 0]);
        assert_eq!(CTX.one().0, [2, 0]);
        assert!(CTX.has_sqrt());
    }

    #[test]
    fn field_axioms() {
        let a = fe(123_456_789);
        let b = fe(987_654_321);
        assert_eq!(CTX.add(&a, &b), CTX.add(&b, &a));
        assert_eq!(CTX.mul(&a, &b), CTX.mul(&b, &a));
        assert_eq!(CTX.sub(&a, &a), CTX.zero());
        assert_eq!(CTX.add(&a, &CTX.neg(&a)), CTX.zero());
        assert_eq!(CTX.mul(&a, &CTX.one()), a);
        assert_eq!(CTX.double(&a), CTX.add(&a, &a));
        assert_eq!(CTX.sqr(&a), CTX.mul(&a, &a));
        assert_eq!(
            CTX.from_mont(&CTX.mul(&fe(1234), &fe(5678))),
            [1234u64 * 5678, 0]
        );
    }

    #[test]
    fn inversion_and_pow() {
        let a = fe(31337);
        let inv = CTX.inv(&a).unwrap();
        assert_eq!(CTX.mul(&a, &inv), CTX.one());
        assert!(CTX.inv(&CTX.zero()).is_none());
        // Fermat: a^(p−1) = 1.
        let mut e = P127;
        e[0] -= 1;
        assert_eq!(CTX.pow(&a, &e), CTX.one());
        assert_eq!(CTX.pow(&a, &[]), CTX.one());
        assert_eq!(CTX.pow(&a, &[1]), a);
    }

    #[test]
    fn sqrt_roundtrip() {
        for v in [2u64, 3, 5, 101, 123_456] {
            let a = fe(v);
            let sq = CTX.sqr(&a);
            let r = CTX.sqrt(&sq).unwrap();
            assert!(r == a || r == CTX.neg(&a));
        }
        assert_eq!(CTX.sqrt(&CTX.zero()), Some(CTX.zero()));
    }

    #[test]
    fn wide_mul_sub_redc_match_eager() {
        let a = fe(0xdead_beef_cafe);
        let b = fe(0x1234_5678_9abc);
        let c = fe(77_777_777);
        let d = fe(99_999_999);
        // redc(a·b) = mont_mul(a, b)
        assert_eq!(CTX.redc_wide(&CTX.mul_wide(&a, &b)), CTX.mul(&a, &b));
        // redc(a·b − c·d) = a·b − c·d (both orders of magnitude).
        let w = CTX.sub_wide(&CTX.mul_wide(&a, &b), &CTX.mul_wide(&c, &d));
        assert_eq!(
            CTX.redc_wide(&w),
            CTX.sub(&CTX.mul(&a, &b), &CTX.mul(&c, &d))
        );
        let w = CTX.sub_wide(&CTX.mul_wide(&c, &d), &CTX.mul_wide(&a, &b));
        assert_eq!(
            CTX.redc_wide(&w),
            CTX.sub(&CTX.mul(&c, &d), &CTX.mul(&a, &b))
        );
    }

    #[test]
    fn ct_helpers() {
        let a = fe(5);
        let b = fe(6);
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
        assert_eq!(FpW::select(true, &a, &b), a);
        assert_eq!(FpW::select(false, &a, &b), b);
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontCtx::<2>::new_checked([4, 1]).is_none()); // even
        assert!(MontCtx::<2>::new_checked([5, 0]).is_none()); // short width
        assert!(MontCtx::<2>::from_limbs(&[5]).is_none()); // wrong len
        assert!(MontCtx::<1>::from_limbs(&[11]).is_some());
    }

    #[test]
    fn parity_and_canonical_roundtrip() {
        let a = fe(10);
        assert_ne!(CTX.parity(&a), CTX.parity(&CTX.neg(&a)));
        let canon = CTX.from_mont(&a);
        assert_eq!(CTX.to_mont(&canon), a);
    }
}
