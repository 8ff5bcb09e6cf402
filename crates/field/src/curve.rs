//! Generic group-arithmetic kernels for `E : y² = x³ + x`.
//!
//! Jacobian double/add with the `a = 1` curve coefficient, width-5
//! w-NAF scalar multiplication over a batch-normalised table of odd
//! multiples, and Pippenger buckets — written once against
//! [`FieldOps`] so the bigint reference backend and the fixed-width
//! backend execute identical arithmetic and agree limb-for-limb.
//!
//! Points use a backend-neutral representation: affine points are
//! `Option<(x, y)>` (`None` = infinity), Jacobian points are
//! [`JPoint`] with infinity encoded as `Z = 0`.

use crate::limb::{bit, bit_len};
use crate::secret::SecretDigits;
use crate::traits::FieldOps;

/// An affine point, `None` for the point at infinity.
pub type Affine<E> = Option<(E, E)>;

/// Borrowed view of an affine point.
pub type AffineRef<'a, E> = Option<(&'a E, &'a E)>;

/// A Jacobian point `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`; infinity
/// encoded as `Z = 0`.
#[derive(Clone, Debug)]
pub struct JPoint<E> {
    /// X coordinate.
    pub x: E,
    /// Y coordinate.
    pub y: E,
    /// Z coordinate (zero at infinity).
    pub z: E,
}

/// The Jacobian identity.
pub fn jp_infinity<F: FieldOps>(f: &F) -> JPoint<F::Elem> {
    JPoint {
        x: f.one(),
        y: f.one(),
        z: f.zero(),
    }
}

/// `true` iff the point is the identity.
pub fn jp_is_infinity<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> bool {
    f.is_zero(&p.z)
}

/// Converts to affine (one inversion).
pub fn jp_to_affine<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> Affine<F::Elem> {
    if jp_is_infinity(f, p) {
        return None;
    }
    let z_inv = f.inv(&p.z).expect("nonzero z");
    let z_inv2 = f.sqr(&z_inv);
    let z_inv3 = f.mul(&z_inv2, &z_inv);
    Some((f.mul(&p.x, &z_inv2), f.mul(&p.y, &z_inv3)))
}

/// Lifts an affine point into Jacobian coordinates (`Z = 1`).
pub fn jp_from_affine<F: FieldOps>(f: &F, p: AffineRef<'_, F::Elem>) -> JPoint<F::Elem> {
    match p {
        None => jp_infinity(f),
        Some((x, y)) => JPoint {
            x: x.clone(),
            y: y.clone(),
            z: f.one(),
        },
    }
}

/// Jacobian doubling (`a = 1` curve coefficient: `M = 3X² + Z⁴`).
pub fn jp_double<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> JPoint<F::Elem> {
    if jp_is_infinity(f, p) || f.is_zero(&p.y) {
        return jp_infinity(f);
    }
    let y2 = f.sqr(&p.y);
    let s = f.double(&f.double(&f.mul(&p.x, &y2))); // 4XY²
    let x2 = f.sqr(&p.x);
    let z2 = f.sqr(&p.z);
    let m = f.add(&f.add(&f.double(&x2), &x2), &f.sqr(&z2));
    let x3 = f.sub(&f.sqr(&m), &f.double(&s));
    let y4_8 = f.double(&f.double(&f.double(&f.sqr(&y2)))); // 8Y⁴
    let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &y4_8);
    let z3 = f.double(&f.mul(&p.y, &p.z));
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Full Jacobian–Jacobian addition (handles all cases).
pub fn jp_add<F: FieldOps>(f: &F, p: &JPoint<F::Elem>, q: &JPoint<F::Elem>) -> JPoint<F::Elem> {
    if jp_is_infinity(f, p) {
        return q.clone();
    }
    if jp_is_infinity(f, q) {
        return p.clone();
    }
    let z1z1 = f.sqr(&p.z);
    let z2z2 = f.sqr(&q.z);
    let u1 = f.mul(&p.x, &z2z2);
    let u2 = f.mul(&q.x, &z1z1);
    let s1 = f.mul(&p.y, &f.mul(&z2z2, &q.z));
    let s2 = f.mul(&q.y, &f.mul(&z1z1, &p.z));
    if f.equals(&u1, &u2) {
        if f.equals(&s1, &s2) {
            return jp_double(f, p);
        }
        return jp_infinity(f);
    }
    let h = f.sub(&u2, &u1);
    let hh = f.sqr(&h);
    let hhh = f.mul(&hh, &h);
    let r = f.sub(&s2, &s1);
    let v = f.mul(&u1, &hh);
    let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.double(&v));
    let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&s1, &hhh));
    let z3 = f.mul(&h, &f.mul(&p.z, &q.z));
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Mixed addition with an affine point (`Z2 = 1`).
pub fn jp_add_affine<F: FieldOps>(
    f: &F,
    p: &JPoint<F::Elem>,
    q: AffineRef<'_, F::Elem>,
) -> JPoint<F::Elem> {
    let Some((qx, qy)) = q else {
        return p.clone();
    };
    if jp_is_infinity(f, p) {
        return JPoint {
            x: qx.clone(),
            y: qy.clone(),
            z: f.one(),
        };
    }
    let z1z1 = f.sqr(&p.z);
    let u2 = f.mul(qx, &z1z1);
    let s2 = f.mul(qy, &f.mul(&z1z1, &p.z));
    if f.equals(&u2, &p.x) {
        if f.equals(&s2, &p.y) {
            return jp_double(f, p);
        }
        return jp_infinity(f);
    }
    let h = f.sub(&u2, &p.x);
    let hh = f.sqr(&h);
    let hhh = f.mul(&hh, &h);
    let r = f.sub(&s2, &p.y);
    let v = f.mul(&p.x, &hh);
    let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.double(&v));
    let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&p.y, &hhh));
    let z3 = f.mul(&p.z, &h);
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// `-P` in affine coordinates.
pub fn affine_neg<F: FieldOps>(f: &F, p: AffineRef<'_, F::Elem>) -> Affine<F::Elem> {
    p.map(|(x, y)| (x.clone(), f.neg(y)))
}

/// Affine point addition (handles all cases; one inversion).
pub fn affine_add<F: FieldOps>(
    f: &F,
    p: AffineRef<'_, F::Elem>,
    q: AffineRef<'_, F::Elem>,
) -> Affine<F::Elem> {
    let Some((px, py)) = p else {
        return q.map(|(x, y)| (x.clone(), y.clone()));
    };
    let Some((qx, qy)) = q else {
        return Some((px.clone(), py.clone()));
    };
    let lambda = if f.equals(px, qx) {
        if !f.equals(py, qy) || f.is_zero(py) {
            // P = -Q (or a 2-torsion doubling): result is infinity.
            return None;
        }
        // Tangent: (3x² + 1) / 2y   (curve coefficient a = 1).
        let num = f.add(&f.add(&f.double(&f.sqr(px)), &f.sqr(px)), &f.one());
        let den = f.double(py);
        f.mul(&num, &f.inv(&den).expect("2y != 0"))
    } else {
        let num = f.sub(qy, py);
        let den = f.sub(qx, px);
        f.mul(&num, &f.inv(&den).expect("qx != px"))
    };
    let x3 = f.sub(&f.sub(&f.sqr(&lambda), px), qx);
    let y3 = f.sub(&f.mul(&lambda, &f.sub(px, &x3)), py);
    Some((x3, y3))
}

/// `true` iff `(x, y)` satisfies `y² = x³ + x`.
pub fn is_on_curve<F: FieldOps>(f: &F, x: &F::Elem, y: &F::Elem) -> bool {
    let lhs = f.sqr(y);
    let rhs = f.add(&f.mul(&f.sqr(x), x), x);
    f.equals(&lhs, &rhs)
}

/// Converts Jacobian points to affine with one field inversion
/// (Montgomery's trick: invert the product of every `Z`, then peel
/// each inverse off with two multiplications). Points at infinity
/// (`Z = 0`) are left out of the product and map to `None`.
fn batch_to_affine<F: FieldOps, const M: usize>(
    f: &F,
    points: &[JPoint<F::Elem>; M],
) -> [Affine<F::Elem>; M] {
    // before[i] = product of the nonzero Z's of points[..i].
    let mut before: [F::Elem; M] = core::array::from_fn(|_| f.one());
    let mut acc = f.one();
    for (pt, slot) in points.iter().zip(before.iter_mut()) {
        *slot = acc.clone();
        if !jp_is_infinity(f, pt) {
            acc = f.mul(&acc, &pt.z);
        }
    }
    let mut inv = f.inv(&acc).expect("product of nonzero Z");
    let mut out: [Affine<F::Elem>; M] = core::array::from_fn(|_| None);
    for ((pt, before), slot) in points.iter().zip(&before).zip(out.iter_mut()).rev() {
        if jp_is_infinity(f, pt) {
            continue;
        }
        // inv = (Z₀⋯Zᵢ)⁻¹ over the nonzero Z's, so Zᵢ⁻¹ = inv·(Z₀⋯Zᵢ₋₁).
        let z_inv = f.mul(&inv, before);
        inv = f.mul(&inv, &pt.z);
        let z_inv2 = f.sqr(&z_inv);
        let z_inv3 = f.mul(&z_inv2, &z_inv);
        *slot = Some((f.mul(&pt.x, &z_inv2), f.mul(&pt.y, &z_inv3)));
    }
    out
}

/// Width of the signed-digit recoding: every nonzero digit is odd and
/// below `2^{W-1}` in absolute value, and nonzero digits are at least
/// `W` positions apart.
const WNAF_WIDTH: usize = 5;
/// Table size: the odd multiples `P, 3P, …, 15P`.
const WNAF_TABLE: usize = 1 << (WNAF_WIDTH - 2);
/// Limbs recoded at a time. Every scalar up to the paper's 512-bit
/// modulus is one chunk; longer ones (bigint-only moduli) are
/// evaluated chunk by chunk, Horner-style.
const CHUNK_LIMBS: usize = 8;
/// Digit positions of one chunk: its NAF is at most one digit longer
/// than its bit length.
const CHUNK_DIGITS: usize = 64 * CHUNK_LIMBS + 1;

/// The `WNAF_WIDTH` bits of `k` starting at bit `pos` (zero beyond the
/// end).
fn window_at(k: &[u64], pos: usize) -> u32 {
    let (limb, shift) = (pos / 64, pos % 64);
    let lo = k.get(limb).map_or(0, |l| l >> shift);
    let hi = if shift > 64 - WNAF_WIDTH {
        k.get(limb + 1).map_or(0, |l| l << (64 - shift))
    } else {
        0
    };
    ((lo | hi) & ((1 << WNAF_WIDTH) - 1)) as u32
}

/// Writes the width-5 NAF of `k` (at most `CHUNK_LIMBS` limbs) into
/// `digits`, least significant position first, zeroing the rest.
///
/// Reads `k` window by window with a carry instead of subtracting
/// digits from a copy: an odd window `w ≥ 16` becomes the digit
/// `w − 32` and carries one into the next position.
fn wnaf_recode(k: &[u64], digits: &mut [i8; CHUNK_DIGITS]) {
    debug_assert!(k.len() <= CHUNK_LIMBS);
    digits.fill(0);
    let bits = bit_len(k);
    let mut carry = 0u32;
    let mut pos = 0;
    // A pending carry implies bit `pos + W − 1` was set, so the last
    // digit lands at position `bits` at most.
    while pos <= bits {
        let window = carry + window_at(k, pos);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < 1 << (WNAF_WIDTH - 1) {
            digits[pos] = window as i8;
            carry = 0;
        } else {
            digits[pos] = window as i8 - (1 << WNAF_WIDTH) as i8;
            carry = 1;
        }
        pos += WNAF_WIDTH;
    }
}

/// The odd multiples `P, 3P, …, 15P` in affine coordinates: one
/// doubling and seven additions in Jacobian coordinates, normalised
/// together by [`batch_to_affine`] (one inversion for the table).
fn odd_multiples<F: FieldOps>(
    f: &F,
    (x, y): (&F::Elem, &F::Elem),
) -> [Affine<F::Elem>; WNAF_TABLE] {
    let p = JPoint {
        x: x.clone(),
        y: y.clone(),
        z: f.one(),
    };
    let twice = jp_double(f, &p);
    let mut jac: [JPoint<F::Elem>; WNAF_TABLE] = core::array::from_fn(|_| jp_infinity(f));
    jac[0] = p;
    for i in 1..WNAF_TABLE {
        jac[i] = jp_add(f, &jac[i - 1], &twice);
    }
    batch_to_affine(f, &jac)
}

/// `acc + d·P` for a w-NAF digit `d`, reading `|d|·P` from the table
/// and negating it for negative digits.
fn add_digit<F: FieldOps>(
    f: &F,
    acc: JPoint<F::Elem>,
    table: &[Affine<F::Elem>; WNAF_TABLE],
    d: i8,
) -> JPoint<F::Elem> {
    if d == 0 {
        return acc;
    }
    let Some((x, y)) = &table[usize::from(d.unsigned_abs() / 2)] else {
        return acc;
    };
    if d > 0 {
        jp_add_affine(f, &acc, Some((x, y)))
    } else {
        jp_add_affine(f, &acc, Some((x, &f.neg(y))))
    }
}

/// `k·P` left in Jacobian coordinates — the body shared by
/// [`scalar_mul`] and [`scalar_mul_is_identity`].
fn wnaf_mul<F: FieldOps>(f: &F, k: &[u64], p: AffineRef<'_, F::Elem>) -> JPoint<F::Elem> {
    let Some(base) = p else {
        return jp_infinity(f);
    };
    if bit_len(k) == 0 {
        return jp_infinity(f);
    }
    let table = odd_multiples(f, base);
    // The digits re-encode the (possibly secret) scalar; the buffer is
    // wiped when it goes out of scope.
    let mut digits = SecretDigits::<CHUNK_DIGITS>::new();
    let mut acc = jp_infinity(f);
    for chunk in k.chunks(CHUNK_LIMBS).rev() {
        // acc ← 2^{64·|chunk|}·acc + chunk·P: the top digit is added
        // before the first doubling, every lower one after its own.
        wnaf_recode(chunk, digits.digits_mut());
        let (low, high) = digits.digits().split_at(64 * chunk.len());
        acc = add_digit(f, acc, &table, high[0]);
        for &d in low.iter().rev() {
            acc = jp_double(f, &acc);
            acc = add_digit(f, acc, &table, d);
        }
    }
    acc
}

/// Scalar multiplication `k·P`; `k` is a little-endian limb scalar of
/// any length.
///
/// Width-5 w-NAF: the odd multiples `P, 3P, …, 15P` are built in
/// Jacobian coordinates and normalised with one batched inversion,
/// then `k`'s signed digits drive one doubling per bit and one mixed
/// addition per nonzero digit (about one in six bits). The final
/// conversion to affine costs one more inversion.
pub fn scalar_mul<F: FieldOps>(f: &F, k: &[u64], p: AffineRef<'_, F::Elem>) -> Affine<F::Elem> {
    jp_to_affine(f, &wnaf_mul(f, k, p))
}

/// `true` iff `k·P` is the point at infinity.
///
/// The same loop as [`scalar_mul`], tested for `Z = 0` instead of
/// paying the final inversion: the subgroup check `r·P = O` needs no
/// affine result.
pub fn scalar_mul_is_identity<F: FieldOps>(f: &F, k: &[u64], p: AffineRef<'_, F::Elem>) -> bool {
    jp_is_infinity(f, &wnaf_mul(f, k, p))
}

/// Multi-scalar multiplication `Σ kᵢ·Pᵢ` via Pippenger's bucket method
/// (same window schedule as the reference implementation).
pub fn multi_scalar_mul<F: FieldOps>(
    f: &F,
    terms: &[(&[u64], AffineRef<'_, F::Elem>)],
) -> Affine<F::Elem> {
    let live: Vec<&(&[u64], AffineRef<'_, F::Elem>)> = terms
        .iter()
        .filter(|(k, p)| bit_len(k) != 0 && p.is_some())
        .collect();
    if live.is_empty() {
        return None;
    }
    if live.len() == 1 {
        return scalar_mul(f, live[0].0, live[0].1);
    }
    // Window width: the usual n / log n balance point.
    let c = match live.len() {
        0..=3 => 2,
        4..=15 => 3,
        16..=63 => 4,
        64..=255 => 5,
        _ => 6,
    };
    let max_bits = live
        .iter()
        .map(|(k, _)| bit_len(k))
        .max()
        .expect("nonempty");
    let windows = max_bits.div_ceil(c);
    let mut acc = jp_infinity(f);
    let mut buckets: Vec<JPoint<F::Elem>> = vec![jp_infinity(f); (1 << c) - 1];
    for w in (0..windows).rev() {
        for _ in 0..c {
            acc = jp_double(f, &acc);
        }
        for bucket in buckets.iter_mut() {
            *bucket = jp_infinity(f);
        }
        for (k, point) in &live {
            let mut digit = 0usize;
            for b in 0..c {
                if bit(k, w * c + b) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                buckets[digit - 1] = jp_add_affine(f, &buckets[digit - 1], *point);
            }
        }
        // Σ j·Bⱼ: running partial sums from the top bucket down.
        let mut running = jp_infinity(f);
        let mut window_sum = jp_infinity(f);
        for bucket in buckets.iter().rev() {
            running = jp_add(f, &running, bucket);
            window_sum = jp_add(f, &window_sum, &running);
        }
        acc = jp_add(f, &acc, &window_sum);
    }
    jp_to_affine(f, &acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mont::{FpW, MontCtx};

    /// The tiny hand-checkable curve: p = 11, E(F_11) has 12 points.
    const F11: MontCtx<1> = MontCtx::new([11]);

    fn all_points(f: &MontCtx<1>) -> Vec<Affine<FpW<1>>> {
        let mut pts = vec![None];
        for x in 0..11u64 {
            for y in 0..11u64 {
                let xe = f.from_u64(x);
                let ye = f.from_u64(y);
                if is_on_curve(f, &xe, &ye) {
                    pts.push(Some((xe, ye)));
                }
            }
        }
        pts
    }

    fn as_ref<E>(p: &Affine<E>) -> AffineRef<'_, E> {
        p.as_ref().map(|(x, y)| (x, y))
    }

    #[test]
    fn group_order_and_scalar_kill() {
        let pts = all_points(&F11);
        assert_eq!(pts.len(), 12);
        for p in &pts {
            assert!(scalar_mul(&F11, &[12], as_ref(p)).is_none(), "{p:?}");
        }
    }

    #[test]
    fn addition_matches_repeated_add() {
        // k up to 4·12 covers table entries at infinity, negative
        // digits and carries across w-NAF windows. The 9-limb scalars
        // take the chunked path; 2^64 ≡ 2^512 ≡ 2^576 ≡ 4 (mod 12), and
        // the all-ones scalars carry a digit past the top of a chunk.
        for p in all_points(&F11) {
            let mut acc: Affine<FpW<1>> = None;
            let mut multiples = vec![None];
            for k in 1u64..=48 {
                acc = affine_add(&F11, as_ref(&acc), as_ref(&p));
                multiples.push(acc);
                assert_eq!(scalar_mul(&F11, &[k], as_ref(&p)), acc, "k={k}");
                assert_eq!(
                    scalar_mul_is_identity(&F11, &[k], as_ref(&p)),
                    acc.is_none(),
                    "k={k}"
                );
            }
            for k in 0u64..=44 {
                let wide = [k, 0, 0, 0, 0, 0, 0, 0, 1];
                let expect = multiples[k as usize + 4];
                assert_eq!(scalar_mul(&F11, &wide, as_ref(&p)), expect, "2^512+{k}");
            }
            for ones in [&[u64::MAX][..], &[u64::MAX; 9]] {
                assert_eq!(scalar_mul(&F11, ones, as_ref(&p)), multiples[3]);
            }
        }
    }

    #[test]
    fn jacobian_add_matches_affine_exhaustively() {
        let pts = all_points(&F11);
        for a in &pts {
            let ja = jp_from_affine(&F11, as_ref(a));
            let sums: [JPoint<FpW<1>>; 12] =
                core::array::from_fn(|i| jp_add(&F11, &ja, &jp_from_affine(&F11, as_ref(&pts[i]))));
            let one_by_one: [Affine<FpW<1>>; 12] =
                core::array::from_fn(|i| jp_to_affine(&F11, &sums[i]));
            assert_eq!(batch_to_affine(&F11, &sums), one_by_one);
            for b in &pts {
                let ja = jp_from_affine(&F11, as_ref(a));
                let jb = jp_from_affine(&F11, as_ref(b));
                assert_eq!(
                    jp_to_affine(&F11, &jp_add(&F11, &ja, &jb)),
                    affine_add(&F11, as_ref(a), as_ref(b))
                );
                assert_eq!(
                    jp_to_affine(&F11, &jp_add_affine(&F11, &ja, as_ref(b))),
                    affine_add(&F11, as_ref(a), as_ref(b))
                );
            }
        }
    }

    #[test]
    fn negation_and_two_torsion() {
        for p in all_points(&F11) {
            let n = affine_neg(&F11, as_ref(&p));
            assert!(affine_add(&F11, as_ref(&p), as_ref(&n)).is_none());
        }
        // (0, 0) has order 2.
        let t = Some((F11.from_u64(0), F11.from_u64(0)));
        assert!(affine_add(&F11, as_ref(&t), as_ref(&t)).is_none());
        assert!(scalar_mul(&F11, &[2], as_ref(&t)).is_none());
        assert_eq!(scalar_mul(&F11, &[3], as_ref(&t)), t);
    }

    #[test]
    fn multi_scalar_matches_term_by_term() {
        let pts = all_points(&F11);
        for n in 0..8usize {
            let scalars: Vec<[u64; 1]> = (0..n).map(|i| [(3 * i + 1) as u64]).collect();
            let points: Vec<Affine<FpW<1>>> =
                (0..n).map(|i| pts[(i * 5 + 1) % pts.len()]).collect();
            let terms: Vec<(&[u64], AffineRef<'_, FpW<1>>)> = scalars
                .iter()
                .zip(points.iter())
                .map(|(k, p)| (k.as_slice(), as_ref(p)))
                .collect();
            let mut expect: Affine<FpW<1>> = None;
            for (k, p) in &terms {
                let kp = scalar_mul(&F11, k, *p);
                expect = affine_add(&F11, as_ref(&expect), as_ref(&kp));
            }
            assert_eq!(multi_scalar_mul(&F11, &terms), expect, "n={n}");
        }
    }
}
