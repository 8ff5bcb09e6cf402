//! Plain modular arithmetic and number-theoretic functions.
//!
//! These functions take the modulus as an explicit argument and reduce
//! eagerly. For repeated work with a fixed odd modulus, prefer the
//! [`Montgomery`] context.

use crate::{BigInt, BigUint, Error, Montgomery};

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let (a, b) = (a % m, b % m);
    let sum = &a + &b;
    if &sum >= m {
        &sum - m
    } else {
        sum
    }
}

/// `(a - b) mod m` (always non-negative).
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let (a, b) = (a % m, b % m);
    if a >= b {
        &a - &b
    } else {
        &(m - &b) + &a
    }
}

/// `(a * b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    &(a * b) % m
}

/// `(-a) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_neg(a: &BigUint, m: &BigUint) -> BigUint {
    let a = a % m;
    if a.is_zero() {
        a
    } else {
        m - &a
    }
}

/// `base^exp mod m`.
///
/// Uses Montgomery exponentiation for odd `m > 1`, and falls back to
/// square-and-multiply with explicit reduction for even moduli.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    if m.is_one() {
        return BigUint::zero();
    }
    if m.is_odd() {
        let ctx = Montgomery::new(m).expect("odd modulus > 1");
        let b = ctx.to_mont(base);
        return ctx.from_mont(&ctx.pow(&b, exp));
    }
    // Even modulus: simple left-to-right square and multiply.
    let mut acc = BigUint::one();
    let base = base % m;
    for i in (0..exp.bits()).rev() {
        acc = mod_mul(&acc, &acc, m);
        if exp.bit(i) {
            acc = mod_mul(&acc, &base, m);
        }
    }
    acc
}

/// Extended Euclidean algorithm.
///
/// Returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn ext_gcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt, BigInt) {
    let mut r0 = BigInt::from(a);
    let mut r1 = BigInt::from(b);
    let mut s0 = BigInt::one();
    let mut s1 = BigInt::zero();
    let mut t0 = BigInt::zero();
    let mut t1 = BigInt::one();
    while !r1.is_zero() {
        let (q, _) = r0.magnitude().div_rem(r1.magnitude());
        let q = BigInt::from(q); // both r are non-negative throughout
        let r2 = &r0 - &(&q * &r1);
        let s2 = &s0 - &(&q * &s1);
        let t2 = &t0 - &(&q * &t1);
        r0 = r1;
        r1 = r2;
        s0 = s1;
        s1 = s2;
        t0 = t1;
        t1 = t2;
    }
    (r0.magnitude().clone(), s0, t0)
}

/// The multiplicative inverse of `a` modulo `m`.
///
/// # Errors
///
/// Returns [`Error::NotInvertible`] if `gcd(a, m) != 1`, and
/// [`Error::ZeroModulus`] if `m` is zero.
pub fn mod_inv(a: &BigUint, m: &BigUint) -> Result<BigUint, Error> {
    if m.is_zero() {
        return Err(Error::ZeroModulus);
    }
    let a = a % m;
    let (g, x, _) = ext_gcd(&a, m);
    if !g.is_one() {
        return Err(Error::NotInvertible);
    }
    Ok(x.rem_euclid(m))
}

/// The Jacobi symbol `(a/n)` for odd `n > 0`.
///
/// Returns `0`, `1` or `-1`. For prime `n` this is the Legendre symbol.
///
/// # Panics
///
/// Panics if `n` is even or zero.
pub fn jacobi(a: &BigUint, n: &BigUint) -> i32 {
    assert!(n.is_odd(), "jacobi symbol requires odd n");
    let mut a = a % n;
    let mut n = n.clone();
    let mut result = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros().unwrap_or(0);
        if tz > 0 {
            a = &a >> tz;
            // (2/n) = -1 iff n ≡ 3, 5 (mod 8); applies tz times.
            let n_mod8 = (n.limbs().first().copied().unwrap_or(0) & 7) as u32;
            if tz % 2 == 1 && (n_mod8 == 3 || n_mod8 == 5) {
                result = -result;
            }
        }
        // Quadratic reciprocity: flip sign if both ≡ 3 (mod 4).
        let a_mod4 = (a.limbs().first().copied().unwrap_or(0) & 3) as u32;
        let n_mod4 = (n.limbs().first().copied().unwrap_or(0) & 3) as u32;
        if a_mod4 == 3 && n_mod4 == 3 {
            result = -result;
        }
        std::mem::swap(&mut a, &mut n);
        a = &a % &n;
    }
    if n.is_one() {
        result
    } else {
        0
    }
}

/// A square root of `a` modulo an odd prime `p`.
///
/// Uses the `(p+1)/4` exponentiation when `p ≡ 3 (mod 4)` and
/// Tonelli–Shanks otherwise. The returned root `r` satisfies
/// `r² ≡ a (mod p)`; the other root is `p - r`.
///
/// # Errors
///
/// Returns [`Error::NonResidue`] if `a` is a quadratic non-residue.
///
/// # Panics
///
/// Panics if `p` is even. Behaviour is unspecified (may return garbage,
/// never unsafe) if `p` is not prime.
pub fn sqrt_mod(a: &BigUint, p: &BigUint) -> Result<BigUint, Error> {
    assert!(p.is_odd(), "sqrt_mod requires an odd prime");
    let a = a % p;
    if a.is_zero() {
        return Ok(BigUint::zero());
    }
    if jacobi(&a, p) != 1 {
        return Err(Error::NonResidue);
    }
    let one = BigUint::one();
    if (p.limbs()[0] & 3) == 3 {
        // p ≡ 3 (mod 4): r = a^((p+1)/4).
        let e = &(p + &one) >> 2;
        let r = mod_pow(&a, &e, p);
        debug_assert_eq!(mod_mul(&r, &r, p), a);
        return Ok(r);
    }
    // Tonelli–Shanks. Write p - 1 = q * 2^s with q odd.
    let p_minus_1 = p - &one;
    let s = p_minus_1.trailing_zeros().expect("p > 1");
    let q = &p_minus_1 >> s;
    // Find a non-residue z by scanning small values (deterministic).
    let mut z = BigUint::two();
    while jacobi(&z, p) != -1 {
        z = &z + &one;
    }
    let mut m = s;
    let mut c = mod_pow(&z, &q, p);
    let mut t = mod_pow(&a, &q, p);
    let mut r = mod_pow(&a, &(&(&q + &one) >> 1), p);
    while !t.is_one() {
        // Find least i, 0 < i < m, with t^(2^i) = 1.
        let mut i = 0usize;
        let mut t2 = t.clone();
        while !t2.is_one() {
            t2 = mod_mul(&t2, &t2, p);
            i += 1;
        }
        let mut b = c;
        for _ in 0..(m - i - 1) {
            b = mod_mul(&b, &b, p);
        }
        m = i;
        c = mod_mul(&b, &b, p);
        t = mod_mul(&t, &c, p);
        r = mod_mul(&r, &b, p);
    }
    debug_assert_eq!(mod_mul(&r, &r, p), a);
    Ok(r)
}

/// Solves CRT for two coprime moduli: the unique `x mod (m1*m2)` with
/// `x ≡ r1 (mod m1)` and `x ≡ r2 (mod m2)`.
///
/// # Errors
///
/// Returns [`Error::NotInvertible`] if the moduli are not coprime.
pub fn crt_pair(r1: &BigUint, m1: &BigUint, r2: &BigUint, m2: &BigUint) -> Result<BigUint, Error> {
    let m1_inv = mod_inv(m1, m2)?;
    // x = r1 + m1 * ((r2 - r1) * m1^-1 mod m2)
    let diff = mod_sub(r2, r1, m2);
    let k = mod_mul(&diff, &m1_inv, m2);
    Ok(r1 + &(m1 * &k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn basic_mod_ops() {
        let m = big("97");
        assert_eq!(mod_add(&big("96"), &big("5"), &m), big("4"));
        assert_eq!(mod_sub(&big("3"), &big("5"), &m), big("95"));
        assert_eq!(mod_mul(&big("96"), &big("96"), &m), big("1"));
        assert_eq!(mod_neg(&big("1"), &m), big("96"));
        assert_eq!(mod_neg(&BigUint::zero(), &m), BigUint::zero());
    }

    #[test]
    fn mod_pow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
        let p = big("0xffffffffffffffc5"); // 2^64 - 59
        let a = big("123456789");
        assert_eq!(mod_pow(&a, &(&p - &BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn mod_pow_even_modulus() {
        let m = big("1000000");
        // 3^100000 mod 10^6 (fallback path).
        let got = mod_pow(&big("3"), &big("100000"), &m);
        // Verify against iterated multiplication.
        let mut expect = BigUint::one();
        for _ in 0..100000u32 {
            expect = mod_mul(&expect, &big("3"), &m);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = big("13");
        assert_eq!(mod_pow(&big("5"), &BigUint::zero(), &m), BigUint::one());
        assert_eq!(mod_pow(&BigUint::zero(), &big("5"), &m), BigUint::zero());
        assert_eq!(
            mod_pow(&big("5"), &big("5"), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn ext_gcd_bezout() {
        let a = big("240");
        let b = big("46");
        let (g, x, y) = ext_gcd(&a, &b);
        assert_eq!(g, big("2"));
        let lhs = &(&BigInt::from(&a) * &x) + &(&BigInt::from(&b) * &y);
        assert_eq!(lhs, BigInt::from(&g));
    }

    #[test]
    fn mod_inv_roundtrip() {
        let p = big("1000000007");
        for a in ["2", "3", "999999999", "123456789"] {
            let a = big(a);
            let inv = mod_inv(&a, &p).unwrap();
            assert_eq!(mod_mul(&a, &inv, &p), BigUint::one());
        }
        assert_eq!(mod_inv(&big("6"), &big("9")), Err(Error::NotInvertible));
        assert_eq!(
            mod_inv(&big("5"), &BigUint::zero()),
            Err(Error::ZeroModulus)
        );
    }

    #[test]
    fn jacobi_known_table() {
        // (a/7) for a = 1..6: 1, 1, -1, 1, -1, -1
        let n = big("7");
        let expect = [1, 1, -1, 1, -1, -1];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(
                jacobi(&BigUint::from((i + 1) as u64), &n),
                *e,
                "a={}",
                i + 1
            );
        }
        assert_eq!(jacobi(&big("14"), &n), 0);
        // Composite: (2/15) = 1 even though 2 is a non-residue mod 15.
        assert_eq!(jacobi(&big("2"), &big("15")), 1);
    }

    #[test]
    fn jacobi_matches_euler_criterion_on_prime() {
        let p = big("0xffffffffffffffc5");
        let exp = &(&p - &BigUint::one()) >> 1;
        for a in 2u64..30 {
            let a = BigUint::from(a);
            let euler = mod_pow(&a, &exp, &p);
            let symbol = jacobi(&a, &p);
            if euler.is_one() {
                assert_eq!(symbol, 1);
            } else {
                assert_eq!(symbol, -1);
            }
        }
    }

    #[test]
    fn sqrt_mod_3mod4() {
        let p = big("0xffffffffffffffc5"); // ≡ 1 mod 4? 2^64-59: 59 ≡ 3 mod 4 so p ≡ ...
                                           // Just compute and verify both branches over a set of squares.
        for a in 2u64..20 {
            let a = BigUint::from(a);
            let sq = mod_mul(&a, &a, &p);
            let r = sqrt_mod(&sq, &p).unwrap();
            assert_eq!(mod_mul(&r, &r, &p), sq);
        }
    }

    #[test]
    fn sqrt_mod_1mod4_tonelli() {
        let p = big("1000000007"); // ≡ 3 mod 4 actually; use 13 for 1 mod 4 and a bigger one
        let p13 = big("13"); // 13 ≡ 1 mod 4
        let r = sqrt_mod(&big("10"), &p13).unwrap();
        assert_eq!(mod_mul(&r, &r, &p13), big("10"));
        // 2^255 - 19 ≡ 5 (mod 8), exercises Tonelli–Shanks with s = 2.
        let p25519 = &(BigUint::one() << 255) - &big("19");
        for a in 2u64..12 {
            let a = BigUint::from(a);
            let sq = mod_mul(&a, &a, &p25519);
            let r = sqrt_mod(&sq, &p25519).unwrap();
            assert_eq!(mod_mul(&r, &r, &p25519), sq);
        }
        let _ = p;
    }

    #[test]
    fn sqrt_mod_nonresidue() {
        let p = big("11");
        // QRs mod 11: 1,3,4,5,9. 2 is a non-residue.
        assert_eq!(sqrt_mod(&big("2"), &p), Err(Error::NonResidue));
        assert_eq!(sqrt_mod(&BigUint::zero(), &p).unwrap(), BigUint::zero());
    }

    #[test]
    fn crt_pair_reconstructs() {
        let m1 = big("97");
        let m2 = big("89");
        let x = big("5000");
        let r1 = &x % &m1;
        let r2 = &x % &m2;
        let got = crt_pair(&r1, &m1, &r2, &m2).unwrap();
        assert_eq!(&got % &(&m1 * &m2), x);
        assert!(crt_pair(&r1, &big("6"), &r2, &big("9")).is_err());
    }
}
