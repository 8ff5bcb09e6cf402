//! Generic quadratic extension `F_p[i]/(i² + 1)` over any
//! [`FieldOps`] backend (valid for `p ≡ 3 (mod 4)`).

use crate::limb::{bit, bit_len};
use crate::traits::FieldOps;

/// An element `c0 + c1·i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ext2<E> {
    /// Real component.
    pub c0: E,
    /// Imaginary component.
    pub c1: E,
}

/// The zero element.
pub fn zero<F: FieldOps>(f: &F) -> Ext2<F::Elem> {
    Ext2 {
        c0: f.zero(),
        c1: f.zero(),
    }
}

/// The one element.
pub fn one<F: FieldOps>(f: &F) -> Ext2<F::Elem> {
    Ext2 {
        c0: f.one(),
        c1: f.zero(),
    }
}

/// `true` iff both components are zero.
pub fn is_zero<F: FieldOps>(f: &F, a: &Ext2<F::Elem>) -> bool {
    f.is_zero(&a.c0) && f.is_zero(&a.c1)
}

/// `true` iff the element equals one.
pub fn is_one<F: FieldOps>(f: &F, a: &Ext2<F::Elem>) -> bool {
    f.is_zero(&a.c1) && f.equals(&a.c0, &f.one())
}

/// Value equality.
pub fn equals<F: FieldOps>(f: &F, a: &Ext2<F::Elem>, b: &Ext2<F::Elem>) -> bool {
    f.equals(&a.c0, &b.c0) && f.equals(&a.c1, &b.c1)
}

/// `a · b` (backend hook: lazy-reduced on fixed-width contexts).
#[inline]
pub fn mul<F: FieldOps>(f: &F, a: &Ext2<F::Elem>, b: &Ext2<F::Elem>) -> Ext2<F::Elem> {
    f.ext2_mul(a, b)
}

/// `a²`.
#[inline]
pub fn sqr<F: FieldOps>(f: &F, a: &Ext2<F::Elem>) -> Ext2<F::Elem> {
    f.ext2_sqr(a)
}

/// Conjugation `c0 − c1·i` — the Frobenius `a^p`.
pub fn conj<F: FieldOps>(f: &F, a: &Ext2<F::Elem>) -> Ext2<F::Elem> {
    Ext2 {
        c0: a.c0.clone(),
        c1: f.neg(&a.c1),
    }
}

/// `a⁻¹`, or `None` for zero: `ā / (c0² + c1²)`.
pub fn inv<F: FieldOps>(f: &F, a: &Ext2<F::Elem>) -> Option<Ext2<F::Elem>> {
    let n = f.add(&f.sqr(&a.c0), &f.sqr(&a.c1));
    let n_inv = f.inv(&n)?;
    Some(Ext2 {
        c0: f.mul(&a.c0, &n_inv),
        c1: f.neg(&f.mul(&a.c1, &n_inv)),
    })
}

/// `a^e` for a little-endian limb exponent.
///
/// 4-bit sliding window: the final exponentiation raises to a ~352-bit
/// public cofactor, where this cuts the multiplication count from one
/// per set bit (~half the length) to one per window (~a fifth), at the
/// cost of a 7-entry odd-power table. The exponent here is always
/// public (cofactor, pairing outputs in verification equations), so
/// the data-dependent window scan leaks nothing secret.
pub fn pow<F: FieldOps>(f: &F, a: &Ext2<F::Elem>, e: &[u64]) -> Ext2<F::Elem> {
    let n = bit_len(e);
    if n == 0 {
        return one(f);
    }
    // Odd powers a, a³, …, a¹⁵.
    let a2 = sqr(f, a);
    let mut table: [Ext2<F::Elem>; 8] = core::array::from_fn(|_| a.clone());
    for i in 1..8 {
        table[i] = mul(f, &table[i - 1], &a2);
    }
    let mut acc = one(f);
    let mut started = false;
    let mut i = n as isize - 1;
    while i >= 0 {
        if !bit(e, i as usize) {
            acc = sqr(f, &acc);
            i -= 1;
            continue;
        }
        // Greedy window [j..=i] of width ≤ 4 whose low bit is set, so
        // its value is odd and indexes the table directly.
        let mut j = if i >= 3 { i - 3 } else { 0 };
        while !bit(e, j as usize) {
            j += 1;
        }
        let mut val = 0usize;
        for k in (j..=i).rev() {
            val = (val << 1) | usize::from(bit(e, k as usize));
        }
        if started {
            for _ in j..=i {
                acc = sqr(f, &acc);
            }
            acc = mul(f, &acc, &table[val >> 1]);
        } else {
            // First window: skip the squarings of one.
            acc = table[val >> 1].clone();
            started = true;
        }
        i = j - 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mont::MontCtx;

    const CTX: MontCtx<2> = MontCtx::new([u64::MAX, u64::MAX >> 1]);

    fn elem(a: u64, b: u64) -> Ext2<crate::mont::FpW<2>> {
        Ext2 {
            c0: CTX.from_u64(a),
            c1: CTX.from_u64(b),
        }
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = elem(0, 1);
        let i2 = sqr(&CTX, &i);
        assert!(equals(
            &CTX,
            &i2,
            &Ext2 {
                c0: CTX.neg(&CTX.one()),
                c1: CTX.zero()
            }
        ));
        assert!(equals(&CTX, &mul(&CTX, &i, &i), &i2));
    }

    #[test]
    fn lazy_mul_matches_schoolbook() {
        // (a0 + a1 i)(b0 + b1 i) = (a0b0 − a1b1) + (a0b1 + a1b0)i
        let a = elem(0xdead_beef, 0xcafe_babe);
        let b = elem(0x1234_5678, 0x9abc_def0);
        let got = mul(&CTX, &a, &b);
        let c0 = CTX.sub(&CTX.mul(&a.c0, &b.c0), &CTX.mul(&a.c1, &b.c1));
        let c1 = CTX.add(&CTX.mul(&a.c0, &b.c1), &CTX.mul(&a.c1, &b.c0));
        assert_eq!(got.c0, c0);
        assert_eq!(got.c1, c1);
        assert!(equals(&CTX, &sqr(&CTX, &a), &mul(&CTX, &a, &a)));
    }

    #[test]
    fn inversion_and_pow() {
        let a = elem(1234, 5678);
        let a_inv = inv(&CTX, &a).unwrap();
        assert!(is_one(&CTX, &mul(&CTX, &a, &a_inv)));
        assert!(inv(&CTX, &zero(&CTX)).is_none());
        assert!(is_one(&CTX, &pow(&CTX, &a, &[])));
        assert!(equals(&CTX, &pow(&CTX, &a, &[1]), &a));
        assert!(equals(&CTX, &pow(&CTX, &a, &[2]), &sqr(&CTX, &a)));
        // Frobenius = conjugation: a^p.
        let p = *CTX.modulus();
        assert!(equals(&CTX, &pow(&CTX, &a, &p), &conj(&CTX, &a)));
    }
}
