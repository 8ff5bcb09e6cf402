//! Fixed-width secret scalar containers with zeroize-on-drop.
//!
//! `SecretLimbs` is the stack-allocated counterpart of the bigint
//! crate's heap-backed secret integers: scalar material copied into
//! fixed arithmetic paths lives here so that it is erased with a
//! volatile write when it goes out of scope. `SecretDigits` does the
//! same for the signed-digit recoding the scalar-multiplication kernel
//! derives from those limbs. Debug output is redacted and equality is
//! routed through the constant-time limb comparison, matching the
//! workspace's secret hygiene rules (auditor R2/R4).

use core::fmt;

/// A little-endian `[u64; N]` holding secret scalar limbs.
///
/// Zero-padded on construction; zeroized with volatile writes on drop.
#[derive(Clone)]
pub struct SecretLimbs<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> SecretLimbs<N> {
    /// Copies `src` (little-endian) into the low limbs, zero-padding
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if `src` has more than `N` limbs — widths are chosen by
    /// the caller from the modulus, so a longer scalar is a logic bug.
    pub fn from_slice(src: &[u64]) -> Self {
        assert!(src.len() <= N, "scalar wider than container");
        let mut limbs = [0u64; N];
        limbs[..src.len()].copy_from_slice(src);
        SecretLimbs { limbs }
    }

    /// Borrows the limbs, little-endian.
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Constant-time equality over the full width.
    pub fn ct_eq(&self, other: &Self) -> bool {
        let mut diff = 0u64;
        for i in 0..N {
            diff |= self.limbs[i] ^ other.limbs[i];
        }
        diff == 0
    }
}

impl<const N: usize> Drop for SecretLimbs<N> {
    fn drop(&mut self) {
        wipe(&mut self.limbs);
    }
}

/// Zeroes `buf` with volatile writes, so the wipe survives dead-store
/// elimination.
fn wipe<T: Copy + Default>(buf: &mut [T]) {
    for v in buf.iter_mut() {
        // SAFETY: `v` comes from a live `&mut` borrow of `buf`, so it is
        // valid, aligned and exclusive for the write.
        unsafe { core::ptr::write_volatile(v, T::default()) };
    }
    core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
}

/// A stack buffer of `N` signed scalar digits (a recoding of secret
/// scalar limbs), zeroized with volatile writes on drop.
pub(crate) struct SecretDigits<const N: usize> {
    digits: [i8; N],
}

impl<const N: usize> SecretDigits<N> {
    /// An all-zero buffer.
    pub(crate) fn new() -> Self {
        SecretDigits { digits: [0; N] }
    }

    /// Borrows the digits.
    pub(crate) fn digits(&self) -> &[i8; N] {
        &self.digits
    }

    /// Borrows the digits mutably, for recoding into.
    pub(crate) fn digits_mut(&mut self) -> &mut [i8; N] {
        &mut self.digits
    }
}

impl<const N: usize> Drop for SecretDigits<N> {
    fn drop(&mut self) {
        wipe(&mut self.digits);
    }
}

impl<const N: usize> fmt::Debug for SecretLimbs<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretLimbs<{N}>(redacted)")
    }
}

impl<const N: usize> PartialEq for SecretLimbs<N> {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}

impl<const N: usize> Eq for SecretLimbs<N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_and_compares() {
        let a = SecretLimbs::<4>::from_slice(&[1, 2]);
        let b = SecretLimbs::<4>::from_slice(&[1, 2, 0, 0]);
        let c = SecretLimbs::<4>::from_slice(&[1, 3]);
        assert_eq!(a.limbs(), &[1, 2, 0, 0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.ct_eq(&b) && !a.ct_eq(&c));
    }

    #[test]
    #[should_panic(expected = "wider than container")]
    fn rejects_oversized() {
        let _ = SecretLimbs::<2>::from_slice(&[1, 2, 3]);
    }

    #[test]
    fn debug_is_redacted() {
        let s = SecretLimbs::<2>::from_slice(&[0xdeadbeef, 0xcafebabe]);
        let out = format!("{s:?}");
        assert!(out.contains("redacted"));
        assert!(!out.contains("deadbeef"));
    }
}
