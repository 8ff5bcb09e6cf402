//! # sempair-field
//!
//! No-allocation, const-generic fixed-width Montgomery field
//! arithmetic and the generic curve/pairing kernels built on it.
//!
//! The workspace's reference arithmetic lives in `sempair-bigint`
//! (heap-allocated, arbitrary precision). This crate provides the fast
//! path: [`mont::FpW`] elements are `[u64; N]` limb arrays on the
//! stack, [`mont::MontCtx`] carries the Montgomery parameters
//! (computable in `const fn`, see [`p512`]), and CIOS multiplication
//! plus lazily-reduced `F_p²` towers ([`ext2`]) remove every
//! allocation and most reductions from the pairing hot loop.
//!
//! Both backends share one set of kernels: [`curve`] and [`miller`]
//! are written against the [`traits::FieldOps`] abstraction, which
//! `MontCtx` implements here and the pairing crate's bigint-backed
//! context implements there. Identical kernels running identical
//! exceptional-case logic is what makes the two backends bit-exact —
//! the pairing crate's differential tests pin that property.
//!
//! Field arithmetic, scalar multiplication and exponentiation keep
//! their tables and digit buffers in fixed-size stack arrays. Only the
//! kernels whose size depends on their input allocate: Pippenger
//! buckets, multi-pairing state and prepared line chains.
//!
//! Montgomery-form compatibility: for an `N`-limb modulus both
//! backends use `R = 2^{64N}`, so raw limb vectors move between them
//! with a plain copy (no form conversion).
//!
//! Secret scalar material that transits fixed-width paths is carried
//! in [`secret::SecretLimbs`], which zeroizes on drop and redacts its
//! `Debug` output; the signed digits scalar multiplication recodes it
//! into are wiped on drop the same way.

pub mod curve;
pub mod ext2;
pub mod limb;
pub mod miller;
pub mod mont;
pub mod p512;
pub mod secret;
pub mod traits;

pub use ext2::Ext2;
pub use mont::{FpW, MontCtx};
pub use secret::SecretLimbs;
pub use traits::FieldOps;
