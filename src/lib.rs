//! # sempair — façade crate
//!
//! Re-exports the public API of the `sempair` workspace: a full
//! reproduction of Libert & Quisquater, *"Efficient revocation and
//! threshold pairing based cryptosystems"* (PODC 2003).
//!
//! See the workspace `README.md` for a tour and `DESIGN.md` for the
//! system inventory. Start with [`core`] for the paper's schemes.

#![forbid(unsafe_code)]

/// Arbitrary-precision integer substrate.
pub use sempair_bigint as bigint;
/// The paper's schemes: BF-IBE, threshold IBE, mediated IBE, GDH signatures.
pub use sempair_core as core;
/// SHA-2, HMAC, MGF1 and derivation utilities.
pub use sempair_hash as hash;
/// RSA-OAEP / mediated RSA / IB-mRSA baseline.
pub use sempair_mrsa as mrsa;
/// The SEM as a TCP daemon, its clients, and the deployment lifecycle.
pub use sempair_net as net;
/// Supersingular-curve groups and the Tate pairing.
pub use sempair_pairing as pairing;

/// The types most applications need, in one import.
///
/// ```
/// use sempair::prelude::*;
/// # let _ = CurveParams::fast_insecure();
/// ```
pub mod prelude {
    pub use sempair_core::bf_ibe::{FullCiphertext, IbePublicParams, Pkg, PrivateKey};
    pub use sempair_core::gdh::{self, GdhPublicKey, GdhSem, GdhUser, Signature};
    pub use sempair_core::mediated::{DecryptToken, Sem, SemKey, UserKey};
    pub use sempair_core::threshold::{DecryptionShare, IdKeyShare, ThresholdPkg, ThresholdSystem};
    pub use sempair_core::Error;
    pub use sempair_net::tcp::{TcpSemClient, TcpSemServer};
    pub use sempair_pairing::{CurveParams, G1Affine, Gt};
}
