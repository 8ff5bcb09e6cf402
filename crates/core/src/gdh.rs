//! The GDH (BLS) signature and its threshold/mediated variants (§5).
//!
//! The base scheme is Boneh–Lynn–Shacham short signatures over a
//! Gap-Diffie-Hellman group: `σ = x·H(m)`, verified by checking that
//! `(P, R = xP, H(m), σ)` is a Diffie–Hellman tuple via the pairing:
//! `ê(P, σ) = ê(R, H(m))`.
//!
//! * [`ThresholdGdh`] — Boldyreva's `(t, n)` threshold version \[2\]:
//!   partial signatures `σᵢ = f(i)·H(m)` recombine with Lagrange
//!   coefficients. Non-interactive and deterministic, which is exactly
//!   why §5 singles it out: probabilistic threshold signatures would
//!   force extra SEM↔user rounds for joint nonce generation.
//! * [`GdhSem`]/[`GdhUser`] — the mediated version: a 2-of-2 additive
//!   split `x = x_user + x_sem`; the SEM's token is a *single
//!   compressed G1 element* (~`|p|` bits vs 1024 for mRSA, the paper's
//!   headline bandwidth win).

use crate::shamir::{self, Polynomial};
use crate::Error;
use rand::RngCore;
use sempair_bigint::{modular, BigUint};
use sempair_hash::derive;
use sempair_pairing::{CurveParams, G1Affine};
use std::collections::{HashMap, HashSet};

/// Domain tag for the message hash `h : {0,1}* → G1`.
const MSG_TAG: &[u8] = b"sempair-gdh-h";

/// A GDH public key `R = xP`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GdhPublicKey {
    /// The public point.
    pub point: G1Affine,
}

/// A GDH secret key `x`.
///
/// Secret material: `Debug` redacts the scalar and dropping the key
/// erases it.
#[derive(Clone)]
pub struct GdhSecretKey {
    /// The secret scalar.
    pub scalar: BigUint,
}

impl std::fmt::Debug for GdhSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdhSecretKey")
            .field("scalar", &"<redacted>")
            .finish()
    }
}

impl Drop for GdhSecretKey {
    fn drop(&mut self) {
        self.scalar.zeroize();
    }
}

/// A (short) GDH signature `σ = x·H(m) ∈ G1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub G1Affine);

/// Hashes a message onto `G1`.
pub fn hash_message(curve: &CurveParams, message: &[u8]) -> G1Affine {
    curve.hash_to_g1(MSG_TAG, message)
}

/// Generates a keypair.
pub fn keygen(rng: &mut impl RngCore, curve: &CurveParams) -> (GdhSecretKey, GdhPublicKey) {
    let x = curve.random_scalar(rng);
    let point = curve.mul_generator(&x);
    (GdhSecretKey { scalar: x }, GdhPublicKey { point })
}

/// Signs: `σ = x·H(m)`.
pub fn sign(curve: &CurveParams, key: &GdhSecretKey, message: &[u8]) -> Signature {
    Signature(curve.mul(&key.scalar, &hash_message(curve, message)))
}

/// Verifies `ê(P, σ) = ê(R, H(m))`.
///
/// # Errors
///
/// Returns [`Error::InvalidSignature`] on mismatch or malformed point.
pub fn verify(
    curve: &CurveParams,
    key: &GdhPublicKey,
    message: &[u8],
    sig: &Signature,
) -> Result<(), Error> {
    if !curve.is_in_group(&sig.0) {
        return Err(Error::InvalidSignature);
    }
    let h = hash_message(curve, message);
    if curve.pairing_equals(curve.generator(), &sig.0, &key.point, &h) {
        Ok(())
    } else {
        Err(Error::InvalidSignature)
    }
}

// --- batch verification ------------------------------------------------------

/// Domain tag for batch-verification coefficient derivation.
const BATCH_TAG: &[u8] = b"sempair-gdh-batch";

/// Small-exponent soundness parameter: coefficients are `ℓ`-bit, so a
/// bad batch survives the combined check with probability `≈ 2⁻ℓ`.
const BATCH_COEFF_BITS: usize = 64;

/// Hash-derived batch coefficients bound to the batch transcript
/// (Fiat–Shamir style, so callers need no RNG): the signatures are
/// fixed *before* the combination that tests them is known, which is
/// what makes the random-linear-combination check sound against
/// adversarially correlated forgeries.
///
/// Coefficients use the small-exponents test (Bellare–Garay–Rabin):
/// `cᵢ ∈ [1, 2^ℓ)` with `ℓ = 64` (capped below the group order for toy
/// curves) keeps the failure probability at `2⁻ℓ` while making the
/// combiner's multi-scalar multiplications run over `ℓ`-bit scalars
/// instead of full-width ones.
fn batch_coefficients(
    tag: &[u8],
    curve: &CurveParams,
    transcript: &[u8],
    n: usize,
) -> Vec<BigUint> {
    let ell = BATCH_COEFF_BITS.min(curve.order().bits() - 1);
    let bound = BigUint::one() << ell;
    (0..n)
        .map(|i| {
            let mut input = Vec::with_capacity(transcript.len() + 8);
            input.extend_from_slice(transcript);
            input.extend_from_slice(&(i as u64).to_be_bytes());
            derive::hash_to_scalar(tag, &input, &bound)
        })
        .collect()
}

/// The 2-pairing random-linear-combination check for a same-key batch.
/// Assumes every signature already passed the group-membership check.
///
/// Hash side, fast path first: combine the *pre-cofactor-clearing*
/// first candidates and clear once — `Σ cᵢ·H(mᵢ) = cofactor ·
/// Σ cᵢ·Candᵢ`, one cofactor multiplication per batch instead of one
/// per message. The identity fails only for inputs whose first
/// candidate clears to infinity (`hash_to_g1`'s retry guard then picks
/// the next candidate), so a fast-path mismatch is re-checked against
/// the exact per-message hashes before the batch is declared bad:
/// completeness is exact, and a fast-path *accept* diverging from the
/// exact hashes would require an input found by `≈ r` hash evaluations
/// (collision-search class, see
/// [`CurveParams::hash_to_g1_candidate`]).
fn batch_check_same_key(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
) -> bool {
    let fast = batch_check_fast(curve, key, entries);
    if fast.accepted {
        return true;
    }
    // Exact fallback: only differs from the fast path when a candidate
    // tripped the infinity guard, so skip the second pairing otherwise.
    let hash_terms: Vec<(BigUint, G1Affine)> = fast
        .coeffs
        .iter()
        .zip(entries)
        .map(|(c, (message, _))| (c.clone(), hash_message(curve, message)))
        .collect();
    let exact_hash = curve.multi_mul(&hash_terms);
    fast.recheck_exact(curve, key, &exact_hash)
}

/// Outcome of the candidate fast path, carrying what the exact
/// fallback needs so callers that already hold (or go on to compute)
/// the per-message hashes never redo the transcript/MSM work.
struct FastBatchCheck {
    accepted: bool,
    coeffs: Vec<BigUint>,
    combined_sig: G1Affine,
    fast_hash: G1Affine,
}

impl FastBatchCheck {
    /// The exact-fallback decision given the combined exact hash.
    fn recheck_exact(
        &self,
        curve: &CurveParams,
        key: &GdhPublicKey,
        exact_hash: &G1Affine,
    ) -> bool {
        if *exact_hash == self.fast_hash {
            // Same combined point the fast pairing already rejected.
            return false;
        }
        curve.pairing_equals(
            curve.generator(),
            &self.combined_sig,
            &key.point,
            exact_hash,
        )
    }
}

fn batch_check_fast(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
) -> FastBatchCheck {
    let mut transcript = curve.point_to_bytes(&key.point);
    for (message, sig) in entries {
        transcript.extend_from_slice(&(message.len() as u64).to_be_bytes());
        transcript.extend_from_slice(message);
        transcript.extend_from_slice(&curve.point_to_bytes(&sig.0));
    }
    let coeffs = batch_coefficients(BATCH_TAG, curve, &transcript, entries.len());
    let sig_terms: Vec<(BigUint, G1Affine)> = coeffs
        .iter()
        .zip(entries)
        .map(|(c, (_, sig))| (c.clone(), sig.0.clone()))
        .collect();
    let combined_sig = curve.multi_mul(&sig_terms);
    let candidate_terms: Vec<(BigUint, G1Affine)> = coeffs
        .iter()
        .zip(entries)
        .map(|(c, (message, _))| (c.clone(), curve.hash_to_g1_candidate(MSG_TAG, message)))
        .collect();
    let fast_hash = curve.mul(curve.cofactor(), &curve.multi_mul(&candidate_terms));
    let accepted = curve.pairing_equals(curve.generator(), &combined_sig, &key.point, &fast_hash);
    FastBatchCheck {
        accepted,
        coeffs,
        combined_sig,
        fast_hash,
    }
}

/// Per-point order-`r` subgroup check over a batch.
///
/// Deliberately **not** batched with a random linear combination: the
/// cofactor `(p+1)/r` is always even (`p` odd, `r` an odd prime), so
/// the curve carries 2-torsion outside the order-`r` subgroup, and an
/// `ℓ`-bit combination `Σ dᵢ·σᵢ` is blind to order-2 components
/// whenever the tainted positions' coefficients sum to an even number
/// — probability 1/2, not `2⁻ℓ`. With transcript-derived coefficients
/// an attacker grinds signatures locally until the cancellation
/// happens, so a batched membership check would accept points that
/// [`verify`] rejects. Soundness of the 2-pairing batch equation rests
/// on each point individually having order dividing `r`.
fn points_in_group(curve: &CurveParams, points: &[&G1Affine]) -> bool {
    points.iter().all(|point| curve.is_in_group(point))
}

/// Batch verification of `n` signatures under **one** public key.
///
/// Checks `ê(P, Σcᵢσᵢ) = ê(R, ΣcᵢH(mᵢ))` with hash-derived random
/// coefficients `cᵢ` — two pairings total instead of `2n`. Since each
/// signature verifies as `ê(P, σᵢ) = ê(R, H(mᵢ))`, the combined
/// equation holds whenever all do; once every signature has passed the
/// per-point order-`r` check, a batch containing an invalid signature
/// survives the combined equation only with probability `≈ 2⁻ℓ`
/// (`ℓ = 64`) over the coefficient choice. Use [`batch_find_invalid`]
/// to localize a failure.
///
/// An empty batch is vacuously valid.
///
/// # Errors
///
/// [`Error::InvalidSignature`] if any signature is outside the group or
/// the combined check fails.
pub fn batch_verify(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
) -> Result<(), Error> {
    if entries.is_empty() {
        return Ok(());
    }
    let points: Vec<&G1Affine> = entries.iter().map(|(_, sig)| &sig.0).collect();
    if !points_in_group(curve, &points) {
        return Err(Error::InvalidSignature);
    }
    if batch_check_same_key(curve, key, entries) {
        Ok(())
    } else {
        Err(Error::InvalidSignature)
    }
}

/// Locates the invalid signatures in a batch by recursive bisection.
///
/// A passing sub-batch costs one 2-pairing check regardless of size, so
/// `k` bad signatures among `n` are localized with `O(k·log n)` batch
/// checks instead of `n` individual verifications. Returns the indices
/// (into `entries`, ascending) that fail; empty means the whole batch
/// verifies.
pub fn batch_find_invalid(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
) -> Vec<usize> {
    // Group-membership failures are individually attributable without
    // any pairing work (the check is per point — see
    // [`points_in_group`] for why it cannot be batched soundly).
    let mut bad: Vec<usize> = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    for (i, (_, sig)) in entries.iter().enumerate() {
        if curve.is_in_group(&sig.0) {
            candidates.push(i);
        } else {
            bad.push(i);
        }
    }
    let subset: Vec<(&[u8], &Signature)> = candidates.iter().map(|&i| entries[i]).collect();
    let fast = batch_check_fast(curve, key, &subset);
    if !fast.accepted {
        // The batch looks bad: hash every message exactly once, redo
        // the root check against the exact hashes (reusing the fast
        // path's coefficients and combined signature), and only bisect
        // if it still fails — no sub-batch ever re-hashes.
        let hashes: Vec<G1Affine> = entries
            .iter()
            .map(|(message, _)| hash_message(curve, message))
            .collect();
        let exact_terms: Vec<(BigUint, G1Affine)> = fast
            .coeffs
            .iter()
            .zip(&candidates)
            .map(|(c, &i)| (c.clone(), hashes[i].clone()))
            .collect();
        let exact_hash = curve.multi_mul(&exact_terms);
        if !fast.recheck_exact(curve, key, &exact_hash) {
            bisect_same_key(curve, key, entries, &hashes, &candidates, &mut bad);
        }
    }
    bad.sort_unstable();
    bad
}

/// The 2-pairing subset check of the bisection path, over exact cached
/// hashes (no candidate fast path needed: hashing is already paid).
fn batch_check_cached(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
    hashes: &[G1Affine],
    indices: &[usize],
) -> bool {
    let mut transcript = curve.point_to_bytes(&key.point);
    for &i in indices {
        let (message, sig) = entries[i];
        transcript.extend_from_slice(&(message.len() as u64).to_be_bytes());
        transcript.extend_from_slice(message);
        transcript.extend_from_slice(&curve.point_to_bytes(&sig.0));
    }
    let coeffs = batch_coefficients(BATCH_TAG, curve, &transcript, indices.len());
    let sig_terms: Vec<(BigUint, G1Affine)> = coeffs
        .iter()
        .zip(indices)
        .map(|(c, &i)| (c.clone(), entries[i].1 .0.clone()))
        .collect();
    let hash_terms: Vec<(BigUint, G1Affine)> = coeffs
        .iter()
        .zip(indices)
        .map(|(c, &i)| (c.clone(), hashes[i].clone()))
        .collect();
    let combined_sig = curve.multi_mul(&sig_terms);
    let combined_hash = curve.multi_mul(&hash_terms);
    curve.pairing_equals(curve.generator(), &combined_sig, &key.point, &combined_hash)
}

fn bisect_same_key(
    curve: &CurveParams,
    key: &GdhPublicKey,
    entries: &[(&[u8], &Signature)],
    hashes: &[G1Affine],
    indices: &[usize],
    bad: &mut Vec<usize>,
) {
    if indices.is_empty() {
        return;
    }
    if let [index] = indices {
        // Leaf: the individual pairing equation against the exact hash
        // (membership already passed), so the localization agrees with
        // [`verify`] by construction.
        let sig = entries[*index].1;
        if !curve.pairing_equals(curve.generator(), &sig.0, &key.point, &hashes[*index]) {
            bad.push(*index);
        }
        return;
    }
    if batch_check_cached(curve, key, entries, hashes, indices) {
        return;
    }
    let mid = indices.len() / 2;
    bisect_same_key(curve, key, entries, hashes, &indices[..mid], bad);
    bisect_same_key(curve, key, entries, hashes, &indices[mid..], bad);
}

// --- threshold GDH (Boldyreva) ----------------------------------------------

/// A `(t, n)` threshold GDH signature deployment.
#[derive(Debug, Clone)]
pub struct ThresholdGdh {
    curve: CurveParams,
    t: usize,
    n: usize,
    public: GdhPublicKey,
    /// Per-player verification keys `Rᵢ = f(i)·P`.
    verification_keys: Vec<G1Affine>,
}

/// Player `i`'s signing-key share `f(i)`.
///
/// Secret material: `Debug` redacts the scalar and dropping the share
/// erases it.
#[derive(Clone)]
pub struct GdhKeyShare {
    /// Player index (1-based).
    pub index: u32,
    /// The scalar share.
    pub scalar: BigUint,
}

impl std::fmt::Debug for GdhKeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdhKeyShare")
            .field("index", &self.index)
            .field("scalar", &"<redacted>")
            .finish()
    }
}

impl Drop for GdhKeyShare {
    fn drop(&mut self) {
        self.scalar.zeroize();
    }
}

/// A partial signature `σᵢ = f(i)·H(m)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSignature {
    /// Player index.
    pub index: u32,
    /// The partial-signature point.
    pub point: G1Affine,
}

impl ThresholdGdh {
    /// Dealer setup: shares a fresh key among `n` players with
    /// threshold `t`. Returns the system plus each player's share.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadThresholdParams`] unless `1 ≤ t ≤ n`.
    pub fn setup(
        rng: &mut impl RngCore,
        curve: CurveParams,
        t: usize,
        n: usize,
    ) -> Result<(Self, Vec<GdhKeyShare>), Error> {
        if t == 0 || t > n {
            return Err(Error::BadThresholdParams("need 1 <= t <= n"));
        }
        let x = curve.random_scalar(rng);
        let poly = Polynomial::sample(rng, &x, t, curve.order());
        let shares: Vec<GdhKeyShare> = poly
            .shares(n)
            .into_iter()
            .map(|share| GdhKeyShare {
                index: share.index,
                scalar: share.value.clone(),
            })
            .collect();
        let verification_keys = shares
            .iter()
            .map(|s| curve.mul_generator(&s.scalar))
            .collect();
        let public = GdhPublicKey {
            point: curve.mul_generator(&x),
        };
        Ok((
            ThresholdGdh {
                curve,
                t,
                n,
                public,
                verification_keys,
            },
            shares,
        ))
    }

    /// Assembles a threshold system from externally generated parts
    /// (the DKG of [`crate::dkg`] uses this; invariants are the
    /// caller's responsibility).
    pub(crate) fn from_parts(
        curve: CurveParams,
        t: usize,
        n: usize,
        public: GdhPublicKey,
        verification_keys: Vec<G1Affine>,
    ) -> Self {
        debug_assert_eq!(verification_keys.len(), n);
        ThresholdGdh {
            curve,
            t,
            n,
            public,
            verification_keys,
        }
    }

    /// The combined public key `R = xP`.
    pub fn public_key(&self) -> &GdhPublicKey {
        &self.public
    }

    /// The threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// The player count `n`.
    pub fn players(&self) -> usize {
        self.n
    }

    /// Player-side signing: `σᵢ = f(i)·H(m)`.
    pub fn partial_sign(&self, share: &GdhKeyShare, message: &[u8]) -> PartialSignature {
        PartialSignature {
            index: share.index,
            point: self
                .curve
                .mul(&share.scalar, &hash_message(&self.curve, message)),
        }
    }

    /// Verifies a partial signature against player `i`'s verification
    /// key: `ê(P, σᵢ) = ê(Rᵢ, H(m))` — GDH signatures are *natively*
    /// robust, no extra NIZK needed.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidShare`] when the check fails.
    pub fn verify_partial(&self, message: &[u8], partial: &PartialSignature) -> Result<(), Error> {
        let err = Error::InvalidShare {
            player: partial.index,
        };
        if partial.index == 0 || partial.index as usize > self.n {
            return Err(err);
        }
        let vk = &self.verification_keys[(partial.index - 1) as usize];
        let h = hash_message(&self.curve, message);
        if self
            .curve
            .pairing_equals(self.curve.generator(), &partial.point, vk, &h)
        {
            Ok(())
        } else {
            Err(err)
        }
    }

    /// Combines `t` partial signatures: `σ = Σ Lᵢ·σᵢ`, then verifies
    /// the result under the combined public key.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`], index errors, or
    /// [`Error::InvalidSignature`] if the combination does not verify
    /// (some unverified partial was bogus).
    pub fn combine(
        &self,
        message: &[u8],
        partials: &[PartialSignature],
    ) -> Result<Signature, Error> {
        if partials.len() < self.t {
            return Err(Error::NotEnoughShares {
                needed: self.t,
                got: partials.len(),
            });
        }
        let used = &partials[..self.t];
        let indices: Vec<u32> = used.iter().map(|p| p.index).collect();
        let q = self.curve.order();
        let mut terms = Vec::with_capacity(used.len());
        for partial in used {
            let li = shamir::lagrange_coefficient(&indices, partial.index, q)?;
            terms.push((li, partial.point.clone()));
        }
        let sig = Signature(self.curve.multi_mul(&terms));
        verify(&self.curve, &self.public, message, &sig)?;
        Ok(sig)
    }

    /// Batch verification of partial signatures on one message:
    /// `ê(P, Σcᵢσᵢ) = ê(ΣcᵢRᵢ, H(m))` with hash-derived coefficients —
    /// two pairings for the whole set instead of two per partial
    /// (exploiting that all partials share `H(m)` while differing in
    /// verification key, the dual of [`batch_verify`]'s shape).
    ///
    /// An empty set is vacuously valid.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidShare`] naming the first offending player when
    /// an index is out of range; [`Error::InvalidSignature`] when the
    /// combined check fails (use
    /// [`ThresholdGdh::find_invalid_partials`] to attribute it).
    pub fn batch_verify_partials(
        &self,
        message: &[u8],
        partials: &[PartialSignature],
    ) -> Result<(), Error> {
        if partials.is_empty() {
            return Ok(());
        }
        for partial in partials {
            if partial.index == 0 || partial.index as usize > self.n {
                return Err(Error::InvalidShare {
                    player: partial.index,
                });
            }
        }
        let h = hash_message(&self.curve, message);
        if self.batch_check_partials(&h, message, partials) {
            Ok(())
        } else {
            Err(Error::InvalidSignature)
        }
    }

    /// Indices (into `partials`, ascending) of the partial signatures
    /// that fail verification, localized by bisection over the
    /// 2-pairing batch check — empty when everything verifies, which
    /// costs a single batch check.
    pub fn find_invalid_partials(
        &self,
        message: &[u8],
        partials: &[PartialSignature],
    ) -> Vec<usize> {
        // Out-of-range indices are individually attributable.
        let mut bad: Vec<usize> = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        for (i, partial) in partials.iter().enumerate() {
            if partial.index == 0 || partial.index as usize > self.n {
                bad.push(i);
            } else {
                candidates.push(i);
            }
        }
        let h = hash_message(&self.curve, message);
        self.bisect_partials(&h, message, partials, &candidates, &mut bad);
        bad.sort_unstable();
        bad
    }

    /// The 2-pairing check for a subset of partials (indices assumed in
    /// range).
    fn batch_check_partials(
        &self,
        h: &G1Affine,
        message: &[u8],
        partials: &[PartialSignature],
    ) -> bool {
        let curve = &self.curve;
        let mut transcript = curve.point_to_bytes(&self.public.point);
        transcript.extend_from_slice(&(message.len() as u64).to_be_bytes());
        transcript.extend_from_slice(message);
        for partial in partials {
            transcript.extend_from_slice(&partial.index.to_be_bytes());
            transcript.extend_from_slice(&curve.point_to_bytes(&partial.point));
        }
        let coeffs = batch_coefficients(BATCH_TAG, curve, &transcript, partials.len());
        let sig_terms: Vec<(BigUint, G1Affine)> = coeffs
            .iter()
            .zip(partials)
            .map(|(c, partial)| (c.clone(), partial.point.clone()))
            .collect();
        let vk_terms: Vec<(BigUint, G1Affine)> = coeffs
            .iter()
            .zip(partials)
            .map(|(c, partial)| {
                (
                    c.clone(),
                    self.verification_keys[(partial.index - 1) as usize].clone(),
                )
            })
            .collect();
        let combined_sig = curve.multi_mul(&sig_terms);
        let combined_vk = curve.multi_mul(&vk_terms);
        curve.pairing_equals(curve.generator(), &combined_sig, &combined_vk, h)
    }

    fn bisect_partials(
        &self,
        h: &G1Affine,
        message: &[u8],
        partials: &[PartialSignature],
        indices: &[usize],
        bad: &mut Vec<usize>,
    ) {
        if indices.is_empty() {
            return;
        }
        let subset: Vec<PartialSignature> = indices.iter().map(|&i| partials[i].clone()).collect();
        if self.batch_check_partials(h, message, &subset) {
            return;
        }
        if indices.len() == 1 {
            bad.push(indices[0]);
            return;
        }
        let mid = indices.len() / 2;
        self.bisect_partials(h, message, partials, &indices[..mid], bad);
        self.bisect_partials(h, message, partials, &indices[mid..], bad);
    }

    /// Robust combine: discards invalid partials, returns the signature
    /// and the cheater list.
    ///
    /// The honest-majority fast path costs one 2-pairing batch check
    /// for the whole set (via [`ThresholdGdh::find_invalid_partials`]);
    /// only a batch containing actual cheaters pays for localization.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`] if fewer than `t` partials survive.
    pub fn combine_robust(
        &self,
        message: &[u8],
        partials: &[PartialSignature],
    ) -> Result<(Signature, Vec<u32>), Error> {
        let bad = self.find_invalid_partials(message, partials);
        let cheaters: Vec<u32> = bad.iter().map(|&i| partials[i].index).collect();
        let valid: Vec<PartialSignature> = partials
            .iter()
            .enumerate()
            .filter(|(i, _)| !bad.contains(i))
            .map(|(_, partial)| partial.clone())
            .collect();
        let sig = self.combine(message, &valid)?;
        Ok((sig, cheaters))
    }
}

// --- aggregate / multi / blind signatures (Boldyreva [2]'s other schemes) ----

/// Aggregates signatures on *distinct* messages into one point:
/// `σ_agg = Σ σᵢ` (BLS aggregation).
pub fn aggregate(curve: &CurveParams, sigs: &[Signature]) -> Signature {
    let mut acc = G1Affine::infinity();
    for sig in sigs {
        acc = curve.add(&acc, &sig.0);
    }
    Signature(acc)
}

/// Verifies an aggregate signature over `(public key, message)` pairs:
/// `ê(P, σ_agg) = Π ê(Rᵢ, H(mᵢ))`, checked with one shared-loop
/// multi-pairing.
///
/// Messages must be pairwise distinct (the standard aggregation
/// requirement that blocks rogue-key-style forgeries in this setting).
///
/// # Errors
///
/// [`Error::InvalidSignature`] on duplicate messages, arity mismatch or
/// verification failure.
pub fn verify_aggregate(
    curve: &CurveParams,
    entries: &[(&GdhPublicKey, &[u8])],
    sig: &Signature,
) -> Result<(), Error> {
    if entries.is_empty() || !curve.is_in_group(&sig.0) {
        return Err(Error::InvalidSignature);
    }
    for (i, (_, m)) in entries.iter().enumerate() {
        if entries[i + 1..].iter().any(|(_, m2)| m2 == m) {
            return Err(Error::InvalidSignature); // distinct-message rule
        }
    }
    // ê(−P, σ)·Π ê(Rᵢ, H(mᵢ)) = 1
    let neg_p = curve.neg(curve.generator());
    let hashes: Vec<G1Affine> = entries
        .iter()
        .map(|(_, m)| hash_message(curve, m))
        .collect();
    let mut pairs: Vec<(&G1Affine, &G1Affine)> = vec![(&neg_p, &sig.0)];
    for ((pk, _), h) in entries.iter().zip(hashes.iter()) {
        pairs.push((&pk.point, h));
    }
    if curve.gt_is_one(&curve.multi_pairing(&pairs)) {
        Ok(())
    } else {
        Err(Error::InvalidSignature)
    }
}

/// Multisignature: `n` signers on the *same* message. Verification uses
/// the aggregated public key `Σ Rᵢ`, so cost is independent of `n`.
///
/// # Errors
///
/// [`Error::InvalidSignature`] on empty input or failure.
pub fn verify_multisignature(
    curve: &CurveParams,
    keys: &[&GdhPublicKey],
    message: &[u8],
    sig: &Signature,
) -> Result<(), Error> {
    if keys.is_empty() {
        return Err(Error::InvalidSignature);
    }
    let mut agg_pk = G1Affine::infinity();
    for key in keys {
        agg_pk = curve.add(&agg_pk, &key.point);
    }
    verify(curve, &GdhPublicKey { point: agg_pk }, message, sig)
}

/// A blinded message `H(m) + ρ·P`, hiding `m` from the signer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindedMessage(pub G1Affine);

/// The requester's unblinding state (keep secret until unblinding).
///
/// `rho` is secret while a blind-signing session is live: `Debug`
/// redacts it and dropping the factor erases it.
#[derive(Clone)]
pub struct BlindingFactor {
    rho: BigUint,
}

impl std::fmt::Debug for BlindingFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlindingFactor")
            .field("rho", &"<redacted>")
            .finish()
    }
}

impl Drop for BlindingFactor {
    fn drop(&mut self) {
        self.rho.zeroize();
    }
}

/// Requester side, step 1: blind the message.
pub fn blind(
    rng: &mut impl RngCore,
    curve: &CurveParams,
    message: &[u8],
) -> (BlindedMessage, BlindingFactor) {
    let rho = curve.random_scalar(rng);
    let blinded = curve.add(&hash_message(curve, message), &curve.mul_generator(&rho));
    (BlindedMessage(blinded), BlindingFactor { rho })
}

/// Signer side, step 2: sign the blinded point `x·(H(m) + ρP)` —
/// without learning `m` (the signer sees a uniformly random point).
pub fn blind_sign(curve: &CurveParams, key: &GdhSecretKey, blinded: &BlindedMessage) -> Signature {
    Signature(curve.mul(&key.scalar, &blinded.0))
}

/// Requester side, step 3: unblind `σ' − ρ·R = x·H(m)` — an ordinary
/// GDH signature, verifiable by anyone with [`verify`].
pub fn unblind(
    curve: &CurveParams,
    public: &GdhPublicKey,
    factor: &BlindingFactor,
    blinded_sig: &Signature,
) -> Signature {
    Signature(curve.sub(&blinded_sig.0, &curve.mul(&factor.rho, &public.point)))
}

// --- mediated GDH (§5) --------------------------------------------------------

/// The trusted authority of §5: generates `x = x_user + x_sem` splits.
///
/// Returns `(user key, SEM record, public key)`; the TA discards the
/// full `x` afterwards.
pub fn mediated_keygen(
    rng: &mut impl RngCore,
    curve: &CurveParams,
    id: &str,
) -> (GdhUser, GdhSemKey, GdhPublicKey) {
    let x_user = curve.random_scalar(rng);
    let x_sem = curve.random_scalar(rng);
    let sum = modular::mod_add(&x_user, &x_sem, curve.order());
    let public = GdhPublicKey {
        point: curve.mul_generator(&sum),
    };
    (
        GdhUser {
            id: id.to_string(),
            public: public.clone(),
            x_user,
        },
        GdhSemKey {
            id: id.to_string(),
            x_sem,
        },
        public,
    )
}

/// The user's half of a mediated GDH signing key.
///
/// `x_user` is secret: `Debug` redacts it and dropping the key erases
/// it.
#[derive(Clone)]
pub struct GdhUser {
    /// The user's identity label.
    pub id: String,
    /// The combined public key `(x_user + x_sem)·P`.
    pub public: GdhPublicKey,
    x_user: BigUint,
}

impl std::fmt::Debug for GdhUser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdhUser")
            .field("id", &self.id)
            .field("x_user", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl Drop for GdhUser {
    fn drop(&mut self) {
        self.x_user.zeroize();
    }
}

/// The SEM's half-key record for one user.
///
/// `x_sem` is secret: `Debug` redacts it and dropping the record
/// erases it.
#[derive(Clone)]
pub struct GdhSemKey {
    /// Identity served.
    pub id: String,
    x_sem: BigUint,
}

impl std::fmt::Debug for GdhSemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdhSemKey")
            .field("id", &self.id)
            .field("x_sem", &"<redacted>")
            .finish()
    }
}

impl Drop for GdhSemKey {
    fn drop(&mut self) {
        self.x_sem.zeroize();
    }
}

/// A SEM half-signature `S_sem = x_sem·H(m)` — one compressed G1
/// element, the short token §5 highlights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfSignature(pub G1Affine);

/// The signing mediator: half-keys plus revocation list.
#[derive(Debug, Default)]
pub struct GdhSem {
    keys: HashMap<String, GdhSemKey>,
    revoked: HashSet<String>,
}

impl GdhUser {
    /// Keystore encoding: `u16 id-len ‖ id ‖ compressed public point ‖
    /// fixed-width x_user scalar`.
    pub fn to_bytes(&self, curve: &CurveParams) -> Vec<u8> {
        let id = self.id.as_bytes();
        let scalar_len = curve.order().bits().div_ceil(8);
        let mut out = Vec::with_capacity(2 + id.len() + curve.point_len() + scalar_len);
        out.extend_from_slice(&(id.len() as u16).to_be_bytes());
        out.extend_from_slice(id);
        out.extend_from_slice(&curve.point_to_bytes(&self.public.point));
        out.extend_from_slice(&self.x_user.to_be_bytes_padded(scalar_len));
        out
    }

    /// Decodes [`GdhUser::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSignature`] on malformed bytes.
    pub fn from_bytes(curve: &CurveParams, bytes: &[u8]) -> Result<Self, Error> {
        let mut r = crate::cursor::Reader::new(bytes);
        let id_len = r.u16_be().ok_or(Error::InvalidSignature)? as usize;
        let scalar_len = curve.order().bits().div_ceil(8);
        let id = String::from_utf8(r.bytes(id_len).ok_or(Error::InvalidSignature)?.to_vec())
            .map_err(|_| Error::InvalidSignature)?;
        let point = curve
            .point_from_bytes(r.bytes(curve.point_len()).ok_or(Error::InvalidSignature)?)
            .map_err(|_| Error::InvalidSignature)?;
        if r.remaining() != scalar_len {
            return Err(Error::InvalidSignature);
        }
        let x_user = BigUint::from_be_bytes(r.rest());
        if &x_user >= curve.order() {
            return Err(Error::InvalidSignature);
        }
        Ok(GdhUser {
            id,
            public: GdhPublicKey { point },
            x_user,
        })
    }
}

impl GdhSemKey {
    /// Provisioning encoding: `u16 id-len ‖ id ‖ fixed-width x_sem`.
    pub fn to_bytes(&self, curve: &CurveParams) -> Vec<u8> {
        let id = self.id.as_bytes();
        let scalar_len = curve.order().bits().div_ceil(8);
        let mut out = Vec::with_capacity(2 + id.len() + scalar_len);
        out.extend_from_slice(&(id.len() as u16).to_be_bytes());
        out.extend_from_slice(id);
        out.extend_from_slice(&self.x_sem.to_be_bytes_padded(scalar_len));
        out
    }

    /// Decodes [`GdhSemKey::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSignature`] on malformed bytes.
    pub fn from_bytes(curve: &CurveParams, bytes: &[u8]) -> Result<Self, Error> {
        let mut r = crate::cursor::Reader::new(bytes);
        let id_len = r.u16_be().ok_or(Error::InvalidSignature)? as usize;
        let scalar_len = curve.order().bits().div_ceil(8);
        let id = String::from_utf8(r.bytes(id_len).ok_or(Error::InvalidSignature)?.to_vec())
            .map_err(|_| Error::InvalidSignature)?;
        if r.remaining() != scalar_len {
            return Err(Error::InvalidSignature);
        }
        let x_sem = BigUint::from_be_bytes(r.rest());
        if &x_sem >= curve.order() {
            return Err(Error::InvalidSignature);
        }
        Ok(GdhSemKey { id, x_sem })
    }
}

impl GdhSem {
    /// Creates an empty signing SEM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a user's half-key.
    pub fn install(&mut self, key: GdhSemKey) {
        self.keys.insert(key.id.clone(), key);
    }

    /// Revokes signing capability instantly.
    pub fn revoke(&mut self, id: &str) {
        self.revoked.insert(id.to_string());
    }

    /// Reinstates an identity.
    pub fn unrevoke(&mut self, id: &str) {
        self.revoked.remove(id);
    }

    /// `true` iff revoked.
    pub fn is_revoked(&self, id: &str) -> bool {
        self.revoked.contains(id)
    }

    /// SEM signing step (§5): check revocation, return
    /// `S_sem = x_sem·H(m)`.
    ///
    /// # Errors
    ///
    /// [`Error::Revoked`] or [`Error::UnknownIdentity`].
    pub fn half_sign(
        &self,
        curve: &CurveParams,
        id: &str,
        message: &[u8],
    ) -> Result<HalfSignature, Error> {
        if self.revoked.contains(id) {
            return Err(Error::Revoked);
        }
        let key = self.keys.get(id).ok_or(Error::UnknownIdentity)?;
        Ok(HalfSignature(
            curve.mul(&key.x_sem, &hash_message(curve, message)),
        ))
    }
}

impl GdhUser {
    /// User signing step (§5): `σ = S_sem + x_user·H(m)`, verified
    /// before being returned (protocol step 3).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSignature`] if the combined signature fails
    /// verification (SEM misbehaviour or token/message mismatch).
    pub fn finish_sign(
        &self,
        curve: &CurveParams,
        message: &[u8],
        half: &HalfSignature,
    ) -> Result<Signature, Error> {
        let own = curve.mul(&self.x_user, &hash_message(curve, message));
        let sig = Signature(curve.add(&half.0, &own));
        verify(curve, &self.public, message, &sig)?;
        Ok(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn curve() -> (CurveParams, StdRng) {
        let mut rng = StdRng::seed_from_u64(101);
        (CurveParams::generate(&mut rng, 128, 64).unwrap(), rng)
    }

    #[test]
    fn plain_sign_verify() {
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let sig = sign(&curve, &sk, b"message");
        verify(&curve, &pk, b"message", &sig).unwrap();
        assert_eq!(
            verify(&curve, &pk, b"other", &sig),
            Err(Error::InvalidSignature)
        );
        let (_, pk2) = keygen(&mut rng, &curve);
        assert_eq!(
            verify(&curve, &pk2, b"message", &sig),
            Err(Error::InvalidSignature)
        );
    }

    #[test]
    fn signature_is_deterministic_and_short() {
        let (curve, mut rng) = curve();
        let (sk, _) = keygen(&mut rng, &curve);
        assert_eq!(sign(&curve, &sk, b"m"), sign(&curve, &sk, b"m"));
        // One compressed point: |p|/8 + 1 bytes.
        let sig = sign(&curve, &sk, b"m");
        assert_eq!(curve.point_to_bytes(&sig.0).len(), curve.point_len());
    }

    #[test]
    fn threshold_roundtrip_all_subsets() {
        let (curve, mut rng) = curve();
        let (sys, shares) = ThresholdGdh::setup(&mut rng, curve, 2, 4).unwrap();
        let partials: Vec<PartialSignature> = shares
            .iter()
            .map(|s| sys.partial_sign(s, b"vote"))
            .collect();
        for a in 0..4 {
            for b in a + 1..4 {
                let sig = sys
                    .combine(b"vote", &[partials[a].clone(), partials[b].clone()])
                    .unwrap();
                verify(&sys.curve, sys.public_key(), b"vote", &sig).unwrap();
            }
        }
    }

    #[test]
    fn threshold_partial_verification_catches_cheater() {
        let (curve, mut rng) = curve();
        let (sys, shares) = ThresholdGdh::setup(&mut rng, curve.clone(), 2, 3).unwrap();
        let mut partials: Vec<PartialSignature> =
            shares.iter().map(|s| sys.partial_sign(s, b"m")).collect();
        // Player 1 cheats.
        partials[0].point = curve.mul_generator(&BigUint::from(31337u64));
        assert!(sys.verify_partial(b"m", &partials[0]).is_err());
        let (sig, cheaters) = sys.combine_robust(b"m", &partials).unwrap();
        assert_eq!(cheaters, vec![1]);
        verify(&curve, sys.public_key(), b"m", &sig).unwrap();
    }

    #[test]
    fn threshold_insufficient_shares() {
        let (curve, mut rng) = curve();
        let (sys, shares) = ThresholdGdh::setup(&mut rng, curve, 3, 5).unwrap();
        let partials: Vec<PartialSignature> = shares[..2]
            .iter()
            .map(|s| sys.partial_sign(s, b"m"))
            .collect();
        assert_eq!(
            sys.combine(b"m", &partials),
            Err(Error::NotEnoughShares { needed: 3, got: 2 })
        );
    }

    #[test]
    fn threshold_bad_params() {
        let (curve, mut rng) = curve();
        assert!(ThresholdGdh::setup(&mut rng, curve.clone(), 0, 2).is_err());
        assert!(ThresholdGdh::setup(&mut rng, curve, 3, 2).is_err());
    }

    #[test]
    fn batch_verify_accepts_valid_batch() {
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let msgs: Vec<Vec<u8>> = (0..8).map(|i| format!("msg {i}").into_bytes()).collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| sign(&curve, &sk, m)).collect();
        let entries: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        batch_verify(&curve, &pk, &entries).unwrap();
        assert!(batch_find_invalid(&curve, &pk, &entries).is_empty());
        // Empty batch is vacuously valid.
        batch_verify(&curve, &pk, &[]).unwrap();
    }

    #[test]
    fn batch_verify_rejects_and_localizes_forgeries() {
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let msgs: Vec<Vec<u8>> = (0..9).map(|i| format!("msg {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sign(&curve, &sk, m)).collect();
        // Forge two signatures: a wrong-but-in-group point and a
        // signature swapped onto the wrong message.
        sigs[2] = Signature(curve.mul_generator(&BigUint::from(99u64)));
        sigs[7] = sign(&curve, &sk, b"some other message");
        let entries: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(
            batch_verify(&curve, &pk, &entries),
            Err(Error::InvalidSignature)
        );
        assert_eq!(batch_find_invalid(&curve, &pk, &entries), vec![2, 7]);
        // Swapping a pair of signatures breaks both positions even
        // though their sum still matches: the random coefficients see
        // through the cancellation a fixed-weight check would miss.
        let mut swapped: Vec<Signature> = msgs.iter().map(|m| sign(&curve, &sk, m)).collect();
        swapped.swap(0, 1);
        let entries: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&swapped)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(batch_find_invalid(&curve, &pk, &entries), vec![0, 1]);
    }

    #[test]
    fn batch_verify_rejects_out_of_subgroup_point() {
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("msg {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sign(&curve, &sk, m)).collect();
        // An on-curve point outside the order-r subgroup: only the
        // per-point membership check can catch it, the pairing equation
        // is not even defined for it.
        let mut x = BigUint::two();
        let rogue = loop {
            if let Some((point, _)) = curve.lift_x(&x) {
                if !curve.is_in_group(&point) {
                    break point;
                }
            }
            x = &x + &BigUint::one();
        };
        assert!(curve.is_on_curve(&rogue));
        sigs[1] = Signature(rogue);
        let entries: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(
            batch_verify(&curve, &pk, &entries),
            Err(Error::InvalidSignature)
        );
        assert_eq!(batch_find_invalid(&curve, &pk, &entries), vec![1]);
    }

    #[test]
    fn batch_verify_rejects_paired_two_torsion_tampering() {
        // The cofactor (p+1)/r is even, so (0, 0) — the 2-torsion point
        // of y² = x³ + x — always exists. Adding it to an *even number*
        // of valid signatures is the malleability a randomly-combined
        // membership check is blind to half the time (and that grinding
        // on transcript-derived coefficients makes reliable); the
        // per-point check must reject every tampered position
        // unconditionally, agreeing with individual verification.
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let (two_torsion, _) = curve.lift_x(&BigUint::zero()).unwrap();
        assert!(!two_torsion.is_infinity());
        assert!(curve.is_on_curve(&two_torsion) && !curve.is_in_group(&two_torsion));
        assert!(curve.add(&two_torsion, &two_torsion).is_infinity());
        let msgs: Vec<Vec<u8>> = (0..6).map(|i| format!("msg {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sign(&curve, &sk, m)).collect();
        for i in [0usize, 3] {
            sigs[i] = Signature(curve.add(&sigs[i].0, &two_torsion));
        }
        let entries: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(
            batch_verify(&curve, &pk, &entries),
            Err(Error::InvalidSignature)
        );
        assert_eq!(batch_find_invalid(&curve, &pk, &entries), vec![0, 3]);
        for (i, ((m, s), _)) in entries.iter().zip(&msgs).enumerate() {
            assert_eq!(verify(&curve, &pk, m, s).is_ok(), ![0usize, 3].contains(&i));
        }

        // The subgroup check itself, on both backends: `P + T₂` and raw
        // (uncleared) hash candidates are on the curve but off the
        // order-r subgroup; the check must agree with an explicit
        // `r·P = O` and decoding must refuse their encodings.
        let mut reference = curve.clone();
        reference.force_bigint_backend();
        let off: Vec<G1Affine> = [sigs[0].0.clone(), sigs[3].0.clone()]
            .into_iter()
            .chain(msgs.iter().map(|m| curve.hash_to_g1_candidate(MSG_TAG, m)))
            .collect();
        let on: Vec<G1Affine> = msgs.iter().map(|m| curve.hash_to_g1(MSG_TAG, m)).collect();
        for prm in [&curve, &reference] {
            for (point, in_group) in off
                .iter()
                .map(|p| (p, false))
                .chain(on.iter().map(|p| (p, true)))
            {
                assert!(prm.is_on_curve(point));
                assert_eq!(prm.is_in_group(point), in_group);
                assert_eq!(
                    prm.is_in_group(point),
                    prm.mul(prm.order(), point).is_infinity()
                );
                let decoded = prm.point_from_bytes(&prm.point_to_bytes(point));
                if in_group {
                    assert_eq!(decoded.as_ref(), Ok(point));
                } else {
                    assert_eq!(decoded, Err(sempair_pairing::DecodeError::NotOnCurve));
                }
            }
        }
    }

    #[test]
    fn batch_verify_partials_matches_individual() {
        let (curve, mut rng) = curve();
        let (sys, shares) = ThresholdGdh::setup(&mut rng, curve.clone(), 3, 6).unwrap();
        let mut partials: Vec<PartialSignature> = shares
            .iter()
            .map(|s| sys.partial_sign(s, b"ballot"))
            .collect();
        sys.batch_verify_partials(b"ballot", &partials).unwrap();
        assert!(sys.find_invalid_partials(b"ballot", &partials).is_empty());
        // Corrupt two partials; localization must agree with the
        // per-partial verifier.
        partials[1].point = curve.mul_generator(&BigUint::from(5u64));
        partials[4].point = curve.generator().clone();
        assert_eq!(
            sys.batch_verify_partials(b"ballot", &partials),
            Err(Error::InvalidSignature)
        );
        assert_eq!(sys.find_invalid_partials(b"ballot", &partials), vec![1, 4]);
        for (i, partial) in partials.iter().enumerate() {
            let individually_ok = sys.verify_partial(b"ballot", partial).is_ok();
            assert_eq!(individually_ok, ![1usize, 4].contains(&i));
        }
        // Out-of-range index reported by player number.
        partials[0].index = 99;
        assert_eq!(
            sys.batch_verify_partials(b"ballot", &partials),
            Err(Error::InvalidShare { player: 99 })
        );
        assert_eq!(
            sys.find_invalid_partials(b"ballot", &partials),
            vec![0, 1, 4]
        );
    }

    #[test]
    fn aggregate_signatures_verify() {
        let (curve, mut rng) = curve();
        let mut entries = Vec::new();
        let mut sigs = Vec::new();
        let keys: Vec<_> = (0..4).map(|_| keygen(&mut rng, &curve)).collect();
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("msg {i}").into_bytes()).collect();
        for ((sk, _), m) in keys.iter().zip(&msgs) {
            sigs.push(sign(&curve, sk, m));
        }
        for ((_, pk), m) in keys.iter().zip(&msgs) {
            entries.push((pk, m.as_slice()));
        }
        let agg = aggregate(&curve, &sigs);
        verify_aggregate(&curve, &entries, &agg).unwrap();
        // Dropping one signature breaks it.
        let partial = aggregate(&curve, &sigs[..3]);
        assert!(verify_aggregate(&curve, &entries, &partial).is_err());
        // Duplicate messages rejected outright.
        let dup = [entries[0], entries[0]];
        assert!(verify_aggregate(&curve, &dup, &agg).is_err());
        assert!(verify_aggregate(&curve, &[], &agg).is_err());
    }

    #[test]
    fn multisignature_verifies_with_aggregated_key() {
        let (curve, mut rng) = curve();
        let keys: Vec<_> = (0..3).map(|_| keygen(&mut rng, &curve)).collect();
        let msg = b"joint statement";
        let sigs: Vec<_> = keys.iter().map(|(sk, _)| sign(&curve, sk, msg)).collect();
        let multi = aggregate(&curve, &sigs);
        let pks: Vec<&GdhPublicKey> = keys.iter().map(|(_, pk)| pk).collect();
        verify_multisignature(&curve, &pks, msg, &multi).unwrap();
        // Missing one signer fails.
        let partial = aggregate(&curve, &sigs[..2]);
        assert!(verify_multisignature(&curve, &pks, msg, &partial).is_err());
    }

    #[test]
    fn blind_signature_roundtrip_and_blindness() {
        let (curve, mut rng) = curve();
        let (sk, pk) = keygen(&mut rng, &curve);
        let msg = b"the signer never sees this";
        let (blinded, factor) = blind(&mut rng, &curve, msg);
        // Blindness: the blinded point differs from H(m) and between runs.
        assert_ne!(blinded.0, hash_message(&curve, msg));
        let (blinded2, _) = blind(&mut rng, &curve, msg);
        assert_ne!(blinded.0, blinded2.0);
        // Sign blinded, unblind, verify as a plain GDH signature.
        let blind_sig = blind_sign(&curve, &sk, &blinded);
        let sig = unblind(&curve, &pk, &factor, &blind_sig);
        verify(&curve, &pk, msg, &sig).unwrap();
        assert_eq!(
            sig,
            sign(&curve, &sk, msg),
            "unblinds to the unique BLS signature"
        );
        // Wrong blinding factor yields garbage.
        let (_, wrong_factor) = blind(&mut rng, &curve, msg);
        let bad = unblind(&curve, &pk, &wrong_factor, &blind_sig);
        assert!(verify(&curve, &pk, msg, &bad).is_err());
    }

    #[test]
    fn mediated_sign_roundtrip() {
        let (curve, mut rng) = curve();
        let (user, sem_key, pk) = mediated_keygen(&mut rng, &curve, "alice");
        let mut sem = GdhSem::new();
        sem.install(sem_key);
        let half = sem.half_sign(&curve, "alice", b"pay bob 5").unwrap();
        let sig = user.finish_sign(&curve, b"pay bob 5", &half).unwrap();
        verify(&curve, &pk, b"pay bob 5", &sig).unwrap();
    }

    #[test]
    fn mediated_revocation_blocks_signing() {
        let (curve, mut rng) = curve();
        let (user, sem_key, _pk) = mediated_keygen(&mut rng, &curve, "alice");
        let mut sem = GdhSem::new();
        sem.install(sem_key);
        sem.revoke("alice");
        assert_eq!(sem.half_sign(&curve, "alice", b"m"), Err(Error::Revoked));
        sem.unrevoke("alice");
        let half = sem.half_sign(&curve, "alice", b"m").unwrap();
        user.finish_sign(&curve, b"m", &half).unwrap();
    }

    #[test]
    fn mediated_user_cannot_sign_alone() {
        let (curve, mut rng) = curve();
        let (user, _sem_key, pk) = mediated_keygen(&mut rng, &curve, "alice");
        // Without the SEM half the user's "signature" never verifies.
        let own = curve.mul(&user.x_user, &hash_message(&curve, b"m"));
        assert_eq!(
            verify(&curve, &pk, b"m", &Signature(own)),
            Err(Error::InvalidSignature)
        );
    }

    #[test]
    fn mediated_token_bound_to_message() {
        let (curve, mut rng) = curve();
        let (user, sem_key, _) = mediated_keygen(&mut rng, &curve, "alice");
        let mut sem = GdhSem::new();
        sem.install(sem_key);
        let half = sem.half_sign(&curve, "alice", b"message-a").unwrap();
        assert_eq!(
            user.finish_sign(&curve, b"message-b", &half),
            Err(Error::InvalidSignature)
        );
    }

    #[test]
    fn mediated_key_serialization_roundtrip() {
        let (curve, mut rng) = curve();
        let (user, sem_key, pk) = mediated_keygen(&mut rng, &curve, "store-me");
        let u2 = GdhUser::from_bytes(&curve, &user.to_bytes(&curve)).unwrap();
        let s2 = GdhSemKey::from_bytes(&curve, &sem_key.to_bytes(&curve)).unwrap();
        assert_eq!(u2.id, "store-me");
        assert_eq!(u2.public, pk);
        // The deserialized halves still sign together.
        let mut sem = GdhSem::new();
        sem.install(s2);
        let half = sem.half_sign(&curve, "store-me", b"persisted").unwrap();
        let sig = u2.finish_sign(&curve, b"persisted", &half).unwrap();
        verify(&curve, &pk, b"persisted", &sig).unwrap();
        // Malformed inputs rejected.
        assert!(GdhUser::from_bytes(&curve, &[0, 9, 1]).is_err());
        assert!(GdhSemKey::from_bytes(&curve, &[]).is_err());
    }

    #[test]
    fn mediated_unknown_identity() {
        let (curve, _) = curve();
        let sem = GdhSem::new();
        assert_eq!(
            sem.half_sign(&curve, "ghost", b"m"),
            Err(Error::UnknownIdentity)
        );
    }
}
