//! # sempair-net
//!
//! The SEM architecture as a running network service: a TCP security
//! mediator daemon and its clients, the PKG → SEM → users deployment
//! lifecycle, and the revocation-strategy comparison the paper's
//! introduction motivates (online SEM vs. the Boneh–Franklin built-in
//! "validity period" re-keying).
//!
//! The paper's deployment claims reproduced here:
//!
//! * §1/§4 — revocation through the SEM is *instantaneous* (one list
//!   update, effective on the next token request), while the
//!   validity-period method needs the PKG to stay online and re-issue
//!   every unrevoked key each epoch ([`revocation`]).
//! * §4 — the SEM stays online for the system lifetime and serves many
//!   users concurrently over TCP; the PKG can go offline after key
//!   issuance ([`tcp`], [`deployment`]).
//! * §5 — per-operation SEM→user traffic: one `G2` element for
//!   mediated IBE, one compressed `G1` point for mediated GDH, one
//!   `|n|`-bit value for IB-mRSA ([`wire`]).
//!
//! Because §4 keeps the SEM online "all the system's lifetime", the
//! TCP transport is hardened against misbehaving clients and flaky
//! links: socket deadlines, connection caps, graceful drain, and
//! client retry with backoff ([`tcp`]), all exercised by a
//! deterministic fault-injection harness ([`faults`]).
//!
//! For the same reason, everything the SEM records about its traffic
//! is **bounded**: the audit log is a capped ring buffer, per-identity
//! metering is cardinality-capped with an overflow bucket, and latency
//! distributions live in fixed-size log-spaced histograms — all
//! exportable as a serializable snapshot over the wire (op 4) or via
//! `sempair stats` ([`audit`]).
//!
//! Finally, the single SEM — the architecture's one point of failure —
//! is replaced by a replicated **(t, n) quorum** ([`cluster`]): each
//! user's SEM half-key is Shamir-dealt across `n` replicas, a
//! [`cluster::QuorumClient`] NIZK-verifies every partial token before
//! combining `t` of them, and per-replica revocation state survives
//! restarts through an append-only checksummed journal ([`store`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The SEM stays online for the system's lifetime (§4): a panic in a
// request path is a remote crash vector, so unwrap/expect are denied
// outright in lib code. Unreachable-by-construction cases use
// `unreachable!` with a documented invariant or an audit:allow.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod cache;
pub mod cluster;
pub mod deployment;
pub mod faults;
pub mod proto;
pub mod revocation;
pub mod scenario;
pub mod store;
pub mod tcp;
pub mod wire;
