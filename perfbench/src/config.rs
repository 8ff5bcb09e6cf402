//! The fixed workload table. Every rate, window and size here is a
//! constant so that a faster commit faces the same offered load; it is
//! never recomputed at run time. This file is the benchmark's record of
//! its parameters.

/// Load connections (and load threads) at most.
pub const CONNS: usize = 2;
/// Server crypto-pool workers.
pub const WORKERS: usize = 2;
/// Server revocation/key-state shards.
pub const SHARDS: usize = 8;
/// Times the SEM is set up per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;
/// Paced requests slower than this from their due time (or failed) are
/// late. It sits far above the paced phase's normal latency (p50 2-3 ms,
/// p99 4-25 ms at seed on a 2-core VM), so `ontime_share` drops only when
/// requests queue behind long stalls or overload.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Tokens and half-signatures the SEM takes longer than 2^13 us (8.192
/// ms) to serve, worker pickup to reply, miss the op limit: the
/// server's histogram buckets are powers of two, and at seed both ops
/// take 1.5-3 ms while the host's speed drifts.
pub const SERVICE_LIMIT_LOG2_US: usize = 13;
/// A `revoke()` call that takes longer than this misses the op limit:
/// about 25 times the p50 at seed (0.15-0.25 ms, one fsync'd journal
/// append) and near its p99, since the fsync tail is long and noisy;
/// a 10x slower revoke puts about a fifth of the calls past it.
pub const ADMIN_LIMIT_MS: f64 = 5.0;
/// Requests in flight per connection in the closed-window phase
/// (window D).
pub const DEPTH: usize = 8;
/// Requests in flight per connection at most in the paced phase. With
/// more than one frame in flight the seed's Nagle/delayed-ACK stall sets
/// in at random moments and leaves paced latency bimodal between runs
/// (about 2.5 ms or 40 ms); the closed-window phase carries that stall.
pub const PACED_DEPTH: usize = 1;
/// Share of the measured window spent in the paced phase; the rest is
/// the unpaced closed-window phase, which runs first.
pub const PACED_SHARE: f64 = 0.5;
/// On `sign_mix`, every `SIGN_EVERY`-th request is a half-signature.
pub const SIGN_EVERY: usize = 4;
/// On `revocation_churn`, revoke/unrevoke admin calls per second.
pub const ADMIN_RPS: f64 = 300.0;
/// On `revocation_churn`, milliseconds between periodic `Op::Stats`
/// pulls.
pub const STATS_EVERY_MS: u64 = 250;
/// Share of token requests naming an identity the SEM does not know.
pub const UNKNOWN_SHARE: f64 = 0.10;
/// Distinct never-enrolled identities the unknown tail draws from.
pub const UNKNOWN_POOL: usize = 4096;
/// Records in the pre-written revocation journal.
pub const JOURNAL_RECORDS: usize = 20_000;
/// Token (and signing) requests the traced layer pass replays.
pub const LAYER_SAMPLE: usize = 256;
/// Scratch-journal appends timed by the traced store pass.
pub const STORE_APPENDS: usize = 200;
/// Revoke/unrevoke pairs the traced pass issues on workloads whose
/// window has no admin traffic.
pub const LAYER_ADMIN: usize = 200;
/// Field multiplications per timed field-arithmetic sample.
pub const FIELD_REPS: usize = 2_000;

/// Population sizes the inputs are generated for.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Identities whose IBE half-keys the SEM holds.
    pub enrolled: usize,
    /// Half-key cache cap (`ServerConfig::cache_cap`), also the size of
    /// the hot set the set-up warms.
    pub cache_cap: usize,
    /// Identities holding GDH signing half-keys.
    pub signers: usize,
}

/// The sizes every workload runs at: 8x more enrolled identities than
/// the half-key cache holds.
pub const SIZES: Sizes = Sizes {
    enrolled: 1024,
    cache_cap: 128,
    signers: 256,
};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf tokens, closed-window then paced.
    TokenZipf,
    /// Half-signatures mixed 1:3 with tokens.
    SignMix,
    /// Journal-backed SEM (`cache_warm` on): paced tokens beside paced
    /// revoke/unrevoke and periodic stats pulls.
    RevocationChurn,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic mix.
    pub kind: Kind,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Load connections carrying token/signing traffic.
    pub load_conns: usize,
    /// Offered rate of the paced phase, requests per second summed
    /// over the load connections: about 30% of the ~900 req/s
    /// closed-window capacity measured at seed on a 2-core host.
    pub paced_rps: f64,
}

/// The workload table.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "token_zipf",
        kind: Kind::TokenZipf,
        why: "IBE decryption tokens, Zipf over 8x the half-key cache cap plus a 10% unknown tail: \
              the paper's decrypt path through field, pairing, cache and the windowed tcp link",
        load_conns: 2,
        paced_rps: 300.0,
    },
    Workload {
        name: "sign_mix",
        kind: Kind::SignMix,
        why:
            "distinct-message GDH half-signatures mixed 1:3 with tokens: skips the half-key cache \
              and the pairing, so a cache or pairing gain should not move it",
        load_conns: 2,
        paced_rps: 250.0,
    },
    Workload {
        name: "revocation_churn",
        kind: Kind::RevocationChurn,
        why:
            "journal-backed SEM with warm cache: paced tokens beside paced fsync'd revoke/unrevoke \
              of hot, cold and unknown identities plus periodic stats pulls",
        // The admin thread is the second load thread.
        load_conns: 1,
        paced_rps: 200.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload: `(layer metric, expected effect)`. Trace runs print
/// it beside the figures. `op_ontime_share` moves once a slowdown pushes
/// the op past its limit; the service mean printed beside it moves
/// first.
pub const LAYER_MAP: &[(&str, &str)] = &[
    (
        "bench.gen_lag_p99_ms",
        "none; shows whether the generator kept its schedule",
    ),
    ("bench.sent", "none; requests the generator sent"),
    ("bench.completed", "none; replies received"),
    (
        "bench.trace_overhead_ms",
        "none; traced minus untraced paced token p50",
    ),
    (
        "tcp.rtt_p50_ms",
        "token_p50_ms on every workload (paced tokens, window 1)",
    ),
    (
        "tcp.rtt_p99_ms",
        "token_p99_ms and ontime_share on every workload",
    ),
    (
        "tcp.residual_mean_ms",
        "token_p50_ms on token_zipf, not op_ontime_share (link and client share of a paced request)",
    ),
    (
        "tcp.residual_p99_ms",
        "token_p99_ms and ontime_share on token_zipf (Nagle/delayed-ACK fix)",
    ),
    (
        "tcp.closed_rtt_p50_ms",
        "capacity on token_zipf (window D: pool queueing plus the Nagle/delayed-ACK stall)",
    ),
    ("tcp.submit_us", "token_p50_ms on token_zipf"),
    ("tcp.shed", "served_share in the closed-window phase"),
    (
        "proto.roundtrip_us",
        "nothing measurable; confirms framing is negligible",
    ),
    (
        "audit.ibe_service_p50_us",
        "op_ontime_share on token_zipf, token_p50_ms elsewhere",
    ),
    ("audit.sign_service_p50_us", "op_ontime_share on sign_mix"),
    ("audit.stats_pull_ms", "token_p50_ms on revocation_churn"),
    (
        "cache.half_key_hit_ratio",
        "op_ontime_share on token_zipf and peak_rss_mb; not op_ontime_share on sign_mix",
    ),
    (
        "cache.qid_hit_ratio",
        "setup_s on revocation_churn (warm pass)",
    ),
    ("cache.evictions", "op_ontime_share on token_zipf"),
    ("cache.weight_mb", "peak_rss_mb"),
    ("store.append_p50_us", "op_ontime_share on revocation_churn"),
    ("store.append_p99_us", "the revoke p99 on revocation_churn"),
    ("store.replay_ms", "setup_s on revocation_churn"),
    (
        "revocation.revoke_residual_p99_us",
        "the revoke p99 on revocation_churn",
    ),
    ("core.token_us", "op_ontime_share on token_zipf"),
    ("core.half_sign_us", "op_ontime_share on sign_mix"),
    (
        "pairing.is_in_group_us",
        "op_ontime_share and capacity on token_zipf",
    ),
    (
        "pairing.pairing_prepared_us",
        "op_ontime_share and capacity on token_zipf",
    ),
    (
        "pairing.prepare_g1_us",
        "op_ontime_share on token_zipf through cache misses and invalidations",
    ),
    ("pairing.hash_to_g1_us", "op_ontime_share on sign_mix"),
    ("pairing.mul_us", "op_ontime_share on sign_mix"),
    (
        "field.fp_mul_ns",
        "op_ontime_share and capacity on token_zipf; not op_ontime_share on sign_mix",
    ),
    (
        "field.fp_sqr_ns",
        "op_ontime_share and capacity on token_zipf; not op_ontime_share on sign_mix",
    ),
    (
        "field.miller_us",
        "op_ontime_share and capacity on token_zipf; not op_ontime_share on sign_mix",
    ),
    (
        "field.final_exp_us",
        "op_ontime_share and capacity on token_zipf; not op_ontime_share on sign_mix",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_respect_the_load_limits() {
        assert!(SIZES.enrolled >= 4 * SIZES.cache_cap);
        assert!(SIZES.signers <= SIZES.enrolled);
        assert!(PACED_SHARE > 0.0 && PACED_SHARE < 1.0);
        for w in &WORKLOADS {
            assert!(w.load_conns <= CONNS, "{}", w.name);
        }
    }
}
