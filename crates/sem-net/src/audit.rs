//! SEM observability: bounded audit log, metering, and exportable
//! metrics.
//!
//! The SEM is *semi-trusted* (§2): it must not be able to decrypt, but
//! it is trusted to enforce revocation. Operationally that means its
//! actions must be **accountable** — operators need to see exactly
//! which identity requested which capability and what the SEM decided.
//! Because the SEM also "remains online all the system's lifetime"
//! (§4), every piece of that accountability state must be **bounded**:
//! a daemon serving millions of users (or one misbehaving client
//! hammering it) must not grow its memory with traffic.
//!
//! Three bounded structures back the E3/E9 reports and the
//! `sempair stats` endpoint:
//!
//! * a **ring buffer** of the most recent [`AuditRecord`]s
//!   (`audit_cap` entries, oldest evicted first, evictions counted in
//!   `records_dropped`);
//! * a **cardinality-capped** per-identity counter map: at most
//!   `identity_cap` distinct identities are tracked individually;
//!   everything beyond the cap aggregates into the
//!   [`OVERFLOW_IDENTITY`] bucket, so attacker-minted identity strings
//!   cannot grow the map;
//! * **log-spaced histograms** ([`Histogram`], power-of-two buckets)
//!   for per-capability request service latency, plus flat transport
//!   fault counters ([`TransportStats`]).
//!
//! Everything is exportable as a [`MetricsSnapshot`] with a
//! Prometheus-style text encoding that round-trips
//! ([`MetricsSnapshot::to_prometheus_text`] /
//! [`MetricsSnapshot::from_prometheus_text`]).

use sempair_core::lockdep::{LockClass, TrackedMutex};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What kind of capability a request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Mediated-IBE decryption token.
    IbeDecrypt,
    /// Mediated-GDH half-signature.
    GdhSign,
    /// Connection admission itself (records produced by the daemon's
    /// accept loop, before any request is read).
    Connect,
}

impl Capability {
    /// The request capabilities that carry a service-latency histogram
    /// ([`Capability::Connect`] is an admission decision, not a served
    /// request, so it has none).
    pub const REQUESTS: [Capability; 2] = [Capability::IbeDecrypt, Capability::GdhSign];

    /// Stable label used in the metrics exposition.
    pub fn label(self) -> &'static str {
        match self {
            Capability::IbeDecrypt => "ibe_decrypt",
            Capability::GdhSign => "gdh_sign",
            Capability::Connect => "connect",
        }
    }

    /// Inverse of [`Capability::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "ibe_decrypt" => Some(Capability::IbeDecrypt),
            "gdh_sign" => Some(Capability::GdhSign),
            "connect" => Some(Capability::Connect),
            _ => None,
        }
    }

    /// Index into the latency-histogram array, `None` for capabilities
    /// without one.
    fn latency_index(self) -> Option<usize> {
        match self {
            Capability::IbeDecrypt => Some(0),
            Capability::GdhSign => Some(1),
            Capability::Connect => None,
        }
    }
}

/// How the SEM answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Token issued.
    Served,
    /// Refused: identity revoked.
    RefusedRevoked,
    /// Refused: identity unknown.
    RefusedUnknown,
    /// Refused: malformed request (off-curve point, …).
    RefusedInvalid,
    /// Refused: the daemon is at its connection cap and dropped the
    /// socket before reading a request.
    RefusedOverload,
}

/// One audit record.
///
/// `at` is a [`Duration`] offset from the owning [`AuditLog`]'s
/// creation (not an `Instant`), so records — and snapshots derived
/// from them — are serializable and comparable across exports.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Identity named in the request.
    pub id: String,
    /// Requested capability.
    pub capability: Capability,
    /// Decision.
    pub outcome: Outcome,
    /// Response payload size in bytes (0 when refused).
    pub response_bytes: usize,
    /// Offset from the audit log's creation (server start).
    pub at: Duration,
}

/// Aggregated view per identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityStats {
    /// Requests served.
    pub served: u64,
    /// Requests refused (any reason).
    pub refused: u64,
    /// Total bytes returned.
    pub bytes_out: u64,
}

/// Transport fault counters: connections the SEM closed or refused
/// before serving a request on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections closed because a socket deadline (idle or mid-frame
    /// read) expired — the slowloris counter.
    pub timeouts: u64,
    /// Connections dropped at accept time because the daemon was at
    /// its `max_connections` cap.
    pub refused_conns: u64,
}

/// Memory bounds for an [`AuditLog`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Maximum retained [`AuditRecord`]s. Older records are evicted
    /// (oldest first) and counted in `records_dropped`. `0` retains no
    /// records at all (aggregates still update).
    pub audit_cap: usize,
    /// Maximum distinct identities tracked individually; requests for
    /// further identities aggregate into the [`OVERFLOW_IDENTITY`]
    /// bucket (which does not count against the cap).
    pub identity_cap: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            audit_cap: 4096,
            identity_cap: 1024,
        }
    }
}

/// Aggregate bucket for identities beyond
/// [`AuditConfig::identity_cap`]. A request legitimately naming this
/// string merges into the bucket — acceptable for a reserved name.
pub const OVERFLOW_IDENTITY: &str = "__overflow__";

/// Number of latency buckets: powers of two from 1 µs up to
/// ~2 s (2²¹ µs), plus the unbounded overflow bucket.
const LATENCY_BUCKETS: usize = 22;

/// A fixed-size log-spaced histogram.
///
/// Bucket `i` counts observations `v` with `⌊log₂(max(v, 1))⌋ == i`,
/// i.e. `v ∈ [2^i, 2^(i+1))` (with 0 landing in bucket 0); the last
/// bucket absorbs everything larger. Constant memory regardless of
/// traffic — the histogram counterpart of the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates an empty histogram with `buckets` bins (≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `buckets < 2`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets >= 2, "a histogram needs at least two buckets");
        Histogram {
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
        }
    }

    fn bucket_index(&self, v: u64) -> usize {
        let i = (u64::BITS - 1 - v.max(1).leading_zeros()) as usize;
        i.min(self.counts.len() - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let i = self.bucket_index(v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Observations in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last,
    /// unbounded bucket).
    pub fn bucket_upper_bound(&self, i: usize) -> u64 {
        if i + 1 == self.counts.len() {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation (0 for an empty histogram). A bucket-resolution
    /// estimate — good enough for p50/p95 report lines.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_upper_bound(i);
            }
        }
        self.bucket_upper_bound(self.counts.len() - 1)
    }

    /// Adds `other`'s observations bucket-wise. Works across layouts:
    /// `other`'s buckets beyond `self`'s last fold into `self`'s
    /// overflow bucket, which preserves the "last bucket absorbs
    /// everything larger" reading (at bucket resolution).
    pub fn merge(&mut self, other: &Histogram) {
        let last = self.counts.len() - 1;
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i.min(last)] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Health of one SEM replica in a clustered deployment, as seen by
/// whoever assembled the snapshot (the cluster orchestrator knows
/// liveness; a quorum client additionally knows cheat counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Replica index (1-based, matching the threshold player index).
    pub index: u32,
    /// `false` once the replica stopped answering (crashed, partitioned,
    /// or killed).
    pub reachable: bool,
    /// Partial tokens from this replica that failed NIZK verification —
    /// each one is a *caught* byzantine reply, not a served request.
    pub cheats: u64,
}

/// Counter snapshot of one named precompute cache (DESIGN.md §14):
/// the serving tier's mask-base / hashed-Q_ID / prepared-half-key
/// caches export one row each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSeries {
    /// Stable cache name (the `cache` label in the exposition).
    pub name: String,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (or hit a disabled cache).
    pub misses: u64,
    /// Live entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate resident bytes (sum of entry weights).
    pub weight_bytes: u64,
}

/// Serializable point-in-time view of an [`AuditLog`] — everything an
/// operator dashboard or the `sempair stats` subcommand needs, with no
/// unbounded parts and no `Instant`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Time since the audit log (server) started.
    pub uptime: Duration,
    /// Records currently retained in the ring buffer.
    pub records_len: usize,
    /// Ring-buffer capacity.
    pub audit_cap: usize,
    /// Records evicted from the ring buffer since start.
    pub records_dropped: u64,
    /// Distinct identities tracked individually (excludes the overflow
    /// bucket).
    pub identities_tracked: usize,
    /// Identity-map cardinality cap.
    pub identity_cap: usize,
    /// Global request totals (served/refused/bytes across *all*
    /// identities, tracked independently of the capped map).
    pub totals: IdentityStats,
    /// The [`OVERFLOW_IDENTITY`] aggregate bucket.
    pub overflow: IdentityStats,
    /// Transport counters.
    pub transport: TransportStats,
    /// Service-latency histograms (microseconds) per request
    /// capability, in [`Capability::REQUESTS`] order.
    pub latency_us: Vec<(Capability, Histogram)>,
    /// Per-replica health rows for clustered deployments, sorted by
    /// replica index. Empty for a single SEM — a snapshot taken from a
    /// lone [`AuditLog`] never invents replicas.
    pub replicas: Vec<ReplicaHealth>,
    /// Precompute-cache counter rows, sorted by cache name. Empty when
    /// the serving layer has no cache tier attached (a snapshot taken
    /// from a lone [`AuditLog`] never invents caches).
    pub caches: Vec<CacheSeries>,
    /// Lock-order verification counters (all zero when the `lockdep`
    /// feature is compiled out).
    pub lockdep: LockdepStats,
}

/// Process-global lockdep counters, as exported by the `sem_lockdep_*`
/// metric family. Note the counters are per *process*: in a
/// single-process multi-replica cluster, [`MetricsSnapshot::merge`]
/// sums one copy per replica, so treat merged values as an
/// availability gate (zero violations ⇔ sum is zero), not a count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockdepStats {
    /// Lock acquisitions checked against the class graph.
    pub checks: u64,
    /// Distinct acquired-before class edges observed.
    pub edges: u64,
    /// Order inversions / cycles detected (must stay zero).
    pub violations: u64,
}

/// Snapshots the process-global lockdep counters (zeros when the
/// `lockdep` feature is compiled out of `sempair-core`).
pub fn lockdep_stats_now() -> LockdepStats {
    LockdepStats {
        checks: sempair_core::lockdep::checks(),
        edges: sempair_core::lockdep::edge_count(),
        violations: sempair_core::lockdep::violation_count(),
    }
}

impl MetricsSnapshot {
    /// Encodes the snapshot in a Prometheus-style text exposition.
    ///
    /// All values are integers (latencies in microseconds) so the
    /// encoding round-trips exactly through
    /// [`MetricsSnapshot::from_prometheus_text`].
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write;
        fn scalar_into(out: &mut String, name: &str, v: u64) {
            let _ = writeln!(out, "{name} {v}");
        }
        let mut out = String::new();
        out.push_str("# sempair SEM metrics (Prometheus-style; integer values only)\n");
        let scalar = scalar_into;
        scalar(
            &mut out,
            "sem_uptime_microseconds",
            self.uptime.as_micros() as u64,
        );
        scalar(&mut out, "sem_audit_records", self.records_len as u64);
        scalar(&mut out, "sem_audit_records_cap", self.audit_cap as u64);
        scalar(
            &mut out,
            "sem_audit_records_dropped_total",
            self.records_dropped,
        );
        scalar(
            &mut out,
            "sem_audit_identities_tracked",
            self.identities_tracked as u64,
        );
        scalar(
            &mut out,
            "sem_audit_identities_cap",
            self.identity_cap as u64,
        );
        scalar(&mut out, "sem_requests_served_total", self.totals.served);
        scalar(&mut out, "sem_requests_refused_total", self.totals.refused);
        scalar(&mut out, "sem_response_bytes_total", self.totals.bytes_out);
        scalar(&mut out, "sem_overflow_served_total", self.overflow.served);
        scalar(
            &mut out,
            "sem_overflow_refused_total",
            self.overflow.refused,
        );
        scalar(
            &mut out,
            "sem_overflow_bytes_total",
            self.overflow.bytes_out,
        );
        scalar(
            &mut out,
            "sem_transport_timeouts_total",
            self.transport.timeouts,
        );
        scalar(
            &mut out,
            "sem_transport_refused_conns_total",
            self.transport.refused_conns,
        );
        scalar(&mut out, "sem_lockdep_checks_total", self.lockdep.checks);
        scalar(&mut out, "sem_lockdep_edges", self.lockdep.edges);
        scalar(
            &mut out,
            "sem_lockdep_violations_total",
            self.lockdep.violations,
        );
        for (capability, hist) in &self.latency_us {
            let name = "sem_request_latency_us";
            let label = capability.label();
            let mut cumulative = 0u64;
            for i in 0..hist.buckets() {
                cumulative += hist.bucket_count(i);
                let le = le_label(hist, i);
                let _ = writeln!(
                    out,
                    "{name}_bucket{{capability=\"{label}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{name}_count{{capability=\"{label}\"}} {}",
                hist.count()
            );
            let _ = writeln!(out, "{name}_sum{{capability=\"{label}\"}} {}", hist.sum());
        }
        for replica in &self.replicas {
            let i = replica.index;
            let _ = writeln!(
                out,
                "sem_replica_reachable{{replica=\"{i}\"}} {}",
                u64::from(replica.reachable)
            );
            let _ = writeln!(
                out,
                "sem_replica_cheats_total{{replica=\"{i}\"}} {}",
                replica.cheats
            );
        }
        for cache in &self.caches {
            let n = &cache.name;
            let _ = writeln!(out, "sem_cache_hits_total{{cache=\"{n}\"}} {}", cache.hits);
            let _ = writeln!(
                out,
                "sem_cache_misses_total{{cache=\"{n}\"}} {}",
                cache.misses
            );
            let _ = writeln!(
                out,
                "sem_cache_evictions_total{{cache=\"{n}\"}} {}",
                cache.evictions
            );
            let _ = writeln!(out, "sem_cache_entries{{cache=\"{n}\"}} {}", cache.entries);
            let _ = writeln!(
                out,
                "sem_cache_weight_bytes{{cache=\"{n}\"}} {}",
                cache.weight_bytes
            );
        }
        out
    }

    /// Parses a snapshot back out of
    /// [`MetricsSnapshot::to_prometheus_text`] output.
    ///
    /// Returns `None` for text that is not a complete, well-formed
    /// exposition. Well-formed series with names this reader does not
    /// know are skipped.
    pub fn from_prometheus_text(text: &str) -> Option<Self> {
        let mut scalars: HashMap<&str, u64> = HashMap::new();
        let mut latency: Vec<LatencySeries> = Vec::new();
        // replica index → (reachable, cheats); both series required.
        let mut replica_rows: HashMap<u32, (Option<bool>, Option<u64>)> = HashMap::new();
        // cache name → [hits, misses, evictions, entries, weight]; all
        // five series required.
        let mut cache_rows: HashMap<String, [Option<u64>; 5]> = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, labels, value) = parse_metric_line(line)?;
            match name {
                "sem_request_latency_us_bucket" => {
                    let capability = label_value(&labels, "capability")?;
                    let entry = latency_entry(&mut latency, capability);
                    entry.1.push(value);
                }
                "sem_request_latency_us_count" => {
                    let capability = label_value(&labels, "capability")?;
                    latency_entry(&mut latency, capability).2 = Some(value);
                }
                "sem_request_latency_us_sum" => {
                    let capability = label_value(&labels, "capability")?;
                    latency_entry(&mut latency, capability).3 = Some(value);
                }
                "sem_replica_reachable" => {
                    let index: u32 = label_value(&labels, "replica")?.parse().ok()?;
                    if value > 1 {
                        return None;
                    }
                    replica_rows.entry(index).or_default().0 = Some(value == 1);
                }
                "sem_replica_cheats_total" => {
                    let index: u32 = label_value(&labels, "replica")?.parse().ok()?;
                    replica_rows.entry(index).or_default().1 = Some(value);
                }
                "sem_cache_hits_total"
                | "sem_cache_misses_total"
                | "sem_cache_evictions_total"
                | "sem_cache_entries"
                | "sem_cache_weight_bytes" => {
                    let cache = label_value(&labels, "cache")?;
                    let slot = match name {
                        "sem_cache_hits_total" => 0,
                        "sem_cache_misses_total" => 1,
                        "sem_cache_evictions_total" => 2,
                        "sem_cache_entries" => 3,
                        _ => 4,
                    };
                    cache_rows.entry(cache.to_string()).or_default()[slot] = Some(value);
                }
                _ if labels.is_empty() => {
                    scalars.insert(name, value);
                }
                // A well-formed labeled series this reader does not
                // know (say, one an older daemon still emits) is
                // skipped, so a mixed-version cluster keeps merging.
                _ => {}
            }
        }
        let get = |name: &str| scalars.get(name).copied();
        let latency_us = latency
            .into_iter()
            .map(|(label, buckets, count, sum)| {
                let capability = Capability::from_label(&label)?;
                let hist = histogram_from_cumulative(&buckets, count?, sum?)?;
                Some((capability, hist))
            })
            .collect::<Option<Vec<_>>>()?;
        let mut replicas: Vec<ReplicaHealth> = replica_rows
            .into_iter()
            .map(|(index, (reachable, cheats))| {
                Some(ReplicaHealth {
                    index,
                    reachable: reachable?,
                    cheats: cheats?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        replicas.sort_by_key(|r| r.index);
        let mut caches: Vec<CacheSeries> = cache_rows
            .into_iter()
            .map(|(name, [hits, misses, evictions, entries, weight_bytes])| {
                Some(CacheSeries {
                    name,
                    hits: hits?,
                    misses: misses?,
                    evictions: evictions?,
                    entries: entries?,
                    weight_bytes: weight_bytes?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        caches.sort_by(|a, b| a.name.cmp(&b.name));
        Some(MetricsSnapshot {
            uptime: Duration::from_micros(get("sem_uptime_microseconds")?),
            records_len: get("sem_audit_records")? as usize,
            audit_cap: get("sem_audit_records_cap")? as usize,
            records_dropped: get("sem_audit_records_dropped_total")?,
            identities_tracked: get("sem_audit_identities_tracked")? as usize,
            identity_cap: get("sem_audit_identities_cap")? as usize,
            totals: IdentityStats {
                served: get("sem_requests_served_total")?,
                refused: get("sem_requests_refused_total")?,
                bytes_out: get("sem_response_bytes_total")?,
            },
            overflow: IdentityStats {
                served: get("sem_overflow_served_total")?,
                refused: get("sem_overflow_refused_total")?,
                bytes_out: get("sem_overflow_bytes_total")?,
            },
            transport: TransportStats {
                timeouts: get("sem_transport_timeouts_total")?,
                refused_conns: get("sem_transport_refused_conns_total")?,
            },
            latency_us,
            replicas,
            caches,
            // Absent in expositions from pre-lockdep builds: read as
            // zeros rather than rejecting the document.
            lockdep: LockdepStats {
                checks: get("sem_lockdep_checks_total").unwrap_or(0),
                edges: get("sem_lockdep_edges").unwrap_or(0),
                violations: get("sem_lockdep_violations_total").unwrap_or(0),
            },
        })
    }

    /// Folds `other` into `self` — the cluster-wide view: counters and
    /// histograms add, `uptime` takes the longest-lived replica, and
    /// the per-replica health rows concatenate (then sort by index).
    ///
    /// The capacity fields (`audit_cap`, `identity_cap`) add too: the
    /// merged snapshot describes the cluster's total bounded memory,
    /// and the bucket invariants (`records_len ≤ audit_cap`,
    /// `identities_tracked ≤ identity_cap`) keep holding.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn add(a: &mut IdentityStats, b: &IdentityStats) {
            a.served += b.served;
            a.refused += b.refused;
            a.bytes_out += b.bytes_out;
        }
        self.uptime = self.uptime.max(other.uptime);
        self.records_len += other.records_len;
        self.audit_cap += other.audit_cap;
        self.records_dropped += other.records_dropped;
        self.identities_tracked += other.identities_tracked;
        self.identity_cap += other.identity_cap;
        add(&mut self.totals, &other.totals);
        add(&mut self.overflow, &other.overflow);
        self.transport.timeouts += other.transport.timeouts;
        self.transport.refused_conns += other.transport.refused_conns;
        self.lockdep.checks += other.lockdep.checks;
        self.lockdep.edges += other.lockdep.edges;
        self.lockdep.violations += other.lockdep.violations;
        for (capability, hist) in &other.latency_us {
            match self.latency_us.iter_mut().find(|(c, _)| c == capability) {
                Some((_, mine)) => mine.merge(hist),
                None => self.latency_us.push((*capability, hist.clone())),
            }
        }
        self.replicas.extend(other.replicas.iter().copied());
        self.replicas.sort_by_key(|r| r.index);
        // Cache rows add by name — the merged row reads as the
        // cluster's total cache traffic and resident footprint.
        for cache in &other.caches {
            match self.caches.iter_mut().find(|c| c.name == cache.name) {
                Some(mine) => {
                    mine.hits += cache.hits;
                    mine.misses += cache.misses;
                    mine.evictions += cache.evictions;
                    mine.entries += cache.entries;
                    mine.weight_bytes += cache.weight_bytes;
                }
                None => self.caches.push(cache.clone()),
            }
        }
        self.caches.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// The monotonic request counters of this snapshot — the totals a
    /// scenario harness differences across a measurement window.
    /// `totals` already includes traffic aggregated into the overflow
    /// identity bucket, so requests past the cardinality cap are
    /// counted here exactly once.
    pub fn counters(&self) -> CounterDeltas {
        CounterDeltas {
            served: self.totals.served,
            refused: self.totals.refused,
            bytes_out: self.totals.bytes_out,
            timeouts: self.transport.timeouts,
        }
    }

    /// Counter movement since `earlier` (a snapshot of the same server
    /// or merged cluster taken before this one). Saturating: a counter
    /// that appears to run backwards — snapshots from different servers
    /// compared by mistake, or an identity migrating into the overflow
    /// bucket between snapshots — reads as zero delta rather than a
    /// huge unsigned wraparound.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> CounterDeltas {
        let now = self.counters();
        let then = earlier.counters();
        CounterDeltas {
            served: now.served.saturating_sub(then.served),
            refused: now.refused.saturating_sub(then.refused),
            bytes_out: now.bytes_out.saturating_sub(then.bytes_out),
            timeouts: now.timeouts.saturating_sub(then.timeouts),
        }
    }
}

/// Request-counter movement between two [`MetricsSnapshot`]s (see
/// [`MetricsSnapshot::delta_since`]) — what the scenario harness's SLO
/// evaluation consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterDeltas {
    /// Requests served (totals + overflow bucket).
    pub served: u64,
    /// Requests refused, any reason (totals + overflow bucket).
    pub refused: u64,
    /// Response bytes returned (totals + overflow bucket).
    pub bytes_out: u64,
    /// Transport-level timeouts.
    pub timeouts: u64,
}

/// Parsing accumulator for one capability's latency series:
/// `(capability label, cumulative buckets, count, sum)`.
type LatencySeries = (String, Vec<u64>, Option<u64>, Option<u64>);

/// One parsed exposition line: `(metric name, labels, value)`.
type MetricLine<'a> = (&'a str, Vec<(&'a str, &'a str)>, u64);

fn le_label(hist: &Histogram, i: usize) -> String {
    if i + 1 == hist.buckets() {
        "+Inf".to_string()
    } else {
        hist.bucket_upper_bound(i).to_string()
    }
}

/// Splits `name{label="v",…} value` (labels optional) into parts.
fn parse_metric_line(line: &str) -> Option<MetricLine<'_>> {
    let (head, value) = line.rsplit_once(' ')?;
    let value: u64 = value.parse().ok()?;
    match head.split_once('{') {
        None => Some((head, Vec::new(), value)),
        Some((name, rest)) => {
            let inner = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in inner.split(',') {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k, v));
            }
            Some((name, labels, value))
        }
    }
}

fn label_value<'a>(labels: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    labels.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn latency_entry<'a>(
    latency: &'a mut Vec<LatencySeries>,
    capability: &str,
) -> &'a mut LatencySeries {
    let i = match latency.iter().position(|(l, ..)| l == capability) {
        Some(i) => i,
        None => {
            latency.push((capability.to_string(), Vec::new(), None, None));
            latency.len() - 1
        }
    };
    // The index came from `position` or is the freshly pushed tail, so
    // it is always in range.
    &mut latency[i]
}

/// Rebuilds per-bucket counts from the cumulative `le` series.
fn histogram_from_cumulative(cumulative: &[u64], count: u64, sum: u64) -> Option<Histogram> {
    if cumulative.len() < 2 || *cumulative.last()? != count {
        return None;
    }
    let mut hist = Histogram::new(cumulative.len());
    let mut prev = 0u64;
    for (i, &c) in cumulative.iter().enumerate() {
        hist.counts[i] = c.checked_sub(prev)?;
        prev = c;
    }
    hist.count = count;
    hist.sum = sum;
    Some(hist)
}

/// Thread-safe, **bounded** audit log and metrics registry.
///
/// Appends are O(1) under a mutex; the threaded server calls
/// [`AuditLog::record`] once per request, which is negligible next to
/// the pairing it just computed. Memory is constant in request count
/// and identity count: see [`AuditConfig`].
#[derive(Debug)]
pub struct AuditLog {
    started: Instant,
    inner: TrackedMutex<Inner>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct Inner {
    config: AuditConfig,
    records: VecDeque<AuditRecord>,
    records_dropped: u64,
    by_identity: HashMap<String, IdentityStats>,
    totals: IdentityStats,
    transport: TransportStats,
    latency_us: [Histogram; Capability::REQUESTS.len()],
}

impl AuditLog {
    /// Creates a log with default bounds ([`AuditConfig::default`]).
    pub fn new() -> Self {
        Self::with_config(AuditConfig::default())
    }

    /// Creates a log with explicit bounds.
    pub fn with_config(config: AuditConfig) -> Self {
        AuditLog {
            started: Instant::now(),
            // lock:class(AuditRing)
            inner: TrackedMutex::new(
                LockClass::AuditRing,
                Inner {
                    config,
                    records: VecDeque::new(),
                    records_dropped: 0,
                    by_identity: HashMap::new(),
                    totals: IdentityStats::default(),
                    transport: TransportStats::default(),
                    latency_us: [
                        Histogram::new(LATENCY_BUCKETS),
                        Histogram::new(LATENCY_BUCKETS),
                    ],
                },
            ),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> AuditConfig {
        self.inner.lock().config.clone()
    }

    /// Appends one record for a request. `latency` is the service time
    /// (measured by the caller around the crypto work) fed into the
    /// per-capability histogram.
    pub fn record(
        &self,
        id: &str,
        capability: Capability,
        outcome: Outcome,
        response_bytes: usize,
        latency: Duration,
    ) {
        let at = self.started.elapsed();
        let mut inner = self.inner.lock();
        if let Some(i) = capability.latency_index() {
            inner.latency_us[i].observe(latency.as_micros() as u64);
        }
        let tracked_as = inner.identity_key(id);
        let stats = inner.by_identity.entry(tracked_as.clone()).or_default();
        match outcome {
            Outcome::Served => {
                stats.served += 1;
                stats.bytes_out += response_bytes as u64;
                inner.totals.served += 1;
                inner.totals.bytes_out += response_bytes as u64;
            }
            _ => {
                stats.refused += 1;
                inner.totals.refused += 1;
            }
        }
        inner.push_record(AuditRecord {
            id: tracked_as,
            capability,
            outcome,
            response_bytes,
            at,
        });
    }

    /// Counts one connection closed by a socket deadline (idle or
    /// mid-frame read timeout).
    pub fn note_timeout(&self) {
        self.inner.lock().transport.timeouts += 1;
    }

    /// Counts one connection refused at the `max_connections` cap and
    /// appends an [`Outcome::RefusedOverload`] record.
    ///
    /// `peer` is keyed by **IP only**: the port of an `ip:port`
    /// rendering is stripped, so a reconnect storm cycling ephemeral
    /// ports maps to one identity entry instead of minting a fresh one
    /// per source port (and the whole thing stays under the
    /// cardinality cap regardless).
    pub fn note_refused_conn(&self, peer: &str) {
        let key = peer_ip(peer);
        let at = self.started.elapsed();
        let mut inner = self.inner.lock();
        inner.transport.refused_conns += 1;
        inner.totals.refused += 1;
        let tracked_as = inner.identity_key(key);
        inner
            .by_identity
            .entry(tracked_as.clone())
            .or_default()
            .refused += 1;
        inner.push_record(AuditRecord {
            id: tracked_as,
            capability: Capability::Connect,
            outcome: Outcome::RefusedOverload,
            response_bytes: 0,
            at,
        });
    }

    /// Transport fault counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.inner.lock().transport
    }

    /// Number of retained records (≤ the configured `audit_cap`).
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// `true` iff no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring buffer since start.
    pub fn records_dropped(&self) -> u64 {
        self.inner.lock().records_dropped
    }

    /// Distinct identities tracked individually (excludes the overflow
    /// bucket).
    pub fn identities_tracked(&self) -> usize {
        let inner = self.inner.lock();
        inner.tracked_identities()
    }

    /// Aggregate stats for one identity. Identities folded into the
    /// overflow bucket report under [`OVERFLOW_IDENTITY`], not their
    /// own name.
    pub fn stats_for(&self, id: &str) -> IdentityStats {
        self.inner
            .lock()
            .by_identity
            .get(id)
            .copied()
            .unwrap_or_default()
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<AuditRecord> {
        self.inner.lock().records.iter().cloned().collect()
    }

    /// Total bytes the SEM has sent to users — the deployment-level E3
    /// number. Tracked globally, so it stays exact even when identity
    /// entries fold into the overflow bucket.
    pub fn total_bytes_out(&self) -> u64 {
        self.inner.lock().totals.bytes_out
    }

    /// Identities whose refusal count exceeds `threshold` — a trivial
    /// anomaly feed (e.g. someone hammering a revoked identity). May
    /// include [`OVERFLOW_IDENTITY`] when the aggregate bucket is
    /// noisy.
    pub fn noisy_identities(&self, threshold: u64) -> Vec<String> {
        let inner = self.inner.lock();
        let mut out: Vec<String> = inner
            .by_identity
            .iter()
            .filter(|(_, s)| s.refused > threshold)
            .map(|(id, _)| id.clone())
            .collect();
        out.sort();
        out
    }

    /// Serializable point-in-time metrics view.
    ///
    /// `uptime` is truncated to microsecond resolution — the unit of
    /// the text exposition — so a snapshot compares equal to its own
    /// encode/decode round trip.
    pub fn metrics(&self) -> MetricsSnapshot {
        let uptime = Duration::from_micros(self.started.elapsed().as_micros() as u64);
        let inner = self.inner.lock();
        MetricsSnapshot {
            uptime,
            records_len: inner.records.len(),
            audit_cap: inner.config.audit_cap,
            records_dropped: inner.records_dropped,
            identities_tracked: inner.tracked_identities(),
            identity_cap: inner.config.identity_cap,
            totals: inner.totals,
            overflow: inner
                .by_identity
                .get(OVERFLOW_IDENTITY)
                .copied()
                .unwrap_or_default(),
            transport: inner.transport,
            latency_us: Capability::REQUESTS
                .iter()
                .zip(&inner.latency_us)
                .map(|(&c, h)| (c, h.clone()))
                .collect(),
            replicas: Vec::new(),
            caches: Vec::new(),
            lockdep: lockdep_stats_now(),
        }
    }
}

impl Inner {
    /// Distinct identities tracked individually.
    fn tracked_identities(&self) -> usize {
        self.by_identity.len() - usize::from(self.by_identity.contains_key(OVERFLOW_IDENTITY))
    }

    /// The key `id` is tracked under: itself while the map has room
    /// (or already tracks it), the overflow bucket otherwise.
    fn identity_key(&self, id: &str) -> String {
        if self.by_identity.contains_key(id) || self.tracked_identities() < self.config.identity_cap
        {
            id.to_string()
        } else {
            OVERFLOW_IDENTITY.to_string()
        }
    }

    /// Appends to the ring buffer, evicting the oldest record (and
    /// counting it) at the cap.
    fn push_record(&mut self, record: AuditRecord) {
        if self.config.audit_cap == 0 {
            self.records_dropped += 1;
            return;
        }
        if self.records.len() >= self.config.audit_cap {
            self.records.pop_front();
            self.records_dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// Strips the `:port` suffix from a `SocketAddr`-style rendering
/// (`1.2.3.4:5678`, `[::1]:5678`), returning the input unchanged when
/// it does not look like one.
fn peer_ip(peer: &str) -> &str {
    if let Some(end) = peer.rfind(']') {
        // Bracketed IPv6: `[::1]:port` → `[::1]`.
        return &peer[..=end];
    }
    match peer.rsplit_once(':') {
        // A bare IPv6 address has multiple colons; `ip:port` has one.
        Some((host, port))
            if !host.contains(':')
                && !host.is_empty()
                && port.chars().all(|c| c.is_ascii_digit()) =>
        {
            host
        }
        _ => peer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_LAT: Duration = Duration::ZERO;

    #[test]
    fn records_and_aggregates() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::Served,
            128,
            NO_LAT,
        );
        log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::Served,
            128,
            NO_LAT,
        );
        log.record(
            "alice",
            Capability::GdhSign,
            Outcome::RefusedRevoked,
            0,
            NO_LAT,
        );
        log.record(
            "bob",
            Capability::IbeDecrypt,
            Outcome::RefusedUnknown,
            0,
            NO_LAT,
        );
        assert_eq!(log.len(), 4);
        let alice = log.stats_for("alice");
        assert_eq!(alice.served, 2);
        assert_eq!(alice.refused, 1);
        assert_eq!(alice.bytes_out, 256);
        assert_eq!(log.stats_for("bob").refused, 1);
        assert_eq!(log.stats_for("nobody"), IdentityStats::default());
        assert_eq!(log.total_bytes_out(), 256);
        assert_eq!(log.identities_tracked(), 2);
    }

    #[test]
    fn noisy_identities_threshold() {
        let log = AuditLog::new();
        for _ in 0..5 {
            log.record(
                "mallory",
                Capability::IbeDecrypt,
                Outcome::RefusedRevoked,
                0,
                NO_LAT,
            );
        }
        log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::RefusedInvalid,
            0,
            NO_LAT,
        );
        assert_eq!(log.noisy_identities(3), vec!["mallory".to_string()]);
        assert_eq!(log.noisy_identities(0).len(), 2);
        assert!(log.noisy_identities(10).is_empty());
    }

    #[test]
    fn transport_counters_split_single_and_batched() {
        let log = AuditLog::new();
        log.record("a", Capability::IbeDecrypt, Outcome::Served, 64, NO_LAT);
        log.record("b", Capability::GdhSign, Outcome::RefusedRevoked, 0, NO_LAT);
        // Served and refused requests are audited per identity and in
        // the totals; the transport counters count only connection
        // faults.
        assert_eq!(log.transport_stats(), TransportStats::default());
        assert_eq!(log.stats_for("a").served, 1);
        assert_eq!(log.stats_for("b").refused, 1);
        assert_eq!(log.len(), 2);
        let m = log.metrics();
        assert_eq!((m.totals.served, m.totals.refused), (1, 1));
    }

    #[test]
    fn fault_counters_tracked() {
        let log = AuditLog::new();
        log.note_timeout();
        log.note_timeout();
        log.note_refused_conn("127.0.0.1:55555");
        let t = log.transport_stats();
        assert_eq!(t.timeouts, 2);
        assert_eq!(t.refused_conns, 1);
        // A refused connection is a real audit record, but not a
        // served request.
        assert_eq!(log.metrics().totals.served, 0);
        assert_eq!(log.len(), 1);
        let rec = &log.snapshot()[0];
        assert_eq!(rec.capability, Capability::Connect);
        assert_eq!(rec.outcome, Outcome::RefusedOverload);
        // Keyed by IP, not ip:port.
        assert_eq!(log.stats_for("127.0.0.1").refused, 1);
        assert_eq!(log.stats_for("127.0.0.1:55555"), IdentityStats::default());
    }

    #[test]
    fn refused_conns_from_rotating_ports_share_one_entry() {
        let log = AuditLog::new();
        for port in 50000..50100 {
            log.note_refused_conn(&format!("10.0.0.9:{port}"));
        }
        log.note_refused_conn("[2001:db8::1]:443");
        log.note_refused_conn("[2001:db8::1]:444");
        assert_eq!(log.identities_tracked(), 2);
        assert_eq!(log.stats_for("10.0.0.9").refused, 100);
        assert_eq!(log.stats_for("[2001:db8::1]").refused, 2);
        assert_eq!(log.transport_stats().refused_conns, 102);
    }

    #[test]
    fn peer_ip_strips_only_ports() {
        assert_eq!(peer_ip("1.2.3.4:80"), "1.2.3.4");
        assert_eq!(peer_ip("[::1]:8080"), "[::1]");
        assert_eq!(peer_ip("::1"), "::1"); // bare IPv6 untouched
        assert_eq!(peer_ip("noport"), "noport");
        assert_eq!(peer_ip("host:name"), "host:name"); // non-numeric port
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let log = AuditLog::with_config(AuditConfig {
            audit_cap: 8,
            identity_cap: 1024,
        });
        for i in 0..20 {
            log.record(
                &format!("u{i}"),
                Capability::IbeDecrypt,
                Outcome::Served,
                1,
                NO_LAT,
            );
        }
        assert_eq!(log.len(), 8);
        assert_eq!(log.records_dropped(), 12);
        let snap = log.snapshot();
        // Oldest-first eviction: the survivors are the 8 newest.
        assert_eq!(snap.first().unwrap().id, "u12");
        assert_eq!(snap.last().unwrap().id, "u19");
        // Aggregates are unaffected by eviction.
        assert_eq!(log.total_bytes_out(), 20);
        assert_eq!(log.metrics().totals.served, 20);
    }

    #[test]
    fn zero_audit_cap_retains_nothing() {
        let log = AuditLog::with_config(AuditConfig {
            audit_cap: 0,
            identity_cap: 16,
        });
        log.record("a", Capability::IbeDecrypt, Outcome::Served, 7, NO_LAT);
        assert!(log.is_empty());
        assert_eq!(log.records_dropped(), 1);
        assert_eq!(log.stats_for("a").served, 1);
        assert_eq!(log.total_bytes_out(), 7);
    }

    #[test]
    fn identity_cardinality_capped_with_overflow_bucket() {
        let log = AuditLog::with_config(AuditConfig {
            audit_cap: 64,
            identity_cap: 3,
        });
        for i in 0..10 {
            log.record(
                &format!("u{i}"),
                Capability::IbeDecrypt,
                Outcome::Served,
                10,
                NO_LAT,
            );
        }
        // Only the first 3 are tracked by name; the rest aggregate.
        assert_eq!(log.identities_tracked(), 3);
        assert_eq!(log.stats_for("u0").served, 1);
        assert_eq!(log.stats_for("u5"), IdentityStats::default());
        let overflow = log.stats_for(OVERFLOW_IDENTITY);
        assert_eq!(overflow.served, 7);
        assert_eq!(overflow.bytes_out, 70);
        // Already-tracked identities keep accumulating under their name.
        log.record("u1", Capability::IbeDecrypt, Outcome::Served, 10, NO_LAT);
        assert_eq!(log.stats_for("u1").served, 2);
        // Global totals are exact regardless of folding.
        assert_eq!(log.total_bytes_out(), 110);
        assert_eq!(log.metrics().totals.served, 11);
    }

    #[test]
    fn latency_histograms_are_per_capability() {
        let log = AuditLog::new();
        log.record(
            "a",
            Capability::IbeDecrypt,
            Outcome::Served,
            1,
            Duration::from_micros(100),
        );
        log.record(
            "a",
            Capability::IbeDecrypt,
            Outcome::Served,
            1,
            Duration::from_micros(300),
        );
        log.record(
            "a",
            Capability::GdhSign,
            Outcome::Served,
            1,
            Duration::from_micros(50),
        );
        let m = log.metrics();
        let ibe = &m
            .latency_us
            .iter()
            .find(|(c, _)| *c == Capability::IbeDecrypt)
            .unwrap()
            .1;
        let gdh = &m
            .latency_us
            .iter()
            .find(|(c, _)| *c == Capability::GdhSign)
            .unwrap()
            .1;
        assert_eq!(ibe.count(), 2);
        assert_eq!(ibe.sum(), 400);
        assert_eq!(gdh.count(), 1);
        assert_eq!(gdh.sum(), 50);
        // Quantiles return log-bucket upper bounds.
        assert!(ibe.quantile(0.5) >= 100);
        assert!(gdh.quantile(0.99) >= 50);
    }

    #[test]
    fn histogram_bucketing_is_log_spaced() {
        let mut h = Histogram::new(5);
        for v in [0, 1, 2, 3, 4, 8, 1_000_000] {
            h.observe(v);
        }
        // Buckets: [0,1] [2,3] [4,7] [8,15] [16,∞)
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(3), 1);
        assert_eq!(h.bucket_count(4), 1); // overflow bucket
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket_upper_bound(0), 1);
        assert_eq!(h.bucket_upper_bound(3), 15);
        assert_eq!(h.bucket_upper_bound(4), u64::MAX);
        assert_eq!(Histogram::new(4).quantile(0.5), 0);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn snapshot_preserves_order() {
        let log = AuditLog::new();
        log.record("a", Capability::IbeDecrypt, Outcome::Served, 1, NO_LAT);
        log.record("b", Capability::GdhSign, Outcome::Served, 2, NO_LAT);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id, "a");
        assert_eq!(snap[1].id, "b");
        // `at` is a serializable offset from log creation.
        assert!(snap[0].at <= snap[1].at);
    }

    #[test]
    fn prometheus_text_round_trips() {
        let log = AuditLog::with_config(AuditConfig {
            audit_cap: 4,
            identity_cap: 2,
        });
        log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::Served,
            128,
            Duration::from_micros(250),
        );
        log.record(
            "bob",
            Capability::GdhSign,
            Outcome::RefusedRevoked,
            0,
            Duration::from_micros(90),
        );
        log.record(
            "carol",
            Capability::IbeDecrypt,
            Outcome::Served,
            128,
            Duration::from_micros(4000),
        );
        log.note_timeout();
        log.note_refused_conn("10.1.1.1:4444");
        for i in 0..10 {
            log.record(
                &format!("x{i}"),
                Capability::IbeDecrypt,
                Outcome::Served,
                1,
                NO_LAT,
            );
        }
        let snapshot = log.metrics();
        assert!(snapshot.records_dropped > 0);
        assert_eq!(snapshot.records_len, 4);
        let text = snapshot.to_prometheus_text();
        let parsed = MetricsSnapshot::from_prometheus_text(&text).expect("parseable");
        assert_eq!(parsed, snapshot);
        // Spot-check the exposition itself.
        assert!(text.contains("sem_audit_records_dropped_total"));
        assert!(text.contains("sem_request_latency_us_bucket{capability=\"ibe_decrypt\""));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("sem_transport_timeouts_total 1"));
        assert!(!text.contains("sem_transport_requests_total"));
        assert!(!text.contains("sem_batch_size"));
        // An older daemon's exposition still carries the per-mode
        // request counters and the batch-size histogram; this reader
        // skips those series and parses the same snapshot.
        let older = format!(
            "{text}sem_transport_requests_total{{mode=\"single\"}} 13\n\
             sem_transport_requests_total{{mode=\"batched\"}} 0\n\
             sem_batch_size_bucket{{le=\"1\"}} 0\n\
             sem_batch_size_bucket{{le=\"+Inf\"}} 0\n\
             sem_batch_size_count 0\n\
             sem_batch_size_sum 0\n"
        );
        let parsed = MetricsSnapshot::from_prometheus_text(&older).expect("parseable");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn malformed_prometheus_text_rejected() {
        assert!(MetricsSnapshot::from_prometheus_text("").is_none());
        assert!(MetricsSnapshot::from_prometheus_text("sem_uptime_microseconds 1").is_none());
        let log = AuditLog::new();
        let good = log.metrics().to_prometheus_text();
        // Truncating the exposition breaks it.
        let truncated = &good[..good.len() / 2];
        assert!(MetricsSnapshot::from_prometheus_text(truncated).is_none());
        // A non-integer value breaks it.
        let bad = good.replace(
            "sem_transport_timeouts_total 0",
            "sem_transport_timeouts_total x",
        );
        assert_ne!(bad, good);
        assert!(MetricsSnapshot::from_prometheus_text(&bad).is_none());
    }

    #[test]
    fn replica_rows_round_trip() {
        let log = AuditLog::new();
        log.record("alice", Capability::IbeDecrypt, Outcome::Served, 32, NO_LAT);
        let mut snapshot = log.metrics();
        snapshot.replicas = vec![
            ReplicaHealth {
                index: 1,
                reachable: true,
                cheats: 0,
            },
            ReplicaHealth {
                index: 2,
                reachable: false,
                cheats: 3,
            },
        ];
        let text = snapshot.to_prometheus_text();
        assert!(text.contains("sem_replica_reachable{replica=\"1\"} 1"));
        assert!(text.contains("sem_replica_reachable{replica=\"2\"} 0"));
        assert!(text.contains("sem_replica_cheats_total{replica=\"2\"} 3"));
        let parsed = MetricsSnapshot::from_prometheus_text(&text).expect("parseable");
        assert_eq!(parsed, snapshot);
        // A replica with only one of the two series is malformed.
        let missing = text.replace("sem_replica_cheats_total{replica=\"2\"} 3\n", "");
        assert!(MetricsSnapshot::from_prometheus_text(&missing).is_none());
        // Reachability must be 0/1.
        let bad = text.replace(
            "sem_replica_reachable{replica=\"2\"} 0",
            "sem_replica_reachable{replica=\"2\"} 7",
        );
        assert!(MetricsSnapshot::from_prometheus_text(&bad).is_none());
    }

    #[test]
    fn cache_rows_round_trip() {
        let log = AuditLog::new();
        log.record("alice", Capability::IbeDecrypt, Outcome::Served, 32, NO_LAT);
        let mut snapshot = log.metrics();
        snapshot.caches = vec![
            CacheSeries {
                name: "half_key".into(),
                hits: 40,
                misses: 8,
                evictions: 2,
                entries: 6,
                weight_bytes: 4096,
            },
            CacheSeries {
                name: "mask_base".into(),
                hits: 0,
                misses: 1,
                evictions: 0,
                entries: 1,
                weight_bytes: 66,
            },
        ];
        let text = snapshot.to_prometheus_text();
        assert!(text.contains("sem_cache_hits_total{cache=\"half_key\"} 40"));
        assert!(text.contains("sem_cache_weight_bytes{cache=\"mask_base\"} 66"));
        let parsed = MetricsSnapshot::from_prometheus_text(&text).expect("parseable");
        assert_eq!(parsed, snapshot);
        // A cache missing one of its five series is malformed.
        let missing = text.replace("sem_cache_evictions_total{cache=\"half_key\"} 2\n", "");
        assert!(MetricsSnapshot::from_prometheus_text(&missing).is_none());
    }

    #[test]
    fn cache_rows_merge_by_name() {
        let mut a = AuditLog::new().metrics();
        a.caches = vec![CacheSeries {
            name: "half_key".into(),
            hits: 10,
            misses: 2,
            evictions: 1,
            entries: 3,
            weight_bytes: 300,
        }];
        let mut b = AuditLog::new().metrics();
        b.caches = vec![
            CacheSeries {
                name: "half_key".into(),
                hits: 5,
                misses: 5,
                evictions: 0,
                entries: 4,
                weight_bytes: 400,
            },
            CacheSeries {
                name: "qid".into(),
                hits: 1,
                misses: 1,
                evictions: 0,
                entries: 1,
                weight_bytes: 33,
            },
        ];
        a.merge(&b);
        assert_eq!(a.caches.len(), 2);
        assert_eq!(a.caches[0].name, "half_key");
        assert_eq!(a.caches[0].hits, 15);
        assert_eq!(a.caches[0].misses, 7);
        assert_eq!(a.caches[0].entries, 7);
        assert_eq!(a.caches[0].weight_bytes, 700);
        assert_eq!(a.caches[1].name, "qid");
        let text = a.to_prometheus_text();
        assert_eq!(
            MetricsSnapshot::from_prometheus_text(&text).expect("parseable"),
            a
        );
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a_log = AuditLog::new();
        a_log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::Served,
            100,
            Duration::from_micros(200),
        );
        a_log.note_timeout();
        let b_log = AuditLog::new();
        b_log.record(
            "alice",
            Capability::IbeDecrypt,
            Outcome::Served,
            50,
            Duration::from_micros(900),
        );
        b_log.record(
            "bob",
            Capability::GdhSign,
            Outcome::RefusedRevoked,
            0,
            Duration::from_micros(40),
        );
        let mut merged = a_log.metrics();
        merged.replicas.push(ReplicaHealth {
            index: 1,
            reachable: true,
            cheats: 0,
        });
        let mut b = b_log.metrics();
        b.replicas.push(ReplicaHealth {
            index: 2,
            reachable: true,
            cheats: 1,
        });
        merged.merge(&b);
        assert_eq!(merged.totals.served, 2);
        assert_eq!(merged.totals.refused, 1);
        assert_eq!(merged.totals.bytes_out, 150);
        assert_eq!(merged.transport.timeouts, 1);
        let decrypt_hist = merged
            .latency_us
            .iter()
            .find(|(c, _)| *c == Capability::IbeDecrypt)
            .map(|(_, h)| h)
            .expect("ibe_decrypt histogram");
        assert_eq!(decrypt_hist.count, 2);
        assert_eq!(decrypt_hist.sum, 1100);
        assert_eq!(merged.replicas.len(), 2);
        assert_eq!(merged.replicas[1].cheats, 1);
        // Merged snapshots still round-trip through the codec.
        let text = merged.to_prometheus_text();
        assert_eq!(
            MetricsSnapshot::from_prometheus_text(&text).expect("parseable"),
            merged
        );
    }

    #[test]
    fn concurrent_appends() {
        let log = std::sync::Arc::new(AuditLog::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let log = std::sync::Arc::clone(&log);
                scope.spawn(move || {
                    for _ in 0..50 {
                        log.record("x", Capability::IbeDecrypt, Outcome::Served, 10, NO_LAT);
                    }
                });
            }
        });
        assert_eq!(log.len(), 200);
        assert_eq!(log.stats_for("x").served, 200);
        assert_eq!(log.total_bytes_out(), 2000);
    }

    #[test]
    fn counter_deltas_fold_in_overflow_and_saturate() {
        // Cardinality cap of 2: the third identity lands in the
        // overflow bucket, which counters() must fold back in.
        let log = AuditLog::with_config(AuditConfig {
            identity_cap: 2,
            ..AuditConfig::default()
        });
        log.record("a", Capability::IbeDecrypt, Outcome::Served, 10, NO_LAT);
        let before = log.metrics();
        log.record("b", Capability::IbeDecrypt, Outcome::Served, 20, NO_LAT);
        log.record("c", Capability::GdhSign, Outcome::RefusedRevoked, 0, NO_LAT);
        log.note_timeout();
        let after = log.metrics();
        let delta = after.delta_since(&before);
        assert_eq!(delta.served, 1);
        assert_eq!(delta.refused, 1);
        assert_eq!(delta.bytes_out, 20);
        assert_eq!(delta.timeouts, 1);
        // Differencing the wrong way round saturates to zero instead
        // of wrapping.
        assert_eq!(before.delta_since(&after), CounterDeltas::default());
    }

    proptest::proptest! {
        /// Satellite regression: the counters a scenario's SLO
        /// evaluation differences survive the Prometheus text codec
        /// bit-exactly, for any mix of served/refused traffic on either
        /// side of the cardinality cap.
        #[test]
        fn counter_deltas_round_trip_through_prometheus_text(
            served in 0usize..40,
            refused in 0usize..40,
            identities in 1usize..8,
            identity_cap in 1usize..4,
        ) {
            let log = AuditLog::with_config(AuditConfig {
                identity_cap,
                ..AuditConfig::default()
            });
            for i in 0..served {
                let id = format!("id-{}", i % identities);
                log.record(&id, Capability::IbeDecrypt, Outcome::Served, 7, NO_LAT);
            }
            for i in 0..refused {
                let id = format!("id-{}", i % identities);
                log.record(&id, Capability::GdhSign, Outcome::RefusedRevoked, 0, NO_LAT);
            }
            let snapshot = log.metrics();
            let decoded = MetricsSnapshot::from_prometheus_text(&snapshot.to_prometheus_text())
                .expect("snapshot text must parse back");
            proptest::prop_assert_eq!(decoded.counters(), snapshot.counters());
            proptest::prop_assert_eq!(snapshot.counters().served, served as u64);
            proptest::prop_assert_eq!(snapshot.counters().refused, refused as u64);
            // And a delta computed across the codec boundary matches
            // one computed natively.
            let empty = AuditLog::new().metrics();
            proptest::prop_assert_eq!(decoded.delta_since(&empty), snapshot.delta_since(&empty));
        }
    }
}
