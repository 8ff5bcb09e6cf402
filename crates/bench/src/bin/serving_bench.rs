//! Serving-path load generator: pipelined vs single-in-flight SEM
//! throughput and tail latency under revocation churn.
//!
//! Run with `cargo run --release -p sempair-bench --bin serving_bench`
//! (`--smoke` for the CI gate's quick pass). Drives Zipf-distributed
//! traffic over ~1M distinct identities through the fault-injection
//! proxy against a live `TcpSemServer`, then writes
//! `BENCH_serving.json` to the current directory with a stable schema:
//!
//! ```json
//! {
//!   "schema": "sempair-bench-serving/2",
//!   "mode": "full",
//!   "identities": 1000000,
//!   "results": {"v1_req_per_s": 0.0, "pipelined_req_per_s": 0.0, ...},
//!   "cache_sweep": [{"cache_cap": 0, "hit_rate": 0.0, ...}, ...],
//!   "targets": {"pipelined_speedup_min": 4.0, ...}
//! }
//! ```
//!
//! The acceptance targets (pipelined ≥ 4× single-in-flight req/s at
//! equal worker count; storm p99 ≤ 2× quiet p99; precompute-tier
//! hit-rate ≥ 80% at cap = 1/16 of the identity population with a p50
//! win over the uncached baseline) are recorded as booleans in
//! `targets`, never asserted: a loaded host must not turn a perf
//! report into a flaky gate.
//!
//! Both throughput phases run over the proxy's link emulation
//! ([`FaultProxy::spawn_linked`]) with a [`LINK_ONE_WAY`] propagation
//! delay, because head-of-line blocking is a *latency* pathology: on a
//! zero-RTT loopback a single-in-flight client is bounded only by the
//! pairing CPU (which `BENCH_pairing.json` already covers), and both
//! serving models measure the same number. With a real link the v1
//! model eats one full round trip per request while the pipelined
//! model keeps `depth` requests on the wire — the speedup below is the
//! RTT-hiding the protocol change buys, at equal worker count and
//! identical crypto cost. The emulated link delays every frame by its
//! own due time (it does not serialize), so it bounds round trips, not
//! bandwidth.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::bf_ibe::Pkg;
use sempair_core::mediated::SemKey;
use sempair_net::audit::CacheSeries;
use sempair_net::faults::{FaultPlan, FaultProxy};
use sempair_net::proto::{Op, Request};
use sempair_net::revocation::shard_of;
use sempair_net::scenario::{ident, Zipf};
use sempair_net::tcp::{
    ClientConfig, PipeClient, PipeReply, ServerConfig, TcpSemClient, TcpSemServer,
};
use sempair_pairing::CurveParams;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const WORKERS: usize = 8;
const SHARDS: usize = 16;
const CONNS: usize = 2;
const DEPTH: usize = 32;
/// Emulated one-way propagation delay, LAN-scale (a switched LAN is
/// nearer 0.5 ms; 2 ms keeps the RTT comfortably above scheduler
/// jitter on a loaded CI host).
const LINK_ONE_WAY: Duration = Duration::from_millis(2);

struct Workload {
    ids: usize,
    hot: usize,
    requests_per_conn: usize,
    latency_samples: usize,
}

fn quantile_us(samples: &mut [Duration], q: f64) -> f64 {
    samples.sort();
    let index = ((samples.len() as f64 * q) as usize).min(samples.len() - 1);
    samples[index].as_secs_f64() * 1e6
}

/// Phase 1: single-in-flight v1 clients, one request outstanding per
/// connection — the pre-pipelining serving model.
fn v1_throughput(addr: SocketAddr, pkg: &Pkg, zipf: &Zipf, load: &Workload, conns: usize) -> f64 {
    let total = load.requests_per_conn * conns;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5EED + conn as u64);
                    let mut client = TcpSemClient::connect_with(
                        addr,
                        pkg.params().clone(),
                        ClientConfig {
                            pipelined: false,
                            ..ClientConfig::default()
                        },
                    )
                    .expect("v1 connect");
                    let u = pkg
                        .params()
                        .curve()
                        .mul_generator(&pkg.params().curve().random_scalar(&mut rng));
                    for _ in 0..load.requests_per_conn {
                        let id = ident(zipf.sample(&mut rng));
                        // Cold identities refuse (UnknownIdentity) —
                        // that is the Zipf tail exercising the full
                        // serving path, not an error in the bench.
                        let _ = client.ibe_token(&id, &u);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("v1 load thread");
        }
    });
    total as f64 / started.elapsed().as_secs_f64()
}

/// Phase 2: the same connection count, but `depth` requests in flight
/// per connection through the pipelined envelope protocol.
fn pipelined_throughput(
    addr: SocketAddr,
    pkg: &Pkg,
    zipf: &Zipf,
    load: &Workload,
    conns: usize,
    depth: usize,
) -> f64 {
    let total = load.requests_per_conn * conns;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF00D + conn as u64);
                    let mut pipe =
                        PipeClient::connect(addr, Duration::from_secs(30)).expect("pipe connect");
                    let curve = pkg.params().curve();
                    let u =
                        curve.point_to_bytes(&curve.mul_generator(&curve.random_scalar(&mut rng)));
                    let mut submitted = 0usize;
                    let mut received = 0usize;
                    // Sliding window: top the connection up to `depth`
                    // in flight, then lock-step one-in-one-out.
                    while received < load.requests_per_conn {
                        while submitted < load.requests_per_conn && submitted - received < depth {
                            let request = Request {
                                op: Op::IbeToken,
                                id: ident(zipf.sample(&mut rng)),
                                body: u.clone(),
                            };
                            pipe.submit(&request).expect("pipelined submit");
                            submitted += 1;
                        }
                        match pipe.recv().expect("pipelined recv") {
                            PipeReply::Reply(..) => received += 1,
                            PipeReply::Plain(outer) => {
                                panic!("unexpected plain reply: {:?}", outer.status)
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("pipelined load thread");
        }
    });
    total as f64 / started.elapsed().as_secs_f64()
}

/// Latency phase: one pipelined connection at a modest depth, each
/// request timestamped at submit and matched to its reply by request
/// id, so the percentiles measure genuine per-request latency even
/// with out-of-order completion.
fn latency_run(
    addr: SocketAddr,
    pkg: &Pkg,
    zipf: &Zipf,
    load: &Workload,
    depth: usize,
) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mut pipe = PipeClient::connect(addr, Duration::from_secs(30)).expect("latency connect");
    let curve = pkg.params().curve();
    let u = curve.point_to_bytes(&curve.mul_generator(&curve.random_scalar(&mut rng)));
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut samples = Vec::with_capacity(load.latency_samples);
    let mut submitted = 0usize;
    while samples.len() < load.latency_samples {
        while submitted < load.latency_samples && in_flight.len() < depth {
            let request = Request {
                op: Op::IbeToken,
                id: ident(zipf.sample(&mut rng)),
                body: u.clone(),
            };
            let req_id = pipe.submit(&request).expect("latency submit");
            in_flight.insert(req_id, Instant::now());
            submitted += 1;
        }
        match pipe.recv().expect("latency recv") {
            PipeReply::Reply(req_id, _) => {
                if let Some(at) = in_flight.remove(&req_id) {
                    samples.push(at.elapsed());
                }
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
    }
    samples
}

/// One point of the precompute-tier sweep (schema /2's `cache_sweep`).
struct SweepPoint {
    cache_cap: usize,
    hit_rate: f64,
    p50_us: f64,
    p99_us: f64,
    entries: u64,
    weight_bytes: u64,
}

/// Fetches the server's cache counter rows over the wire (op 4): the
/// sweep reads the same exposition `sempair stats` prints, so the
/// hit-rate below also proves the Prometheus round trip end to end.
fn fetch_cache_rows(addr: SocketAddr, pkg: &Pkg, print_rows: bool) -> Vec<CacheSeries> {
    let mut client =
        TcpSemClient::connect_with(addr, pkg.params().clone(), ClientConfig::default())
            .expect("stats connect");
    let text = client.stats_text().expect("stats fetch");
    if print_rows {
        for line in text.lines().filter(|line| line.starts_with("sem_cache_")) {
            println!("{line}");
        }
    }
    let snapshot = sempair_net::audit::MetricsSnapshot::from_prometheus_text(&text)
        .expect("parseable stats exposition");
    snapshot.caches
}

fn half_key_row(rows: &[CacheSeries]) -> CacheSeries {
    rows.iter()
        .find(|row| row.name == "half_key")
        .expect("half_key cache row")
        .clone()
}

/// Warm phase for one sweep point: one token request per enrolled
/// rank, *coldest rank first*, so when the cache cap is smaller than
/// the enrolled set the LRU finishes the phase holding the hottest
/// (lowest) ranks instead of the tail it saw last.
fn warm_enrolled(addr: SocketAddr, pkg: &Pkg, enrolled: usize) {
    let mut rng = StdRng::seed_from_u64(0xCACE);
    let mut pipe = PipeClient::connect(addr, Duration::from_secs(30)).expect("warm connect");
    let curve = pkg.params().curve();
    let u = curve.point_to_bytes(&curve.mul_generator(&curve.random_scalar(&mut rng)));
    let mut submitted = 0usize;
    let mut received = 0usize;
    while received < enrolled {
        while submitted < enrolled && submitted - received < 64 {
            let request = Request {
                op: Op::IbeToken,
                id: ident(enrolled - 1 - submitted),
                body: u.clone(),
            };
            pipe.submit(&request).expect("warm submit");
            submitted += 1;
        }
        match pipe.recv().expect("warm recv") {
            PipeReply::Reply(..) => received += 1,
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
    }
}

/// Phase 4: one precompute-tier sweep point. A fresh server per cap
/// (the cap is bind-time config), enrolled keys installed, a full
/// warm pass, then the latency workload over an enrolled-only Zipf —
/// hit-rate is the half-key cache's counter delta across the
/// measured window. Runs on plain loopback, no link emulation: the
/// cache saves pairing CPU, not round trips, and a 4 ms RTT would
/// bury the signal the sweep exists to measure.
fn cache_sweep_point(
    pkg: &Pkg,
    keys: &[SemKey],
    load: &Workload,
    cache_cap: usize,
    print_rows: bool,
) -> SweepPoint {
    let enrolled = keys.len();
    let server = TcpSemServer::bind_with(
        "127.0.0.1:0",
        pkg.params().clone(),
        ServerConfig {
            workers: WORKERS,
            shards: SHARDS,
            queue_cap: 8192,
            pipeline_depth: 64,
            cache_cap,
            ..ServerConfig::default()
        },
    )
    .expect("bind sweep server");
    for key in keys {
        server.install_ibe(key.clone());
    }
    let addr = server.local_addr();
    warm_enrolled(addr, pkg, enrolled);
    let before = half_key_row(&fetch_cache_rows(addr, pkg, false));
    let zipf = Zipf::new(enrolled);
    let mut samples = latency_run(addr, pkg, &zipf, load, 8);
    let p50_us = quantile_us(&mut samples, 0.50);
    let p99_us = quantile_us(&mut samples, 0.99);
    let after = half_key_row(&fetch_cache_rows(addr, pkg, print_rows));
    server.shutdown();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    SweepPoint {
        cache_cap,
        hit_rate,
        p50_us,
        p99_us,
        entries: after.entries,
        weight_bytes: after.weight_bytes,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let load = if smoke {
        Workload {
            ids: 20_000,
            hot: 64,
            requests_per_conn: 250,
            latency_samples: 250,
        }
    } else {
        Workload {
            ids: 1_000_000,
            hot: 512,
            requests_per_conn: 4_000,
            latency_samples: 2_000,
        }
    };
    let curve = CurveParams::fast_insecure();
    let mut rng = StdRng::seed_from_u64(20030726);
    let pkg = Pkg::setup(&mut rng, curve);
    let server = TcpSemServer::bind_with(
        "127.0.0.1:0",
        pkg.params().clone(),
        ServerConfig {
            workers: WORKERS,
            shards: SHARDS,
            queue_cap: 8192,
            pipeline_depth: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    // Keys exist for the hot head of the Zipf distribution; the cold
    // tail is refused as unknown — both classes traverse the complete
    // decode → schedule → shard-lock → audit path.
    for rank in 0..load.hot {
        let (_, sem_key) = pkg.extract_split(&mut rng, &ident(rank));
        server.install_ibe(sem_key);
    }
    let proxy = FaultProxy::spawn_linked(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::clean(),
        LINK_ONE_WAY,
    )
    .expect("spawn proxy");
    let addr = proxy.local_addr();
    let zipf = Zipf::new(load.ids);

    println!(
        "# serving benchmark ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "identities={} hot={} workers={WORKERS} shards={SHARDS} conns={CONNS} depth={DEPTH} \
         link={}ms one-way\n",
        load.ids,
        load.hot,
        LINK_ONE_WAY.as_millis()
    );

    let v1_rps = v1_throughput(addr, &pkg, &zipf, &load, CONNS);
    println!("v1 single-in-flight: {v1_rps:.0} req/s");
    let piped_rps = pipelined_throughput(addr, &pkg, &zipf, &load, CONNS, DEPTH);
    let speedup = piped_rps / v1_rps;
    println!("pipelined depth-{DEPTH}: {piped_rps:.0} req/s ({speedup:.1}x, target >= 4x)");

    // Tail latency, quiet vs a one-shard revocation storm. The storm
    // hammers a single foreign shard's write lock; the measured
    // identity stream (hot head lives on every shard) must not see its
    // p99 multiply.
    let mut quiet = latency_run(addr, &pkg, &zipf, &load, 8);
    let quiet_p50 = quantile_us(&mut quiet, 0.50);
    let quiet_p99 = quantile_us(&mut quiet, 0.99);
    println!("quiet: p50 {quiet_p50:.0} µs, p99 {quiet_p99:.0} µs");

    // All revocations land on one shard: the worst case for a single
    // victim shard, the best case for isolation. Identities are
    // pre-generated (the filter re-hashes candidates) and the storm is
    // paced in bursts — revocations arrive over a network in reality,
    // and an unpaced spin loop on a small host would measure the storm
    // thread stealing CPU from the workers, not shard contention.
    let storm_ids: Vec<String> = {
        let storm_shard = 0usize;
        let mut ids = Vec::with_capacity(4096);
        let mut n = 0u64;
        while ids.len() < 4096 {
            let id = format!("churn-{n}");
            n += 1;
            if shard_of(&id, SHARDS) == storm_shard {
                ids.push(id);
            }
        }
        ids
    };
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm_stop = std::sync::Arc::clone(&stop);
    let storm_server = &server;
    let storm_ids = &storm_ids;
    let mut storm = std::thread::scope(|scope| {
        scope.spawn(move || {
            // ~8k write-lock acquisitions per second on the victim
            // shard: 8 per burst, one burst per millisecond.
            let mut i = 0usize;
            while !storm_stop.load(std::sync::atomic::Ordering::Relaxed) {
                for _ in 0..8 {
                    storm_server.revoke(&storm_ids[i % storm_ids.len()]);
                    i += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let samples = latency_run(addr, &pkg, &zipf, &load, 8);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        samples
    });
    let storm_p50 = quantile_us(&mut storm, 0.50);
    let storm_p99 = quantile_us(&mut storm, 0.99);
    let p99_ratio = storm_p99 / quiet_p99;
    println!("storm: p50 {storm_p50:.0} µs, p99 {storm_p99:.0} µs ({p99_ratio:.2}x quiet p99, target <= 2x)");

    // Precompute-tier sweep: 1/16 of the population is enrolled (keys
    // installed), caps at {0, ids/64, ids/16}. Cap 0 disables the tier
    // outright — `serve_item` takes the PR 6 uncached pairing path, so
    // the baseline is the genuine pre-cache server, not a cache that
    // always misses.
    let enrolled = load.ids / 16;
    let caps = [0usize, load.ids / 64, enrolled];
    println!("\ncache sweep: {enrolled} enrolled identities, caps {caps:?}");
    let enrolled_keys: Vec<SemKey> = (0..enrolled)
        .map(|rank| pkg.extract_split(&mut rng, &ident(rank)).1)
        .collect();
    let sweep: Vec<SweepPoint> = caps
        .iter()
        .map(|&cap| {
            let point = cache_sweep_point(&pkg, &enrolled_keys, &load, cap, cap == enrolled);
            println!(
                "cap {:>6}: hit-rate {:.1}%, p50 {:.0} µs, p99 {:.0} µs, \
                 {} entries / {} weight bytes",
                point.cache_cap,
                point.hit_rate * 100.0,
                point.p50_us,
                point.p99_us,
                point.entries,
                point.weight_bytes
            );
            point
        })
        .collect();
    let full_cap = &sweep[sweep.len() - 1];
    let hit_ok = full_cap.hit_rate >= 0.8;
    let p50_ok = full_cap.p50_us < sweep[0].p50_us;
    println!(
        "cap=ids/16: hit-rate {:.1}% (target >= 80%), p50 {:.0} µs vs uncached {:.0} µs",
        full_cap.hit_rate * 100.0,
        full_cap.p50_us,
        sweep[0].p50_us
    );

    let sweep_rows = sweep
        .iter()
        .map(|point| {
            format!(
                "    {{\"cache_cap\": {}, \"hit_rate\": {:.4}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"entries\": {}, \"weight_bytes\": {}}}",
                point.cache_cap,
                point.hit_rate,
                point.p50_us,
                point.p99_us,
                point.entries,
                point.weight_bytes
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"sempair-bench-serving/2\",\n  \"mode\": \"{}\",\n  \
         \"identities\": {},\n  \"hot_identities\": {},\n  \"enrolled_identities\": {enrolled},\n  \
         \"zipf_s\": 1.0,\n  \
         \"workers\": {WORKERS},\n  \"shards\": {SHARDS},\n  \"conns\": {CONNS},\n  \
         \"pipeline_depth\": {DEPTH},\n  \"link_one_way_ms\": {},\n  \"results\": {{\n    \
         \"v1_req_per_s\": {v1_rps:.1},\n    \
         \"pipelined_req_per_s\": {piped_rps:.1},\n    \
         \"pipelined_speedup\": {speedup:.2},\n    \
         \"quiet_p50_us\": {quiet_p50:.1},\n    \"quiet_p99_us\": {quiet_p99:.1},\n    \
         \"storm_p50_us\": {storm_p50:.1},\n    \"storm_p99_us\": {storm_p99:.1},\n    \
         \"storm_p99_ratio\": {p99_ratio:.2}\n  }},\n  \"cache_sweep\": [\n{sweep_rows}\n  ],\n  \
         \"targets\": {{\n    \
         \"pipelined_speedup_min\": 4.0,\n    \"pipelined_speedup_ok\": {},\n    \
         \"storm_p99_ratio_max\": 2.0,\n    \"storm_p99_ratio_ok\": {},\n    \
         \"cache_hit_rate_min\": 0.8,\n    \"cache_hit_rate_ok\": {hit_ok},\n    \
         \"cache_p50_improves_ok\": {p50_ok}\n  }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        load.ids,
        load.hot,
        LINK_ONE_WAY.as_millis(),
        speedup >= 4.0,
        p99_ratio <= 2.0,
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");

    proxy.shutdown();
    server.shutdown();
}
