//! `perfbench`: the SEM benchmark.
//!
//! Runs one workload against a live `TcpSemServer` over loopback at the
//! paper's 512/160 parameters, checks every reply, and prints every
//! metric by name with its unit; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload token_zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run sets the SEM up several times (`setup_s` is the median),
//! then drives an unpaced closed-window phase at depth D followed by a
//! paced open-loop phase whose latencies are charged from due times.
//! The JSON carries set-up time, the share of the workload's own
//! operations (token, half-signature or `revoke()`) the SEM served
//! within that op's limit, the share of paced requests answered within
//! the latency limit, the share served at all, and peak memory.
//! Latency percentiles, service means and closed-window throughput are
//! printed by name with their sample counts but left out of the JSON:
//! on a shared 2-core VM their run-to-run spread exceeds any bound the
//! benchmark may set.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded and a layer pass afterwards, and reports
//! the per-layer metrics. The workload table is `src/config.rs`. The
//! exit code is 0 for a correct run, 1 when the oracle found a mismatch,
//! 2 for a usage or set-up error.

mod config;
mod drive;
mod inputs;
mod layers;
mod oracle;
mod scratch;
mod stats;

use config::{
    Kind, Workload, ADMIN_LIMIT_MS, ADMIN_RPS, CONNS, DEPTH, JOURNAL_RECORDS, LATENCY_LIMIT_MS,
    LAYER_ADMIN, LAYER_MAP, LAYER_SAMPLE, PACED_DEPTH, PACED_SHARE, SERVICE_LIMIT_LOG2_US,
    SETUP_REPEATS, SHARDS, SIZES, STATS_EVERY_MS, UNKNOWN_POOL, WORKERS,
};
use drive::{AdminDone, AdminLog, Clock, Closed, Conn, Done, Paced, Phase};
use inputs::{Inputs, Req};
use sempair_net::audit::{CacheSeries, Capability, Histogram, MetricsSnapshot};
use sempair_net::proto::{Op, Request, Status};
use sempair_net::tcp::{
    ClientConfig, PipeClient, PipeReply, ServerConfig, TcpSemClient, TcpSemServer,
};
use stats::{bucket_quantile, due_latency_ns, histogram_delta, median, quantile, Quantile, Trace};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Lead time between the last set-up step and the first due request.
const LEAD_NS: u64 = 20_000_000;
/// Gap between the closed-window phase's last submit and the first
/// paced due time, for the window to drain.
const DRAIN_NS: u64 = 100_000_000;
/// Length of the slices `capacity_rps` takes its median over, seconds.
const CAPACITY_SLICE_S: f64 = 0.5;
/// Window of the set-up warm pass.
const WARM_DEPTH: usize = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Whether the workload's SEM boots from the pre-written journal, with
/// `cache_warm` on, and takes admin traffic.
fn churns(workload: &Workload) -> bool {
    workload.kind == Kind::RevocationChurn
}

/// The SEM's configuration for `workload`.
fn server_config(workload: &Workload) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        shards: SHARDS,
        cache_cap: SIZES.cache_cap,
        cache_warm: churns(workload),
        ..ServerConfig::default()
    }
}

/// One SEM start, timed: bind (and journal replay), half-key install,
/// and a warm pass of one token per cached rank, coldest first. Returns
/// the server, the seconds it took, and any disagreement with the
/// model.
fn setup_once(
    workload: &Workload,
    inputs: &Inputs,
    scratch: &Path,
    rep: usize,
) -> Result<(TcpSemServer, f64, Vec<String>), String> {
    let journal = scratch.join(format!("sem-{rep}.log"));
    if churns(workload) {
        std::fs::write(&journal, &inputs.journal).map_err(|e| format!("write journal: {e}"))?;
    }
    let mut problems = Vec::new();
    let started = Instant::now();
    let server = if churns(workload) {
        let (server, replayed) = TcpSemServer::bind_with_journal(
            "127.0.0.1:0",
            inputs.params.clone(),
            server_config(workload),
            &journal,
        )
        .map_err(|e| format!("bind: {e}"))?;
        let revoked = inputs.initially_revoked.iter().filter(|&&r| r).count();
        if replayed.records != JOURNAL_RECORDS
            || replayed.truncated_bytes != 0
            || replayed.revoked.len() != revoked
            || !replayed.revoked.iter().all(|id| {
                inputs
                    .names
                    .iter()
                    .position(|n| n == id)
                    .is_some_and(|i| inputs.initially_revoked[i])
            })
            || replayed.warm.len() != inputs.warm.len()
        {
            problems.push(format!(
                "journal replay: {} records, {} truncated bytes, {} revoked (model: {}, 0, {revoked})",
                replayed.records,
                replayed.truncated_bytes,
                replayed.revoked.len(),
                JOURNAL_RECORDS
            ));
        }
        server
    } else {
        TcpSemServer::bind_with(
            "127.0.0.1:0",
            inputs.params.clone(),
            server_config(workload),
        )
        .map_err(|e| format!("bind: {e}"))?
    };
    for key in &inputs.sem_keys {
        server.install_ibe(key.clone());
    }
    for key in &inputs.gdh_sem {
        server.install_gdh(key.clone());
    }
    let mut pipe = PipeClient::connect(server.local_addr(), drive::IO_TIMEOUT)
        .map_err(|e| format!("warm connect: {e}"))?;
    let ranks: Vec<usize> = (0..SIZES.cache_cap).rev().collect();
    let mut sent = 0;
    let mut received = 0;
    while received < ranks.len() {
        while sent < ranks.len() && sent - received < WARM_DEPTH {
            let rank = ranks[sent];
            let request = Request {
                op: Op::IbeToken,
                id: inputs.names[rank].clone(),
                body: inputs.u_for(rank as u32).to_vec(),
            };
            pipe.submit(&request)
                .map_err(|e| format!("warm submit: {e:?}"))?;
            sent += 1;
        }
        match pipe.recv().map_err(|e| format!("warm recv: {e:?}"))? {
            PipeReply::Reply(_, reply)
                if reply.status == Status::Ok || reply.status == Status::Revoked =>
            {
                received += 1
            }
            other => return Err(format!("warm pass reply {other:?}")),
        }
    }
    Ok((server, started.elapsed().as_secs_f64(), problems))
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hands the memory the set-up repetitions freed back to the system, so
/// the window's peak RSS does not depend on how their allocations
/// happened to fragment the allocator's arenas.
fn release_free_memory() {
    // SAFETY: malloc_trim takes a plain integer, touches only the
    // allocator's own free lists under its own locks, and is safe to
    // call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

fn stats_client(server: &TcpSemServer, inputs: &Inputs) -> Result<TcpSemClient, String> {
    TcpSemClient::connect_with(
        server.local_addr(),
        inputs.params.clone(),
        ClientConfig::default(),
    )
    .map_err(|e| format!("stats connect: {e}"))
}

/// One stats pull on a short-lived connection.
fn snapshot(
    server: &TcpSemServer,
    inputs: &Inputs,
    clock: &Clock,
    log: &mut AdminLog,
) -> Result<MetricsSnapshot, String> {
    let mut client = stats_client(server, inputs)?;
    drive::pull_stats(&mut client, clock, log).ok_or_else(|| "stats pull failed".to_string())
}

/// The server's service-time histogram of `capability` in `snapshot`.
fn latency_hist(snapshot: &MetricsSnapshot, capability: Capability) -> Option<&Histogram> {
    snapshot
        .latency_us
        .iter()
        .find(|(c, _)| *c == capability)
        .map(|(_, h)| h)
}

fn service_counts(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    capability: Capability,
) -> Vec<u64> {
    match (
        latency_hist(before, capability),
        latency_hist(after, capability),
    ) {
        (Some(b), Some(a)) => histogram_delta(b, a),
        _ => Vec::new(),
    }
}

/// Mean server-side service time of `capability` between two
/// snapshots (histogram sum over count), ms, with the count.
fn service_mean_ms(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    capability: Capability,
) -> (f64, u64) {
    let totals = |s| latency_hist(s, capability).map_or((0, 0), |h| (h.sum(), h.count()));
    let ((sum0, n0), (sum1, n1)) = (totals(before), totals(after));
    let n = n1.saturating_sub(n0);
    let mean_us = sum1.saturating_sub(sum0) as f64 / n.max(1) as f64;
    (mean_us / 1e3, n)
}

fn cache_row(snapshot: &MetricsSnapshot, name: &str) -> CacheSeries {
    snapshot
        .caches
        .iter()
        .find(|c| c.name == name)
        .cloned()
        .unwrap_or(CacheSeries {
            name: name.into(),
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
            weight_bytes: 0,
        })
}

fn hit_ratio(before: &CacheSeries, after: &CacheSeries) -> f64 {
    let hits = after.hits.saturating_sub(before.hits);
    let misses = after.misses.saturating_sub(before.misses);
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Metric values in report order.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, detail: &str) {
        println!(
            "{name} = {value:.4} {unit}{}{detail}",
            if detail.is_empty() { "" } else { "  " }
        );
        self.metrics.push((name, value, unit));
    }

    fn tail(&mut self, name: &'static str, q: Option<Quantile>, unit: &'static str, lag: &str) {
        match q {
            Some(q) => self.put(name, q.value, unit, &format!("[{}{lag}]", q.describe())),
            None => self.put(name, 0.0, unit, "[no samples]"),
        }
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Prints a latency or throughput figure that is reported but not
/// gated: its run-to-run spread exceeds any bound the benchmark may set.
fn print_ungated(name: &str, q: Option<Quantile>, lag: &str) {
    match q {
        Some(q) => println!(
            "{name} = {:.4} ms  [{}{lag}; reported, not gated]",
            q.value,
            q.describe()
        ),
        None => println!("{name}: no samples"),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = config::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let scratch = std::env::current_dir()
        .and_then(|dir| scratch::ScratchDir::create(&dir))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} curve=paper_default(512/160)",
        workload.name, args.seed, args.seconds, u8::from(args.trace)
    );
    println!("# {}", workload.why);
    let generated = Instant::now();
    let inputs = Inputs::generate(workload, SIZES, args.seed, args.seconds as f64);
    println!(
        "inputs: digest {} ({:.2} s, not timed)",
        hex(&inputs.digest()),
        generated.elapsed().as_secs_f64()
    );
    let rss_inputs = peak_rss_mb()?;

    let mut problems = Vec::new();
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            TcpSemServer::shutdown(previous);
        }
        let (sem, secs, found) = setup_once(workload, &inputs, scratch.path(), rep)?;
        setup_times.push(secs);
        problems.extend(found);
        server = Some(sem);
    }
    let server = server.ok_or("no set-up ran")?;
    let rss_setup = peak_rss_mb()?;
    // Peak RSS is reported for the measured window: reset the high-water
    // mark to the current RSS, leaving out the set-up repetitions.
    release_free_memory();
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))?;
    let initially_revoked: Vec<bool> = if churns(workload) {
        inputs.initially_revoked.clone()
    } else {
        vec![false; inputs.names.len()]
    };

    let clock = Clock::start();
    let mut pulls = AdminLog::default();
    let before = snapshot(&server, &inputs, &clock, &mut pulls)?;
    let seconds_ns = args.seconds * 1_000_000_000;
    let paced_ns = (seconds_ns as f64 * PACED_SHARE) as u64;
    let conn_rate = workload.paced_rps / workload.load_conns as f64;
    let period = (1e9 / conn_rate) as u64;
    let mut conns: Vec<Conn<'_>> = (0..workload.load_conns)
        .map(|c| Conn::connect(&inputs, clock, server.local_addr(), DEPTH, c as u64))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("load connect: {e}"))?;
    let mut admin_stats = if churns(workload) {
        Some(stats_client(&server, &inputs)?)
    } else {
        None
    };
    let start = clock.now() + LEAD_NS;
    let closed_end = start + seconds_ns - paced_ns;
    let end = start + seconds_ns + DRAIN_NS;
    let (admin, mid) = std::thread::scope(|scope| {
        let admin = admin_stats.as_mut().map(|client| {
            let (server, inputs) = (&server, &inputs);
            scope.spawn(move || {
                drive::admin_thread(
                    server,
                    inputs,
                    clock,
                    client,
                    start,
                    (1e9 / ADMIN_RPS) as u64,
                    STATS_EVERY_MS * 1_000_000,
                    end,
                )
            })
        });
        for (c, conn) in conns.iter_mut().enumerate() {
            let reqs = &inputs.paced[c];
            let closed = &inputs.closed[c];
            let trace_from = if args.trace {
                reqs.len() / 2
            } else {
                reqs.len()
            };
            let offset = period * c as u64 / workload.load_conns as u64;
            scope.spawn(move || {
                conn.closed(&Closed {
                    reqs: closed,
                    end: closed_end,
                    traced: args.trace,
                });
                conn.paced(&Paced {
                    reqs,
                    start: closed_end + DRAIN_NS + offset,
                    period,
                    trace_from,
                    depth: PACED_DEPTH,
                });
            });
        }
        // The server's histograms at the phase boundary, once the
        // closed window has drained: the paced phase's own service
        // times are the delta from here.
        clock.sleep_until(closed_end + DRAIN_NS * 3 / 4);
        let mid = snapshot(&server, &inputs, &clock, &mut pulls);
        let admin = admin
            .map(|h| h.join().expect("admin thread"))
            .unwrap_or_default();
        (admin, mid)
    });
    let mid = mid?;
    let after = snapshot(&server, &inputs, &clock, &mut pulls)?;

    // Trace runs: probes and admin samples for what the window did not
    // exercise, while the SEM is still up.
    let mut probe_after = after.clone();
    let mut extra_calls: Vec<AdminDone> = Vec::new();
    if args.trace {
        if workload.kind != Kind::SignMix {
            let mut final_state = initially_revoked.clone();
            for call in &admin.calls {
                final_state[call.ident as usize] = call.revoke;
            }
            let signers: Vec<u32> = (0..inputs.signers.len() as u32)
                .filter(|&s| !final_state[s as usize])
                .collect();
            if signers.is_empty() {
                return Err("every probe signer is revoked".into());
            }
            let probes: Vec<Req> = (0..LAYER_SAMPLE)
                .map(|k| Req {
                    sign: true,
                    ident: signers[k % signers.len()],
                    msg: u64::MAX - k as u64,
                })
                .collect();
            let mut probe = Conn::connect(&inputs, clock, server.local_addr(), 1, CONNS as u64)
                .map_err(|e| format!("probe connect: {e}"))?;
            probe.probe(&probes);
            conns.push(probe);
            probe_after = snapshot(&server, &inputs, &clock, &mut pulls)?;
        }
        if !churns(workload) {
            for k in 0..LAYER_ADMIN {
                let ident = (inputs.enrolled + k % UNKNOWN_POOL) as u32;
                extra_calls.push(drive::admin_call(&server, &inputs, &clock, true, ident));
                extra_calls.push(drive::admin_call(&server, &inputs, &clock, false, ident));
            }
        }
    }
    let drain = server.shutdown();

    let mut done: Vec<Done> = Vec::new();
    let mut trace = Trace::default();
    for conn in conns {
        done.extend(conn.done);
        trace.extend(conn.trace);
    }
    let mut calls = admin.calls.clone();
    calls.extend(extra_calls.iter().copied());

    let verdict = oracle::check(&inputs, &done, &calls, &initially_revoked);
    println!(
        "oracle: {} replies checked, {} status mismatches, {} bad outputs, served_after_revoke = {}",
        verdict.checked, verdict.status_mismatches, verdict.bad_outputs, verdict.served_after_revoke
    );
    for example in verdict.examples.iter().chain(&problems) {
        println!("oracle: {example}");
    }
    let failed = done.iter().filter(|d| d.failed()).count();
    let attempted = done.len() + calls.len();
    println!(
        "requests: {} attempted ({} admin calls), {failed} failed; drained {} connections",
        attempted,
        calls.len(),
        drain.connections_closed
    );

    let mut report = Report {
        metrics: Vec::new(),
    };
    let paced: Vec<&Done> = done
        .iter()
        .filter(|d| matches!(d.phase, Phase::Paced | Phase::PacedTraced))
        .collect();
    let lag: Vec<f64> = paced
        .iter()
        .filter(|d| d.status.is_some())
        .map(|d| ms(d.sent.saturating_sub(d.due)))
        .collect();
    let lag_q = quantile(&lag, 0.99);
    let lag_note = lag_q.map_or_else(String::new, |q| {
        format!("; generator lag p{:.1} {:.3} ms", q.percentile, q.value)
    });
    let latencies = |sign: bool, phase: Phase| -> Vec<f64> {
        done.iter()
            .filter(|d| d.phase == phase && d.req.sign == sign && !d.failed())
            .map(|d| ms(due_latency_ns(d.due, d.recv)))
            .collect()
    };
    let revokes: Vec<f64> = admin
        .calls
        .iter()
        .filter(|c| c.revoke)
        .map(|c| ms(c.end - c.start))
        .collect();

    if !args.trace {
        let tokens = latencies(false, Phase::Paced);
        let signs = latencies(true, Phase::Paced);
        report.put(
            "setup_s",
            median(&setup_times),
            "s",
            &format!(
                "[median of {} set-ups: {:?}]",
                setup_times.len(),
                setup_times
            ),
        );
        // The workload's own operation as the SEM serves it: for tokens
        // and half-signatures the server's service time (worker pickup
        // to reply) over the paced phase, from its histogram; for
        // revocations the in-process `revoke()` call. The gate is the
        // share served within the op's limit: unlike a latency it holds
        // still while the shared host's speed drifts (server service
        // time alone spread up to 0.27 between runs), yet a 3x slower
        // op pushes most of its services past the limit.
        let (within, total, op_detail) = match workload.kind {
            Kind::TokenZipf | Kind::SignMix => {
                let capability = if workload.kind == Kind::SignMix {
                    Capability::GdhSign
                } else {
                    Capability::IbeDecrypt
                };
                let counts = service_counts(&mid, &after, capability);
                let within: u64 = counts.iter().take(SERVICE_LIMIT_LOG2_US).sum();
                let (mean_ms, n) = service_mean_ms(&mid, &after, capability);
                (
                    within as usize,
                    n as usize,
                    format!(
                        "{capability:?} services under {} ms (server histogram); service mean {mean_ms:.4} ms",
                        (1u64 << SERVICE_LIMIT_LOG2_US) as f64 / 1e3
                    ),
                )
            }
            Kind::RevocationChurn => (
                revokes.iter().filter(|&&t| t <= ADMIN_LIMIT_MS).count(),
                revokes.len(),
                format!(
                    "revoke() calls within {ADMIN_LIMIT_MS} ms; revoke p50 {:.4} ms",
                    median(&revokes)
                ),
            ),
        };
        report.put(
            "op_ontime_share",
            within as f64 / total.max(1) as f64,
            "ratio",
            &format!("[{within} of {total} {op_detail}]"),
        );
        print_ungated("token_p50_ms", quantile(&tokens, 0.5), &lag_note);
        print_ungated("token_p99_ms", quantile(&tokens, 0.99), &lag_note);
        match workload.kind {
            Kind::TokenZipf => {}
            Kind::SignMix => {
                print_ungated("sign_p50_ms", quantile(&signs, 0.5), &lag_note);
                print_ungated("sign_p99_ms", quantile(&signs, 0.99), &lag_note);
            }
            Kind::RevocationChurn => {
                print_ungated("revoke_p50_ms", quantile(&revokes, 0.5), "");
                print_ungated("revoke_p99_ms", quantile(&revokes, 0.99), "");
            }
        }
        let closed: Vec<&Done> = done.iter().filter(|d| d.phase == Phase::Closed).collect();
        let closed_start = closed.iter().map(|d| d.sent).min().unwrap_or(closed_end);
        let replies = closed
            .iter()
            .filter(|d| !d.failed() && d.recv <= closed_end)
            .count();
        let closed_secs = closed_end.saturating_sub(closed_start) as f64 / 1e9;
        // Median over fixed slices of the phase, so one stalled slice
        // does not set the run's figure.
        let slices = ((closed_secs / CAPACITY_SLICE_S).floor() as usize).max(1);
        let slice_ns = (CAPACITY_SLICE_S * 1e9) as u64;
        let mut per_slice = vec![0usize; slices];
        for d in closed
            .iter()
            .filter(|d| !d.failed() && d.recv > closed_start)
        {
            let slice = ((d.recv - closed_start) / slice_ns) as usize;
            if slice < slices {
                per_slice[slice] += 1;
            }
        }
        let rates: Vec<f64> = per_slice
            .iter()
            .map(|&n| n as f64 / CAPACITY_SLICE_S)
            .collect();
        // Reported, not gated: closed-window throughput on a 2-core host
        // spreads between runs by more than any allowed bound.
        println!(
            "capacity_rps = {:.4} req/s  [median of {slices} slices of {CAPACITY_SLICE_S} s; {replies} replies in {closed_secs:.3} s = {:.1} req/s at depth {}; reported, not gated]",
            median(&rates),
            replies as f64 / closed_secs,
            DEPTH
        );
        let late = paced
            .iter()
            .filter(|d| d.failed() || ms(due_latency_ns(d.due, d.recv)) > LATENCY_LIMIT_MS)
            .count();
        let late_share = late as f64 / paced.len().max(1) as f64;
        report.put(
            "ontime_share",
            1.0 - late_share,
            "ratio",
            &format!(
                "[late_share = {late_share:.6}: {late} of {} paced requests over {LATENCY_LIMIT_MS} ms from due time or failed]",
                paced.len()
            ),
        );
        let failed_share = failed as f64 / attempted.max(1) as f64;
        report.put(
            "served_share",
            1.0 - failed_share,
            "ratio",
            &format!("[failed_share = {failed_share:.6}]"),
        );
        report.put("peak_rss_mb", peak_rss_mb()?, "MB", &format!("[VmHWM; {rss_inputs:.1} MB after input generation, {rss_setup:.1} MB peak over set-up; window peak reported]"));
    } else {
        let sent = done
            .iter()
            .filter(|d| d.phase != Phase::Probe && d.status.is_some())
            .count();
        let completed = done
            .iter()
            .filter(|d| d.phase != Phase::Probe && !d.failed())
            .count();
        report.tail("bench.gen_lag_p99_ms", lag_q, "ms", "");
        report.put("bench.sent", sent as f64, "count", "");
        report.put("bench.completed", completed as f64, "count", "");
        let untraced = latencies(false, Phase::Paced);
        let traced = latencies(false, Phase::PacedTraced);
        report.put(
            "bench.trace_overhead_ms",
            median(&traced) - median(&untraced),
            "ms",
            &format!(
                "[paced token p50 traced {:.4} (n={}) vs untraced {:.4} (n={})]",
                median(&traced),
                traced.len(),
                median(&untraced),
                untraced.len()
            ),
        );

        let ibe_counts = service_counts(&before, &after, Capability::IbeDecrypt);
        let sign_counts = if workload.kind == Kind::SignMix {
            service_counts(&before, &after, Capability::GdhSign)
        } else {
            service_counts(&after, &probe_after, Capability::GdhSign)
        };
        // Paced token round trips (window 1, so no more requests are in
        // flight than the pool has workers and none waits for one), and
        // the part the SEM's own service time over the same phase does
        // not explain: link, framing and client. The mean residual is
        // exact (server histogram sum over count); the p99 residual
        // subtracts the service p99 interpolated in log2 buckets.
        let rtt: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == "tcp.rtt" && s.req & drive::SIGN_BIT == 0)
            .map(|s| ms(s.end - s.start))
            .collect();
        let rtt_p99 = quantile(&rtt, 0.99);
        report.tail("tcp.rtt_p50_ms", quantile(&rtt, 0.5), "ms", "");
        report.tail("tcp.rtt_p99_ms", rtt_p99, "ms", "");
        let (service_mean, n) = service_mean_ms(&mid, &after, Capability::IbeDecrypt);
        let rtt_mean = rtt.iter().sum::<f64>() / rtt.len().max(1) as f64;
        report.put(
            "tcp.residual_mean_ms",
            rtt_mean - service_mean,
            "ms",
            &format!(
                "[rtt mean {rtt_mean:.4} (n={}) minus paced service mean {service_mean:.4} (n={n})]",
                rtt.len()
            ),
        );
        let paced_ibe = service_counts(&mid, &after, Capability::IbeDecrypt);
        let service_p99 = bucket_quantile(&paced_ibe, 0.99) / 1e3;
        match rtt_p99 {
            Some(r) => report.put(
                "tcp.residual_p99_ms",
                r.value - service_p99,
                "ms",
                &format!(
                    "[rtt p{:.1} {:.4} minus paced service p{:.1} {service_p99:.4} (n={n})]",
                    r.percentile, r.value, r.percentile
                ),
            ),
            None => report.put("tcp.residual_p99_ms", 0.0, "ms", "[no samples]"),
        }
        // Closed-window round trips: D requests in flight per connection
        // over WORKERS workers, so each also waits for the pool.
        let closed_rtt: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == "tcp.rtt.closed")
            .map(|s| ms(s.end - s.start))
            .collect();
        report.tail(
            "tcp.closed_rtt_p50_ms",
            quantile(&closed_rtt, 0.5),
            "ms",
            &format!(
                "; window {DEPTH} x {} conns over {WORKERS} workers",
                workload.load_conns
            ),
        );
        let submit = trace.self_times_of("tcp.submit", 1e3);
        report.put(
            "tcp.submit_us",
            median(&submit),
            "us",
            &format!("[n={}]", submit.len()),
        );
        let shed = done
            .iter()
            .filter(|d| d.status == Some(Status::Overloaded))
            .count();
        report.put("tcp.shed", shed as f64, "count", "");

        let layer_tokens: Vec<&Done> = {
            let mut first: Vec<&Done> = done
                .iter()
                .filter(|d| d.phase == Phase::Paced && !d.req.sign && !d.failed())
                .collect();
            first.sort_by_key(|d| d.sent);
            let skip =
                (inputs::mix(args.seed) as usize) % first.len().saturating_sub(LAYER_SAMPLE).max(1);
            first.into_iter().skip(skip).take(LAYER_SAMPLE).collect()
        };
        let layer_signs: Vec<&Done> = done
            .iter()
            .filter(|d| {
                d.req.sign
                    && d.status == Some(Status::Ok)
                    && matches!(d.phase, Phase::Paced | Phase::Probe)
            })
            .take(LAYER_SAMPLE)
            .collect();
        let layer_clock = Clock::start();
        let layer_trace = layers::layer_pass(
            &inputs,
            &layer_tokens,
            &layer_signs,
            scratch.path(),
            &layer_clock,
            &initially_revoked,
        );
        let layer_trace = match layer_trace {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("layer pass: {e}"));
                Trace::default()
            }
        };
        let us = |name: &str| median(&layer_trace.self_times_of(name, 1e3));
        report.put("proto.roundtrip_us", us("proto.roundtrip"), "us", "");
        report.put(
            "audit.ibe_service_p50_us",
            bucket_quantile(&ibe_counts, 0.5),
            "us",
            &format!("[n={}]", ibe_counts.iter().sum::<u64>()),
        );
        report.put(
            "audit.sign_service_p50_us",
            bucket_quantile(&sign_counts, 0.5),
            "us",
            &format!("[n={}]", sign_counts.iter().sum::<u64>()),
        );
        let mut pull_ms: Vec<f64> = pulls
            .pulls
            .iter()
            .chain(&admin.pulls)
            .map(|(s, e)| ms(e - s))
            .collect();
        pull_ms.retain(|t| t.is_finite());
        report.put(
            "audit.stats_pull_ms",
            median(&pull_ms),
            "ms",
            &format!("[n={}]", pull_ms.len()),
        );
        let (hk0, hk1) = (
            cache_row(&before, "half_key"),
            cache_row(&after, "half_key"),
        );
        report.put(
            "cache.half_key_hit_ratio",
            hit_ratio(&hk0, &hk1),
            "ratio",
            "",
        );
        report.put(
            "cache.qid_hit_ratio",
            hit_ratio(&cache_row(&before, "qid"), &cache_row(&after, "qid")),
            "ratio",
            "[the token path does not consult the qid cache]",
        );
        report.put(
            "cache.evictions",
            hk1.evictions.saturating_sub(hk0.evictions) as f64,
            "count",
            "",
        );
        let weight: u64 = after.caches.iter().map(|c| c.weight_bytes).sum();
        report.put("cache.weight_mb", weight as f64 / 1e6, "MB", "");
        let appends = layer_trace.self_times_of("store.append", 1e3);
        report.tail("store.append_p50_us", quantile(&appends, 0.5), "us", "");
        report.tail("store.append_p99_us", quantile(&appends, 0.99), "us", "");
        report.put(
            "store.replay_ms",
            median(&layer_trace.self_times_of("store.replay", 1e6)),
            "ms",
            "",
        );
        // The journal append inside a revoke is the store's; the rest
        // is the revocation path's own (locks, invalidation).
        let append_ms = if churns(workload) {
            median(&appends) / 1e3
        } else {
            0.0
        };
        let residual_us: Vec<f64> = admin
            .calls
            .iter()
            .chain(&extra_calls)
            .filter(|c| c.revoke)
            .map(|c| (ms(c.end - c.start) - append_ms) * 1e3)
            .collect();
        report.tail(
            "revocation.revoke_residual_p99_us",
            quantile(&residual_us, 0.99),
            "us",
            "",
        );
        report.put(
            "core.token_us",
            us("core.token"),
            "us",
            &format!("[n={}]", layer_tokens.len()),
        );
        report.put(
            "core.half_sign_us",
            us("core.half_sign"),
            "us",
            &format!("[n={}]", layer_signs.len()),
        );
        report.put(
            "pairing.is_in_group_us",
            us("pairing.is_in_group"),
            "us",
            "",
        );
        report.put(
            "pairing.pairing_prepared_us",
            us("pairing.pairing_prepared"),
            "us",
            "",
        );
        report.put("pairing.prepare_g1_us", us("pairing.prepare_g1"), "us", "");
        report.put("pairing.hash_to_g1_us", us("pairing.hash_to_g1"), "us", "");
        report.put("pairing.mul_us", us("pairing.mul"), "us", "");
        let per_op =
            |name: &str| median(&layer_trace.self_times_of(name, 1.0)) / config::FIELD_REPS as f64;
        report.put("field.fp_mul_ns", per_op("field.fp_mul"), "ns", "");
        report.put("field.fp_sqr_ns", per_op("field.fp_sqr"), "ns", "");
        report.put("field.miller_us", us("field.miller"), "us", "");
        report.put("field.final_exp_us", us("field.final_exp"), "us", "");
        trace.extend(layer_trace);
        for line in trace.summary() {
            println!("{line}");
        }
        for (metric, moves) in LAYER_MAP {
            println!("moves: {metric} -> {moves}");
        }
    }

    for problem in &problems {
        println!("problem: {problem}");
    }
    let correct = verdict.passed() && problems.is_empty() && admin.pull_failures == 0;
    println!("{}", report.json(correct, attempted, failed));
    drop(scratch);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
