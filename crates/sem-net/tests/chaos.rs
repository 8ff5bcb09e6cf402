//! Chaos regression suite: the SEM TCP transport driven through the
//! deterministic fault-injection proxy ([`sempair_net::faults`]).
//!
//! Each test scripts an exact fault sequence (no randomness in the
//! assertions' path) and checks the transport's §4 liveness story: the
//! daemon survives misbehaving peers, the client stub heals itself,
//! and every disconnect is accounted for in the audit counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::bf_ibe::{FullCiphertext, Pkg};
use sempair_core::mediated::{DecryptToken, UserKey};
use sempair_core::Error;
use sempair_net::audit::AuditConfig;
use sempair_net::faults::{Fault, FaultPlan, FaultProfile, FaultProxy};
use sempair_net::proto::{self, Op, Request, Status};
use sempair_net::revocation::shard_of;
use sempair_net::tcp::{
    ClientConfig, PipeClient, PipeReply, ServerConfig, TcpSemClient, TcpSemServer,
};
use sempair_pairing::CurveParams;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A daemon with "alice" installed, plus alice's user half-key and a
/// ciphertext to request tokens for.
fn setup(config: ServerConfig) -> (Pkg, TcpSemServer, UserKey, FullCiphertext) {
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
    let pkg = Pkg::setup(&mut rng, curve);
    let server = TcpSemServer::bind_with("127.0.0.1:0", pkg.params().clone(), config).unwrap();
    let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
    server.install_ibe(sem_key);
    let c = pkg
        .params()
        .encrypt_full(&mut rng, "alice", b"chaos")
        .unwrap();
    (pkg, server, user, c)
}

/// A client config with short deadlines so fault recovery is fast
/// enough to assert on.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_millis(500),
        max_retries: 2,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..ClientConfig::default()
    }
}

/// An idle slowloris (connects, sends nothing) is disconnected at the
/// idle deadline and counted, while a well-behaved client on the same
/// daemon keeps working.
#[test]
fn slowloris_disconnected_while_daemon_stays_up() {
    let (pkg, server, _, c) = setup(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut slowloris = TcpStream::connect(server.local_addr()).unwrap();
    slowloris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    let start = Instant::now();
    let got = slowloris.read(&mut buf);
    assert!(matches!(got, Ok(0) | Err(_)), "server should hang up");
    assert!(start.elapsed() < Duration::from_secs(4));
    // The daemon is unharmed: a real client is served immediately.
    let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    // The disconnect was accounted for.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.audit_transport().timeouts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.audit_transport().timeouts, 1);
    let report = server.shutdown();
    assert!(report.handlers_joined >= 1);
}

/// A peer that starts a frame and stalls mid-payload is cut off at the
/// read deadline — starting a frame does not buy a handler forever.
#[test]
fn mid_frame_stall_disconnected_at_read_deadline() {
    let (_, server, _, _) = setup(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut stall = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a 64-byte frame, deliver 3 bytes, then go quiet.
    stall.write_all(&64u32.to_be_bytes()).unwrap();
    stall.write_all(&[1, 2, 3]).unwrap();
    stall
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 1];
    let got = stall.read(&mut buf);
    assert!(matches!(got, Ok(0) | Err(_)));
    assert!(start.elapsed() < Duration::from_secs(4));
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.audit_transport().timeouts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.audit_transport().timeouts, 1);
    server.shutdown();
}

/// A corrupted request frame (op byte flipped in flight) gets a
/// `Status::Invalid` answer and the connection keeps serving — the
/// daemon does not tear down a session over one bad frame.
#[test]
fn corrupted_frame_answered_invalid_without_killing_connection() {
    let (pkg, server, _, c) = setup(ServerConfig::default());
    // Corrupt the first client→server frame's op byte (offset 0).
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::script(vec![Fault::Corrupt {
            offset: 0,
            xor: 0xff,
        }]),
        FaultPlan::clean(),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    // The corrupted frame decodes to no request: the daemon answers
    // Invalid, which the stub surfaces without retrying (an intact
    // but undecodable exchange is a protocol error, not a transport
    // fault).
    assert_eq!(
        client.ibe_token("alice", &c.u),
        Err(Error::InvalidCiphertext)
    );
    assert_eq!(client.stats().retries, 0);
    // Same connection, next frame is clean: served.
    client.ibe_token("alice", &c.u).unwrap();
    assert_eq!(proxy.stats().corrupted, 1);
    proxy.shutdown();
    server.shutdown();
}

/// One dropped response is healed transparently: the client times out,
/// reconnects, re-sends, and the caller never sees an error.
#[test]
fn client_retries_through_one_dropped_response() {
    let (pkg, server, user, c) = setup(ServerConfig::default());
    // Swallow exactly the first server→client frame.
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::script(vec![Fault::Drop]),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    // The first response is dropped; the retry's response (frame 1 of
    // the server→client direction, counted across reconnects) flows.
    client.ibe_token("alice", &c.u).unwrap();
    let stats = client.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.reconnects, 1);
    assert_eq!(proxy.stats().dropped, 1);
    // The healed connection keeps working without further retries. A
    // new request after the reconnect carries a fresh request id: a
    // stub that restarted its id counter would be answered with the
    // first token replayed from the daemon's idempotency window.
    let mut rng = StdRng::seed_from_u64(0xF2E54);
    let second = pkg
        .params()
        .encrypt_full(&mut rng, "alice", b"second")
        .unwrap();
    let token = client.ibe_token("alice", &second.u).unwrap();
    assert_eq!(
        user.finish_decrypt(pkg.params(), &second, &token).unwrap(),
        b"second"
    );
    assert_eq!(client.stats().retries, 1);
    // The dropped response was executed once and replayed to the
    // retry, so the two requests are the only two executions.
    assert_eq!(server.audit_stats("alice").served, 2);
    proxy.shutdown();
    server.shutdown();
}

/// A request truncated mid-frame tears the proxied connection; the
/// client reconnects and re-sends, and the daemon (which saw an EOF
/// mid-frame) survives to serve the retry.
#[test]
fn client_retries_through_truncated_request() {
    let (pkg, server, _, c) = setup(ServerConfig::default());
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::script(vec![Fault::Truncate(2)]),
        FaultPlan::clean(),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    let stats = client.stats();
    assert!(stats.retries >= 1, "truncation must have forced a retry");
    assert!(stats.reconnects >= 1);
    assert_eq!(proxy.stats().truncated, 1);
    proxy.shutdown();
    server.shutdown();
}

/// Once the retry budget is exhausted (every response dropped), the
/// stub fails with `Error::Transport` — and recovers on the next call
/// when the fault clears.
#[test]
fn retry_budget_exhaustion_surfaces_transport_error() {
    let (pkg, server, _, c) = setup(ServerConfig::default());
    // Drop the first three responses: initial attempt + 2 retries all
    // starve; the fourth response (next call's) flows.
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::script(vec![Fault::Drop, Fault::Drop, Fault::Drop]),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Transport));
    assert_eq!(client.stats().retries, 2);
    // The stub is not poisoned: the next call reconnects and succeeds.
    client.ibe_token("alice", &c.u).unwrap();
    proxy.shutdown();
    server.shutdown();
}

/// Under a seeded fault storm every call terminates with either a
/// usable token or a typed error — never a hang — and a token that
/// decrypts must decrypt to the right plaintext (FullIdent's
/// Fujisaki–Okamoto check rejects any corrupted token that survived
/// the unauthenticated transport).
#[test]
fn seeded_fault_storm_never_corrupts_results() {
    let (pkg, server, user, c) = setup(ServerConfig {
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let profile = FaultProfile {
        drop_per_mille: 120,
        corrupt_per_mille: 120,
        truncate_per_mille: 60,
        delay_per_mille: 100,
        delay: Duration::from_millis(20),
    };
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::seeded(11, profile),
        FaultPlan::seeded(13, profile),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    let mut successes = 0;
    for _ in 0..12 {
        match client.ibe_token("alice", &c.u) {
            Ok(token) => {
                if let Ok(m) = user.finish_decrypt(pkg.params(), &c, &token) {
                    assert_eq!(m, b"chaos", "a token that decrypts must be the real one");
                    successes += 1;
                }
                // A corrupted-but-parseable token is caught by the
                // FO integrity check above — tolerated, not counted.
            }
            Err(Error::Transport | Error::InvalidCiphertext | Error::FrameTooLarge) => {}
            // The unauthenticated transport can flip bytes *inside* a
            // pipelined envelope: a corrupted identity is served as a
            // refusal for that other identity (UnknownIdentity), and a
            // corrupted reply-status byte decodes as a different typed
            // refusal (Revoked/Overloaded). All are honest, typed
            // answers to the bytes that actually arrived — the invariant
            // under test is "no silent corruption, no hang", and the FO
            // check above still guards every token that does decode.
            Err(Error::UnknownIdentity | Error::Revoked | Error::Overloaded) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
    assert!(successes > 0, "some requests must survive the storm");
    proxy.shutdown();
    server.shutdown();
}

/// Oversized identities and bodies are rejected at encode time — they
/// never reach the wire, even through a fault proxy.
#[test]
fn oversized_identity_never_reaches_the_wire() {
    let (pkg, server, _, c) = setup(ServerConfig::default());
    let proxy =
        FaultProxy::spawn(server.local_addr(), FaultPlan::clean(), FaultPlan::clean()).unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    let huge = "x".repeat(u16::MAX as usize + 1);
    assert_eq!(client.ibe_token(&huge, &c.u), Err(Error::FrameTooLarge));
    // Nothing crossed the proxy for the rejected request.
    assert_eq!(proxy.stats().forwarded, 0);
    // Body-size overflow is rejected the same way, client-side.
    let big_body = vec![0u8; proto::MAX_FRAME + 1];
    assert_eq!(
        client.gdh_half_sign("alice", &big_body),
        Err(Error::FrameTooLarge)
    );
    client.ibe_token("alice", &c.u).unwrap();
    proxy.shutdown();
    server.shutdown();
}

/// A reconnect storm hammering a full daemon cannot grow its memory:
/// every refused connection is counted, but the audit ring stays at
/// its cap and the identity map cannot exceed its cardinality cap —
/// cycling ephemeral source ports mints no new identities because
/// refused peers are keyed by IP.
#[test]
fn refused_connection_storm_cannot_grow_audit_state() {
    const STORM: usize = 40;
    let (pkg, server, _, c) = setup(ServerConfig {
        max_connections: 1,
        audit: AuditConfig {
            audit_cap: 8,
            identity_cap: 4,
        },
        ..ServerConfig::default()
    });
    // Occupy the only admission slot with a served request, so every
    // storm connection below is refused at accept.
    let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
    let _ = client.ibe_token("alice", &c.u);
    // The storm: each connect uses a fresh ephemeral port.
    for _ in 0..STORM {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let got = conn.read(&mut buf);
        assert!(matches!(got, Ok(0) | Err(_)), "storm conn must be refused");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while (server.audit_transport().refused_conns as usize) < STORM && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let m = server.metrics();
    assert_eq!(m.transport.refused_conns as usize, STORM);
    // Bounded: the ring stayed at its cap and evictions were counted.
    assert_eq!(m.records_len, 8);
    assert!(m.records_dropped > 0);
    // All storm peers share one IP → exactly one refused-conn identity
    // (plus "alice"), and in any case no more than the cardinality cap.
    assert!(m.identities_tracked <= 4);
    assert_eq!(server.audit_stats("127.0.0.1").refused as usize, STORM);
    // The admitted connection still works through the storm's wake.
    let _ = client.ibe_token("alice", &c.u);
    server.shutdown();
}

/// One in-flight reply dropped by the proxy: the *other* pipelined
/// requests on the same connection still complete (no head-of-line
/// teardown), and re-submitting the starved request id replays the
/// recorded response — the daemon executed it exactly once.
#[test]
fn dropped_reply_starves_only_its_request_and_replays_on_retry() {
    // One worker serializes execution, so replies leave the daemon in
    // submit order and the scripted drop deterministically hits the
    // second request's reply.
    let (pkg, server, user, c) = setup(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::script(vec![Fault::Delay(Duration::ZERO), Fault::Drop]),
    )
    .unwrap();
    let mut pipe = PipeClient::connect(proxy.local_addr(), Duration::from_secs(5)).unwrap();
    let request = Request {
        op: Op::IbeToken,
        id: "alice".into(),
        body: pkg.params().curve().point_to_bytes(&c.u),
    };
    let first = pipe.submit(&request).unwrap();
    let starved = pipe.submit(&request).unwrap();
    let third = pipe.submit(&request).unwrap();
    // The first and third replies arrive; the second was eaten.
    let mut got = Vec::new();
    for _ in 0..2 {
        match pipe.recv().unwrap() {
            PipeReply::Reply(req_id, inner) => {
                assert_eq!(inner.status, Status::Ok);
                let token = pkg
                    .params()
                    .curve()
                    .gt_from_bytes(&inner.body)
                    .map(DecryptToken)
                    .unwrap();
                assert_eq!(
                    user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
                    b"chaos"
                );
                got.push(req_id);
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
    }
    assert_eq!(got, vec![first, third]);
    // Retry the starved id on the same connection: the daemon replays
    // from its idempotency window instead of executing a fourth time.
    pipe.submit_as(starved, &request).unwrap();
    match pipe.recv().unwrap() {
        PipeReply::Reply(req_id, inner) => {
            assert_eq!(req_id, starved);
            assert_eq!(inner.status, Status::Ok);
        }
        PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
    }
    assert_eq!(
        server.audit_stats("alice").served,
        3,
        "three executions for four submissions: the retry replayed"
    );
    proxy.shutdown();
    server.shutdown();
}

/// One in-flight envelope corrupted by the proxy inside its *inner
/// identity* bytes: that request is refused for the identity that
/// actually arrived, while the envelopes before and after it on the
/// same connection complete untouched.
#[test]
fn corrupted_envelope_fails_alone_others_complete() {
    let (pkg, server, user, c) = setup(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Envelope payload layout: op(0) ‖ id-len(1..3) ‖ body-len(3..7) ‖
    // version(7..11) ‖ session(11..19) ‖ req-id(19..27) ‖ inner-op(27)
    // ‖ inner-id-len(28..30) ‖ inner-id(30..) — offset 30 flips the
    // first byte of "alice".
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::script(vec![
            Fault::Delay(Duration::ZERO),
            Fault::Corrupt {
                offset: 30,
                xor: 0x01,
            },
        ]),
        FaultPlan::clean(),
    )
    .unwrap();
    let mut pipe = PipeClient::connect(proxy.local_addr(), Duration::from_secs(5)).unwrap();
    let request = Request {
        op: Op::IbeToken,
        id: "alice".into(),
        body: pkg.params().curve().point_to_bytes(&c.u),
    };
    let clean_before = pipe.submit(&request).unwrap();
    let mangled = pipe.submit(&request).unwrap();
    let clean_after = pipe.submit(&request).unwrap();
    let mut statuses = std::collections::HashMap::new();
    for _ in 0..3 {
        match pipe.recv().unwrap() {
            PipeReply::Reply(req_id, inner) => {
                if inner.status == Status::Ok {
                    let token = pkg
                        .params()
                        .curve()
                        .gt_from_bytes(&inner.body)
                        .map(DecryptToken)
                        .unwrap();
                    assert_eq!(
                        user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
                        b"chaos"
                    );
                }
                statuses.insert(req_id, inner.status);
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
    }
    assert_eq!(statuses.get(&clean_before), Some(&Status::Ok));
    assert_eq!(statuses.get(&clean_after), Some(&Status::Ok));
    // The flipped identity is unknown to the SEM — an honest, typed
    // refusal for the bytes that actually arrived, still tagged with
    // the envelope's request id.
    assert_eq!(statuses.get(&mangled), Some(&Status::Unknown));
    assert_eq!(server.audit_stats("alice").served, 2);
    proxy.shutdown();
    server.shutdown();
}

/// A reply delayed past the client deadline triggers a transparent
/// retry — and because the retry reuses the same `(session, req_id)`,
/// the daemon replays its recorded answer: exactly one execution in
/// the audit log for one logical request.
#[test]
fn delayed_reply_retry_executes_exactly_once() {
    let (pkg, server, user, c) = setup(ServerConfig::default());
    // 900 ms delay vs the client's 500 ms request deadline: the first
    // attempt starves, the retry (over a fresh connection) replays.
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::script(vec![Fault::Delay(Duration::from_millis(900))]),
    )
    .unwrap();
    let mut client =
        TcpSemClient::connect_with(proxy.local_addr(), pkg.params().clone(), fast_client())
            .unwrap();
    let token = client.ibe_token("alice", &c.u).unwrap();
    assert_eq!(
        user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
        b"chaos"
    );
    assert_eq!(client.stats().retries, 1);
    assert_eq!(
        server.audit_stats("alice").served,
        1,
        "the retried request must not execute twice"
    );
    proxy.shutdown();
    server.shutdown();
}

/// Sharded revocation state isolates tenants: a revocation storm
/// hammering every *other* shard's write locks leaves tail latency on
/// the victim's shard bounded, and no request fails.
#[test]
fn revocation_storm_on_other_shards_keeps_p99_bounded() {
    const SHARDS: usize = 8;
    let (pkg, server, _, c) = setup(ServerConfig {
        workers: 4,
        shards: SHARDS,
        ..ServerConfig::default()
    });
    let alice_shard = shard_of("alice", SHARDS);
    let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
    let p99 = |samples: &mut Vec<Duration>| {
        samples.sort();
        samples[samples.len() * 99 / 100]
    };
    const REQUESTS: usize = 50;
    // Quiet baseline.
    let mut quiet = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let started = Instant::now();
        client.ibe_token("alice", &c.u).unwrap();
        quiet.push(started.elapsed());
    }
    let quiet_p99 = p99(&mut quiet);
    // Revocation storm against every shard but alice's, concurrent
    // with the measured workload.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm_stop = std::sync::Arc::clone(&stop);
    let storm_server = &server;
    let mut stormed = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut n = 0u64;
            while !storm_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let id = format!("victim-{n}");
                n += 1;
                if shard_of(&id, SHARDS) != alice_shard {
                    storm_server.revoke(&id);
                }
            }
        });
        let mut stormy = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            let started = Instant::now();
            client.ibe_token("alice", &c.u).unwrap();
            stormy.push(started.elapsed());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        stormy
    });
    let storm_p99 = p99(&mut stormed);
    // The acceptance criterion is 2× on the calibrated bench
    // (`sempair-bench --serving`); here an absolute floor keeps the
    // assertion robust against scheduler noise on loaded CI hosts
    // while still catching a return to one global revocation lock
    // (which multiplies tail latency, not adds milliseconds).
    let bound = (quiet_p99 * 2).max(Duration::from_millis(25));
    assert!(
        storm_p99 <= bound,
        "shard-B p99 degraded under shard-A storm: quiet {quiet_p99:?}, storm {storm_p99:?}"
    );
    assert_eq!(server.audit_stats("alice").served, 2 * REQUESTS as u64);
    server.shutdown();
}

/// No handler outlives `shutdown()`: after the drain report returns,
/// the listener is gone and the exact port can be re-bound.
#[test]
fn no_handler_outlives_shutdown() {
    let (pkg, server, _, c) = setup(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = TcpSemClient::connect(addr, pkg.params().clone()).unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    assert_eq!(server.live_connections(), 1);
    let start = Instant::now();
    let report = server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(report.connections_closed, 1);
    assert!(report.handlers_joined >= 1);
    let rebound = std::net::TcpListener::bind(addr);
    assert!(
        rebound.is_ok(),
        "port must be free after shutdown: {rebound:?}"
    );
}
