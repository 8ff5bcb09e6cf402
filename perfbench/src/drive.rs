//! Load generation against the live SEM: the unpaced closed-window
//! phase (window D), the paced open-loop phase, and the admin thread's
//! paced revoke/unrevoke calls and stats pulls.

use crate::inputs::{Inputs, Req};
use crate::stats::Trace;
use sempair_net::audit::MetricsSnapshot;
use sempair_net::proto::{Op, Request, Status};
use sempair_net::tcp::{PipeClient, PipeReply, TcpSemClient, TcpSemServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-read/write socket deadline of the load connections.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The run's clock: nanoseconds since one origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sleeps until `at` (no-op if it has passed).
    pub fn sleep_until(&self, at: u64) {
        let now = self.now();
        if at > now {
            std::thread::sleep(Duration::from_nanos(at - now));
        }
    }
}

/// Which part of the window a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Paced phase, untraced.
    Paced,
    /// Paced phase, traced half (trace runs only).
    PacedTraced,
    /// Unpaced closed-window phase.
    Closed,
    /// Layer-pass probe after the window (trace runs only).
    Probe,
}

/// One load request and what became of it.
#[derive(Debug, Clone)]
pub struct Done {
    /// Window part.
    pub phase: Phase,
    /// The request.
    pub req: Req,
    /// When it was due (the send time for unpaced requests), ns.
    pub due: u64,
    /// When the submit call started, ns.
    pub sent: u64,
    /// When the reply arrived (or the failure surfaced), ns.
    pub recv: u64,
    /// Reply status; `None` for a transport failure.
    pub status: Option<Status>,
    /// Reply body.
    pub body: Vec<u8>,
}

impl Done {
    /// Failed or refused as overloaded: a miss.
    pub fn failed(&self) -> bool {
        matches!(self.status, None | Some(Status::Overloaded))
    }
}

/// Bit of a span's request key marking a half-signature.
pub const SIGN_BIT: u64 = 1 << 47;

/// Request key of a load request's spans: connection, kind, request id.
fn span_key(conn: u64, sign: bool, req_id: u64) -> u64 {
    (conn << 48) | if sign { SIGN_BIT } else { 0 } | req_id
}

/// Builds the wire request for `req`.
pub fn request(inputs: &Inputs, req: &Req) -> Request {
    if req.sign {
        Request {
            op: Op::GdhHalfSign,
            id: inputs.signers[req.ident as usize].clone(),
            body: inputs.message(req.msg),
        }
    } else {
        Request {
            op: Op::IbeToken,
            id: inputs.names[req.ident as usize].clone(),
            body: inputs.u_for(req.ident).to_vec(),
        }
    }
}

/// A paced phase on one connection: request `i` is due at
/// `start + i · period`; at most `depth` are in flight.
pub struct Paced<'a> {
    /// The schedule.
    pub reqs: &'a [Req],
    /// First due time, ns on the run clock.
    pub start: u64,
    /// Spacing between due times, ns.
    pub period: u64,
    /// Requests from this index on are traced (`reqs.len()`: none).
    pub trace_from: usize,
    /// Requests in flight at most.
    pub depth: usize,
}

/// A closed-window phase on one connection: the schedule is cycled
/// until `end`, keeping `depth` requests in flight.
pub struct Closed<'a> {
    /// The schedule (cycled).
    pub reqs: &'a [Req],
    /// When to stop submitting, ns on the run clock.
    pub end: u64,
    /// Record spans for every request.
    pub traced: bool,
}

struct Pending {
    req: Req,
    phase: Phase,
    due: u64,
    sent: u64,
    submitted: u64,
    traced: bool,
}

/// One load connection: a pipelined client plus what it recorded.
pub struct Conn<'a> {
    inputs: &'a Inputs,
    clock: Clock,
    pipe: PipeClient,
    /// Closed-window depth D.
    depth: usize,
    conn: u64,
    in_flight: HashMap<u64, Pending>,
    broken: bool,
    /// Every request this connection handled.
    pub done: Vec<Done>,
    /// `tcp.rtt` spans with their `tcp.submit` children.
    pub trace: Trace,
}

impl<'a> Conn<'a> {
    /// Connects load connection number `conn`.
    pub fn connect(
        inputs: &'a Inputs,
        clock: Clock,
        addr: SocketAddr,
        depth: usize,
        conn: u64,
    ) -> std::io::Result<Self> {
        Ok(Conn {
            inputs,
            clock,
            pipe: PipeClient::connect(addr, IO_TIMEOUT)?,
            depth,
            conn,
            in_flight: HashMap::new(),
            broken: false,
            done: Vec::new(),
            trace: Trace::default(),
        })
    }

    fn fail(&mut self, req: Req, phase: Phase, due: u64) {
        let now = self.clock.now();
        self.done.push(Done {
            phase,
            req,
            due,
            sent: now,
            recv: now,
            status: None,
            body: Vec::new(),
        });
    }

    fn submit(&mut self, req: Req, phase: Phase, due: u64, traced: bool) {
        if self.broken {
            return self.fail(req, phase, due);
        }
        let request = request(self.inputs, &req);
        let sent = self.clock.now();
        match self.pipe.submit(&request) {
            Ok(id) => {
                let submitted = self.clock.now();
                let due = if phase == Phase::Closed || phase == Phase::Probe {
                    sent
                } else {
                    due
                };
                self.in_flight.insert(
                    id,
                    Pending {
                        req,
                        phase,
                        due,
                        sent,
                        submitted,
                        traced,
                    },
                );
            }
            Err(_) => {
                self.broken = true;
                self.fail(req, phase, due);
                self.drop_in_flight();
            }
        }
    }

    fn drop_in_flight(&mut self) {
        let pending: Vec<Pending> = self.in_flight.drain().map(|(_, p)| p).collect();
        for p in pending {
            self.fail(p.req, p.phase, p.due);
        }
    }

    /// Waits for one reply and records it.
    fn receive(&mut self) {
        let reply = self.pipe.recv();
        let recv = self.clock.now();
        match reply {
            Ok(PipeReply::Reply(id, response)) => {
                let Some(p) = self.in_flight.remove(&id) else {
                    return;
                };
                if p.traced {
                    let key = span_key(self.conn, p.req.sign, id);
                    let name = if p.phase == Phase::Closed {
                        "tcp.rtt.closed"
                    } else {
                        "tcp.rtt"
                    };
                    let rtt = self.trace.push(name, p.sent, recv, None, key);
                    self.trace
                        .push("tcp.submit", p.sent, p.submitted, Some(rtt), key);
                }
                self.done.push(Done {
                    phase: p.phase,
                    req: p.req,
                    due: p.due,
                    sent: p.sent,
                    recv,
                    status: Some(response.status),
                    body: response.body,
                });
            }
            // A plain reply cannot be matched to a request, and a
            // transport error ends the connection: everything in flight
            // is lost.
            Ok(PipeReply::Plain(_)) | Err(_) => {
                self.broken = true;
                self.drop_in_flight();
            }
        }
    }

    /// Runs a paced phase to completion (every scheduled request sent
    /// and answered or failed).
    pub fn paced(&mut self, phase: &Paced<'_>) {
        let mut next = 0usize;
        while next < phase.reqs.len() || !self.in_flight.is_empty() {
            if next < phase.reqs.len() && self.in_flight.len() < phase.depth {
                let due = phase.start + next as u64 * phase.period;
                if self.clock.now() >= due {
                    let traced = next >= phase.trace_from;
                    let kind = if traced {
                        Phase::PacedTraced
                    } else {
                        Phase::Paced
                    };
                    self.submit(phase.reqs[next], kind, due, traced);
                    next += 1;
                    continue;
                }
                if self.in_flight.is_empty() {
                    self.clock.sleep_until(due);
                    continue;
                }
            }
            self.receive();
        }
    }

    /// Runs a closed-window phase until `end`, then drains.
    pub fn closed(&mut self, phase: &Closed<'_>) {
        let mut next = 0usize;
        while self.clock.now() < phase.end && !self.broken {
            while self.in_flight.len() < self.depth && !self.broken {
                let req = phase.reqs[next % phase.reqs.len()];
                next += 1;
                self.submit(req, Phase::Closed, 0, phase.traced);
            }
            self.receive();
        }
        while !self.in_flight.is_empty() {
            self.receive();
        }
    }

    /// Sends `reqs` one at a time (depth 1) as layer-pass probes.
    pub fn probe(&mut self, reqs: &[Req]) {
        for &req in reqs {
            self.submit(req, Phase::Probe, 0, false);
            while !self.in_flight.is_empty() {
                self.receive();
            }
        }
    }
}

/// One admin call: `revoke`/`unrevoke` of a name, with its span.
#[derive(Debug, Clone, Copy)]
pub struct AdminDone {
    /// `revoke` rather than `unrevoke`.
    pub revoke: bool,
    /// Index into [`Inputs::names`].
    pub ident: u32,
    /// Call start, ns.
    pub start: u64,
    /// Call return, ns.
    pub end: u64,
}

/// What the admin thread recorded.
#[derive(Default)]
pub struct AdminLog {
    /// Every admin call, in call order.
    pub calls: Vec<AdminDone>,
    /// `(start, end)` of every stats pull.
    pub pulls: Vec<(u64, u64)>,
    /// Stats pulls that failed.
    pub pull_failures: u64,
}

/// Issues one admin call and records it.
pub fn admin_call(
    server: &TcpSemServer,
    inputs: &Inputs,
    clock: &Clock,
    revoke: bool,
    ident: u32,
) -> AdminDone {
    let id = &inputs.names[ident as usize];
    let start = clock.now();
    if revoke {
        server.revoke(id);
    } else {
        server.unrevoke(id);
    }
    AdminDone {
        revoke,
        ident,
        start,
        end: clock.now(),
    }
}

/// Pulls a metrics snapshot over the wire (op 4), recording its span.
pub fn pull_stats(
    client: &mut TcpSemClient,
    clock: &Clock,
    log: &mut AdminLog,
) -> Option<MetricsSnapshot> {
    let start = clock.now();
    let snapshot = client.metrics();
    log.pulls.push((start, clock.now()));
    match snapshot {
        Ok(snapshot) => Some(snapshot),
        Err(_) => {
            log.pull_failures += 1;
            None
        }
    }
}

/// The admin thread: the scheduled revoke/unrevoke calls, due every
/// `period` from `start`, interleaved with a stats pull every
/// `stats_period`, until `end`.
#[allow(clippy::too_many_arguments)]
pub fn admin_thread(
    server: &TcpSemServer,
    inputs: &Inputs,
    clock: Clock,
    stats: &mut TcpSemClient,
    start: u64,
    period: u64,
    stats_period: u64,
    end: u64,
) -> AdminLog {
    let mut log = AdminLog::default();
    let mut next_pull = start + stats_period;
    for (i, op) in inputs.admin.iter().enumerate() {
        let due = start + i as u64 * period;
        if due >= end {
            break;
        }
        while stats_period > 0 && next_pull <= due {
            clock.sleep_until(next_pull);
            let _ = pull_stats(stats, &clock, &mut log);
            next_pull += stats_period;
        }
        clock.sleep_until(due);
        log.calls
            .push(admin_call(server, inputs, &clock, op.revoke, op.ident));
    }
    log
}
