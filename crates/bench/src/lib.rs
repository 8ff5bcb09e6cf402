//! # sempair-bench
//!
//! Shared helpers for the Criterion benchmark harness (see
//! `benches/` and the `report` binary). The per-experiment mapping to
//! the paper's evaluation claims lives in the workspace
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod report;

use sempair_core::bf_ibe::IbePublicParams;
use sempair_core::Error;
use sempair_net::tcp::TcpSemClient;
use sempair_pairing::G1Affine;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Result of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ThroughputResult {
    /// Completed requests per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// The E9 load generator: `clients` concurrent connections to the SEM
/// daemon at `addr` request `total` decryption tokens for `id` and
/// ciphertext component `u` between them, one request per token.
///
/// # Errors
///
/// [`Error::Transport`] when a client cannot connect; otherwise the
/// first refused token (a refused or unknown identity means the
/// experiment is misconfigured).
pub fn token_throughput(
    addr: SocketAddr,
    params: &IbePublicParams,
    id: &str,
    u: &G1Affine,
    clients: usize,
    total: usize,
) -> Result<ThroughputResult, Error> {
    let per_client = total / clients;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || -> Result<(), Error> {
                    let mut client = TcpSemClient::connect(addr, params.clone())
                        .map_err(|_| Error::Transport)?;
                    for _ in 0..per_client {
                        client.ibe_token(id, u)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|handle| handle.join().map_err(|_| Error::Transport)?)
    })?;
    Ok(ThroughputResult {
        requests: per_client * clients,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_core::bf_ibe::Pkg;
    use sempair_net::tcp::TcpSemServer;
    use sempair_pairing::CurveParams;

    #[test]
    fn single_and_batched_loads_serve_every_request() {
        let mut rng = StdRng::seed_from_u64(111);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let server = TcpSemServer::bind("127.0.0.1:0", pkg.params().clone()).unwrap();
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        let addr = server.local_addr();

        let single = token_throughput(addr, pkg.params(), "alice", &c.u, 2, 16).unwrap();
        assert_eq!(single.requests, 16);
        assert!(single.ops_per_sec() > 0.0);
        assert_eq!(server.audit_stats("alice").served, 16);

        // A refused identity surfaces instead of being counted.
        server.revoke("alice");
        assert_eq!(
            token_throughput(addr, pkg.params(), "alice", &c.u, 1, 5).unwrap_err(),
            Error::Revoked
        );
        server.shutdown();
    }
}
