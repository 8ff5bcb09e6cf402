//! Full-deployment orchestration: PKG → SEM → users lifecycle.
//!
//! §4 makes a deployment claim the other modules don't capture alone:
//!
//! > "Note that the PKG and the SEM are two distinct entities. The SEM
//! > remains online all the system's lifetime while the PKG can be put
//! > offline once it has delivered private keys to all users of the
//! > system."
//!
//! [`Deployment`] wires the pieces together and enforces that
//! lifecycle: enrolment requires the PKG to be online, is a single
//! round (PKG splits the key, pushes the SEM half into the running
//! [`TcpSemServer`], hands the user half back), and once
//! [`Deployment::take_pkg_offline`] is called, enrolment fails while
//! *all* mediated operations keep working.

use crate::tcp::{ServerConfig, TcpSemClient, TcpSemServer};
use rand::RngCore;
use sempair_core::bf_ibe::{IbePublicParams, Pkg};
use sempair_core::gdh::{self, GdhPublicKey, GdhUser};
use sempair_core::mediated::UserKey;
use sempair_core::Error;
use sempair_pairing::CurveParams;

/// A running deployment: one SEM daemon on a loopback port, one
/// (eventually offline) PKG.
pub struct Deployment {
    pkg: Option<Pkg>,
    params: IbePublicParams,
    server: TcpSemServer,
}

/// Everything a freshly enrolled user walks away with.
pub struct Enrollment {
    /// The user's IBE decryption half-key.
    pub decryption_key: UserKey,
    /// The user's GDH signing half-key.
    pub signing_key: GdhUser,
    /// The signing public key (verifiers use this).
    pub signing_public: GdhPublicKey,
    /// A connected client stub to the SEM daemon.
    pub client: TcpSemClient,
}

impl Deployment {
    /// Boots a deployment: fresh PKG over `curve`, SEM daemon bound on
    /// `127.0.0.1:0` with `workers` pool threads.
    ///
    /// # Errors
    ///
    /// Propagates the listener's socket errors.
    pub fn start(
        rng: &mut impl RngCore,
        curve: CurveParams,
        workers: usize,
    ) -> std::io::Result<Self> {
        let pkg = Pkg::setup(rng, curve);
        let params = pkg.params().clone();
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = TcpSemServer::bind_with("127.0.0.1:0", params.clone(), config)?;
        Ok(Deployment {
            pkg: Some(pkg),
            params,
            server,
        })
    }

    /// The public parameters senders need.
    pub fn params(&self) -> &IbePublicParams {
        &self.params
    }

    /// The SEM daemon handle (revocation, audit).
    pub fn server(&self) -> &TcpSemServer {
        &self.server
    }

    /// The SEM's bounded metrics snapshot — the deployment-level
    /// observability feed (counters, identity metering, latency
    /// histograms).
    pub fn metrics(&self) -> crate::audit::MetricsSnapshot {
        self.server.metrics()
    }

    /// `true` while the PKG can still enrol users.
    pub fn pkg_online(&self) -> bool {
        self.pkg.is_some()
    }

    /// Enrols `id`: the PKG splits both an IBE and a GDH key, the SEM
    /// halves go straight into the live daemon, the user halves are
    /// returned with a client connected to it.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownIdentity`] once the PKG has been taken offline
    /// (there is nobody left who can extract keys);
    /// [`Error::Transport`] if the client cannot connect.
    pub fn enroll(&self, rng: &mut impl RngCore, id: &str) -> Result<Enrollment, Error> {
        let pkg = self.pkg.as_ref().ok_or(Error::UnknownIdentity)?;
        let (decryption_key, ibe_sem_half) = pkg.extract_split(rng, id);
        self.server.install_ibe(ibe_sem_half);
        let (signing_key, gdh_sem_half, signing_public) =
            gdh::mediated_keygen(rng, self.params.curve(), id);
        self.server.install_gdh(gdh_sem_half);
        let client = TcpSemClient::connect(self.server.local_addr(), self.params.clone())
            .map_err(|_| Error::Transport)?;
        Ok(Enrollment {
            decryption_key,
            signing_key,
            signing_public,
            client,
        })
    }

    /// Boots a *replicated* mediation tier instead of the single
    /// [`TcpSemServer`]: a fresh PKG whose per-identity SEM scalars are
    /// Shamir-dealt across `n` journal-backed TCP replicas, any `t` of
    /// which form a token quorum (see [`crate::cluster::SemCluster`]).
    /// Journals live under `state_dir`, so a cluster restarted on the
    /// same directory replays its revocation state.
    ///
    /// # Errors
    ///
    /// Socket / journal I/O errors; `InvalidInput` for bad `(t, n)`.
    pub fn start_cluster(
        rng: &mut impl RngCore,
        curve: CurveParams,
        t: usize,
        n: usize,
        state_dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<crate::cluster::SemCluster> {
        let pkg = Pkg::setup(rng, curve);
        crate::cluster::SemCluster::start(pkg, t, n, ServerConfig::default(), state_dir)
    }

    /// Destroys the PKG (masters and all): after this, no new
    /// enrolments — but every enrolled user keeps working through the
    /// SEM. This is the paper's "PKG can be put offline".
    pub fn take_pkg_offline(&mut self) {
        self.pkg = None;
    }

    /// Shuts the whole deployment down.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lifecycle_enroll_offline_operate() {
        let mut rng = StdRng::seed_from_u64(0xDE);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let mut deployment = Deployment::start(&mut rng, curve, 2).unwrap();
        assert!(deployment.pkg_online());

        let mut alice = deployment.enroll(&mut rng, "alice").unwrap();
        let mut bob = deployment.enroll(&mut rng, "bob").unwrap();

        // PKG goes offline; enrolment stops…
        deployment.take_pkg_offline();
        assert!(!deployment.pkg_online());
        assert!(deployment.enroll(&mut rng, "carol").is_err());

        // …but the enrolled users keep decrypting and signing.
        let params = deployment.params().clone();
        let c = params
            .encrypt_full(&mut rng, "alice", b"post-offline mail")
            .unwrap();
        let token = alice.client.ibe_token("alice", &c.u).unwrap();
        assert_eq!(
            alice
                .decryption_key
                .finish_decrypt(&params, &c, &token)
                .unwrap(),
            b"post-offline mail"
        );

        let half = bob.client.gdh_half_sign("bob", b"doc").unwrap();
        let sig = bob
            .signing_key
            .finish_sign(params.curve(), b"doc", &half)
            .unwrap();
        gdh::verify(params.curve(), &bob.signing_public, b"doc", &sig).unwrap();

        // Revocation still instant with the PKG gone.
        deployment.server().revoke("alice");
        let c2 = params.encrypt_full(&mut rng, "alice", b"too late").unwrap();
        assert_eq!(alice.client.ibe_token("alice", &c2.u), Err(Error::Revoked));

        deployment.shutdown();
    }

    #[test]
    fn start_cluster_boots_a_usable_quorum() {
        let mut rng = StdRng::seed_from_u64(0xE0);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let dir = std::env::temp_dir().join(format!("sempair-deploy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster = Deployment::start_cluster(&mut rng, curve, 2, 3, &dir).unwrap();
        let user = cluster.enroll(&mut rng, "alice").unwrap();
        let client = cluster.client().unwrap();
        let params = cluster.params().clone();
        let c = params
            .encrypt_full(&mut rng, "alice", b"clustered")
            .unwrap();
        let outcome = client.token("alice", &c.u).unwrap();
        assert_eq!(
            user.finish_decrypt(&params, &c, &outcome.token).unwrap(),
            b"clustered"
        );
        // The cluster-wide snapshot carries one health row per replica.
        let snapshot = cluster.metrics().expect("live cluster");
        assert_eq!(snapshot.replicas.len(), 3);
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_visible_through_deployment() {
        let mut rng = StdRng::seed_from_u64(0xDF);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let deployment = Deployment::start(&mut rng, curve, 1).unwrap();
        let mut alice = deployment.enroll(&mut rng, "alice").unwrap();
        let params = deployment.params().clone();
        let c = params.encrypt_full(&mut rng, "alice", b"m").unwrap();
        alice.client.ibe_token("alice", &c.u).unwrap();
        assert_eq!(deployment.server().audit_stats("alice").served, 1);
        // The bounded metrics feed sees the same request, and its
        // exposition round-trips at this level too.
        let m = deployment.metrics();
        assert_eq!(m.totals.served, 1);
        assert_eq!(m.latency_us[0].1.count(), 1);
        let text = m.to_prometheus_text();
        assert_eq!(
            crate::audit::MetricsSnapshot::from_prometheus_text(&text),
            Some(m)
        );
        deployment.shutdown();
    }
}
