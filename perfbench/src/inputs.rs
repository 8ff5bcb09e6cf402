//! Seeded input generation. Everything the SEM receives — identities,
//! key material, ciphertexts, the request schedule, messages, the admin
//! schedule and the pre-written journal — is a function of the seed and
//! the workload, summarised by [`Inputs::digest`]. PKG key extraction
//! happens here, outside the timed set-up.

use crate::config::{
    Kind, Sizes, Workload, ADMIN_RPS, JOURNAL_RECORDS, PACED_SHARE, SIGN_EVERY, UNKNOWN_POOL,
    UNKNOWN_SHARE,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sempair_core::bf_ibe::{FullCiphertext, IbePublicParams, Pkg};
use sempair_core::gdh::{mediated_keygen, GdhSemKey, GdhUser};
use sempair_core::mediated::{SemKey, UserKey};
use sempair_hash::Sha256;
use sempair_net::scenario::Zipf;
use sempair_pairing::CurveParams;

/// Revoked identities the churn generators keep at most at once.
const MAX_REVOKED: usize = 64;
/// Closed-window requests generated per connection per second of the
/// closed phase — above any capacity this host reaches; the schedule
/// cycles if a faster commit exhausts it.
const CLOSED_RPS_PER_CONN: f64 = 4000.0;
/// Plaintext every enrolled identity's seeded ciphertext carries.
const PLAINTEXT_LEN: usize = 32;

/// SplitMix64 finaliser: decorrelates derived seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ mix(stream)) ^ index))
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One load request: a token for `ident` (whose `U` is that of
/// enrolled identity `ident % enrolled`), or a half-signature by
/// signer `ident` on message number `msg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Half-signature (op 2) rather than token (op 1).
    pub sign: bool,
    /// Index into [`Inputs::names`] (tokens) or [`Inputs::signers`].
    pub ident: u32,
    /// Message number (signing only).
    pub msg: u64,
}

/// One scheduled admin call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminOp {
    /// `revoke` rather than `unrevoke`.
    pub revoke: bool,
    /// Index into [`Inputs::names`].
    pub ident: u32,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Public system parameters (the PKG's master key is dropped).
    pub params: IbePublicParams,
    /// Token identities: `[0, enrolled)` are enrolled (rank order:
    /// rank 0 is the Zipf head), `[enrolled, enrolled + UNKNOWN_POOL)`
    /// never are.
    pub names: Vec<String>,
    /// Number of enrolled identities.
    pub enrolled: usize,
    /// User halves of the enrolled identities' IBE keys.
    pub user_keys: Vec<UserKey>,
    /// SEM halves of the enrolled identities' IBE keys.
    pub sem_keys: Vec<SemKey>,
    /// One seeded ciphertext per enrolled identity.
    pub cts: Vec<FullCiphertext>,
    /// Encoded `U` of each ciphertext (the token request body).
    pub u_bytes: Vec<Vec<u8>>,
    /// Plaintext of each ciphertext.
    pub plaintexts: Vec<Vec<u8>>,
    /// GDH signer identities (the first enrolled names).
    pub signers: Vec<String>,
    /// User halves of the signers' GDH keys.
    pub gdh_users: Vec<GdhUser>,
    /// SEM halves of the signers' GDH keys.
    pub gdh_sem: Vec<GdhSemKey>,
    /// Paced-phase schedule per load connection (due at `i / rate`).
    pub paced: Vec<Vec<Req>>,
    /// Closed-window schedule per load connection (cycled).
    pub closed: Vec<Vec<Req>>,
    /// Admin schedule (due at `i / admin_rps`).
    pub admin: Vec<AdminOp>,
    /// Pre-written journal bytes.
    pub journal: Vec<u8>,
    /// Per-name revocation state after replaying `journal`.
    pub initially_revoked: Vec<bool>,
    /// Names (hottest first) the journal's `Warm` records list.
    pub warm: Vec<u32>,
}

impl Inputs {
    /// Generates the inputs for `workload` at `sizes` over a window of
    /// `seconds`.
    pub fn generate(workload: &Workload, sizes: Sizes, seed: u64, seconds: f64) -> Inputs {
        let curve = CurveParams::paper_default();
        let pkg = Pkg::setup(&mut rng_for(seed, 1, 0), curve);
        let enrolled = sizes.enrolled;
        let names: Vec<String> = (0..enrolled + UNKNOWN_POOL)
            .map(|i| {
                let tag = if i < enrolled { "id" } else { "nx" };
                format!("{tag}-{:016x}", mix(seed ^ mix(i as u64 + 0x1D)))
            })
            .collect();

        // PKG extraction and encryption dominate generation; split the
        // ranks over two threads, each rank with its own derived RNG so
        // the result does not depend on the split.
        let per_rank = |rank: usize| {
            let mut rng = rng_for(seed, 2, rank as u64);
            let (user, sem) = pkg.extract_split(&mut rng, &names[rank]);
            let mut plaintext = vec![0u8; PLAINTEXT_LEN];
            rng.fill_bytes(&mut plaintext);
            let ct = pkg
                .params()
                .encrypt_full(&mut rng, &names[rank], &plaintext)
                .expect("encryption is infallible");
            (user, sem, ct, plaintext)
        };
        let half = enrolled / 2;
        let (mut keyed, tail) = std::thread::scope(|scope| {
            let tail = scope.spawn(|| (half..enrolled).map(per_rank).collect::<Vec<_>>());
            let head: Vec<_> = (0..half).map(per_rank).collect();
            (head, tail.join().expect("key generation thread"))
        });
        keyed.extend(tail);
        let mut user_keys = Vec::with_capacity(enrolled);
        let mut sem_keys = Vec::with_capacity(enrolled);
        let mut cts = Vec::with_capacity(enrolled);
        let mut plaintexts = Vec::with_capacity(enrolled);
        for (user, sem, ct, plaintext) in keyed {
            user_keys.push(user);
            sem_keys.push(sem);
            cts.push(ct);
            plaintexts.push(plaintext);
        }
        let u_bytes = cts
            .iter()
            .map(|ct| pkg.params().curve().point_to_bytes(&ct.u))
            .collect();

        let signers: Vec<String> = names[..sizes.signers].to_vec();
        let (gdh_users, gdh_sem) = signers
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let (user, sem, _) =
                    mediated_keygen(&mut rng_for(seed, 3, i as u64), pkg.params().curve(), id);
                (user, sem)
            })
            .unzip();

        let zipf = Zipf::new(enrolled);
        let paced_secs = seconds * PACED_SHARE;
        let closed_secs = seconds - paced_secs;
        let per_conn =
            (workload.paced_rps / workload.load_conns as f64 * paced_secs).round() as usize;
        let closed_len = (CLOSED_RPS_PER_CONN * closed_secs).ceil() as usize;
        let sign_every = if workload.kind == Kind::SignMix {
            SIGN_EVERY
        } else {
            0
        };
        let mut msg = 0u64;
        let mut schedule = |stream: u64, conn: usize, len: usize| -> Vec<Req> {
            let mut rng = rng_for(seed, stream, conn as u64);
            (0..len)
                .map(|i| {
                    if sign_every > 0 && i % sign_every == 0 {
                        msg += 1;
                        Req {
                            sign: true,
                            ident: (rng.next_u64() % sizes.signers as u64) as u32,
                            msg,
                        }
                    } else {
                        let ident = if unit(&mut rng) < UNKNOWN_SHARE {
                            enrolled + (rng.next_u64() % UNKNOWN_POOL as u64) as usize
                        } else {
                            zipf.sample(&mut rng)
                        };
                        Req {
                            sign: false,
                            ident: ident as u32,
                            msg: 0,
                        }
                    }
                })
                .collect()
        };
        let paced = (0..workload.load_conns)
            .map(|c| schedule(4, c, per_conn))
            .collect();
        let closed = (0..workload.load_conns)
            .map(|c| schedule(5, c, closed_len))
            .collect();

        // Revocation history: the same revoke/unrevoke process the
        // admin thread continues, written as the journal a long-lived
        // SEM would leave behind, led by the hot set's Warm records.
        let mut churn = Churn::new(names.len(), enrolled, sizes.cache_cap, &zipf);
        let mut history_rng = rng_for(seed, 6, 0);
        let warm: Vec<u32> = (0..sizes.cache_cap as u32).collect();
        let mut journal = Vec::new();
        for &rank in &warm {
            append_record(&mut journal, 4, &names[rank as usize]);
        }
        for _ in warm.len()..JOURNAL_RECORDS {
            let op = churn.next(&mut history_rng);
            append_record(
                &mut journal,
                if op.revoke { 1 } else { 2 },
                &names[op.ident as usize],
            );
        }
        let initially_revoked = churn.revoked.clone();
        let mut admin_rng = rng_for(seed, 7, 0);
        let admin_len = if workload.kind == Kind::RevocationChurn {
            (ADMIN_RPS * seconds).round() as usize
        } else {
            0
        };
        let admin = (0..admin_len).map(|_| churn.next(&mut admin_rng)).collect();

        Inputs {
            seed,
            params: pkg.params().clone(),
            names,
            enrolled,
            user_keys,
            sem_keys,
            cts,
            u_bytes,
            plaintexts,
            signers,
            gdh_users,
            gdh_sem,
            paced,
            closed,
            admin,
            journal,
            initially_revoked,
            warm,
        }
    }

    /// The message a signing request with number `msg` carries: unique
    /// per request, derived from the seed.
    pub fn message(&self, msg: u64) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(b"perfbench-message");
        h.update(&self.seed.to_le_bytes());
        h.update(&msg.to_le_bytes());
        h.finalize().to_vec()
    }

    /// The token request body for token identity `ident`.
    pub fn u_for(&self, ident: u32) -> &[u8] {
        &self.u_bytes[ident as usize % self.enrolled]
    }

    /// SHA-256 over every generated input, in a fixed order.
    pub fn digest(&self) -> [u8; 32] {
        let curve = self.params.curve();
        let mut h = Sha256::new();
        let mut put = |bytes: &[u8]| {
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        };
        put(&self.seed.to_le_bytes());
        put(&curve.point_to_bytes(self.params.p_pub()));
        for name in &self.names {
            put(name.as_bytes());
        }
        for ((user, sem), ct) in self.user_keys.iter().zip(&self.sem_keys).zip(&self.cts) {
            put(&curve.point_to_bytes(&user.point));
            put(&curve.point_to_bytes(&sem.point));
            put(&ct.to_bytes(&self.params));
        }
        for (user, sem) in self.gdh_users.iter().zip(&self.gdh_sem) {
            put(&user.to_bytes(curve));
            put(&sem.to_bytes(curve));
        }
        for conn in self.paced.iter().chain(&self.closed) {
            put(&(conn.len() as u64).to_le_bytes());
            for req in conn {
                put(&[u8::from(req.sign)]);
                put(&req.ident.to_le_bytes());
                if req.sign {
                    put(&self.message(req.msg));
                }
            }
        }
        for op in &self.admin {
            put(&[u8::from(op.revoke)]);
            put(&op.ident.to_le_bytes());
        }
        put(&self.journal);
        h.finalize()
    }
}

/// The revoke/unrevoke process: hot (Zipf head), cold (enrolled tail)
/// and unknown identities, with at most [`MAX_REVOKED`] revoked at once.
struct Churn<'a> {
    revoked: Vec<bool>,
    revoked_list: Vec<u32>,
    enrolled: usize,
    hot: usize,
    zipf: &'a Zipf,
}

impl<'a> Churn<'a> {
    fn new(names: usize, enrolled: usize, hot: usize, zipf: &'a Zipf) -> Self {
        Churn {
            revoked: vec![false; names],
            revoked_list: Vec::new(),
            enrolled,
            hot,
            zipf,
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> AdminOp {
        let unrevoke = !self.revoked_list.is_empty()
            && (self.revoked_list.len() >= MAX_REVOKED || unit(rng) < 0.5);
        if unrevoke {
            let at = (rng.next_u64() % self.revoked_list.len() as u64) as usize;
            let ident = self.revoked_list.swap_remove(at);
            self.revoked[ident as usize] = false;
            return AdminOp {
                revoke: false,
                ident,
            };
        }
        let ident = loop {
            let class = unit(rng);
            let candidate = if class < 0.4 {
                self.zipf.sample(rng).min(self.hot.saturating_sub(1))
            } else if class < 0.8 {
                self.hot + (rng.next_u64() % (self.enrolled - self.hot) as u64) as usize
            } else {
                self.enrolled
                    + (rng.next_u64() % (self.revoked.len() - self.enrolled) as u64) as usize
            };
            if !self.revoked[candidate] {
                break candidate as u32;
            }
        };
        self.revoked[ident as usize] = true;
        self.revoked_list.push(ident);
        AdminOp {
            revoke: true,
            ident,
        }
    }
}

/// Appends one record in the journal's on-disk framing: `u32 BE
/// payload length ‖ u32 BE CRC-32 ‖ kind ‖ identity`. The SEM's replay
/// at set-up checks the result against the generator's model.
fn append_record(out: &mut Vec<u8>, kind: u8, id: &str) {
    let mut payload = Vec::with_capacity(1 + id.len());
    payload.push(kind);
    payload.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&sempair_net::store::crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{workload, WORKLOADS};
    use sempair_net::store::Journal;

    const SMALL: Sizes = Sizes {
        enrolled: 16,
        cache_cap: 4,
        signers: 4,
    };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in &WORKLOADS {
            let a = Inputs::generate(w, SMALL, 7, 0.05);
            let b = Inputs::generate(w, SMALL, 7, 0.05);
            let c = Inputs::generate(w, SMALL, 8, 0.05);
            assert_eq!(a.digest(), b.digest(), "{}", w.name);
            assert_ne!(a.digest(), c.digest(), "{}", w.name);
            assert_eq!(a.journal, b.journal);
            assert_ne!(a.journal, c.journal);
            assert!(a.paced.iter().all(|conn| !conn.is_empty()));
        }
    }

    #[test]
    fn sign_mix_is_one_signature_to_three_tokens() {
        let inputs = Inputs::generate(workload("sign_mix").unwrap(), SMALL, 3, 0.2);
        let reqs = &inputs.paced[0];
        let signs = reqs.iter().filter(|r| r.sign).count();
        assert_eq!(signs, reqs.len().div_ceil(4));
        let mut msgs: Vec<u64> = inputs
            .paced
            .iter()
            .flatten()
            .filter(|r| r.sign)
            .map(|r| r.msg)
            .collect();
        let total = msgs.len();
        msgs.sort_unstable();
        msgs.dedup();
        assert_eq!(msgs.len(), total, "every message is distinct");
    }

    #[test]
    fn journal_replays_to_the_generator_model() {
        let w = workload("revocation_churn").unwrap();
        let inputs = Inputs::generate(w, SMALL, 11, 0.05);
        let dir = crate::scratch::ScratchDir::create(&std::env::temp_dir()).unwrap();
        let path = dir.path().join("journal.log");
        std::fs::write(&path, &inputs.journal).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.records, JOURNAL_RECORDS);
        assert_eq!(replayed.truncated_bytes, 0);
        let expected: std::collections::HashSet<String> = inputs
            .initially_revoked
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| inputs.names[i].clone())
            .collect();
        assert_eq!(replayed.revoked, expected);
        let warm: Vec<String> = inputs
            .warm
            .iter()
            .map(|&i| inputs.names[i as usize].clone())
            .collect();
        assert_eq!(replayed.warm, warm);
    }
}
