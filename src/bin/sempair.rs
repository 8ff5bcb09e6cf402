//! `sempair` — a file-backed command-line demo of the full system.
//!
//! Simulates all three roles (PKG, SEM, users) against a state
//! directory, so the complete lifecycle is driveable from a shell:
//!
//! ```text
//! sempair setup --dir /tmp/demo --fast
//! sempair enroll --dir /tmp/demo alice@example.com
//! sempair encrypt --dir /tmp/demo alice@example.com "hello" > ct.hex
//! sempair decrypt --dir /tmp/demo alice@example.com "$(cat ct.hex)"
//! sempair sign   --dir /tmp/demo alice@example.com "contract v1" > sig.hex
//! sempair verify --dir /tmp/demo alice@example.com "contract v1" "$(cat sig.hex)"
//! sempair revoke --dir /tmp/demo alice@example.com
//! sempair decrypt --dir /tmp/demo alice@example.com "$(cat ct.hex)"   # refused
//! sempair audit  --dir /tmp/demo
//! sempair stats  --dir /tmp/demo --sem 127.0.0.1:7003   # live daemon metrics
//! ```
//!
//! State layout under `--dir` (default `./sempair-state`):
//! `system.json` (curve spec + PKG master), `users/<id>.ibe` /
//! `users/<id>.gdh` (user halves), `sem/<id>.ibe` / `sem/<id>.gdh`
//! (SEM halves), `sem/revoked.txt`, `sem/audit.log`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair::core::bf_ibe::{FullCiphertext, Pkg};
use sempair::core::gdh::{self, GdhSem, GdhSemKey, GdhUser};
use sempair::core::mediated::Sem;
use sempair::core::threshold::{threshold_system_from_bytes, threshold_system_to_bytes};
use sempair::core::wire;
use sempair::net::audit::{MetricsSnapshot, ReplicaHealth};
use sempair::net::cluster::{HedgeConfig, QuorumClient, SemCluster};
use sempair::net::tcp::{ClientConfig, ServerConfig, TcpSemClient, TcpSemServer};
use sempair::pairing::{CurveParams, CurveParamsSpec};
use sempair_bigint::BigUint;
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    command: String,
    dir: PathBuf,
    fast: bool,
    /// Address of a remote SEM daemon; when set, decrypt/sign go over
    /// TCP instead of reading the local SEM state.
    sem_addr: Option<String>,
    /// Daemon socket deadlines and admission cap (`serve`).
    server_config: ServerConfig,
    /// Client retry/deadline knobs (`decrypt`/`sign` with `--sem`).
    client_config: ClientConfig,
    /// Append-only journal backing `serve` revocation state.
    journal: Option<PathBuf>,
    /// `(t, n)` when running / addressing a replicated SEM cluster.
    cluster: Option<(usize, usize)>,
    /// Extra first-wave replicas for quorum requests (`--hedge`).
    hedge: Option<usize>,
    /// Master seed for the `scenario` command (`--seed`).
    seed: Option<u64>,
    /// Users re-keyed per incremental rollover chunk (`scenario`,
    /// `--rollover-chunk`).
    rollover_chunk: Option<usize>,
    /// Runtime lock-order verification (`serve`/`scenario`); requires
    /// a binary built with `--features lockdep`.
    lockdep: bool,
    positional: Vec<String>,
}

/// Parses `--cluster T/N` (e.g. `3/5`) into a `(t, n)` pair.
fn parse_cluster(raw: &str) -> Result<(usize, usize), String> {
    let (t, n) = raw
        .split_once('/')
        .ok_or_else(|| format!("--cluster: `{raw}` is not of the form T/N (e.g. 3/5)"))?;
    let t: usize = t
        .parse()
        .map_err(|_| format!("--cluster: `{t}` is not a number"))?;
    let n: usize = n
        .parse()
        .map_err(|_| format!("--cluster: `{n}` is not a number"))?;
    if t == 0 || t > n {
        return Err(format!("--cluster: need 1 <= t <= n, got {t}/{n}"));
    }
    Ok((t, n))
}

/// Parses a whole number of seconds into a deadline (`0` disables it).
fn parse_secs(flag: &str, value: Option<String>) -> Result<std::time::Duration, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value (seconds, 0 disables)"))?;
    let secs: u64 = raw
        .parse()
        .map_err(|_| format!("{flag}: `{raw}` is not a whole number of seconds"))?;
    Ok(std::time::Duration::from_secs(secs))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut dir = PathBuf::from("sempair-state");
    let mut fast = false;
    let mut sem_addr = None;
    let mut server_config = ServerConfig::default();
    let mut client_config = ClientConfig::default();
    let mut journal = None;
    let mut cluster = None;
    let mut hedge = None;
    let mut seed = None;
    let mut rollover_chunk = None;
    let mut lockdep = false;
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(args.next().ok_or("--dir needs a value")?),
            "--fast" => fast = true,
            "--paper" => fast = false,
            "--sem" => sem_addr = Some(args.next().ok_or("--sem needs an address")?),
            "--journal" => {
                journal = Some(PathBuf::from(args.next().ok_or("--journal needs a path")?));
            }
            "--cluster" => {
                let raw = args.next().ok_or("--cluster needs T/N (e.g. 3/5)")?;
                cluster = Some(parse_cluster(&raw)?);
            }
            "--hedge" => {
                let raw = args.next().ok_or("--hedge needs a value")?;
                hedge = Some(
                    raw.parse()
                        .map_err(|_| format!("--hedge: `{raw}` is not a number"))?,
                );
            }
            "--idle-timeout" => {
                server_config.idle_timeout = parse_secs("--idle-timeout", args.next())?;
            }
            "--read-timeout" => {
                server_config.read_timeout = parse_secs("--read-timeout", args.next())?;
            }
            "--write-timeout" => {
                server_config.write_timeout = parse_secs("--write-timeout", args.next())?;
            }
            "--max-conns" => {
                let raw = args.next().ok_or("--max-conns needs a value")?;
                server_config.max_connections = raw
                    .parse()
                    .map_err(|_| format!("--max-conns: `{raw}` is not a number"))?;
            }
            "--workers" => {
                let raw = args.next().ok_or("--workers needs a value")?;
                server_config.workers = raw
                    .parse()
                    .map_err(|_| format!("--workers: `{raw}` is not a number"))?;
            }
            "--shards" => {
                let raw = args.next().ok_or("--shards needs a value")?;
                server_config.shards = raw
                    .parse()
                    .map_err(|_| format!("--shards: `{raw}` is not a number"))?;
            }
            "--queue-cap" => {
                let raw = args.next().ok_or("--queue-cap needs a value")?;
                server_config.queue_cap = raw
                    .parse()
                    .map_err(|_| format!("--queue-cap: `{raw}` is not a number"))?;
            }
            "--pipeline-depth" => {
                let raw = args.next().ok_or("--pipeline-depth needs a value")?;
                server_config.pipeline_depth = raw
                    .parse()
                    .map_err(|_| format!("--pipeline-depth: `{raw}` is not a number"))?;
            }
            "--cache-cap" => {
                let raw = args.next().ok_or("--cache-cap needs a value")?;
                server_config.cache_cap = raw
                    .parse()
                    .map_err(|_| format!("--cache-cap: `{raw}` is not a number"))?;
            }
            "--cache-warm" => {
                server_config.cache_warm = true;
            }
            "--brownout-watermark" => {
                let raw = args.next().ok_or("--brownout-watermark needs a value")?;
                server_config.brownout_watermark = raw
                    .parse()
                    .map_err(|_| format!("--brownout-watermark: `{raw}` is not a number"))?;
            }
            "--seed" => {
                let raw = args.next().ok_or("--seed needs a value")?;
                seed = Some(
                    raw.parse()
                        .map_err(|_| format!("--seed: `{raw}` is not a number"))?,
                );
            }
            "--rollover-chunk" => {
                let raw = args.next().ok_or("--rollover-chunk needs a value")?;
                rollover_chunk = Some(
                    raw.parse()
                        .map_err(|_| format!("--rollover-chunk: `{raw}` is not a number"))?,
                );
            }
            "--sem-timeout" => {
                client_config.request_timeout = parse_secs("--sem-timeout", args.next())?;
            }
            "--sem-retries" => {
                let raw = args.next().ok_or("--sem-retries needs a value")?;
                client_config.max_retries = raw
                    .parse()
                    .map_err(|_| format!("--sem-retries: `{raw}` is not a number"))?;
            }
            "--audit-cap" => {
                let raw = args.next().ok_or("--audit-cap needs a value")?;
                server_config.audit.audit_cap = raw
                    .parse()
                    .map_err(|_| format!("--audit-cap: `{raw}` is not a number"))?;
            }
            "--lockdep" => lockdep = true,
            "--identity-cap" => {
                let raw = args.next().ok_or("--identity-cap needs a value")?;
                server_config.audit.identity_cap = raw
                    .parse()
                    .map_err(|_| format!("--identity-cap: `{raw}` is not a number"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok(Args {
        command,
        dir,
        fast,
        sem_addr,
        server_config,
        client_config,
        journal,
        cluster,
        hedge,
        seed,
        rollover_chunk,
        lockdep,
        positional,
    })
}

/// Applies `--lockdep`: enables runtime lock-order verification when
/// the binary carries the `lockdep` feature, warns when it does not
/// (the tracked wrappers are compiled-out shims in that case).
fn apply_lockdep(args: &Args) {
    if !args.lockdep {
        return;
    }
    if sempair::core::lockdep::COMPILED {
        sempair::core::lockdep::set_enabled(true);
        eprintln!("lockdep: runtime lock-order verification active (sem_lockdep_* metrics)");
    } else {
        eprintln!(
            "lockdep: not compiled into this binary — rebuild with \
             `--features lockdep` to enable runtime lock-order verification"
        );
    }
}

fn usage() -> String {
    "usage: sempair <setup|enroll|encrypt|decrypt|sign|verify|revoke|unrevoke|status|audit|stats|serve|scenario> \
     [--dir DIR] [--fast|--paper] [--sem ADDR] [--sem-timeout SECS] [--sem-retries N] \
     [--cluster T/N] [--journal PATH] [--hedge N] \
     [--idle-timeout SECS] [--read-timeout SECS] [--write-timeout SECS] [--max-conns N] \
     [--workers N] [--shards N] [--queue-cap N] [--pipeline-depth N] \
     [--cache-cap N] [--cache-warm] [--brownout-watermark N] \
     [--audit-cap N] [--identity-cap N] \
     [--seed N] [--rollover-chunk N] [--lockdep] [args...]"
        .to_string()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "setup" => cmd_setup(&args),
        "enroll" => cmd_enroll(&args),
        "encrypt" => cmd_encrypt(&args),
        "decrypt" => cmd_decrypt(&args),
        "sign" => cmd_sign(&args),
        "verify" => cmd_verify(&args),
        "revoke" => cmd_set_revoked(&args, true),
        "unrevoke" => cmd_set_revoked(&args, false),
        "status" => cmd_status(&args),
        "audit" => cmd_audit(&args),
        "stats" => cmd_stats(&args),
        "serve" => cmd_serve(&args),
        "scenario" => cmd_scenario(&args),
        _ => Err(usage()),
    }
}

// --- state persistence -------------------------------------------------------

struct SystemState {
    curve: CurveParamsSpec,
    /// PKG master key (hex). A real deployment would keep this offline;
    /// the demo stores it so `enroll` works across invocations.
    master: BigUint,
}

// Manual serde impls: the vendored serde shim has no derive macro
// (shims/README.md).
impl serde::Serialize for SystemState {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("SystemState", 2)?;
        st.serialize_field("curve", &self.curve)?;
        st.serialize_field("master", &self.master)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for SystemState {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::StructAccess;
        let mut st = deserializer.deserialize_struct("SystemState", &["curve", "master"])?;
        Ok(SystemState {
            curve: st.field("curve")?,
            master: st.field("master")?,
        })
    }
}

fn load_system(dir: &Path) -> Result<(CurveParams, Pkg), String> {
    let raw = fs::read_to_string(dir.join("system.json"))
        .map_err(|e| format!("cannot read system.json (run `setup` first?): {e}"))?;
    let state: SystemState =
        serde_json::from_str(&raw).map_err(|e| format!("corrupt system.json: {e}"))?;
    let mut rng = sempair::hash::HmacDrbgRng::new(b"sempair-cli-validate");
    let curve = CurveParams::from_spec(&state.curve, &mut rng)
        .map_err(|e| format!("invalid curve parameters: {e}"))?;
    let pkg = Pkg::from_master(curve.clone(), state.master);
    Ok((curve, pkg))
}

fn revoked_path(dir: &Path) -> PathBuf {
    dir.join("sem").join("revoked.txt")
}

fn load_revoked(dir: &Path) -> HashSet<String> {
    fs::read_to_string(revoked_path(dir))
        .map(|s| s.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

fn store_revoked(dir: &Path, revoked: &HashSet<String>) -> Result<(), String> {
    let mut lines: Vec<&str> = revoked.iter().map(String::as_str).collect();
    lines.sort_unstable();
    fs::write(revoked_path(dir), lines.join("\n")).map_err(|e| e.to_string())
}

/// `sem/cluster.txt`: first line `T/N`, then one replica address per
/// line — written by `serve --cluster`, read by `decrypt`/`stats`.
fn cluster_manifest_path(dir: &Path) -> PathBuf {
    dir.join("sem").join("cluster.txt")
}

fn store_cluster_manifest(
    dir: &Path,
    t: usize,
    addrs: &[std::net::SocketAddr],
) -> Result<(), String> {
    let mut text = format!("{t}/{}\n", addrs.len());
    for addr in addrs {
        text.push_str(&addr.to_string());
        text.push('\n');
    }
    fs::write(cluster_manifest_path(dir), text).map_err(|e| e.to_string())
}

fn load_cluster_manifest(dir: &Path) -> Result<(usize, Vec<std::net::SocketAddr>), String> {
    let raw = fs::read_to_string(cluster_manifest_path(dir))
        .map_err(|e| format!("no cluster manifest (run `serve --cluster` first?): {e}"))?;
    let mut lines = raw.lines();
    let header = lines.next().ok_or("cluster manifest is empty")?;
    let (t, n) = parse_cluster(header).map_err(|e| format!("corrupt cluster manifest: {e}"))?;
    let addrs: Vec<std::net::SocketAddr> = lines
        .map(|line| {
            line.parse()
                .map_err(|_| format!("corrupt cluster manifest: bad address `{line}`"))
        })
        .collect::<Result<_, String>>()?;
    if addrs.len() != n {
        return Err(format!(
            "corrupt cluster manifest: header says {n} replicas, found {}",
            addrs.len()
        ));
    }
    Ok((t, addrs))
}

fn tsys_path(dir: &Path, id: &str) -> PathBuf {
    dir.join("sem").join(format!("{id}.tsys"))
}

fn append_audit(dir: &Path, line: &str) {
    use std::io::Write;
    if let Ok(mut f) = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("sem").join("audit.log"))
    {
        let _ = writeln!(f, "{line}");
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err("hex input has odd length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

fn need_id(args: &Args) -> Result<&str, String> {
    args.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "missing <identity> argument".to_string())
}

// --- commands ----------------------------------------------------------------

fn cmd_setup(args: &Args) -> Result<(), String> {
    if args.dir.join("system.json").exists() {
        return Err(format!("{} already contains a system", args.dir.display()));
    }
    fs::create_dir_all(args.dir.join("users")).map_err(|e| e.to_string())?;
    fs::create_dir_all(args.dir.join("sem")).map_err(|e| e.to_string())?;
    let curve = if args.fast {
        CurveParams::fast_insecure()
    } else {
        CurveParams::paper_default()
    };
    let mut rng = StdRng::from_entropy();
    // Sample the master directly so it can be persisted (demo only;
    // see the SystemState docs) and rebuild the PKG from it.
    let master = curve.random_scalar(&mut rng);
    let pkg = Pkg::from_master(curve.clone(), master.clone());
    let state = SystemState {
        curve: curve.to_spec(),
        master,
    };
    fs::write(
        args.dir.join("system.json"),
        serde_json::to_string_pretty(&state).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "system initialized in {} ({}-bit field, {}-bit group order)",
        args.dir.display(),
        pkg.params().curve().modulus().bits(),
        pkg.params().curve().order().bits()
    );
    Ok(())
}

fn cmd_enroll(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let (curve, pkg) = load_system(&args.dir)?;
    let mut rng = StdRng::from_entropy();
    // IBE halves.
    let (user_key, sem_key) = pkg.extract_split(&mut rng, id);
    fs::write(
        args.dir.join("users").join(format!("{id}.ibe")),
        hex_encode(&wire::user_key_to_bytes(&curve, &user_key)),
    )
    .map_err(|e| e.to_string())?;
    fs::write(
        args.dir.join("sem").join(format!("{id}.ibe")),
        hex_encode(&wire::sem_key_to_bytes(&curve, &sem_key)),
    )
    .map_err(|e| e.to_string())?;
    // GDH halves.
    let (gdh_user, gdh_sem, _pk) = gdh::mediated_keygen(&mut rng, &curve, id);
    fs::write(
        args.dir.join("users").join(format!("{id}.gdh")),
        hex_encode(&gdh_user.to_bytes(&curve)),
    )
    .map_err(|e| e.to_string())?;
    fs::write(
        args.dir.join("sem").join(format!("{id}.gdh")),
        hex_encode(&gdh_sem.to_bytes(&curve)),
    )
    .map_err(|e| e.to_string())?;
    println!("enrolled {id}: decryption + signing halves issued");
    Ok(())
}

fn load_ibe_user(
    dir: &Path,
    curve: &CurveParams,
    id: &str,
) -> Result<sempair::core::mediated::UserKey, String> {
    let raw = fs::read_to_string(dir.join("users").join(format!("{id}.ibe")))
        .map_err(|_| format!("{id} is not enrolled (no user key)"))?;
    wire::user_key_from_bytes(curve, &hex_decode(&raw)?).map_err(|e| e.to_string())
}

fn build_sem(dir: &Path, curve: &CurveParams, id: &str) -> Result<(Sem, GdhSem), String> {
    let mut sem = Sem::new();
    let mut gdh_sem = GdhSem::new();
    if let Ok(raw) = fs::read_to_string(dir.join("sem").join(format!("{id}.ibe"))) {
        sem.install(
            wire::sem_key_from_bytes(curve, &hex_decode(&raw)?).map_err(|e| e.to_string())?,
        );
    }
    if let Ok(raw) = fs::read_to_string(dir.join("sem").join(format!("{id}.gdh"))) {
        gdh_sem
            .install(GdhSemKey::from_bytes(curve, &hex_decode(&raw)?).map_err(|e| e.to_string())?);
    }
    for revoked in load_revoked(dir) {
        sem.revoke(&revoked);
        gdh_sem.revoke(&revoked);
    }
    Ok((sem, gdh_sem))
}

fn cmd_encrypt(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let message = args.positional.get(1).ok_or("missing <message> argument")?;
    let (_, pkg) = load_system(&args.dir)?;
    let mut rng = StdRng::from_entropy();
    let ct = pkg
        .params()
        .encrypt_full(&mut rng, id, message.as_bytes())
        .map_err(|e| e.to_string())?;
    println!("{}", hex_encode(&ct.to_bytes(pkg.params())));
    Ok(())
}

fn cmd_decrypt(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let ct_hex = args
        .positional
        .get(1)
        .ok_or("missing <ciphertext-hex> argument")?;
    let (curve, pkg) = load_system(&args.dir)?;
    let ct = FullCiphertext::from_bytes(pkg.params(), &hex_decode(ct_hex)?)
        .map_err(|e| format!("bad ciphertext: {e}"))?;
    // SEM step: replica quorum if --cluster, remote daemon if --sem,
    // local state otherwise.
    let token = if let Some((t_flag, n_flag)) = args.cluster {
        let (t, addrs) = load_cluster_manifest(&args.dir)?;
        if (t, addrs.len()) != (t_flag, n_flag) {
            return Err(format!(
                "--cluster {t_flag}/{n_flag} does not match the running cluster ({t}/{})",
                addrs.len()
            ));
        }
        let raw = fs::read_to_string(tsys_path(&args.dir, id)).map_err(|_| {
            format!("{id} has no dealt verification system (restart `serve --cluster`?)")
        })?;
        let system = threshold_system_from_bytes(&curve, &hex_decode(&raw)?)
            .map_err(|e| format!("corrupt verification system for {id}: {e}"))?;
        let mut client =
            QuorumClient::new(pkg.params().clone(), t, addrs, args.client_config.clone())
                .map_err(|e| format!("bad cluster manifest: {e}"))?;
        if let Some(extra) = args.hedge {
            client = client.with_hedge(HedgeConfig { extra });
        }
        client.register(id, system);
        let outcome = client
            .token(id, &ct.u)
            .map_err(|e| format!("quorum refused: {e}"))?;
        let stats = &outcome.stats;
        if !stats.cheaters.is_empty() {
            eprintln!(
                "warning: replica(s) {:?} returned shares that failed NIZK verification",
                stats.cheaters
            );
        }
        eprintln!(
            "# quorum: {} asked, {} valid of threshold {t}{}{}",
            stats.asked,
            stats.valid,
            if stats.hedged { ", hedged" } else { "" },
            if stats.unreachable.is_empty() {
                String::new()
            } else {
                format!(", unreachable {:?}", stats.unreachable)
            },
        );
        outcome.token
    } else if let Some(addr) = &args.sem_addr {
        let mut client = TcpSemClient::connect_with(
            addr.as_str(),
            pkg.params().clone(),
            args.client_config.clone(),
        )
        .map_err(|e| format!("cannot reach SEM at {addr}: {e}"))?;
        client
            .ibe_token(id, &ct.u)
            .map_err(|e| format!("SEM refused: {e}"))?
    } else {
        let (sem, _) = build_sem(&args.dir, &curve, id)?;
        match sem.decrypt_token(pkg.params(), id, &ct.u) {
            Ok(token) => {
                append_audit(&args.dir, &format!("decrypt {id} served"));
                token
            }
            Err(e) => {
                append_audit(&args.dir, &format!("decrypt {id} refused: {e}"));
                return Err(format!("SEM refused: {e}"));
            }
        }
    };
    // User step.
    let user_key = load_ibe_user(&args.dir, &curve, id)?;
    let plain = user_key
        .finish_decrypt(pkg.params(), &ct, &token)
        .map_err(|e| e.to_string())?;
    println!("{}", String::from_utf8_lossy(&plain));
    Ok(())
}

fn cmd_sign(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let message = args.positional.get(1).ok_or("missing <message> argument")?;
    let (curve, _) = load_system(&args.dir)?;
    let raw = fs::read_to_string(args.dir.join("users").join(format!("{id}.gdh")))
        .map_err(|_| format!("{id} is not enrolled (no signing key)"))?;
    let user = GdhUser::from_bytes(&curve, &hex_decode(&raw)?).map_err(|e| e.to_string())?;
    let half = if let Some(addr) = &args.sem_addr {
        let (_, pkg) = load_system(&args.dir)?;
        let mut client = TcpSemClient::connect_with(
            addr.as_str(),
            pkg.params().clone(),
            args.client_config.clone(),
        )
        .map_err(|e| format!("cannot reach SEM at {addr}: {e}"))?;
        client
            .gdh_half_sign(id, message.as_bytes())
            .map_err(|e| format!("SEM refused: {e}"))?
    } else {
        let (_, gdh_sem) = build_sem(&args.dir, &curve, id)?;
        match gdh_sem.half_sign(&curve, id, message.as_bytes()) {
            Ok(half) => {
                append_audit(&args.dir, &format!("sign {id} served"));
                half
            }
            Err(e) => {
                append_audit(&args.dir, &format!("sign {id} refused: {e}"));
                return Err(format!("SEM refused: {e}"));
            }
        }
    };
    let sig = user
        .finish_sign(&curve, message.as_bytes(), &half)
        .map_err(|e| e.to_string())?;
    println!("{}", hex_encode(&wire::signature_to_bytes(&curve, &sig)));
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let message = args.positional.get(1).ok_or("missing <message> argument")?;
    let sig_hex = args
        .positional
        .get(2)
        .ok_or("missing <signature-hex> argument")?;
    let (curve, _) = load_system(&args.dir)?;
    // The verifier only needs the public key, read from the user record
    // (in a real deployment it would come from a directory).
    let raw = fs::read_to_string(args.dir.join("users").join(format!("{id}.gdh")))
        .map_err(|_| format!("no public key on file for {id}"))?;
    let user = GdhUser::from_bytes(&curve, &hex_decode(&raw)?).map_err(|e| e.to_string())?;
    let sig =
        wire::signature_from_bytes(&curve, &hex_decode(sig_hex)?).map_err(|e| e.to_string())?;
    match gdh::verify(&curve, &user.public, message.as_bytes(), &sig) {
        Ok(()) => {
            println!("signature VALID for {id}");
            Ok(())
        }
        Err(_) => Err("signature INVALID".into()),
    }
}

fn cmd_set_revoked(args: &Args, revoke: bool) -> Result<(), String> {
    let id = need_id(args)?;
    let mut revoked = load_revoked(&args.dir);
    if revoke {
        revoked.insert(id.to_string());
        append_audit(&args.dir, &format!("revoke {id}"));
        println!("{id} revoked — effective on the next SEM request");
    } else {
        revoked.remove(id);
        append_audit(&args.dir, &format!("unrevoke {id}"));
        println!("{id} reinstated");
    }
    store_revoked(&args.dir, &revoked)
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let id = need_id(args)?;
    let revoked = load_revoked(&args.dir);
    let enrolled = args.dir.join("users").join(format!("{id}.ibe")).exists();
    println!(
        "{id}: {}{}",
        if enrolled { "enrolled" } else { "not enrolled" },
        if revoked.contains(id) {
            ", REVOKED"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let log = fs::read_to_string(args.dir.join("sem").join("audit.log"))
        .unwrap_or_else(|_| "(empty)".to_string());
    print!("{log}");
    if !log.ends_with('\n') {
        println!();
    }
    Ok(())
}

/// `stats`: pull the bounded-observability snapshot from a running SEM
/// daemon (`--sem ADDR`) and print it in Prometheus text exposition
/// format, followed by a short human summary (request totals, drop
/// counter, per-capability latency quantiles).
fn cmd_stats(args: &Args) -> Result<(), String> {
    if args.cluster.is_some() {
        return cmd_stats_cluster(args);
    }
    let addr = args
        .sem_addr
        .as_deref()
        .ok_or("stats needs --sem ADDR (a running `sempair serve` daemon)")?;
    let (_, pkg) = load_system(&args.dir)?;
    let mut client =
        TcpSemClient::connect_with(addr, pkg.params().clone(), args.client_config.clone())
            .map_err(|e| format!("cannot reach SEM at {addr}: {e}"))?;
    let text = client
        .stats_text()
        .map_err(|e| format!("SEM refused stats: {e}"))?;
    print!("{text}");
    let Some(snapshot) = MetricsSnapshot::from_prometheus_text(&text) else {
        return Err("daemon returned an unparseable metrics snapshot".into());
    };
    println!(
        "# summary: {} served / {} refused, {} audit records kept (cap {}), {} dropped, \
         {} identities tracked (cap {})",
        snapshot.totals.served,
        snapshot.totals.refused,
        snapshot.records_len,
        snapshot.audit_cap,
        snapshot.records_dropped,
        snapshot.identities_tracked,
        snapshot.identity_cap,
    );
    for (capability, hist) in &snapshot.latency_us {
        if hist.count() > 0 {
            println!(
                "# summary: {} latency ~p50 {}us / ~p95 {}us over {} requests",
                capability.label(),
                hist.quantile(0.5),
                hist.quantile(0.95),
                hist.count(),
            );
        }
    }
    Ok(())
}

/// `stats --cluster T/N`: pull the metrics snapshot from every replica
/// named in the cluster manifest, merge them into one cluster-wide
/// snapshot ([`MetricsSnapshot::merge`]), and stamp a per-replica
/// health row for each — unreachable replicas show up as
/// `sem_replica_reachable{replica="i"} 0`, not as an error.
fn cmd_stats_cluster(args: &Args) -> Result<(), String> {
    let (t_flag, n_flag) = args.cluster.expect("checked by caller");
    let (t, addrs) = load_cluster_manifest(&args.dir)?;
    if (t, addrs.len()) != (t_flag, n_flag) {
        return Err(format!(
            "--cluster {t_flag}/{n_flag} does not match the running cluster ({t}/{})",
            addrs.len()
        ));
    }
    let (_, pkg) = load_system(&args.dir)?;
    let mut merged: Option<MetricsSnapshot> = None;
    let mut health = Vec::with_capacity(addrs.len());
    for (i, addr) in addrs.iter().enumerate() {
        let snapshot =
            TcpSemClient::connect_with(addr, pkg.params().clone(), args.client_config.clone())
                .ok()
                .and_then(|mut client| client.stats_text().ok())
                .and_then(|text| MetricsSnapshot::from_prometheus_text(&text));
        health.push(ReplicaHealth {
            index: (i + 1) as u32,
            reachable: snapshot.is_some(),
            cheats: 0,
        });
        if let Some(snapshot) = snapshot {
            match &mut merged {
                Some(m) => m.merge(&snapshot),
                None => merged = Some(snapshot),
            }
        }
    }
    let reachable = health.iter().filter(|h| h.reachable).count();
    let Some(mut merged) = merged else {
        return Err(format!(
            "no replica of the {t}/{} cluster is reachable",
            addrs.len()
        ));
    };
    merged.replicas = health;
    print!("{}", merged.to_prometheus_text());
    println!(
        "# summary: cluster {t}/{} — {} replicas reachable ({})",
        addrs.len(),
        reachable,
        if reachable >= t {
            "quorum available"
        } else {
            "QUORUM LOST"
        },
    );
    for (row, addr) in merged.replicas.iter().zip(&addrs) {
        println!(
            "# summary: replica {} @ {}: {}",
            row.index,
            addr,
            if row.reachable {
                "reachable"
            } else {
                "UNREACHABLE"
            },
        );
    }
    println!(
        "# summary: {} served / {} refused across reachable replicas",
        merged.totals.served, merged.totals.refused,
    );
    for (capability, hist) in &merged.latency_us {
        if hist.count() > 0 {
            println!(
                "# summary: {} latency ~p50 {}us / ~p95 {}us over {} requests",
                capability.label(),
                hist.quantile(0.5),
                hist.quantile(0.95),
                hist.count(),
            );
        }
    }
    Ok(())
}

/// `serve`: run the SEM daemon over the state directory. Loads every
/// `sem/*.ibe` and `sem/*.gdh` half-key plus the revocation list and
/// listens on the given address (default `127.0.0.1:7003`). With
/// `--journal PATH` the revocation set is additionally crash-safe:
/// replayed from the append-only journal on startup. With
/// `--cluster T/N` the daemon instead boots `n` journal-backed
/// replicas on consecutive ports (see [`cmd_serve_cluster`]).
fn cmd_serve(args: &Args) -> Result<(), String> {
    apply_lockdep(args);
    if args.cluster.is_some() {
        return cmd_serve_cluster(args);
    }
    let addr = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7003");
    let (curve, pkg) = load_system(&args.dir)?;
    let server = if let Some(journal) = &args.journal {
        let (server, replayed) = TcpSemServer::bind_with_journal(
            addr,
            pkg.params().clone(),
            args.server_config.clone(),
            journal,
        )
        .map_err(|e| format!("cannot bind {addr} with journal: {e}"))?;
        println!(
            "journal {} replayed: {} records, {} revoked, {} warm, epoch {}{}",
            journal.display(),
            replayed.records,
            replayed.revoked.len(),
            replayed.warm.len(),
            replayed.epoch,
            if replayed.truncated_bytes > 0 {
                format!(
                    " ({} torn trailing bytes truncated)",
                    replayed.truncated_bytes
                )
            } else {
                String::new()
            },
        );
        server
    } else {
        TcpSemServer::bind_with(addr, pkg.params().clone(), args.server_config.clone())
            .map_err(|e| format!("cannot bind {addr}: {e}"))?
    };
    let mut installed = 0usize;
    let sem_dir = args.dir.join("sem");
    if let Ok(entries) = fs::read_dir(&sem_dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
                continue;
            };
            let Ok(raw) = fs::read_to_string(&path) else {
                continue;
            };
            match ext {
                "ibe" => {
                    if let Ok(key) = wire::sem_key_from_bytes(&curve, &hex_decode(&raw)?) {
                        server.install_ibe(key);
                        installed += 1;
                    }
                }
                "gdh" => {
                    if let Ok(key) = GdhSemKey::from_bytes(&curve, &hex_decode(&raw)?) {
                        server.install_gdh(key);
                        installed += 1;
                    }
                }
                _ => {}
            }
        }
    }
    for revoked in load_revoked(&args.dir) {
        server.revoke(&revoked);
    }
    println!(
        "SEM daemon listening on {} ({installed} half-keys installed, \
         idle {}s / read {}s / write {}s deadlines, {} conns max, \
         {} workers / {} shards / queue {} / pipeline depth {}, \
         cache cap {}{}, \
         audit ring {} records / {} identities); Ctrl-C to stop",
        server.local_addr(),
        args.server_config.idle_timeout.as_secs(),
        args.server_config.read_timeout.as_secs(),
        args.server_config.write_timeout.as_secs(),
        args.server_config.max_connections,
        args.server_config.workers,
        args.server_config.shards,
        args.server_config.queue_cap,
        args.server_config.pipeline_depth,
        args.server_config.cache_cap,
        if args.server_config.cache_warm {
            " (warm-start)"
        } else {
            ""
        },
        args.server_config.audit.audit_cap,
        args.server_config.audit.identity_cap,
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `scenario [NAME]`: runs one (or all four) scripted chaos scenarios
/// against SEM daemons started in this process and prints the per-SLO
/// margins. `--seed` replays a specific schedule, `--rollover-chunk`
/// sizes the incremental re-key chunks, `--brownout-watermark` sets the
/// shed threshold handed to the scenario servers.
fn cmd_scenario(args: &Args) -> Result<(), String> {
    use sempair::net::scenario::{run_all, run_scenario, ScenarioConfig, SCENARIOS};
    apply_lockdep(args);
    let mut config = ScenarioConfig::smoke();
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    if let Some(chunk) = args.rollover_chunk {
        config.rollover_chunk = chunk;
    }
    config.brownout_watermark = args.server_config.brownout_watermark;
    let outcomes = match args.positional.first() {
        Some(name) => {
            let outcome = run_scenario(name, &config)
                .ok_or_else(|| {
                    format!(
                        "unknown scenario `{name}` (available: {})",
                        SCENARIOS.join(", ")
                    )
                })?
                .map_err(|e| format!("scenario harness failed: {e}"))?;
            vec![outcome]
        }
        None => run_all(&config).map_err(|e| format!("scenario harness failed: {e}"))?,
    };
    let mut all_passed = true;
    for outcome in &outcomes {
        println!(
            "{} — {} (seed {}, quiet p99 {:.0} µs, loaded p99 {:.0} µs)",
            outcome.name,
            if outcome.passed { "PASS" } else { "FAIL" },
            outcome.seed,
            outcome.observation.quiet_p99_us,
            outcome.observation.loaded_p99_us,
        );
        for m in &outcome.slos {
            println!(
                "  {:<22} {} actual {:>10.4} limit {:>10.4} margin {:>+10.4}{}",
                m.name,
                if m.pass { "ok  " } else { "FAIL" },
                m.actual,
                m.limit,
                m.margin,
                if m.timing { "  (timing)" } else { "" }
            );
        }
        all_passed &= outcome.deterministic_pass();
    }
    if all_passed {
        Ok(())
    } else {
        Err("a deterministic SLO was violated (see margins above)".to_string())
    }
}

/// `serve --cluster T/N`: boots `n` journal-backed SEM replicas on
/// consecutive ports starting at the base address (default
/// `127.0.0.1:7003`), re-deals every enrolled identity's SEM scalar as
/// `(t, n)` Shamir shares, and writes the cluster manifest
/// (`sem/cluster.txt`) plus per-identity verification systems
/// (`sem/<id>.tsys`) so `decrypt --cluster` and `stats --cluster` can
/// find and check the replicas from another process.
///
/// Re-dealing refreshes each user's IBE half-key under `users/` (the
/// blinding changes), and the superseded single-SEM `sem/<id>.ibe`
/// halves are removed — decryption for those identities now goes
/// through the quorum.
fn cmd_serve_cluster(args: &Args) -> Result<(), String> {
    let (t, n) = args.cluster.expect("checked by caller");
    let base = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7003");
    let base: std::net::SocketAddr = base
        .parse()
        .map_err(|_| format!("cluster mode needs a literal base address, got `{base}`"))?;
    base.port()
        .checked_add((n - 1) as u16)
        .ok_or("cluster ports would overflow the port range")?;
    let addrs: Vec<std::net::SocketAddr> = (0..n as u16)
        .map(|i| {
            let mut addr = base;
            addr.set_port(base.port() + i);
            addr
        })
        .collect();
    let (curve, pkg) = load_system(&args.dir)?;
    let state_dir = args.dir.join("sem").join("cluster");
    let mut cluster = SemCluster::start_on(pkg, t, &addrs, args.server_config.clone(), &state_dir)
        .map_err(|e| format!("cannot start cluster on {base}: {e}"))?;
    // Re-deal every enrolled identity across the replicas.
    let mut enrolled: Vec<String> = fs::read_dir(args.dir.join("users"))
        .map_err(|e| format!("cannot list enrolled users: {e}"))?
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            (path.extension().and_then(|e| e.to_str()) == Some("ibe"))
                .then(|| path.file_stem()?.to_str().map(str::to_string))
                .flatten()
        })
        .collect();
    enrolled.sort_unstable();
    let mut rng = StdRng::from_entropy();
    for id in &enrolled {
        let user = cluster
            .enroll(&mut rng, id)
            .map_err(|e| format!("cannot deal shares for {id}: {e}"))?;
        fs::write(
            args.dir.join("users").join(format!("{id}.ibe")),
            hex_encode(&wire::user_key_to_bytes(&curve, &user)),
        )
        .map_err(|e| e.to_string())?;
        let system = cluster.system_for(id).expect("just enrolled");
        fs::write(
            tsys_path(&args.dir, id),
            hex_encode(&threshold_system_to_bytes(system)),
        )
        .map_err(|e| e.to_string())?;
        let _ = fs::remove_file(args.dir.join("sem").join(format!("{id}.ibe")));
    }
    for id in load_revoked(&args.dir) {
        cluster.revoke(&id);
    }
    let bound = cluster.addrs();
    store_cluster_manifest(&args.dir, t, &bound)?;
    println!(
        "SEM cluster {t}/{n} listening on {}..{} ({} identities dealt, \
         journals under {}); Ctrl-C to stop",
        bound[0],
        bound[n - 1],
        enrolled.len(),
        state_dir.display(),
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
