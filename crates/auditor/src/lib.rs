//! # sempair-auditor
//!
//! A dependency-free static-analysis pass over the sempair workspace
//! (DESIGN.md §11). A security mediator is a long-lived network daemon
//! holding key shares: the classes of bug this tool hunts — remote
//! panics in request paths, key material reaching `Debug` output,
//! attacker-declared lengths driving allocations, variable-time
//! equality on secrets — are exactly the ones unit tests are worst at
//! catching, because the buggy path *works*.
//!
//! Run it as `cargo run -p sempair-auditor` (human output) or with
//! `--json` for machine-readable findings; `scripts/check.sh` runs it
//! before the test tiers and fails on any non-allowlisted finding.

pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID (`R1-panic`, `R2-secret`, `R3-bound`, `R4-ct`,
    /// `R5-lock`).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when suppressed by an `audit:allow` comment.
    pub allowed: Option<String>,
}

/// Result of auditing a tree: active findings fail the build,
/// allowlisted ones are reported but tolerated.
#[derive(Debug, Default)]
pub struct Report {
    /// Non-allowlisted findings.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `audit:allow(kind, reason)`.
    pub allowed: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// sem-net modules that serve or relay remote requests: the whole file
/// is a no-panic zone, not just its decode functions (§4 keeps the SEM
/// online for the system's lifetime — a panic is a remote crash).
pub const PANIC_SCOPE: &[&str] = &[
    "crates/sem-net/src/tcp.rs",
    "crates/sem-net/src/proto.rs",
    "crates/sem-net/src/store.rs",
    "crates/sem-net/src/cluster.rs",
    "crates/sem-net/src/revocation.rs",
    "crates/sem-net/src/audit.rs",
];

/// The bounded cache modules (DESIGN.md §14): the whole point of the
/// tier is a hard memory cap, so R3's bounded-allocation rule applies
/// to every line here, not just decode functions — an unbounded
/// `with_capacity` in a cache is the bug the tier exists to prevent.
pub const BOUND_SCOPE: &[&str] = &[
    "crates/core/src/cache.rs",
    "crates/sem-net/src/cache.rs",
    // The scenario harness allocates per-request sample buffers from
    // config-driven sizes, and the journal builds record frames whose
    // length a corrupt record could inflate: both widened into the
    // file-wide bound scan after the PR 9 rollover-chunk (store
    // kind 5) path landed outside R3's original file list.
    "crates/sem-net/src/scenario.rs",
    "crates/sem-net/src/store.rs",
];

/// Modules holding serving-path locks: R5's lock-discipline rule
/// (tracked wrappers only, annotated construction sites, declared
/// nesting order) applies file-wide here. `core/src/lockdep.rs` itself
/// is deliberately absent — it is the implementation layer the rule
/// forces everyone else onto.
pub const LOCK_SCOPE: &[&str] = &[
    "crates/sem-net/src/tcp.rs",
    "crates/sem-net/src/cluster.rs",
    "crates/sem-net/src/audit.rs",
    "crates/sem-net/src/faults.rs",
    "crates/sem-net/src/cache.rs",
    "crates/sem-net/src/scenario.rs",
    "crates/sem-net/src/store.rs",
    "crates/core/src/cache.rs",
];

/// Every rule ID, in catalogue order (the JSON rule summary always
/// lists all of them, found or not).
pub const RULE_IDS: &[&str] = &["R1-panic", "R2-secret", "R3-bound", "R4-ct", "R5-lock"];

/// Audits a single source string, as the workspace walk would.
/// Exposed for fixture-driven self-tests.
pub fn audit_source(
    rel_path: &str,
    source: &str,
    panic_everywhere: bool,
    bound_everywhere: bool,
    lock_scope: bool,
) -> Vec<Finding> {
    let raw: Vec<&str> = source.lines().collect();
    let lines = scan::scan(source);
    rules::run_rules(
        rel_path,
        &raw,
        &lines,
        panic_everywhere,
        bound_everywhere,
        lock_scope,
    )
}

fn included(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    // The auditor doesn't audit itself (its fixtures are rule-bait),
    // and shims are vendored API stand-ins — except the RNG shim,
    // whose ChaCha key is real secret material.
    if rel.starts_with("crates/auditor/") || rel.contains("/target/") {
        return false;
    }
    if rel.starts_with("shims/") {
        return rel.starts_with("shims/rand/src/");
    }
    // Library/binary source only: integration tests and benches may
    // unwrap freely.
    (rel.starts_with("crates/") || rel.starts_with("src/")) && rel.contains("src/")
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "tests" | "benches" | "fixtures") {
                continue;
            }
            walk(&path, root, out);
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if included(&rel) {
                out.push((path.clone(), rel));
            }
        }
    }
}

/// Audits every in-scope source file under `root` (the repo root).
pub fn audit_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let mut report = Report::default();
    for (path, rel) in files {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let panic_everywhere = PANIC_SCOPE.contains(&rel.as_str());
        let bound_everywhere = BOUND_SCOPE.contains(&rel.as_str());
        let lock_scope = LOCK_SCOPE.contains(&rel.as_str());
        for finding in audit_source(
            &rel,
            &source,
            panic_everywhere,
            bound_everywhere,
            lock_scope,
        ) {
            if finding.allowed.is_some() {
                report.allowed.push(finding);
            } else {
                report.findings.push(finding);
            }
        }
    }
    report
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let mut obj = format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
        f.rule,
        json_escape(&f.file),
        f.line,
        json_escape(&f.message)
    );
    if let Some(reason) = &f.allowed {
        obj.push_str(&format!(",\"allowed\":\"{}\"", json_escape(reason)));
    }
    obj.push('}');
    obj
}

impl Report {
    /// Machine-readable output with stable field names. The `rules`
    /// summary always lists every rule in the catalogue (zero counts
    /// included), so CI can assert a rule actually ran.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(finding_json).collect();
        let allowed: Vec<String> = self.allowed.iter().map(finding_json).collect();
        let rules: Vec<String> = RULE_IDS
            .iter()
            .map(|id| {
                let active = self.findings.iter().filter(|f| f.rule == *id).count();
                let allowed = self.allowed.iter().filter(|f| f.rule == *id).count();
                format!("\"{id}\":{{\"findings\":{active},\"allowed\":{allowed}}}")
            })
            .collect();
        format!(
            "{{\"findings\":[{}],\"allowed\":[{}],\"rules\":{{{}}},\"counts\":{{\"findings\":{},\"allowed\":{},\"files_scanned\":{}}}}}",
            findings.join(","),
            allowed.join(","),
            rules.join(","),
            self.findings.len(),
            self.allowed.len(),
            self.files_scanned
        )
    }

    /// Human-readable output.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{} {}:{} {}\n", f.rule, f.file, f.line, f.message));
        }
        for f in &self.allowed {
            out.push_str(&format!(
                "allowed {} {}:{} {} [{}]\n",
                f.rule,
                f.file,
                f.line,
                f.message,
                f.allowed.as_deref().unwrap_or("")
            ));
        }
        out.push_str(&format!(
            "sempair-auditor: {} finding(s), {} allowlisted, {} file(s) scanned\n",
            self.findings.len(),
            self.allowed.len(),
            self.files_scanned
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        let f = Finding {
            rule: "R1-panic",
            file: "a\"b.rs".into(),
            line: 3,
            message: "uses `panic!`\nbadly".into(),
            allowed: None,
        };
        let json = finding_json(&f);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("\\n"));
    }

    #[test]
    fn inclusion_rules() {
        assert!(included("crates/core/src/wire.rs"));
        assert!(included("src/lib.rs"));
        assert!(included("shims/rand/src/lib.rs"));
        assert!(!included("shims/proptest/src/lib.rs"));
        assert!(!included("crates/auditor/src/lib.rs"));
        assert!(!included("crates/core/README.md"));
        assert!(!included("Cargo.toml"));
    }
}
