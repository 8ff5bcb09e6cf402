//! The acceptance gate, as a test: auditing the actual repository must
//! produce zero active findings. Allowlisted findings are tolerated but
//! bounded, so the escape hatch cannot silently become the norm.

#[test]
fn repository_has_no_active_findings() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // A scoped file that was deleted or renamed would silently drop
    // out of R1 (no-panic), R3 (bounds) or R5 (lock discipline).
    for path in sempair_auditor::PANIC_SCOPE
        .iter()
        .chain(sempair_auditor::BOUND_SCOPE)
        .chain(sempair_auditor::LOCK_SCOPE)
    {
        assert!(
            root.join(path).is_file(),
            "scoped path {path} does not exist"
        );
    }
    let report = sempair_auditor::audit_workspace(&root);
    assert!(
        report.files_scanned >= 20,
        "walk looks broken: only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "active findings in the workspace:\n{}",
        report.to_text()
    );
    // Every audit:allow escape has been rewritten fallibly; the
    // allowlist is empty and must stay that way — a new entry needs a
    // PR-level justification, not a comment.
    assert!(
        report.allowed.is_empty(),
        "allowlist has grown to {} entries — rewrite fallibly instead:\n{}",
        report.allowed.len(),
        report.to_text()
    );
}

/// The auditor's [`sempair_auditor::rules::LOCK_CLASSES`] table is a
/// deliberate duplicate of the runtime registry in
/// `crates/core/src/lockdep.rs` (the auditor must not depend on core).
/// Parse the real `rank()` match arms out of the source and assert the
/// two tables agree exactly, so they cannot drift apart silently.
#[test]
fn auditor_lock_class_table_matches_core_registry() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/src/lockdep.rs");
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    // Arms look like `LockClass::Warm => 4,` — one per line by
    // convention (enforced here: a reformat that breaks parsing fails
    // this test rather than silently shrinking the parsed table). The
    // scan is scoped to the body of `fn rank` so the private `index()`
    // match (which also maps variants to integers) is not picked up.
    let mut core_table = Vec::new();
    let mut in_rank = false;
    for line in src.lines() {
        let code = line.split("//").next().unwrap_or("").trim();
        if code.contains("fn rank") {
            in_rank = true;
            continue;
        }
        if !in_rank {
            continue;
        }
        let Some(rest) = code.strip_prefix("LockClass::") else {
            if code.starts_with('}') && !core_table.is_empty() {
                break;
            }
            continue;
        };
        let Some((name, rank)) = rest.split_once("=>") else {
            continue;
        };
        let Ok(rank) = rank.trim().trim_end_matches(',').parse::<u8>() else {
            continue;
        };
        core_table.push((name.trim().to_string(), rank));
    }
    core_table.sort();
    let mut auditor_table: Vec<(String, u8)> = sempair_auditor::rules::LOCK_CLASSES
        .iter()
        .map(|&(n, r)| (n.to_string(), r))
        .collect();
    auditor_table.sort();
    assert!(
        core_table.len() >= 10,
        "parsed only {} rank arms from {} — parser or registry broke",
        core_table.len(),
        path.display()
    );
    assert_eq!(
        core_table, auditor_table,
        "auditor LOCK_CLASSES drifted from the core lockdep registry"
    );
}
