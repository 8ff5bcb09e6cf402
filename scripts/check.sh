#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc, tier-1 build + tests.
#
# Run from anywhere; everything executes at the workspace root. This is
# what CI (and the next contributor) should run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all --check"
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc: a deleted item must not leave intra-doc links behind that
# point at nothing, so every rustdoc warning fails the gate.
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Static analysis (DESIGN.md §11, §16): panic-freedom in request
# paths, secret hygiene, untrusted-length bounds, constant-time
# equality, lock discipline. Fails on any non-allowlisted finding; the
# summary line keeps the allowlist size visible so it cannot silently
# grow. The JSON artifact is asserted to carry an R5-lock rule entry
# so the lock-discipline rule can never silently drop out of the scan.
echo "== sempair-auditor (static analysis gate, writes AUDIT_report.json)"
cargo run -q -p sempair-auditor
cargo run -q -p sempair-auditor -- --json > AUDIT_report.json \
  || { cat AUDIT_report.json >&2; rm -f AUDIT_report.json; exit 1; }
grep -q '"R5-lock"' AUDIT_report.json \
  || { echo "auditor rule summary is missing R5-lock" >&2; exit 1; }

echo "== tier-1: cargo build --release"
cargo build --release

# Every test binary must register each test name once. A test harness
# macro that emits its own #[test] on top of the written one registers
# every property twice, and the two copies race on shared temp paths.
echo "== test registration: no test binary lists a name twice"
dup_found=0
while IFS= read -r bin; do
  dups="$("$bin" --list --format terse | { grep ': test$' || true; } | sort | uniq -d)"
  if [ -n "$dups" ]; then
    echo "duplicate test names in $bin:" >&2
    echo "$dups" >&2
    dup_found=1
  fi
done < <(cargo test --workspace --no-run --message-format=json 2>/dev/null \
  | grep '"profile":{[^}]*"test":true}' | grep -o '"executable":"[^"]*"' | sed 's/^"executable":"//; s/"$//')
[ "$dup_found" = 0 ] || exit 1

echo "== tier-1: cargo test -q (workspace minus network crate)"
cargo test -q --workspace --exclude sempair-net

# Pairing perf trajectory: one JSON artifact per run, stable schema
# (sempair-bench-pairing/2: end-to-end rows plus per-kernel rows),
# written to the repo root so the number trail survives per PR. ~1 min:
# it times the bigint reference too.
echo "== pairing benchmark (writes BENCH_pairing.json)"
cargo run --release -q -p sempair-bench --bin pairing_bench
grep -q '"schema": "sempair-bench-pairing/2"' BENCH_pairing.json \
  || { echo "BENCH_pairing.json is not schema sempair-bench-pairing/2" >&2; exit 1; }

# Serving perf trajectory (sempair-bench-serving/2): pipelined vs
# single-in-flight throughput, tail latency under a one-shard
# revocation storm, and the precompute-tier cache sweep. Smoke mode
# keeps this a short load test; the acceptance ratios are recorded in
# the JSON, not asserted, so a loaded host cannot flake the gate. What
# IS asserted is structure: the artifact carries the v2 schema (the
# cache sweep exists), and the live stats op exposed the sem_cache_*
# counter series — both break on code regressions, not on load.
echo "== serving benchmark smoke (writes BENCH_serving.json)"
serving_log="$(mktemp)"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --bin serving_bench -- --smoke \
  | tee "$serving_log"
grep -q '"schema": "sempair-bench-serving/2"' BENCH_serving.json \
  || { echo "BENCH_serving.json is not schema sempair-bench-serving/2" >&2; exit 1; }
grep -q '^sem_cache_hits_total{cache="half_key"}' "$serving_log" \
  || { echo "serving smoke exposed no sem_cache_* counters over the stats op" >&2; exit 1; }
rm -f "$serving_log"

# Scenario suite smoke (sempair-bench-scenarios/2): the four scripted
# chaos scenarios (revocation storm, incremental epoch rollover under
# load, replica kill/rejoin, flaky mobile clients) graded against
# their SLO specs. Timing margins are recorded; the runner itself
# exits nonzero only on a deterministic-SLO violation (duplicate
# execution, cheat event, busted error budget) — a correctness bug,
# not load flake. The schema assertion catches artifact regressions.
echo "== scenario suite smoke (writes BENCH_scenarios.json)"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --bin scenario_bench -- --smoke
grep -q '"schema": "sempair-bench-scenarios/2"' BENCH_scenarios.json \
  || { echo "BENCH_scenarios.json is not schema sempair-bench-scenarios/2" >&2; exit 1; }

# Journal crash-consistency matrix: every truncation offset and every
# single-bit flip of a journal holding one record of each kind must
# replay a prefix of what was written or refuse with the file untouched
# (a mid-log bit flip must never un-revoke anyone). Named on its own so
# a regression is reported as a journal bug, not a generic failure.
echo "== journal crash-consistency matrix"
cargo test -q -p sempair-net --lib store::

# The bounded-observability suite soaks the audit ring past 100k
# records and pulls metrics over live sockets; run it first and alone
# so a regression in the bounds (or a wedged stats handler) is named
# directly instead of drowning in the full suite.
echo "== tier-1: cargo test -q -p sempair-net --test metrics (under hard timeout)"
timeout --kill-after=10s 120s cargo test -q -p sempair-net --test metrics

# The cluster chaos suite kills/restarts replicas mid-workload and
# drives a 1000-request quorum scenario with crashes plus a byzantine
# replica (~45 s normally). It gets its own hard timeout so a wedged
# failover (a hung hedging wave, a journal replay that never returns)
# is named directly.
echo "== tier-1: cargo test -q -p sempair-net --test cluster (under hard timeout)"
timeout --kill-after=10s 240s cargo test -q -p sempair-net --test cluster

# The network crate opens real sockets; a reintroduced hang (a handler
# that never honors its deadline, a drain that never joins) must fail
# the gate fast instead of wedging it. `timeout` kills the whole test
# run well above its normal wall time (now dominated by the chaos
# suite re-run).
echo "== tier-1: cargo test -q -p sempair-net (under hard timeout)"
timeout --kill-after=10s 480s cargo test -q -p sempair-net

# Lock-order verification (DESIGN.md §16): the whole sem-net suite and
# the scenario smoke again with the runtime lockdep layer compiled in.
# Every TrackedMutex/TrackedRwLock acquisition is checked against the
# declared class ranks and the observed acquired-before graph; the
# scenario SLO specs carry a hard-zero lockdep_violations margin, so a
# single inversion anywhere in the serving paths fails this stage.
echo "== lockdep: cargo test -q -p sempair-net --features lockdep (under hard timeout)"
timeout --kill-after=10s 480s cargo test -q -p sempair-net --features lockdep

echo "== lockdep: scenario suite smoke with runtime verification"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --features lockdep \
  --bin scenario_bench -- --smoke
grep -q '"schema": "sempair-bench-scenarios/2"' BENCH_scenarios.json \
  || { echo "BENCH_scenarios.json is not schema sempair-bench-scenarios/2" >&2; exit 1; }

echo "ALL CHECKS PASSED"
