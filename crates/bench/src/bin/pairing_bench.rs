//! Pairing-path microbenchmarks on the paper's 512-bit parameters:
//! the fixed-width backend against the bigint reference, and the
//! kernels one pairing, subgroup check and hash-to-point are made of.
//!
//! Run with `cargo run --release -p sempair-bench --bin pairing_bench`.
//! Prints a markdown summary to stdout and writes `BENCH_pairing.json`
//! to the current directory with a stable schema:
//!
//! ```json
//! {
//!   "schema": "sempair-bench-pairing/2",
//!   "params": "paper_512_160",
//!   "results": [{"name": "...", "median_us": 0.0, "min_us": 0.0, "iters": 0}],
//!   "speedups": {"pairing_single": 0.0, "gdh_batch_verify_32": 0.0}
//! }
//! ```
//!
//! `results` names are append-only; `speedups` keys are the two
//! acceptance targets (single pairing ≥ 5×, 32-signature GDH batch
//! ≥ 8×). Schema `/2` adds the kernel rows, all on the fixed backend:
//! `fp_mul` and `fp_inv` (per operation), `scalar_mul_160` (`k·P` for
//! a random `k < r`), `cofactor_mul` (the ≈ 352-bit clearing inside
//! `hash_to_g1`), `is_in_group`, `hash_to_g1`, and one pairing split
//! into `miller` (projective loop) and `final_exp`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bench::report::{markdown_table, time, Timing};
use sempair_core::gdh;
use sempair_field::miller;
use sempair_field::p512::{PAPER_CTX, PAPER_P, PAPER_R};
use sempair_field::FpW;
use sempair_pairing::{CurveParams, G1Affine};
use std::time::Duration;

struct Entry {
    name: &'static str,
    timing: Timing,
}

fn record(results: &mut Vec<Entry>, name: &'static str, timing: Timing) -> Timing {
    results.push(Entry { name, timing });
    timing
}

/// Records a timing of `reps` back-to-back operations as per-operation
/// figures.
fn record_per_op(results: &mut Vec<Entry>, name: &'static str, timing: Timing, reps: u32) {
    let per_op = |d: Duration| d / reps;
    let timing = Timing {
        median: per_op(timing.median),
        min: per_op(timing.min),
        iters: timing.iters,
    };
    record(results, name, timing);
}

/// A point's affine coordinates as fixed-width Montgomery elements.
fn fixed_coords(prm: &CurveParams, point: &G1Affine) -> (FpW<8>, FpW<8>) {
    let bytes = prm.point_to_uncompressed(point);
    let coord = |half: &[u8]| {
        let mut limbs = [0u64; 8];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let at = (7 - i) * 8;
            *limb = u64::from_be_bytes(half[at..at + 8].try_into().expect("8-byte limb"));
        }
        PAPER_CTX.to_mont(&limbs)
    };
    (coord(&bytes[..64]), coord(&bytes[64..]))
}

fn main() {
    let fast = CurveParams::paper_default();
    assert!(
        fast.fp().has_fixed_backend(),
        "paper params must activate the fixed-width backend"
    );
    let mut slow = CurveParams::paper_default();
    slow.force_bigint_backend();

    let mut rng = StdRng::seed_from_u64(20030725);
    let mut results: Vec<Entry> = Vec::new();

    // Shared inputs (generated on the fast context; points are
    // backend-independent).
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let q = fast.mul_generator(&fast.random_scalar(&mut rng));
    let pts: Vec<(G1Affine, G1Affine)> = (0..8)
        .map(|_| {
            (
                fast.mul_generator(&fast.random_scalar(&mut rng)),
                fast.mul_generator(&fast.random_scalar(&mut rng)),
            )
        })
        .collect();
    let pairs: Vec<(&G1Affine, &G1Affine)> = pts.iter().map(|(a, b)| (a, b)).collect();

    // --- single pairing --------------------------------------------------
    let single_new = record(
        &mut results,
        "pairing_single_fixed",
        time(3, 15, || fast.pairing(&p, &q)),
    );
    let single_old = record(
        &mut results,
        "pairing_single_bigint",
        time(1, 9, || slow.pairing(&p, &q)),
    );

    // --- prepared pairing (fixed first argument) -------------------------
    let prep = fast.prepare_g1(&p);
    let prepared_new = record(
        &mut results,
        "pairing_prepared_fixed",
        time(3, 15, || fast.pairing_prepared(&prep, &q)),
    );

    // --- 8-way multi-pairing vs 8 singles --------------------------------
    let multi_new = record(
        &mut results,
        "multi_pairing_8_fixed",
        time(2, 9, || fast.multi_pairing(&pairs)),
    );
    let eight_singles = record(
        &mut results,
        "pairing_8_singles_fixed",
        time(1, 9, || {
            let mut acc = fast.gt_one();
            for (a, b) in &pairs {
                acc = fast.gt_mul(&acc, &fast.pairing(a, b));
            }
            acc
        }),
    );

    // --- 32-signature GDH batch verification -----------------------------
    let (sk, pk) = gdh::keygen(&mut rng, &fast);
    let messages: Vec<Vec<u8>> = (0..32u32)
        .map(|i| format!("benchmark message {i}").into_bytes())
        .collect();
    let sigs: Vec<gdh::Signature> = messages.iter().map(|m| gdh::sign(&fast, &sk, m)).collect();
    let entries: Vec<(&[u8], &gdh::Signature)> = messages
        .iter()
        .map(Vec::as_slice)
        .zip(sigs.iter())
        .collect();
    let batch_new = record(
        &mut results,
        "gdh_batch_verify_32_fixed",
        time(1, 9, || gdh::batch_verify(&fast, &pk, &entries).unwrap()),
    );
    let batch_old = record(
        &mut results,
        "gdh_batch_verify_32_bigint",
        time(1, 5, || gdh::batch_verify(&slow, &pk, &entries).unwrap()),
    );
    // The batch acceptance target compares against the pre-batch shape:
    // 32 individual verifications, one pairing equation each.
    let indiv_new = record(
        &mut results,
        "gdh_verify_32_individual_fixed",
        time(1, 5, || {
            for (m, s) in &entries {
                gdh::verify(&fast, &pk, m, s).unwrap();
            }
        }),
    );
    let indiv_old = record(
        &mut results,
        "gdh_verify_32_individual_bigint",
        time(0, 3, || {
            for (m, s) in &entries {
                gdh::verify(&slow, &pk, m, s).unwrap();
            }
        }),
    );

    // --- kernels (fixed backend) -------------------------------------------
    assert!(
        fast.modulus().limbs() == PAPER_P && fast.order().limbs() == PAPER_R,
        "paper params must match the field crate's constant context"
    );
    let f = PAPER_CTX;
    let (px, py) = fixed_coords(&fast, &p);
    let (qx, qy) = fixed_coords(&fast, &q);
    const FIELD_REPS: u32 = 1000;
    let fp_mul = time(3, 15, || {
        let mut x = px;
        for _ in 0..FIELD_REPS {
            x = f.mul(&x, &qy);
        }
        x
    });
    record_per_op(&mut results, "fp_mul", fp_mul, FIELD_REPS);
    const INV_REPS: u32 = 20;
    let fp_inv = time(3, 15, || {
        let mut x = px;
        for _ in 0..INV_REPS {
            x = f.inv(&x).expect("nonzero");
        }
        x
    });
    record_per_op(&mut results, "fp_inv", fp_inv, INV_REPS);
    let k = fast.random_scalar(&mut rng);
    record(
        &mut results,
        "scalar_mul_160",
        time(3, 15, || fast.mul(&k, &p)),
    );
    let candidate = fast.hash_to_g1_candidate(b"pairing_bench", b"cofactor");
    record(
        &mut results,
        "cofactor_mul",
        time(3, 15, || fast.mul(fast.cofactor(), &candidate)),
    );
    record(
        &mut results,
        "is_in_group",
        time(3, 15, || fast.is_in_group(&p)),
    );
    record(
        &mut results,
        "hash_to_g1",
        time(3, 15, || {
            fast.hash_to_g1(b"pairing_bench", b"alice@example.com")
        }),
    );
    let m = miller::miller_projective(&f, &PAPER_R, (&px, &py), (&qx, &qy));
    record(
        &mut results,
        "miller",
        time(3, 15, || {
            miller::miller_projective(&f, &PAPER_R, (&px, &py), (&qx, &qy))
        }),
    );
    record(
        &mut results,
        "final_exp",
        time(3, 15, || miller::final_exp(&f, fast.cofactor().limbs(), &m)),
    );

    // --- summary ---------------------------------------------------------
    // The issue's single-pairing target is stated against the recorded
    // seed baseline (EXPERIMENTS.md E5: 5.3 ms per pairing at 512-bit
    // p, measured before the shared Miller kernels landed). The live
    // bigint backend on this machine also benefits from the kernel
    // rewrite, so both ratios are reported.
    const RECORDED_BASELINE_US: f64 = 5300.0;
    let single_speedup = RECORDED_BASELINE_US / single_new.micros();
    let single_live_speedup = single_old.micros() / single_new.micros();
    // Batch target: new batch path vs the old shape (individual
    // verifies on the bigint backend); same-backend ratio alongside.
    let batch_speedup = indiv_old.micros() / batch_new.micros();
    let batch_live_speedup = indiv_new.micros() / batch_new.micros();
    let batch_backend_speedup = batch_old.micros() / batch_new.micros();

    println!("# pairing benchmark (paper_512_160)\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("{:.3}", e.timing.micros()),
                format!("{:.3}", e.timing.min.as_secs_f64() * 1e6),
                e.timing.iters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["benchmark", "median (µs)", "min (µs)", "iters"], &rows)
    );
    println!(
        "single pairing speedup vs recorded 5.3 ms baseline: {single_speedup:.1}x (target >= 5x)"
    );
    println!("single pairing speedup vs live bigint backend: {single_live_speedup:.1}x");
    println!(
        "32-sig GDH batch vs 32 individual bigint verifies: {batch_speedup:.1}x (target >= 8x)"
    );
    println!(
        "32-sig GDH batch vs 32 individual fixed verifies: {batch_live_speedup:.1}x; \
         vs bigint batch: {batch_backend_speedup:.1}x"
    );
    println!(
        "prepared vs single: {:.1}x, multi(8) vs 8 singles: {:.1}x",
        single_new.micros() / prepared_new.micros(),
        eight_singles.micros() / multi_new.micros()
    );

    // --- JSON artifact ---------------------------------------------------
    let mut json = String::from("{\n  \"schema\": \"sempair-bench-pairing/2\",\n");
    json.push_str("  \"params\": \"paper_512_160\",\n  \"results\": [\n");
    for (i, e) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_us\": {:.3}, \"min_us\": {:.3}, \"iters\": {}}}{}\n",
            e.name,
            e.timing.micros(),
            e.timing.min.as_secs_f64() * 1e6,
            e.timing.iters,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recorded_baseline\": {{\"pairing_single_us\": {RECORDED_BASELINE_US:.1}, \"source\": \"EXPERIMENTS.md E5 seed measurement\"}},\n"
    ));
    json.push_str("  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"pairing_single\": {single_speedup:.2},\n    \"pairing_single_vs_live_bigint\": {single_live_speedup:.2},\n    \"gdh_batch_verify_32\": {batch_speedup:.2},\n    \"gdh_batch_vs_individual_fixed\": {batch_live_speedup:.2},\n    \"gdh_batch_vs_bigint_batch\": {batch_backend_speedup:.2}\n"
    ));
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_pairing.json", &json).expect("write BENCH_pairing.json");
    eprintln!("wrote BENCH_pairing.json");
}
