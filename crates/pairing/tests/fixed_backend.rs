//! Differential tests: the fixed-width backend must produce results
//! identical to the bigint reference on every public pairing-crate
//! operation, over both built-in parameter sets.
//!
//! Each test builds two copies of the same `CurveParams` — one with
//! the fixed backend active (the default for any modulus ≤ 8 limbs)
//! and one forced onto the bigint path — and drives both with the
//! same inputs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bigint::BigUint;
use sempair_pairing::{CurveParams, G1Affine, MillerStrategy};

/// Both-backend copies of a parameter set, plus a deterministic RNG.
fn both(make: fn() -> CurveParams, seed: u64) -> (CurveParams, CurveParams, StdRng) {
    let fast = make();
    assert!(
        fast.fp().has_fixed_backend(),
        "built-in params should activate the fixed backend"
    );
    let mut slow = make();
    slow.force_bigint_backend();
    assert!(!slow.fp().has_fixed_backend());
    (fast, slow, StdRng::seed_from_u64(seed))
}

fn random_points(prm: &CurveParams, rng: &mut StdRng, n: usize) -> Vec<G1Affine> {
    (0..n)
        .map(|_| prm.mul_generator(&prm.random_scalar(rng)))
        .collect()
}

#[test]
fn scalar_mul_agrees_on_fast_params() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 1);
    for _ in 0..8 {
        let k = fast.random_scalar(&mut rng);
        let p = fast.mul_generator(&fast.random_scalar(&mut rng));
        assert_eq!(fast.mul(&k, &p), slow.mul(&k, &p));
        assert_eq!(fast.mul_generator(&k), slow.mul_generator_generic(&k));
    }
}

/// `k·P` by affine double-and-add over `CurveParams::add` — the E10
/// baseline, sharing no code with the w-NAF kernel.
fn affine_chain(prm: &CurveParams, k: &BigUint, p: &G1Affine) -> G1Affine {
    let mut acc = G1Affine::infinity();
    for i in (0..k.bits()).rev() {
        acc = prm.add(&acc, &acc.clone());
        if k.bit(i) {
            acc = prm.add(&acc, p);
        }
    }
    acc
}

#[test]
fn scalar_mul_agrees_on_paper_params() {
    let (fast, slow, mut rng) = both(CurveParams::paper_default, 2);
    for _ in 0..3 {
        let k = fast.random_scalar(&mut rng);
        let p = fast.mul_generator(&fast.random_scalar(&mut rng));
        assert_eq!(fast.mul(&k, &p), slow.mul(&k, &p));
        assert_eq!(fast.mul_generator(&k), slow.mul_generator_generic(&k));
    }
    // Both backends run the same kernel, so edge scalars are also
    // checked against an independent chain: single windows, window
    // carries, the group order's neighbours, the cofactor, the
    // extremes of the 160-bit range, and three full limbs of ones (a
    // digit carried past the top limb). The hashed point is not a
    // known multiple of the generator.
    let one = BigUint::one();
    let r = fast.order();
    let mut scalars: Vec<BigUint> = [0u64, 1, 2, 15, 16, 17, 31, 32, 33]
        .into_iter()
        .map(BigUint::from)
        .collect();
    scalars.extend([
        r - &one,
        r.clone(),
        r + &one,
        fast.cofactor().clone(),
        &one << 159,
        &(&one << 160) - &one,
        &(&one << 192) - &one,
    ]);
    let points = [
        fast.mul_generator(&fast.random_scalar(&mut rng)),
        fast.hash_to_g1(b"fixed_backend", b"edge scalars"),
    ];
    for p in &points {
        for k in &scalars {
            let expect = affine_chain(&fast, k, p);
            assert_eq!(fast.mul(k, p), expect, "k={k:?}");
            assert_eq!(slow.mul(k, p), expect, "k={k:?}");
        }
    }
}

#[test]
fn multi_mul_agrees() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 3);
    for n in [1usize, 2, 5, 9] {
        let terms: Vec<_> = (0..n)
            .map(|_| {
                (
                    fast.random_scalar(&mut rng),
                    fast.mul_generator(&fast.random_scalar(&mut rng)),
                )
            })
            .collect();
        assert_eq!(fast.multi_mul(&terms), slow.multi_mul(&terms), "n={n}");
    }
}

#[test]
fn pairing_agrees_both_strategies() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 4);
    let pts = random_points(&fast, &mut rng, 3);
    for p in &pts {
        for q in &pts {
            for s in [MillerStrategy::Affine, MillerStrategy::Projective] {
                assert_eq!(
                    fast.pairing_with_strategy(p, q, s),
                    slow.pairing_with_strategy(p, q, s),
                    "strategy {s:?}"
                );
            }
        }
    }
}

#[test]
fn pairing_agrees_on_paper_params() {
    let (fast, slow, mut rng) = both(CurveParams::paper_default, 5);
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let q = fast.mul_generator(&fast.random_scalar(&mut rng));
    let e = fast.pairing(&p, &q);
    assert_eq!(e, slow.pairing(&p, &q));
    // Sanity: non-degenerate.
    assert!(!fast.gt_is_one(&e));
}

#[test]
fn multi_pairing_agrees() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 6);
    let pts = random_points(&fast, &mut rng, 6);
    let inf = G1Affine::infinity();
    let shapes: Vec<Vec<(&G1Affine, &G1Affine)>> = vec![
        vec![],
        vec![(&pts[0], &pts[1])],
        vec![(&pts[0], &pts[1]), (&pts[2], &pts[3])],
        vec![(&pts[0], &pts[1]), (&inf, &pts[2]), (&pts[3], &pts[4])],
        pts.iter().map(|p| (p, &pts[5])).collect(),
    ];
    for (i, pairs) in shapes.iter().enumerate() {
        assert_eq!(
            fast.multi_pairing(pairs),
            slow.multi_pairing(pairs),
            "shape {i}"
        );
    }
}

#[test]
fn prepared_pairing_agrees_across_backends() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 7);
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let q = fast.mul_generator(&fast.random_scalar(&mut rng));
    let expect = slow.pairing(&p, &q);

    // Prepared on the fixed backend, replayed on both.
    let prep_fast = fast.prepare_g1(&p);
    assert_eq!(fast.pairing_prepared(&prep_fast, &q), expect);
    assert_eq!(slow.pairing_prepared(&prep_fast, &q), expect);

    // Prepared on the bigint backend, replayed on both (no fixed
    // steps cached — the fast context must fall back cleanly).
    let prep_slow = slow.prepare_g1(&p);
    assert_eq!(fast.pairing_prepared(&prep_slow, &q), expect);
    assert_eq!(slow.pairing_prepared(&prep_slow, &q), expect);
}

#[test]
fn multi_prepared_agrees() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 8);
    let pts = random_points(&fast, &mut rng, 4);
    let preps: Vec<_> = pts.iter().map(|p| fast.prepare_g1(p)).collect();
    let pairs: Vec<_> = preps.iter().zip(pts.iter().rev()).collect();
    let expect = slow.multi_pairing(&pts.iter().zip(pts.iter().rev()).collect::<Vec<_>>());
    assert_eq!(fast.multi_pairing_prepared(&pairs), expect);
    assert_eq!(slow.multi_pairing_prepared(&pairs), expect);
}

#[test]
fn bilinearity_holds_on_fixed_backend() {
    let (fast, _, mut rng) = both(CurveParams::fast_insecure, 9);
    let g = fast.generator().clone();
    let a = fast.random_scalar(&mut rng);
    let b = fast.random_scalar(&mut rng);
    let lhs = fast.pairing(&fast.mul(&a, &g), &fast.mul(&b, &g));
    let ab = fast.gt_pow(&fast.pairing(&g, &g), &(&a * &b));
    assert_eq!(lhs, ab);
}

#[test]
fn gt_and_hash_paths_agree() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 10);
    // hash_to_g1 runs sqrt / pow in Fp; the fixed backend must land
    // on the same points.
    for tag in [b"tag-a".as_slice(), b"tag-b".as_slice()] {
        let h_fast = fast.hash_to_g1(tag, b"identity");
        let h_slow = slow.hash_to_g1(tag, b"identity");
        assert_eq!(h_fast, h_slow);
    }
    // gt_pow / gt_inv route through Fp2 pow.
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let e = fast.pairing(&p, &p);
    let k = fast.random_scalar(&mut rng);
    assert_eq!(fast.gt_pow(&e, &k), slow.gt_pow(&e, &k));
    assert_eq!(fast.gt_inv(&e), slow.gt_inv(&e));
}

#[test]
fn pairing_equals_agrees() {
    let (fast, slow, mut rng) = both(CurveParams::fast_insecure, 11);
    let g = fast.generator().clone();
    let k = fast.random_scalar(&mut rng);
    let kg = fast.mul_generator(&k);
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let kp = fast.mul(&k, &p);
    // ê(kG, P) == ê(G, kP) — true on both backends.
    assert!(fast.pairing_equals(&kg, &p, &g, &kp));
    assert!(slow.pairing_equals(&kg, &p, &g, &kp));
    // And a false case stays false.
    let wrong = fast.add(&kp, &g);
    assert!(!fast.pairing_equals(&kg, &p, &g, &wrong));
    assert!(!slow.pairing_equals(&kg, &p, &g, &wrong));
}
