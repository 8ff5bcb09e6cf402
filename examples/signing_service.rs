//! A corporate signing service built on the mediated GDH signature (§5).
//!
//! Run with `cargo run --release --example signing_service`.
//!
//! Employees sign documents through the company SEM, which enforces the
//! revocation policy per signature. Signatures are single short group
//! elements; verification works with the standard GDH equation, so
//! *verifiers never know a SEM exists* (the transparency §1 highlights).
//! Also demonstrates Boldyreva's threshold GDH for the board of
//! directors (3-of-5 countersignature).

use rand::SeedableRng;
use sempair::core::bf_ibe::Pkg;
use sempair::core::gdh::{self, GdhSem, ThresholdGdh};
use sempair::net::tcp::{TcpSemClient, TcpSemServer};
use sempair::pairing::CurveParams;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5005);
    let curve = CurveParams::fast_insecure();

    println!("== Employee signing through the SEM ==");
    let (erin, erin_sem, erin_pk) = gdh::mediated_keygen(&mut rng, &curve, "erin");
    let mut sem = GdhSem::new();
    sem.install(erin_sem);

    let contract = b"SOW-2026-07: 120kEUR, net 30";
    let half = sem.half_sign(&curve, "erin", contract).expect("SEM half");
    let sig = erin.finish_sign(&curve, contract, &half).expect("combine");
    println!(
        "signature: {} bytes (one compressed point; an RSA-1024 signature is 128 bytes)",
        curve.point_to_bytes(&sig.0).len()
    );

    // The customer verifies with plain BLS — no SEM in sight.
    gdh::verify(&curve, &erin_pk, contract, &sig).expect("verifies");
    println!("customer verified with the ordinary GDH equation");

    // Erin is off-boarded. Her signing power dies immediately.
    sem.revoke("erin");
    assert!(sem.half_sign(&curve, "erin", b"SOW-2026-08").is_err());
    println!("erin revoked: SEM refuses the very next half-signature");

    println!("\n== Board countersignature: (3, 5) threshold GDH ==");
    let (board, member_shares) = ThresholdGdh::setup(&mut rng, curve.clone(), 3, 5).expect("setup");
    let resolution = b"Resolution 17: approve SOW-2026-07";
    // Members 1, 3 and 5 are in the room.
    let partials: Vec<_> = [0usize, 2, 4]
        .iter()
        .map(|&i| board.partial_sign(&member_shares[i], resolution))
        .collect();
    for p in &partials {
        board.verify_partial(resolution, p).expect("partial valid");
    }
    let board_sig = board.combine(resolution, &partials).expect("combine");
    gdh::verify(&curve, board.public_key(), resolution, &board_sig).expect("board sig verifies");
    println!("3-of-5 board signature assembled and verified");

    println!("\n== The same service, fronted by the SEM daemon over TCP ==");
    let pkg = Pkg::setup(&mut rng, curve.clone());
    let server = TcpSemServer::bind("127.0.0.1:0", pkg.params().clone()).expect("bind SEM");
    let (frank, frank_sem, frank_pk) =
        gdh::mediated_keygen(&mut rng, pkg.params().curve(), "frank");
    server.install_gdh(frank_sem);
    let mut client =
        TcpSemClient::connect(server.local_addr(), pkg.params().clone()).expect("connect");
    let doc = b"expense report #99";
    let half = client.gdh_half_sign("frank", doc).expect("served");
    let sig = frank
        .finish_sign(pkg.params().curve(), doc, &half)
        .expect("combine");
    gdh::verify(pkg.params().curve(), &frank_pk, doc, &sig).expect("verifies");
    println!(
        "half-signature served by the SEM daemon at {} and verified",
        server.local_addr()
    );
    server.shutdown();

    println!("\nsigning_service completed successfully");
}
