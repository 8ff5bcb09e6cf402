//! The traced layer pass, run after the timed window. For a sample of
//! the workload's own requests it calls each layer's public function in
//! the order the SEM does — `proto` decode, `core`, `pairing`, `field` —
//! recording one span per call under a per-request parent span, and it
//! times `store` appends and replay on scratch journals.

use crate::config::{FIELD_REPS, JOURNAL_RECORDS, SIZES, STORE_APPENDS};
use crate::drive::{Clock, Done};
use crate::inputs::{mix, Inputs};
use crate::stats::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::cache::SharedLru;
use sempair_core::gdh::GdhSem;
use sempair_core::mediated::Sem;
use sempair_field::miller::{final_exp, miller_projective};
use sempair_field::p512::{PAPER_CTX, PAPER_P, PAPER_R};
use sempair_field::FpW;
use sempair_net::proto::{self, PipelinedRequest, Response};
use sempair_net::store::{Journal, Record};
use sempair_pairing::{G1Affine, PreparedG1};
use std::path::Path;
use std::sync::Arc;

/// Replays of the pre-written journal timed by the store pass.
const REPLAYS: usize = 3;

/// A point's affine coordinates in the fixed-width field.
fn limbs_of(inputs: &Inputs, point: &G1Affine) -> (FpW<8>, FpW<8>) {
    let bytes = inputs.params.curve().point_to_uncompressed(point);
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

/// Runs the layer pass over `tokens` (a contiguous run of the
/// workload's token requests) and `signs` (its signing requests, or the
/// signing probes), returning the spans.
///
/// # Errors
///
/// A description of the first output the layers computed that
/// disagrees with what the SEM served, or of a scratch-journal failure.
pub fn layer_pass(
    inputs: &Inputs,
    tokens: &[&Done],
    signs: &[&Done],
    scratch: &Path,
    clock: &Clock,
    initially_revoked: &[bool],
) -> Result<Trace, String> {
    let curve = inputs.params.curve();
    if curve.modulus().limbs() != PAPER_P || curve.order().limbs() != PAPER_R {
        return Err("the curve is not the paper's 512/160 parameter set".into());
    }
    let cofactor = curve.cofactor().limbs().to_vec();
    let mut trace = Trace::default();

    // The SEM's state as the window began: every key, the boot-time
    // revocations, and a half-key cache warmed as the set-up warmed it.
    let mut sem = Sem::new();
    for key in &inputs.sem_keys {
        sem.install(key.clone());
    }
    for (i, &revoked) in initially_revoked.iter().enumerate() {
        if revoked {
            sem.revoke(&inputs.names[i]);
        }
    }
    let cache: SharedLru<String, Arc<PreparedG1>> = SharedLru::new(SIZES.cache_cap);
    let u0 =
        curve.mul_generator(&curve.random_scalar(&mut StdRng::seed_from_u64(mix(inputs.seed))));
    for rank in (0..SIZES.cache_cap).rev() {
        let _ = sem.decrypt_token_cached(&inputs.params, &inputs.names[rank], &u0, &cache);
    }
    let mut gdh = GdhSem::new();
    for key in &inputs.gdh_sem {
        gdh.install(key.clone());
    }

    for (k, d) in tokens.iter().enumerate() {
        let req = k as u64;
        let key_of = d.req.ident as usize % inputs.enrolled;
        let id = &inputs.names[d.req.ident as usize];
        let u = curve
            .point_from_bytes(inputs.u_for(d.req.ident))
            .map_err(|_| "undecodable U".to_string())?;
        let parent = trace.push("layer.token", clock.now(), 0, None, req);
        proto_roundtrip(inputs, d, &mut trace, clock, parent, req)?;

        let t = clock.now();
        let token = sem.decrypt_token_cached(&inputs.params, id, &u, &cache);
        trace.push("core.token", t, clock.now(), Some(parent), req);
        if let (Ok(token), Some(proto::Status::Ok)) = (&token, d.status) {
            if curve.gt_to_bytes(&token.0) != d.body {
                return Err(format!("core token for {id} differs from the served one"));
            }
        }

        let d_sem = &inputs.sem_keys[key_of].point;
        let t = clock.now();
        let in_group = curve.is_in_group(&u);
        trace.push("pairing.is_in_group", t, clock.now(), Some(parent), req);
        let t = clock.now();
        let prep = curve.prepare_g1(d_sem);
        trace.push("pairing.prepare_g1", t, clock.now(), Some(parent), req);
        let t = clock.now();
        let gt = curve.pairing_prepared(&prep, &u);
        trace.push(
            "pairing.pairing_prepared",
            t,
            clock.now(),
            Some(parent),
            req,
        );

        let (px, py) = limbs_of(inputs, d_sem);
        let (qx, qy) = limbs_of(inputs, &u);
        let t = clock.now();
        let m = miller_projective(&PAPER_CTX, &PAPER_R, (&px, &py), (&qx, &qy));
        trace.push("field.miller", t, clock.now(), Some(parent), req);
        let t = clock.now();
        let e = final_exp(&PAPER_CTX, &cofactor, &m);
        trace.push("field.final_exp", t, clock.now(), Some(parent), req);
        let mut x = qx;
        let t = clock.now();
        for _ in 0..FIELD_REPS {
            x = PAPER_CTX.mul(&x, &qy);
        }
        trace.push("field.fp_mul", t, clock.now(), Some(parent), req);
        let t = clock.now();
        for _ in 0..FIELD_REPS {
            x = PAPER_CTX.sqr(&x);
        }
        trace.push("field.fp_sqr", t, clock.now(), Some(parent), req);
        std::hint::black_box((in_group, gt, e, x));
        trace.close(parent, clock.now());
    }

    let mut scalars = StdRng::seed_from_u64(mix(inputs.seed ^ 0x5164));
    for (k, d) in signs.iter().enumerate() {
        let req = (1 << 32) | k as u64;
        let id = &inputs.signers[d.req.ident as usize];
        let message = inputs.message(d.req.msg);
        let parent = trace.push("layer.sign", clock.now(), 0, None, req);
        proto_roundtrip(inputs, d, &mut trace, clock, parent, req)?;
        let t = clock.now();
        let half = gdh.half_sign(curve, id, &message);
        trace.push("core.half_sign", t, clock.now(), Some(parent), req);
        if let (Ok(half), Some(proto::Status::Ok)) = (&half, d.status) {
            if curve.point_to_bytes(&half.0) != d.body {
                return Err(format!(
                    "core half-signature by {id} differs from the served one"
                ));
            }
        }
        let t = clock.now();
        let h = curve.hash_to_g1(b"perfbench-layer", &message);
        trace.push("pairing.hash_to_g1", t, clock.now(), Some(parent), req);
        let scalar = curve.random_scalar(&mut scalars);
        let t = clock.now();
        let s = curve.mul(&scalar, &h);
        trace.push("pairing.mul", t, clock.now(), Some(parent), req);
        std::hint::black_box(s);
        trace.close(parent, clock.now());
    }

    store_pass(inputs, scratch, clock, &mut trace).map_err(|e| format!("scratch journal: {e}"))?;
    Ok(trace)
}

/// Encodes and decodes the request and its reply as the wire carries
/// them (pipelined envelope inside a length-prefixed frame).
fn proto_roundtrip(
    inputs: &Inputs,
    d: &Done,
    trace: &mut Trace,
    clock: &Clock,
    parent: usize,
    req: u64,
) -> Result<(), String> {
    let envelope = PipelinedRequest {
        session: 1,
        req_id: req,
        inner: crate::drive::request(inputs, &d.req),
    };
    let reply = Response {
        status: d.status.unwrap_or(proto::Status::Overloaded),
        body: d.body.clone(),
    };
    let t = clock.now();
    let frame = proto::encode_pipelined_request(&envelope).map_err(|e| format!("encode: {e:?}"))?;
    let decoded = proto::decode_request(&frame[4..])
        .and_then(|outer| proto::decode_pipelined_body(&outer.body));
    let reply_frame = proto::encode_pipelined_response(req, &reply);
    let decoded_reply = proto::decode_response(&reply_frame[4..])
        .and_then(|outer| proto::decode_pipelined_reply(&outer.body));
    trace.push("proto.roundtrip", t, clock.now(), Some(parent), req);
    if decoded.as_ref() != Some(&envelope) || decoded_reply != Some((req, reply)) {
        return Err("proto round trip changed a frame".into());
    }
    Ok(())
}

/// Times `Journal::append` on a scratch journal and `Journal::open`
/// (replay) of the workload's pre-written journal.
fn store_pass(
    inputs: &Inputs,
    scratch: &Path,
    clock: &Clock,
    trace: &mut Trace,
) -> std::io::Result<()> {
    let (mut journal, _) = Journal::open(scratch.join("append.log"))?;
    for i in 0..STORE_APPENDS {
        let record = Record::Revoke(inputs.names[i % inputs.names.len()].clone());
        let t = clock.now();
        journal.append(&record)?;
        trace.push("store.append", t, clock.now(), None, i as u64);
    }
    let path = scratch.join("replay.log");
    for i in 0..REPLAYS {
        std::fs::write(&path, &inputs.journal)?;
        let t = clock.now();
        let (_, replayed) = Journal::open(&path)?;
        trace.push("store.replay", t, clock.now(), None, i as u64);
        if replayed.records != JOURNAL_RECORDS {
            return Err(std::io::Error::other("replay lost records"));
        }
    }
    Ok(())
}
