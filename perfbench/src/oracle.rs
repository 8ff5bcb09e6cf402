//! The correctness oracle, run after the timed window. Every reply's
//! status must match the workload's revocation model; every ok token
//! must finish decrypting the identity's seeded ciphertext; every ok
//! half-signature must finish into a verifying signature; and no token
//! or signature may be served for a request sent after its identity's
//! `revoke()` returned and answered before the matching `unrevoke()`
//! started (the paper's instant-revocation claim).

use crate::drive::{AdminDone, Done};
use crate::inputs::Inputs;
use sempair_core::gdh::HalfSignature;
use sempair_core::mediated::DecryptToken;
use sempair_net::proto::Status;
use std::collections::HashMap;

/// What the oracle found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Replies checked (failures excluded).
    pub checked: usize,
    /// Replies whose status the model does not allow.
    pub status_mismatches: usize,
    /// Ok replies whose token or half-signature did not verify.
    pub bad_outputs: usize,
    /// Ok replies served while the identity was certainly revoked.
    pub served_after_revoke: usize,
    /// The first few problems, for the report.
    pub examples: Vec<String>,
}

impl Verdict {
    /// No mismatch of any kind.
    pub fn passed(&self) -> bool {
        self.status_mismatches == 0 && self.bad_outputs == 0 && self.served_after_revoke == 0
    }

    fn note(&mut self, what: String) {
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

/// Revocation states an identity may have been in while a request was
/// outstanding: the state after every call that returned before the
/// request was sent, then the state after each call that started
/// before its reply arrived.
pub fn possible_states(initial: bool, calls: &[AdminDone], sent: u64, recv: u64) -> Vec<bool> {
    let mut state = initial;
    let mut states = Vec::with_capacity(2);
    let mut rest = calls;
    while let Some((call, tail)) = rest.split_first() {
        if call.end > sent {
            break;
        }
        state = call.revoke;
        rest = tail;
    }
    states.push(state);
    for call in rest {
        if call.start >= recv {
            break;
        }
        states.push(call.revoke);
    }
    states
}

/// Checks every reply in `done` against the model. `calls` are the
/// admin calls in call order; `initially_revoked` is the state the SEM
/// booted with (all `false` for a SEM without a journal).
pub fn check(
    inputs: &Inputs,
    done: &[Done],
    calls: &[AdminDone],
    initially_revoked: &[bool],
) -> Verdict {
    let mut by_ident: HashMap<u32, Vec<AdminDone>> = HashMap::new();
    for call in calls {
        by_ident.entry(call.ident).or_default().push(*call);
    }
    let mut verdict = Verdict::default();
    let mut tokens: HashMap<u32, Vec<&Done>> = HashMap::new();
    let mut signatures = Vec::new();
    for d in done {
        let Some(status) = d.status else { continue };
        if status == Status::Overloaded {
            continue;
        }
        verdict.checked += 1;
        // Signers are the first enrolled names, so one index space
        // serves both kinds of request.
        let ident = d.req.ident;
        let enrolled = (ident as usize) < inputs.enrolled;
        let states = possible_states(
            initially_revoked[ident as usize],
            by_ident.get(&ident).map_or(&[], Vec::as_slice),
            d.sent,
            d.recv,
        );
        let expected = |revoked: bool| match (revoked, enrolled) {
            (true, _) => Status::Revoked,
            (false, true) => Status::Ok,
            (false, false) => Status::Unknown,
        };
        if !states.iter().any(|&s| expected(s) == status) {
            verdict.status_mismatches += 1;
            verdict.note(format!(
                "{} {}: status {status:?}, model allows {:?}",
                if d.req.sign { "sign" } else { "token" },
                inputs.names[ident as usize],
                states.iter().map(|&s| expected(s)).collect::<Vec<_>>()
            ));
        }
        if status == Status::Ok {
            if states.iter().all(|&s| s) {
                verdict.served_after_revoke += 1;
            }
            if d.req.sign {
                signatures.push(d);
            } else if enrolled {
                tokens.entry(ident).or_default().push(d);
            }
        }
    }

    // Verification costs pairings; spread it over two threads. Tokens
    // for one (identity, ciphertext) are deterministic, so each
    // identity's first ok token is verified in full and the rest must
    // equal it byte for byte (or verify in full themselves).
    let mut jobs: Vec<Job<'_>> = tokens
        .into_iter()
        .map(|(ident, group)| Job::Tokens(ident, group))
        .collect();
    jobs.extend(signatures.into_iter().map(Job::Signature));
    let verify = |parity: usize| -> Vec<String> {
        jobs.iter()
            .skip(parity)
            .step_by(2)
            .flat_map(|job| job.problems(inputs))
            .collect()
    };
    let problems = std::thread::scope(|scope| {
        let odd = scope.spawn(|| verify(1));
        let mut problems = verify(0);
        problems.extend(odd.join().expect("verification thread"));
        problems
    });
    for what in problems {
        verdict.bad_outputs += 1;
        verdict.note(what);
    }
    verdict
}

/// One unit of output verification.
enum Job<'a> {
    /// Every ok token served for one identity.
    Tokens(u32, Vec<&'a Done>),
    /// One ok half-signature.
    Signature(&'a Done),
}

impl Job<'_> {
    fn problems(&self, inputs: &Inputs) -> Vec<String> {
        match self {
            Job::Tokens(ident, group) => {
                let mut verified: Option<&[u8]> = None;
                let mut bad = Vec::new();
                for d in group {
                    if verified == Some(d.body.as_slice()) {
                        continue;
                    }
                    if token_ok(inputs, *ident, &d.body) {
                        verified.get_or_insert(d.body.as_slice());
                    } else {
                        bad.push(format!(
                            "token for {} does not decrypt",
                            inputs.names[*ident as usize]
                        ));
                    }
                }
                bad
            }
            Job::Signature(d) if !signature_ok(inputs, d) => {
                vec![format!(
                    "half-signature by {} does not finish",
                    inputs.signers[d.req.ident as usize]
                )]
            }
            Job::Signature(_) => Vec::new(),
        }
    }
}

fn token_ok(inputs: &Inputs, ident: u32, body: &[u8]) -> bool {
    let i = ident as usize;
    let Ok(gt) = inputs.params.curve().gt_from_bytes(body) else {
        return false;
    };
    inputs.user_keys[i]
        .finish_decrypt(&inputs.params, &inputs.cts[i], &DecryptToken(gt))
        .is_ok_and(|plain| plain == inputs.plaintexts[i])
}

fn signature_ok(inputs: &Inputs, d: &Done) -> bool {
    let curve = inputs.params.curve();
    let Ok(point) = curve.point_from_bytes(&d.body) else {
        return false;
    };
    inputs.gdh_users[d.req.ident as usize]
        .finish_sign(curve, &inputs.message(d.req.msg), &HalfSignature(point))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(revoke: bool, start: u64, end: u64) -> AdminDone {
        AdminDone {
            revoke,
            ident: 0,
            start,
            end,
        }
    }

    #[test]
    fn request_inside_a_revoked_window_has_one_possible_state() {
        let calls = [call(true, 10, 20), call(false, 100, 110)];
        // Sent after revoke() returned, answered before unrevoke()
        // started: only "revoked" is possible, so an ok reply would be
        // served after revocation.
        assert_eq!(possible_states(false, &calls, 25, 90), vec![true]);
        // Overlapping the revoke call: either state.
        assert_eq!(possible_states(false, &calls, 15, 30), vec![false, true]);
        // Answered after unrevoke() started: either state.
        assert_eq!(possible_states(false, &calls, 25, 105), vec![true, false]);
        // Before any call: the boot state.
        assert_eq!(possible_states(true, &calls, 1, 5), vec![true]);
        // After both calls returned.
        assert_eq!(possible_states(false, &calls, 120, 130), vec![false]);
    }
}
