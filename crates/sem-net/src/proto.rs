//! Binary wire protocol for SEM request/response frames.
//!
//! Every exchange is one length-prefixed frame each way:
//!
//! ```text
//! frame   := u32 length ‖ payload             (length = |payload|)
//! request := u8 op ‖ u16 id-len ‖ id ‖ u32 body-len ‖ body
//! response:= u8 status ‖ u32 body-len ‖ body
//! ```
//!
//! * op `1` (IBE token): body is a compressed `U` point; ok-body is the
//!   `F_p²` token.
//! * op `2` (GDH half-sign): body is the message; ok-body is a
//!   compressed half-signature point.
//! * op `3` is unassigned: a request carrying it fails to decode and
//!   is answered with `Invalid`, like any unknown op.
//! * op `4` (stats): the id and body are empty; the ok-body is the
//!   daemon's [`crate::audit::MetricsSnapshot`] in its Prometheus-style
//!   text exposition (UTF-8).
//! * op `5` (token share): body is a compressed `U` point; the ok-body
//!   is a [`sempair_core::threshold::DecryptionShare`] carrying the
//!   replica's partial token *and* its §3.2 pairing-equality NIZK
//!   (`threshold::decryption_share_to_bytes` layout), so the quorum
//!   client can verify the share against the replica's verification
//!   key before combining.
//! * op `6` (pipelined envelope, protocol v2): the id field is empty
//!   and the body wraps any *one* other request together with a client
//!   session and a per-request id, so a connection can keep many
//!   requests in flight and accept out-of-order replies:
//!
//!   ```text
//!   pipelined-body  := u32 version ‖ u64 session ‖ u64 req-id ‖ item
//!   item            := u8 op ‖ u16 id-len ‖ id ‖ u32 body-len ‖ body
//!   pipelined-reply := u64 req-id ‖ u8 status ‖ u32 body-len ‖ body
//!   ```
//!
//!   The reply rides in an ordinary ok-response body, so every frame
//!   on the wire keeps the frame layout above (no handshake frames,
//!   one frame each way per request). The envelope is the only request
//!   framing the daemon serves: a frame of any other op gets one empty
//!   plain `Invalid`. Envelopes cannot nest. The `(session, req-id)`
//!   pair keys the server's idempotency window: a retried request with
//!   the same pair replays the recorded response instead of executing
//!   twice.
//!
//! The sizes on this wire are exactly the E3 numbers — the protocol is
//! the paper's bandwidth table made concrete (v2 adds
//! [`PIPELINE_OVERHEAD`] bytes per request for the envelope).

// Decoders consume attacker-controlled bytes: slice indexing here is a
// remote panic vector, so every read goes through the bounds-checked
// [`Reader`]. Tests index into frames they built themselves.
#![warn(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::indexing_slicing))]

use bytes::{BufMut, BytesMut};
use sempair_core::cursor::Reader;
use sempair_core::Error;

/// Request operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Mediated-IBE decryption token.
    IbeToken = 1,
    /// Mediated-GDH half-signature.
    GdhHalfSign = 2,
    /// Metrics snapshot request (empty id/body; ok-body is the
    /// Prometheus-style text exposition).
    Stats = 4,
    /// Mediated-IBE partial decryption token with its robustness NIZK
    /// (one replica of a (t, n) SEM cluster).
    TokenShare = 5,
    /// Pipelined envelope (protocol v2) wrapping one inner request with
    /// a session and request id for out-of-order replies.
    Pipelined = 6,
}

impl Op {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Op::IbeToken),
            2 => Some(Op::GdhHalfSign),
            4 => Some(Op::Stats),
            5 => Some(Op::TokenShare),
            6 => Some(Op::Pipelined),
            _ => None,
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request served; body carries the token.
    Ok = 0,
    /// Identity revoked.
    Revoked = 1,
    /// Identity unknown.
    Unknown = 2,
    /// Malformed request or off-curve point.
    Invalid = 3,
    /// The server shed the request: its bounded job queue is full (or
    /// past the brownout watermark, for Stats requests). The
    /// request was not executed and may be retried after backoff; the
    /// response body may carry a typed retry-after hint (see
    /// [`encode_retry_after`]).
    Overloaded = 4,
}

impl Status {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Revoked),
            2 => Some(Status::Unknown),
            3 => Some(Status::Invalid),
            4 => Some(Status::Overloaded),
            _ => None,
        }
    }

    /// Maps a SEM-side error to its wire status.
    pub fn from_error(err: &Error) -> Self {
        match err {
            Error::Revoked => Status::Revoked,
            Error::UnknownIdentity => Status::Unknown,
            Error::Overloaded => Status::Overloaded,
            _ => Status::Invalid,
        }
    }

    /// Maps a non-ok status back to the library error.
    pub fn to_error(self) -> Option<Error> {
        match self {
            Status::Ok => None,
            Status::Revoked => Some(Error::Revoked),
            Status::Unknown => Some(Error::UnknownIdentity),
            Status::Invalid => Some(Error::InvalidCiphertext),
            Status::Overloaded => Some(Error::Overloaded),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Requested operation.
    pub op: Op,
    /// Identity named in the request.
    pub id: String,
    /// Operation body (point bytes or message).
    pub body: Vec<u8>,
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Token bytes when [`Status::Ok`]; a retry-after hint when
    /// [`Status::Overloaded`] (see [`encode_retry_after`]); empty
    /// otherwise.
    pub body: Vec<u8>,
}

/// Encodes the typed retry-after hint carried in the body of an
/// [`Status::Overloaded`] response: `u32` milliseconds, big-endian.
///
/// An empty overloaded body means "no hint" — pre-brownout binaries
/// sent exactly that, so old clients (which ignore the body on
/// non-`Ok` statuses) and new clients (which treat a short body as no
/// hint) interoperate in both directions.
pub fn encode_retry_after(millis: u32) -> Vec<u8> {
    millis.to_be_bytes().to_vec()
}

/// Decodes the retry-after hint from an overloaded response body.
/// `None` when the body is absent or malformed (no hint).
pub fn decode_retry_after(body: &[u8]) -> Option<u32> {
    let mut r = Reader::new(body);
    let millis = r.u32_be()?;
    if r.remaining() != 0 {
        return None;
    }
    Some(millis)
}

/// Hard cap on frame payloads (1 MiB) — a remote peer cannot make the
/// server allocate unboundedly.
pub const MAX_FRAME: usize = 1 << 20;

/// Encodes a request frame (including the length prefix).
///
/// # Errors
///
/// [`Error::FrameTooLarge`] when the identity exceeds the `u16`
/// id-length field or the assembled payload exceeds [`MAX_FRAME`] —
/// the frame is rejected here instead of emitting bytes whose length
/// fields silently truncated (which a peer would read as garbage).
pub fn encode_request(request: &Request) -> Result<Vec<u8>, Error> {
    if request.id.len() > u16::MAX as usize {
        return Err(Error::FrameTooLarge);
    }
    let payload_len = 1 + 2 + request.id.len() + 4 + request.body.len();
    if payload_len > MAX_FRAME {
        return Err(Error::FrameTooLarge);
    }
    let mut buf = BytesMut::with_capacity(4 + payload_len);
    buf.put_u32(payload_len as u32);
    buf.put_u8(request.op as u8);
    buf.put_u16(request.id.len() as u16);
    buf.put_slice(request.id.as_bytes());
    buf.put_u32(request.body.len() as u32);
    buf.put_slice(&request.body);
    Ok(buf.to_vec())
}

/// Decodes a request payload (after the length prefix was consumed).
///
/// Returns `None` for malformed payloads.
pub fn decode_request(payload: &[u8]) -> Option<Request> {
    let mut r = Reader::new(payload);
    let op = Op::from_u8(r.u8()?)?;
    let id_len = r.u16_be()? as usize;
    let id = String::from_utf8(r.bytes(id_len)?.to_vec()).ok()?;
    let body_len = r.u32_be()? as usize;
    if r.remaining() != body_len {
        return None;
    }
    Some(Request {
        op,
        id,
        body: r.rest().to_vec(),
    })
}

/// Encodes a response frame (including the length prefix).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let payload_len = 1 + 4 + response.body.len();
    let mut buf = BytesMut::with_capacity(4 + payload_len);
    buf.put_u32(payload_len as u32);
    buf.put_u8(response.status as u8);
    buf.put_u32(response.body.len() as u32);
    buf.put_slice(&response.body);
    buf.to_vec()
}

/// Decodes a response payload (after the length prefix was consumed).
pub fn decode_response(payload: &[u8]) -> Option<Response> {
    let mut r = Reader::new(payload);
    let status = Status::from_u8(r.u8()?)?;
    let body_len = r.u32_be()? as usize;
    if r.remaining() != body_len {
        return None;
    }
    Some(Response {
        status,
        body: r.rest().to_vec(),
    })
}

/// Protocol version carried in every [`Op::Pipelined`] envelope.
pub const PIPELINE_VERSION: u32 = 2;

/// Per-request byte overhead of the v2 envelope versus sending the
/// inner request as a bare v1 frame: the version/session/req-id header
/// (4 + 8 + 8) plus the outer request's own op/id-len/body-len fields
/// (1 + 2 + 4) — the reply direction adds the 13-byte
/// `req-id ‖ status ‖ body-len` header inside the ok-body.
pub const PIPELINE_OVERHEAD: usize = 4 + 8 + 8 + 1 + 2 + 4;

/// A parsed [`Op::Pipelined`] envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedRequest {
    /// Client session tag: drawn once per client stub, it survives
    /// reconnects so a retried request keeps its idempotency key.
    pub session: u64,
    /// Per-session request id; `(session, req_id)` keys the server's
    /// idempotency window.
    pub req_id: u64,
    /// The wrapped request.
    pub inner: Request,
}

/// Encodes a pipelined request frame (including the length prefix).
///
/// # Errors
///
/// [`Error::FrameTooLarge`] under the same limits as
/// [`encode_request`], counting the envelope header.
///
/// # Panics
///
/// Panics if the inner op is itself [`Op::Pipelined`] (envelopes cannot
/// nest).
pub fn encode_pipelined_request(env: &PipelinedRequest) -> Result<Vec<u8>, Error> {
    assert!(
        env.inner.op != Op::Pipelined,
        "pipelined envelopes cannot nest"
    );
    if env.inner.id.len() > u16::MAX as usize {
        return Err(Error::FrameTooLarge);
    }
    let body_len = 4 + 8 + 8 + 1 + 2 + env.inner.id.len() + 4 + env.inner.body.len();
    let payload_len = 1 + 2 + 4 + body_len; // outer op ‖ empty id ‖ body-len ‖ body
    if payload_len > MAX_FRAME {
        return Err(Error::FrameTooLarge);
    }
    let mut buf = BytesMut::with_capacity(4 + payload_len);
    buf.put_u32(payload_len as u32);
    buf.put_u8(Op::Pipelined as u8);
    buf.put_u16(0); // the envelope's outer id field is always empty
    buf.put_u32(body_len as u32);
    buf.put_u32(PIPELINE_VERSION);
    buf.put_u64(env.session);
    buf.put_u64(env.req_id);
    buf.put_u8(env.inner.op as u8);
    buf.put_u16(env.inner.id.len() as u16);
    buf.put_slice(env.inner.id.as_bytes());
    buf.put_u32(env.inner.body.len() as u32);
    buf.put_slice(&env.inner.body);
    Ok(buf.to_vec())
}

/// Decodes the body of an [`Op::Pipelined`] request (the outer request
/// was already parsed by [`decode_request`]).
///
/// Returns `None` for malformed bodies, unknown protocol versions, or
/// nested envelopes.
pub fn decode_pipelined_body(body: &[u8]) -> Option<PipelinedRequest> {
    let mut r = Reader::new(body);
    if r.u32_be()? != PIPELINE_VERSION {
        return None;
    }
    let session = r.u64_be()?;
    let req_id = r.u64_be()?;
    let op = Op::from_u8(r.u8()?)?;
    if op == Op::Pipelined {
        return None;
    }
    let id_len = r.u16_be()? as usize;
    let id = String::from_utf8(r.bytes(id_len)?.to_vec()).ok()?;
    let body_len = r.u32_be()? as usize;
    if r.remaining() != body_len {
        return None;
    }
    Some(PipelinedRequest {
        session,
        req_id,
        inner: Request {
            op,
            id,
            body: r.rest().to_vec(),
        },
    })
}

/// Encodes a pipelined reply frame: an ordinary ok-response whose body
/// is `u64 req-id ‖ u8 status ‖ u32 body-len ‖ body`.
pub fn encode_pipelined_response(req_id: u64, inner: &Response) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(8 + 1 + 4 + inner.body.len());
    body.put_u64(req_id);
    body.put_u8(inner.status as u8);
    body.put_u32(inner.body.len() as u32);
    body.put_slice(&inner.body);
    encode_response(&Response {
        status: Status::Ok,
        body: body.to_vec(),
    })
}

/// Decodes a pipelined reply carried in an ok-response body back into
/// `(req_id, inner response)`. Returns `None` for malformed bodies —
/// including plain v1 responses, which have no envelope.
pub fn decode_pipelined_reply(body: &[u8]) -> Option<(u64, Response)> {
    let mut r = Reader::new(body);
    let req_id = r.u64_be()?;
    let status = Status::from_u8(r.u8()?)?;
    let body_len = r.u32_be()? as usize;
    if r.remaining() != body_len {
        return None;
    }
    Some((
        req_id,
        Response {
            status,
            body: r.rest().to_vec(),
        },
    ))
}

/// Reads a frame's `u32` length prefix fallibly and validates it
/// against [`MAX_FRAME`].
///
/// Returns `None` when the slice is shorter than the prefix or the
/// declared payload length exceeds the cap — the bounds-checked
/// replacement for indexing `frame[..4]` on attacker-supplied bytes.
pub fn frame_payload_len(frame: &[u8]) -> Option<usize> {
    let mut r = Reader::new(frame);
    let len = r.u32_be()? as usize;
    if len > MAX_FRAME {
        return None;
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            op: Op::IbeToken,
            id: "alice@example.com".into(),
            body: vec![1, 2, 3],
        };
        let frame = encode_request(&req).unwrap();
        let len = frame_payload_len(&frame).unwrap();
        assert_eq!(len, frame.len() - 4);
        assert_eq!(decode_request(&frame[4..]).unwrap(), req);
    }

    #[test]
    fn response_roundtrip() {
        for status in [
            Status::Ok,
            Status::Revoked,
            Status::Unknown,
            Status::Invalid,
            Status::Overloaded,
        ] {
            let resp = Response {
                status,
                body: if status == Status::Ok {
                    vec![9u8; 64]
                } else {
                    vec![]
                },
            };
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn stats_request_roundtrip() {
        let req = Request {
            op: Op::Stats,
            id: String::new(),
            body: vec![],
        };
        let frame = encode_request(&req).unwrap();
        assert_eq!(decode_request(&frame[4..]).unwrap(), req);
    }

    #[test]
    fn token_share_request_roundtrip() {
        let req = Request {
            op: Op::TokenShare,
            id: "alice@example.com".into(),
            body: vec![2, 4, 6, 8],
        };
        let frame = encode_request(&req).unwrap();
        assert_eq!(decode_request(&frame[4..]).unwrap(), req);
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_request(&[]).is_none());
        assert!(decode_request(&[9, 0, 0]).is_none()); // bad op
        assert_eq!(Op::from_u8(3), None); // unassigned
        assert!(decode_request(&[3, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(decode_request(&[1, 0, 5, b'a']).is_none()); // short id
                                                             // Body length mismatch.
        let mut frame = encode_request(&Request {
            op: Op::GdhHalfSign,
            id: "x".into(),
            body: vec![7],
        })
        .unwrap();
        frame.pop();
        assert!(decode_request(&frame[4..]).is_none());
        assert!(decode_response(&[]).is_none());
        assert!(decode_response(&[7, 0, 0, 0, 0]).is_none()); // bad status
    }

    #[test]
    fn oversized_requests_rejected_at_encode() {
        // Identity longer than the u16 id-length field: without the
        // encode-time check the length silently truncates and the peer
        // reads the frame as garbage.
        let req = Request {
            op: Op::IbeToken,
            id: "x".repeat(u16::MAX as usize + 1),
            body: vec![],
        };
        assert_eq!(encode_request(&req), Err(Error::FrameTooLarge));
        // A body pushing the payload over MAX_FRAME: the server would
        // drop the connection on the length prefix anyway, so refuse to
        // emit it.
        let req = Request {
            op: Op::GdhHalfSign,
            id: "signer".into(),
            body: vec![0u8; MAX_FRAME],
        };
        assert_eq!(encode_request(&req), Err(Error::FrameTooLarge));
        // A payload of exactly MAX_FRAME is accepted and round-trips.
        let req = Request {
            op: Op::GdhHalfSign,
            id: String::new(),
            body: vec![7u8; MAX_FRAME - 7],
        };
        let frame = encode_request(&req).unwrap();
        assert_eq!(frame.len(), 4 + MAX_FRAME);
        assert_eq!(decode_request(&frame[4..]).unwrap(), req);
    }

    #[test]
    fn status_error_mapping_roundtrips() {
        use sempair_core::Error;
        assert_eq!(Status::from_error(&Error::Revoked), Status::Revoked);
        assert_eq!(Status::from_error(&Error::UnknownIdentity), Status::Unknown);
        assert_eq!(
            Status::from_error(&Error::InvalidCiphertext),
            Status::Invalid
        );
        assert_eq!(Status::Revoked.to_error(), Some(Error::Revoked));
        assert_eq!(Status::Ok.to_error(), None);
    }

    #[test]
    fn pipelined_roundtrip() {
        let env = PipelinedRequest {
            session: 0xDEAD_BEEF_0BAD_F00D,
            req_id: 42,
            inner: Request {
                op: Op::IbeToken,
                id: "alice@example.com".into(),
                body: vec![1, 2, 3],
            },
        };
        let frame = encode_pipelined_request(&env).unwrap();
        let payload_len = frame_payload_len(&frame).unwrap();
        assert_eq!(payload_len, frame.len() - 4);
        // The outer frame is a perfectly ordinary v1 request…
        let outer = decode_request(&frame[4..]).unwrap();
        assert_eq!(outer.op, Op::Pipelined);
        assert!(outer.id.is_empty());
        // …whose body carries the envelope.
        assert_eq!(decode_pipelined_body(&outer.body).unwrap(), env);
        assert_eq!(
            outer.body.len(),
            1 + 2 + 4 + env.inner.id.len() + env.inner.body.len() + 20
        );
        assert_eq!(
            frame.len(),
            4 + 1 + 2 + env.inner.id.len() + 4 + env.inner.body.len() + PIPELINE_OVERHEAD
        );

        // Reply direction: ok / refused / overloaded all round-trip
        // with the request id intact.
        for inner in [
            Response {
                status: Status::Ok,
                body: vec![9u8; 64],
            },
            Response {
                status: Status::Revoked,
                body: vec![],
            },
            Response {
                status: Status::Overloaded,
                body: vec![],
            },
        ] {
            let reply_frame = encode_pipelined_response(env.req_id, &inner);
            let outer = decode_response(&reply_frame[4..]).unwrap();
            assert_eq!(outer.status, Status::Ok);
            let (req_id, decoded) = decode_pipelined_reply(&outer.body).unwrap();
            assert_eq!(req_id, env.req_id);
            assert_eq!(decoded, inner);
        }
    }

    #[test]
    fn malformed_pipelined_rejected() {
        let env = PipelinedRequest {
            session: 7,
            req_id: 1,
            inner: Request {
                op: Op::GdhHalfSign,
                id: "x".into(),
                body: vec![5],
            },
        };
        let frame = encode_pipelined_request(&env).unwrap();
        let outer = decode_request(&frame[4..]).unwrap();
        // Wrong version.
        let mut wrong = outer.body.clone();
        wrong[3] = 99;
        assert!(decode_pipelined_body(&wrong).is_none());
        // Truncated body.
        let mut short = outer.body.clone();
        short.pop();
        assert!(decode_pipelined_body(&short).is_none());
        // Nested envelope op.
        let mut nested = outer.body.clone();
        nested[20] = Op::Pipelined as u8;
        assert!(decode_pipelined_body(&nested).is_none());
        // A plain v1 response body is not a pipelined reply.
        assert!(decode_pipelined_reply(&[]).is_none());
        assert!(decode_pipelined_reply(&[0u8; 12]).is_none());
        // Oversized inner body refused at encode time.
        let huge = PipelinedRequest {
            session: 7,
            req_id: 2,
            inner: Request {
                op: Op::IbeToken,
                id: String::new(),
                body: vec![0u8; MAX_FRAME],
            },
        };
        assert_eq!(encode_pipelined_request(&huge), Err(Error::FrameTooLarge));
    }

    #[test]
    fn frame_payload_len_is_fallible() {
        assert_eq!(frame_payload_len(&[]), None);
        assert_eq!(frame_payload_len(&[0, 0, 1]), None); // short prefix
        assert_eq!(frame_payload_len(&[0, 0, 0, 9, 1, 2]), Some(9));
        // Length over MAX_FRAME rejected instead of trusted.
        assert_eq!(frame_payload_len(&[0xff, 0xff, 0xff, 0xff]), None);
    }

    #[test]
    fn overloaded_status_maps_to_error() {
        use sempair_core::Error;
        assert_eq!(Status::from_error(&Error::Overloaded), Status::Overloaded);
        assert_eq!(Status::Overloaded.to_error(), Some(Error::Overloaded));
    }

    #[test]
    fn retry_after_hint_roundtrip() {
        for millis in [0u32, 1, 25, 1000, u32::MAX] {
            assert_eq!(
                decode_retry_after(&encode_retry_after(millis)),
                Some(millis)
            );
        }
        // Absent or malformed bodies mean "no hint", never an error.
        assert_eq!(decode_retry_after(&[]), None);
        assert_eq!(decode_retry_after(&[1, 2, 3]), None, "short");
        assert_eq!(decode_retry_after(&[1, 2, 3, 4, 5]), None, "trailing");
        // And the hint survives a full response frame roundtrip.
        let resp = Response {
            status: Status::Overloaded,
            body: encode_retry_after(40),
        };
        let frame = encode_response(&resp);
        let back = decode_response(frame.get(4..).unwrap()).unwrap();
        assert_eq!(back.status, Status::Overloaded);
        assert_eq!(decode_retry_after(&back.body), Some(40));
    }

    #[test]
    fn non_utf8_identity_rejected() {
        let mut frame = encode_request(&Request {
            op: Op::IbeToken,
            id: "ab".into(),
            body: vec![],
        })
        .unwrap();
        frame[7] = 0xff; // corrupt an id byte into invalid UTF-8
        assert!(decode_request(&frame[4..]).is_none());
    }
}
