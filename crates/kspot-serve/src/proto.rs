//! The KSpot wire protocol: length-prefixed binary frames over TCP (ADR-007).
//!
//! Every frame is a **u32 big-endian body length** followed by the body; the body's
//! first byte is a tag selecting the message, the rest are fixed-width big-endian
//! integers, `f64::to_bits` floats and `u16`-length-prefixed UTF-8 strings.  Requests
//! use tags `0x01..=0x06`, responses `0x81..=0x8A` — the high bit makes a response
//! frame unmistakable for a request even if a peer desynchronises.
//!
//! Decoding is written for **untrusted bytes** and reads through the codec the
//! checkpoint store shares ([`kspot_net::codec`]): every read is bounds-checked,
//! element counts are validated against the bytes actually remaining before any
//! allocation (a 4-byte count field must never make the server allocate gigabytes),
//! and a malformed body is a typed [`ProtoError`], never a panic.

use kspot_net::codec::{put_u16, put_u32, put_u64, CodecError, Reader};
use std::fmt;

/// Protocol revision carried in [`Response::Welcome`]; bumped on any incompatible
/// frame change.
pub const PROTOCOL_VERSION: u16 = 1;

/// Default ceiling on one frame's body, generous for any legitimate query yet small
/// enough that a hostile length prefix cannot balloon the connection buffer.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// Longest reason string the server puts in an error frame; longer ones are clipped
/// so an error path can never produce an oversized response.
pub const MAX_REASON_BYTES: usize = 1024;

/// Wire status of a session inside [`Response::Flushed`].
pub const STATUS_ACTIVE: u8 = 0;
/// See [`STATUS_ACTIVE`].
pub const STATUS_COMPLETED: u8 = 1;
/// See [`STATUS_ACTIVE`].
pub const STATUS_CANCELLED: u8 = 2;

/// A malformed or hostile frame.  The connection that produced one is closed after a
/// best-effort [`Response::Error`]; there is no way to resynchronise a byte stream
/// whose framing has been violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the message it declared was complete.
    Truncated,
    /// The first body byte is not a known message tag.
    BadTag(u8),
    /// A string field is not valid UTF-8.
    BadString,
    /// The body continued past the end of the message.
    TrailingBytes,
    /// The length prefix exceeds the configured frame ceiling.
    Oversize {
        /// Declared body length.
        declared: usize,
        /// The ceiling it violated.
        max: usize,
    },
    /// A string passed to the encoder exceeds the u16 length prefix.
    StringTooLong(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated mid-message"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            ProtoError::BadString => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes => write!(f, "frame body has trailing bytes"),
            ProtoError::Oversize { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte ceiling")
            }
            ProtoError::StringTooLong(n) => {
                write!(f, "string of {n} bytes exceeds the u16 length prefix")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ProtoError::Truncated,
            CodecError::TrailingBytes => ProtoError::TrailingBytes,
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identifies the tenant this connection bills its sessions to.  Optional; a
    /// connection that never says hello is the `"anonymous"` tenant.
    Hello {
        /// Tenant name (quota key).
        tenant: String,
    },
    /// Registers a query on a deployment; answered by [`Response::Registered`] or a
    /// rejection/error frame.
    Register {
        /// Target deployment id.
        deployment: u32,
        /// The query, in the KSpot SQL dialect.
        sql: String,
    },
    /// Asks for up to `max` undelivered results of a session; answered by zero or
    /// more [`Response::Answer`] frames and exactly one [`Response::Flushed`].
    Poll {
        /// Wire session id from [`Response::Registered`].
        session: u64,
        /// Most results to deliver in this poll.
        max: u32,
    },
    /// Cancels a session; answered by [`Response::Cancelled`].
    Cancel {
        /// Wire session id.
        session: u64,
    },
    /// Advances every healthy deployment by `epochs` epochs; answered by
    /// [`Response::Advanced`].
    Advance {
        /// Epochs to run.
        epochs: u32,
    },
    /// Polite close; the server answers [`Response::Bye`] and closes.
    Bye,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// First frame on every connection.
    Welcome {
        /// [`PROTOCOL_VERSION`] of the server.
        protocol: u16,
        /// How many deployments the fleet serves (ids `0..deployments`).
        deployments: u32,
    },
    /// A session was admitted.
    Registered {
        /// Wire session id for subsequent [`Request::Poll`]/[`Request::Cancel`].
        session: u64,
        /// The deployment it landed on.
        deployment: u32,
        /// The algorithm the engine chose for the plan.
        algorithm: String,
    },
    /// One ranked epoch answer of a polled session.
    Answer {
        /// Wire session id.
        session: u64,
        /// The epoch the answer refers to.
        epoch: u64,
        /// `(key, value)` pairs, best first.
        items: Vec<(u64, f64)>,
    },
    /// Terminates every poll: how much was delivered, how much is still pending
    /// (backpressure may deliver less than `max`), and the session's status.
    Flushed {
        /// Wire session id.
        session: u64,
        /// Answers delivered by this poll.
        delivered: u32,
        /// Results still undelivered (poll again to drain).
        pending: u32,
        /// One of [`STATUS_ACTIVE`], [`STATUS_COMPLETED`], [`STATUS_CANCELLED`].
        status: u8,
    },
    /// Admission control refused the request (429-style): a quota or cap is full.
    /// Retry later; the connection stays open.
    Rejected {
        /// HTTP-flavoured status code (429).
        code: u16,
        /// Human-readable reason.
        reason: String,
    },
    /// The request was malformed (400-style): bad SQL, unknown session, bad frame.
    Error {
        /// HTTP-flavoured status code (400).
        code: u16,
        /// Human-readable reason.
        reason: String,
    },
    /// The target deployment is poisoned (503-style); only that shard is affected.
    Unavailable {
        /// HTTP-flavoured status code (503).
        code: u16,
        /// The poisoned deployment.
        deployment: u32,
        /// Human-readable reason.
        reason: String,
    },
    /// A session was cancelled.
    Cancelled {
        /// Wire session id.
        session: u64,
        /// Whether the session was still active when cancelled.
        was_active: bool,
    },
    /// Epochs ran; `poisoned` lists every deployment currently poisoned.
    Advanced {
        /// Epochs that ran on each healthy deployment.
        epochs: u32,
        /// Sorted ids of all currently-poisoned deployments.
        poisoned: Vec<u32>,
    },
    /// Acknowledges [`Request::Bye`].
    Bye,
}

// --- encoding ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), ProtoError> {
    let len = u16::try_from(s.len()).map_err(|_| ProtoError::StringTooLong(s.len()))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Clips a reason string to [`MAX_REASON_BYTES`] on a char boundary so error frames
/// are always encodable.
pub fn clip_reason(reason: &str) -> &str {
    if reason.len() <= MAX_REASON_BYTES {
        return reason;
    }
    let cut = (0..=MAX_REASON_BYTES).rev().find(|&i| reason.is_char_boundary(i)).unwrap_or(0);
    &reason[..cut]
}

/// The smallest [`Response::Answer`] frame (no items): length prefix, tag, session,
/// epoch, count — the bound on how many answers a byte budget can hold.
pub(crate) const MIN_ANSWER_FRAME_BYTES: usize = 4 + 1 + 8 + 8 + 4;

fn put_answer(
    out: &mut Vec<u8>,
    session: u64,
    epoch: u64,
    items: impl ExactSizeIterator<Item = (u64, f64)>,
) {
    out.push(0x83);
    put_u64(out, session);
    put_u64(out, epoch);
    put_u32(out, items.len() as u32);
    for (key, value) in items {
        put_u64(out, key);
        put_u64(out, value.to_bits());
    }
}

fn encode_body(out: &mut Vec<u8>, msg: &Message<'_>) -> Result<(), ProtoError> {
    match msg {
        Message::Req(req) => match req {
            Request::Hello { tenant } => {
                out.push(0x01);
                put_str(out, tenant)?;
            }
            Request::Register { deployment, sql } => {
                out.push(0x02);
                put_u32(out, *deployment);
                put_str(out, sql)?;
            }
            Request::Poll { session, max } => {
                out.push(0x03);
                put_u64(out, *session);
                put_u32(out, *max);
            }
            Request::Cancel { session } => {
                out.push(0x04);
                put_u64(out, *session);
            }
            Request::Advance { epochs } => {
                out.push(0x05);
                put_u32(out, *epochs);
            }
            Request::Bye => out.push(0x06),
        },
        Message::Resp(resp) => match resp {
            Response::Welcome { protocol, deployments } => {
                out.push(0x81);
                put_u16(out, *protocol);
                put_u32(out, *deployments);
            }
            Response::Registered { session, deployment, algorithm } => {
                out.push(0x82);
                put_u64(out, *session);
                put_u32(out, *deployment);
                put_str(out, algorithm)?;
            }
            Response::Answer { session, epoch, items } => {
                put_answer(out, *session, *epoch, items.iter().copied());
            }
            Response::Flushed { session, delivered, pending, status } => {
                out.push(0x84);
                put_u64(out, *session);
                put_u32(out, *delivered);
                put_u32(out, *pending);
                out.push(*status);
            }
            Response::Rejected { code, reason } => {
                out.push(0x85);
                put_u16(out, *code);
                put_str(out, clip_reason(reason))?;
            }
            Response::Error { code, reason } => {
                out.push(0x86);
                put_u16(out, *code);
                put_str(out, clip_reason(reason))?;
            }
            Response::Unavailable { code, deployment, reason } => {
                out.push(0x87);
                put_u16(out, *code);
                put_u32(out, *deployment);
                put_str(out, clip_reason(reason))?;
            }
            Response::Cancelled { session, was_active } => {
                out.push(0x88);
                put_u64(out, *session);
                out.push(u8::from(*was_active));
            }
            Response::Advanced { epochs, poisoned } => {
                out.push(0x89);
                put_u32(out, *epochs);
                put_u32(out, poisoned.len() as u32);
                for d in poisoned {
                    put_u32(out, *d);
                }
            }
            Response::Bye => out.push(0x8A),
        },
    }
    Ok(())
}

enum Message<'a> {
    Req(&'a Request),
    Resp(&'a Response),
}

/// Opens a frame at the end of `out`; [`end_frame`] fills in its length prefix.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    start
}

fn end_frame(out: &mut [u8], start: usize) {
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
}

/// Appends `msg` to `out` as a complete frame; on error `out` is left as it was.
fn encode_frame_into(out: &mut Vec<u8>, msg: &Message<'_>) -> Result<(), ProtoError> {
    let start = begin_frame(out);
    if let Err(e) = encode_body(out, msg) {
        out.truncate(start);
        return Err(e);
    }
    end_frame(out, start);
    Ok(())
}

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, &Message::Req(req))?;
    Ok(out)
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    encode_response_into(&mut out, resp)?;
    Ok(out)
}

/// [`encode_response`] onto the end of a byte queue (the server's reply path).
pub(crate) fn encode_response_into(out: &mut Vec<u8>, resp: &Response) -> Result<(), ProtoError> {
    encode_frame_into(out, &Message::Resp(resp))
}

/// Appends the [`Response::Answer`] frame of borrowed items, byte for byte what
/// [`encode_response`] makes of the owned message.
pub(crate) fn encode_answer_into(
    out: &mut Vec<u8>,
    session: u64,
    epoch: u64,
    items: impl ExactSizeIterator<Item = (u64, f64)>,
) {
    let start = begin_frame(out);
    put_answer(out, session, epoch, items);
    end_frame(out, start);
}

// --- decoding ---------------------------------------------------------------------

/// A `u16`-length-prefixed UTF-8 string.
fn get_str(c: &mut Reader<'_>) -> Result<String, ProtoError> {
    let len = c.u16()? as usize;
    let bytes = c.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadString)
}

/// Decodes one request body (the bytes after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Reader::at(body, 0)?;
    let req = match c.u8()? {
        0x01 => Request::Hello { tenant: get_str(&mut c)? },
        0x02 => Request::Register { deployment: c.u32()?, sql: get_str(&mut c)? },
        0x03 => Request::Poll { session: c.u64()?, max: c.u32()? },
        0x04 => Request::Cancel { session: c.u64()? },
        0x05 => Request::Advance { epochs: c.u32()? },
        0x06 => Request::Bye,
        tag => return Err(ProtoError::BadTag(tag)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes one response body (the bytes after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Reader::at(body, 0)?;
    let resp = match c.u8()? {
        0x81 => Response::Welcome { protocol: c.u16()?, deployments: c.u32()? },
        0x82 => Response::Registered {
            session: c.u64()?,
            deployment: c.u32()?,
            algorithm: get_str(&mut c)?,
        },
        0x83 => {
            let session = c.u64()?;
            let epoch = c.u64()?;
            let declared = c.u32()?;
            let n = c.count(declared, 16)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push((c.u64()?, f64::from_bits(c.u64()?)));
            }
            Response::Answer { session, epoch, items }
        }
        0x84 => Response::Flushed {
            session: c.u64()?,
            delivered: c.u32()?,
            pending: c.u32()?,
            status: c.u8()?,
        },
        0x85 => Response::Rejected { code: c.u16()?, reason: get_str(&mut c)? },
        0x86 => Response::Error { code: c.u16()?, reason: get_str(&mut c)? },
        0x87 => Response::Unavailable {
            code: c.u16()?,
            deployment: c.u32()?,
            reason: get_str(&mut c)?,
        },
        0x88 => Response::Cancelled { session: c.u64()?, was_active: c.u8()? != 0 },
        0x89 => {
            let epochs = c.u32()?;
            let declared = c.u32()?;
            let n = c.count(declared, 4)?;
            let mut poisoned = Vec::with_capacity(n);
            for _ in 0..n {
                poisoned.push(c.u32()?);
            }
            Response::Advanced { epochs, poisoned }
        }
        0x8A => Response::Bye,
        tag => return Err(ProtoError::BadTag(tag)),
    };
    c.finish()?;
    Ok(resp)
}

/// Extracts the frame that starts at `buf[*pos..]`: returns its body and advances
/// `*pos` past it, or `None` (`*pos` untouched) if more bytes are needed.  The caller
/// drops the consumed prefix when it suits it — once per read, not once per frame.
/// An oversized length prefix is a hard error — the connection cannot be
/// resynchronised and must be closed.
pub fn extract_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    max_frame: usize,
) -> Result<Option<&'a [u8]>, ProtoError> {
    let rest = buf.get(*pos..).unwrap_or_default();
    let Some(header) = rest.first_chunk::<4>() else { return Ok(None) };
    let declared = u32::from_be_bytes(*header) as usize;
    if declared > max_frame {
        return Err(ProtoError::Oversize { declared, max: max_frame });
    }
    let Some(body) = rest.get(4..4 + declared) else { return Ok(None) };
    *pos += 4 + declared;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = encode_request(&req).expect("encodes");
        let mut pos = 0;
        let body = extract_frame(&frame, &mut pos, DEFAULT_MAX_FRAME_BYTES)
            .expect("valid frame")
            .expect("complete frame");
        assert_eq!(pos, frame.len());
        assert_eq!(decode_request(body).expect("decodes"), req);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = encode_response(&resp).expect("encodes");
        assert_eq!(decode_response(&frame[4..]).expect("decodes"), resp);
        // Appending to a non-empty queue leaves what is queued alone and adds the
        // same bytes.
        let mut queue = vec![0xAA; 3];
        encode_response_into(&mut queue, &resp).expect("encodes");
        assert_eq!(queue[..3], [0xAA; 3]);
        assert_eq!(queue[3..], frame[..]);
        if let Response::Answer { session, epoch, items } = &resp {
            queue.truncate(3);
            encode_answer_into(&mut queue, *session, *epoch, items.iter().copied());
            assert_eq!(queue[3..], frame[..], "borrowed items encode to the same frame");
        }
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_req(Request::Hello { tenant: "acme".into() });
        roundtrip_req(Request::Register { deployment: 3, sql: "SELECT TOP 1 ...".into() });
        roundtrip_req(Request::Poll { session: u64::MAX, max: 32 });
        roundtrip_req(Request::Cancel { session: 7 });
        roundtrip_req(Request::Advance { epochs: 10 });
        roundtrip_req(Request::Bye);

        roundtrip_resp(Response::Welcome { protocol: PROTOCOL_VERSION, deployments: 4 });
        roundtrip_resp(Response::Registered {
            session: 1,
            deployment: 0,
            algorithm: "INT".into(),
        });
        roundtrip_resp(Response::Answer {
            session: 1,
            epoch: 42,
            items: vec![(3, 1.5), (9, -0.25)],
        });
        roundtrip_resp(Response::Answer { session: 1, epoch: 42, items: vec![] });
        let empty = encode_response(&Response::Answer { session: 1, epoch: 42, items: vec![] });
        assert_eq!(empty.expect("encodes").len(), MIN_ANSWER_FRAME_BYTES);
        roundtrip_resp(Response::Flushed {
            session: 1,
            delivered: 2,
            pending: 5,
            status: STATUS_ACTIVE,
        });
        roundtrip_resp(Response::Rejected { code: 429, reason: "quota".into() });
        roundtrip_resp(Response::Error { code: 400, reason: "bad".into() });
        roundtrip_resp(Response::Unavailable {
            code: 503,
            deployment: 2,
            reason: "poisoned".into(),
        });
        roundtrip_resp(Response::Cancelled { session: 1, was_active: true });
        roundtrip_resp(Response::Advanced { epochs: 5, poisoned: vec![1, 3] });
        roundtrip_resp(Response::Bye);
    }

    #[test]
    fn hostile_bodies_decode_to_errors_never_panics() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
        assert_eq!(decode_request(&[0x03, 0, 0]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[0x06, 0xff]), Err(ProtoError::TrailingBytes));
        // Hello with a length prefix past the end of the body.
        assert_eq!(decode_request(&[0x01, 0xff, 0xff, b'a']), Err(ProtoError::Truncated));
        // Hello with invalid UTF-8.
        assert_eq!(decode_request(&[0x01, 0x00, 0x01, 0xc0]), Err(ProtoError::BadString));
        // Answer whose item count claims more elements than bytes remain: must fail
        // without allocating for the declared count.
        let mut body = vec![0x83];
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_response(&body), Err(ProtoError::Truncated));
    }

    #[test]
    fn oversized_and_partial_frames_are_handled() {
        let mut pos = 0;
        assert_eq!(extract_frame(&[], &mut pos, 64), Ok(None));

        // Partial header, then partial body, then the rest — behind a consumed prefix.
        let frame = encode_request(&Request::Cancel { session: 5 }).unwrap();
        let mut buf = vec![0xEE; 7];
        let mut pos = 7;
        buf.extend_from_slice(&frame[..2]);
        assert_eq!(extract_frame(&buf, &mut pos, 64), Ok(None));
        buf.extend_from_slice(&frame[2..6]);
        assert_eq!(extract_frame(&buf, &mut pos, 64), Ok(None));
        assert_eq!(pos, 7, "an incomplete frame consumes nothing");
        buf.extend_from_slice(&frame[6..]);
        let body = extract_frame(&buf, &mut pos, 64).unwrap().unwrap();
        assert_eq!(decode_request(body), Ok(Request::Cancel { session: 5 }));
        assert_eq!(pos, buf.len());

        // A hostile length prefix fails before any buffering.
        assert_eq!(
            extract_frame(&u32::MAX.to_be_bytes(), &mut 0, 64),
            Err(ProtoError::Oversize { declared: u32::MAX as usize, max: 64 })
        );
    }

    #[test]
    fn reasons_are_clipped_on_char_boundaries() {
        let long = "é".repeat(MAX_REASON_BYTES); // 2 bytes per char
        let clipped = clip_reason(&long);
        assert!(clipped.len() <= MAX_REASON_BYTES);
        assert!(clipped.is_char_boundary(clipped.len()));
        assert_eq!(clip_reason("short"), "short");
    }
}
