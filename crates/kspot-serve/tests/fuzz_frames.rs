//! Framing properties over **untrusted byte streams**: `proto::extract_frame` reads
//! frames in place behind a caller-held offset, and must cut any stream — however the
//! network chunked it — into exactly the frames, and the same typed errors, as the
//! one-`drain`-per-frame extractor it replaced, which is kept here as the reference.
//!
//! The corpus is every message of the protocol as a well-formed frame; streams are
//! arbitrary picks from it, optionally ended by a hostile tail (a length prefix past
//! the ceiling, a frame that never completes, small-valued byte soup that reads as
//! short bogus frames), under a ceiling that some corpus frames exceed themselves.
//!
//! The decoders themselves face arbitrary messages: every one round-trips, every strict
//! prefix of its body is `Truncated`, and no single-byte change of it panics.

use kspot_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, extract_frame, ProtoError,
};
use kspot_serve::{Request, Response};
use proptest::prelude::*;

/// The extractor as it was before it consumed by offset.
fn extract_frame_by_drain(
    buf: &mut Vec<u8>,
    max_frame: usize,
) -> Result<Option<Vec<u8>>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let declared = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if declared > max_frame {
        return Err(ProtoError::Oversize { declared, max: max_frame });
    }
    if buf.len() < 4 + declared {
        return Ok(None);
    }
    let body = buf[4..4 + declared].to_vec();
    buf.drain(..4 + declared);
    Ok(Some(body))
}

fn corpus() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello { tenant: "acme".into() },
        Request::Register { deployment: 3, sql: "SELECT TOP 1 roomid FROM sensors".into() },
        Request::Poll { session: u64::MAX, max: 32 },
        Request::Cancel { session: 7 },
        Request::Advance { epochs: 10 },
        Request::Bye,
    ];
    let responses = [
        Response::Welcome { protocol: 1, deployments: 4 },
        Response::Registered { session: 1, deployment: 0, algorithm: "KSpot (MINT views)".into() },
        Response::Answer { session: 1, epoch: 42, items: vec![(3, 1.5), (9, -0.25)] },
        Response::Answer { session: 1, epoch: 43, items: vec![] },
        Response::Flushed { session: 1, delivered: 2, pending: 5, status: 0 },
        Response::Rejected { code: 429, reason: "quota".into() },
        Response::Error { code: 400, reason: "x".repeat(200) },
        Response::Unavailable { code: 503, deployment: 2, reason: "poisoned".into() },
        Response::Cancelled { session: 1, was_active: true },
        Response::Advanced { epochs: 5, poisoned: vec![1, 3] },
        Response::Bye,
    ];
    requests
        .iter()
        .map(|r| encode_request(r).expect("encodes"))
        .chain(responses.iter().map(|r| encode_response(r).expect("encodes")))
        .collect()
}

/// One event of a framing run: a frame body, or the error that ended the stream.
type Event = Result<Vec<u8>, ProtoError>;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn offset_extraction_matches_the_drain_reference_under_any_chunking(
        picks in prop::collection::vec(0usize..64, 0usize..12),
        tail in 0usize..4,
        soup in prop::collection::vec(0u32..6, 0usize..48),
        cuts in prop::collection::vec(1usize..48, 1usize..32),
        max_frame in prop_oneof![Just(64usize), Just(64usize * 1024)],
    ) {
        let corpus = corpus();
        let mut stream: Vec<u8> =
            picks.iter().flat_map(|&i| corpus[i % corpus.len()].iter().copied()).collect();
        match tail {
            1 => stream.extend_from_slice(&u32::MAX.to_be_bytes()),
            2 => stream.extend_from_slice(&corpus[1][..corpus[1].len() - 3]),
            3 => stream.extend(soup.iter().map(|&b| b as u8)),
            _ => {}
        }

        // The reference sees the stream whole; the extractor under test sees it in
        // chunks and drops its consumed prefix once per chunk, as both callers do.
        let mut reference: Vec<Event> = Vec::new();
        let mut whole = stream.clone();
        loop {
            match extract_frame_by_drain(&mut whole, max_frame) {
                Ok(Some(body)) => reference.push(Ok(body)),
                Ok(None) => break,
                Err(e) => {
                    reference.push(Err(e));
                    break;
                }
            }
        }

        let mut events: Vec<Event> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut fed = 0;
        let mut cuts = cuts.iter().cycle();
        'stream: while fed < stream.len() {
            let end = (fed + cuts.next().expect("cycles")).min(stream.len());
            buf.extend_from_slice(&stream[fed..end]);
            fed = end;
            let mut pos = 0;
            loop {
                match extract_frame(&buf, &mut pos, max_frame) {
                    Ok(Some(body)) => {
                        // Whatever it is, decoding it is a typed verdict, not a panic.
                        if let (Err(e), Err(_)) = (decode_request(body), decode_response(body)) {
                            let _ = e.to_string();
                        }
                        events.push(Ok(body.to_vec()));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        events.push(Err(e));
                        break 'stream;
                    }
                }
            }
            buf.drain(..pos);
        }

        prop_assert_eq!(&events, &reference);
        if !matches!(events.last(), Some(Err(_))) {
            prop_assert_eq!(buf, whole, "the same incomplete tail is left waiting");
        }
    }
}

/// A `u64` field: the extremes as often as arbitrary values.
fn wide_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..u64::MAX]
}

/// A `u32` field: the extremes as often as arbitrary values.
fn wide_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), 0u32..u32::MAX]
}

/// Text of one-, two-, three- and four-byte UTF-8 characters.
fn text(picks: &[u32]) -> String {
    const CHARS: [char; 6] = ['a', 'Z', ' ', 'é', '€', '🛰'];
    picks.iter().map(|&i| CHARS[i as usize % CHARS.len()]).collect()
}

/// The request of kind `tag % 6`, its fields taken from the rest.
fn request(tag: u32, n64: u64, n32: u32, s: String) -> Request {
    match tag % 6 {
        0 => Request::Hello { tenant: s },
        1 => Request::Register { deployment: n32, sql: s },
        2 => Request::Poll { session: n64, max: n32 },
        3 => Request::Cancel { session: n64 },
        4 => Request::Advance { epochs: n32 },
        _ => Request::Bye,
    }
}

/// The response of kind `tag % 10`, its fields taken from the rest.
fn response(tag: u32, n64: u64, n32: u32, s: String, items: &[(u64, u64)]) -> Response {
    let n16 = n32 as u16;
    match tag % 10 {
        0 => Response::Welcome { protocol: n16, deployments: n32 },
        1 => Response::Registered { session: n64, deployment: n32, algorithm: s },
        2 => Response::Answer {
            session: n64,
            epoch: !n64,
            items: items.iter().map(|&(key, bits)| (key, f64::from_bits(bits))).collect(),
        },
        3 => Response::Flushed { session: n64, delivered: n32, pending: !n32, status: n32 as u8 },
        4 => Response::Rejected { code: n16, reason: s },
        5 => Response::Error { code: n16, reason: s },
        6 => Response::Unavailable { code: n16, deployment: n32, reason: s },
        7 => Response::Cancelled { session: n64, was_active: n32 % 2 == 1 },
        8 => Response::Advanced { epochs: n32, poisoned: items.iter().map(|&(d, _)| d as u32).collect() },
        _ => Response::Bye,
    }
}

/// Every strict prefix of a body is truncated, one byte more is trailing, and no
/// single-byte change makes a decoder panic.
fn assert_hostile_variants_are_typed<T>(body: &[u8], decode: impl Fn(&[u8]) -> Result<T, ProtoError>, flip: u8) {
    for cut in 0..body.len() {
        assert_eq!(decode(&body[..cut]).err(), Some(ProtoError::Truncated), "cut at {cut} of {body:02x?}");
    }
    let mut longer = body.to_vec();
    longer.push(flip);
    assert_eq!(decode(&longer).err(), Some(ProtoError::TrailingBytes));
    let mut bad = body.to_vec();
    for at in 0..body.len() {
        bad[at] ^= flip;
        if let (Err(e), Err(_)) = (decode_request(&bad), decode_response(&bad)) {
            let _ = e.to_string();
        }
        bad[at] = body[at];
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Any message survives its frame: the decoder returns what was encoded, and the
    /// encoder re-encodes that to the same bytes (NaN item values included, whose
    /// payload bits `==` cannot compare).
    #[test]
    fn every_message_roundtrips_and_its_mutations_decode_typed(
        tag in 0u32..10,
        numbers in (wide_u64(), wide_u32()),
        picks in prop::collection::vec(0u32..6, 0usize..40),
        items in prop::collection::vec((wide_u64(), wide_u64()), 0usize..6),
    ) {
        let (n64, n32) = numbers;
        let flip = (n32 as u8) | 1;

        let req = request(tag, n64, n32, text(&picks));
        let frame = encode_request(&req).expect("a request encodes");
        prop_assert_eq!(decode_request(&frame[4..]), Ok(req));
        assert_hostile_variants_are_typed(&frame[4..], decode_request, flip);

        let resp = response(tag, n64, n32, text(&picks), &items);
        let frame = encode_response(&resp).expect("a response encodes");
        let back = decode_response(&frame[4..]).expect("a response decodes");
        prop_assert_eq!(encode_response(&back).expect("re-encodes"), frame.clone());
        if items.iter().all(|&(_, bits)| !f64::from_bits(bits).is_nan()) {
            prop_assert_eq!(back, resp);
        }
        assert_hostile_variants_are_typed(&frame[4..], decode_response, flip);
    }
}
