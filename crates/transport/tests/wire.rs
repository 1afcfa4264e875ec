//! Wire-protocol hardening: every message round-trips exactly, and *no*
//! byte sequence — truncated, bit-flipped, length-forged, or just random
//! — makes the decoder panic, over-read, or hand back a forged message
//! without an error.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use pufatt_transport::error::{ErrorCode, TransportError};
use pufatt_transport::frame::{decode_frame, encode_frame, FrameReader, FRAME_HEADER, MAX_FRAME_LEN};
use pufatt_transport::message::{Request, Response, WireStats, WireStatus, PROTOCOL_MAGIC};

// ------------------------------------------------------------ strategies

fn any_request() -> impl Strategy<Value = Request> + Clone {
    prop_oneof![
        (any::<u64>().prop_map(u64::to_le_bytes), any::<u16>(), any::<u16>())
            .prop_map(|(magic, min_version, max_version)| Request::Hello { magic, min_version, max_version }),
        any::<u32>().prop_map(|device| Request::Enroll { device }),
        any::<u32>().prop_map(|device| Request::ChallengeRequest { device }),
        (any::<u32>(), any::<u64>()).prop_map(|(device, ticket)| Request::Attest { device, ticket }),
        any::<u32>().prop_map(|device| Request::Revoke { device }),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

fn any_status() -> impl Strategy<Value = WireStatus> + Clone {
    prop::sample::select(vec![WireStatus::Active, WireStatus::Quarantined, WireStatus::Revoked])
}

fn any_code() -> impl Strategy<Value = ErrorCode> + Clone {
    prop::sample::select(vec![
        ErrorCode::VersionMismatch,
        ErrorCode::Malformed,
        ErrorCode::UnknownDevice,
        ErrorCode::Refused,
        ErrorCode::DeviceFault,
        ErrorCode::BadTicket,
        ErrorCode::RateLimited,
        ErrorCode::Draining,
        ErrorCode::Internal,
        ErrorCode::StorageUnavailable,
    ])
}

fn any_detail() -> impl Strategy<Value = String> + Clone {
    prop::collection::vec(32u8..127, 0..80).prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>())
}

fn any_stats() -> impl Strategy<Value = WireStats> + Clone {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (started, accepted, rejected, timed_out, refused),
                (lost, faults, active, quarantined, revoked),
                (crp_hits, crp_misses, unavailable, shards_total),
                (shards_degraded, shards_failed),
            )| {
                WireStats {
                    started,
                    accepted,
                    rejected,
                    timed_out,
                    refused,
                    lost,
                    faults,
                    active,
                    quarantined,
                    revoked,
                    crp_hits,
                    crp_misses,
                    unavailable,
                    shards_total,
                    shards_degraded,
                    shards_failed,
                }
            },
        )
}

fn any_response() -> impl Strategy<Value = Response> + Clone {
    prop_oneof![
        any::<u16>().prop_map(|version| Response::HelloAck { version }),
        (any::<u32>(), any::<bool>(), any_status()).prop_map(|(device, fresh, status)| Response::EnrollOk {
            device,
            fresh,
            status
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(device, ticket)| Response::Challenge { device, ticket }),
        (
            (any::<u32>(), any::<bool>(), any::<bool>(), any::<bool>()),
            (any::<bool>(), any::<u32>(), any::<u64>(), any_status()),
        )
            .prop_map(
                |((device, accepted, response_ok, time_ok), (timed_out, attempts, elapsed_bits, status))| {
                    Response::Verdict {
                        device,
                        accepted,
                        response_ok,
                        time_ok,
                        timed_out,
                        attempts,
                        elapsed_bits,
                        status,
                    }
                }
            ),
        (any::<u32>(), any_status()).prop_map(|(device, status)| Response::RevokeOk { device, status }),
        any_stats().prop_map(Response::StatsReply),
        Just(Response::ShutdownAck),
        any::<u32>().prop_map(|retry_after_ms| Response::Busy { retry_after_ms }),
        (any_code(), any_detail()).prop_map(|(code, detail)| Response::Error { code, detail }),
    ]
}

// ------------------------------------------------------------ round trips

proptest! {
    /// Every request survives encode → frame → unframe → decode exactly,
    /// correlation id included.
    #[test]
    fn requests_roundtrip(request in any_request(), corr in any::<u32>()) {
        let mut payload = Vec::new();
        request.encode(corr, &mut payload);
        prop_assert!(payload.len() <= MAX_FRAME_LEN as usize);
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        let (unframed, consumed) = decode_frame(&wire).unwrap();
        prop_assert_eq!(consumed, wire.len());
        let (got_corr, got) = Request::decode(unframed).unwrap();
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(got, request);
    }

    /// Every response survives the same full trip.
    #[test]
    fn responses_roundtrip(response in any_response(), corr in any::<u32>()) {
        let mut payload = Vec::new();
        response.encode(corr, &mut payload);
        prop_assert!(payload.len() <= MAX_FRAME_LEN as usize);
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        let (unframed, _) = decode_frame(&wire).unwrap();
        let (got_corr, got) = Response::decode(unframed).unwrap();
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(got, response);
    }

    /// Arbitrary bytes decode to a typed error or a valid message — never
    /// a panic, never an over-read (checked implicitly: decode takes a
    /// slice and cannot index past it without panicking).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let mut payload = Vec::new();
        let _ = FrameReader::new().read_frame(&mut cursor, &mut payload, 0);
    }

    /// Truncating a valid frame anywhere yields a Frame error (or, at a
    /// length of zero, a clean close from the stream reader).
    #[test]
    fn truncated_frames_are_typed_errors(request in any_request(), cut_fraction in 0.0f64..1.0) {
        let mut payload = Vec::new();
        request.encode(9, &mut payload);
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < wire.len());
        prop_assert!(matches!(decode_frame(&wire[..cut]), Err(TransportError::Frame(_))));
        let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
        let mut buf = Vec::new();
        match FrameReader::new().read_frame(&mut cursor, &mut buf, 0) {
            Ok(false) => prop_assert_eq!(cut, 0, "clean close only at a frame boundary"),
            Err(TransportError::Frame(_)) => {}
            other => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
        }
    }

    /// Flipping any bit of a framed message is detected: decode either
    /// errors or the frame is rejected — the payload is never silently
    /// altered.
    #[test]
    fn bit_flips_never_forge_messages(request in any_request(), flip_pos in any::<usize>(), flip_bit in 0u8..8) {
        let mut payload = Vec::new();
        request.encode(1, &mut payload);
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        let pos = flip_pos % wire.len();
        wire[pos] ^= 1 << flip_bit;
        if let Ok((unframed, _)) = decode_frame(&wire) {
            // Both length and CRC collided — impossible for a single flip.
            return Err(TestCaseError::fail(format!("flip at {pos} survived the crc: {unframed:?}")));
        }
    }

    /// A forged length prefix is refused before any allocation, no matter
    /// what follows it.
    #[test]
    fn oversized_length_prefixes_are_refused(extra in 1u32..u32::MAX - MAX_FRAME_LEN, junk in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut wire = (MAX_FRAME_LEN + extra).to_le_bytes().to_vec();
        wire.extend_from_slice(&junk);
        match decode_frame(&wire) {
            Err(TransportError::Frame(_)) => {}
            other => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
        }
        if wire.len() >= FRAME_HEADER {
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            match FrameReader::new().read_frame(&mut cursor, &mut buf, 0) {
                Err(TransportError::Frame(_)) => {}
                other => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
            }
        }
    }

    /// Unknown message tags are Malformed, not a panic and not a guess.
    #[test]
    fn unknown_tags_are_malformed(corr in any::<u32>(), tag in 7u8..=u8::MAX, tail in prop::collection::vec(any::<u8>(), 0..32)) {
        let mut payload = corr.to_le_bytes().to_vec();
        payload.push(tag);
        payload.extend_from_slice(&tail);
        prop_assert!(matches!(Request::decode(&payload), Err(TransportError::Malformed(_))));
        if tag > 8 {
            prop_assert!(matches!(Response::decode(&payload), Err(TransportError::Malformed(_))));
        }
    }

    /// Trailing bytes after a structurally complete message are refused —
    /// a smuggling channel, not slack.
    #[test]
    fn trailing_bytes_are_refused(request in any_request(), trailing in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut payload = Vec::new();
        request.encode(0, &mut payload);
        payload.extend_from_slice(&trailing);
        prop_assert!(matches!(Request::decode(&payload), Err(TransportError::Malformed(_))));
    }
}

// ---------------------------------------------------- deterministic corpus

/// The hand-written malformed-frame corpus: one exemplar per attack
/// class, pinned so a codec refactor cannot silently drop a defence.
#[test]
fn malformed_corpus_is_typed_and_panic_free() {
    let valid = {
        let mut payload = Vec::new();
        Request::Hello { magic: PROTOCOL_MAGIC, min_version: 1, max_version: 1 }.encode(0, &mut payload);
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        wire
    };
    let oversized = {
        let mut w = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        w.extend_from_slice(&[0; 4]);
        w
    };
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("short header", valid[..FRAME_HEADER - 1].to_vec()),
        ("truncated payload", valid[..valid.len() - 1].to_vec()),
        ("oversized length", oversized),
        ("bit-flipped length", {
            let mut w = valid.clone();
            w[0] ^= 0x01;
            w
        }),
        ("bit-flipped crc", {
            let mut w = valid.clone();
            w[4] ^= 0x80;
            w
        }),
        ("bit-flipped body", {
            let mut w = valid.clone();
            let last = w.len() - 1;
            w[last] ^= 0x10;
            w
        }),
        ("all ones", vec![0xFF; 64]),
    ];
    for (name, bytes) in corpus {
        assert!(matches!(decode_frame(&bytes), Err(TransportError::Frame(_))), "{name} must be a frame error");
        let empty = bytes.is_empty();
        let mut cursor = std::io::Cursor::new(bytes);
        let mut buf = Vec::new();
        match FrameReader::new().read_frame(&mut cursor, &mut buf, 0) {
            Ok(true) => panic!("{name} must never yield a frame"),
            Ok(false) => assert!(empty, "{name}: clean close is only legal on a frame boundary"),
            Err(_) => {}
        }
    }
    // Frame-valid but protocol-invalid payloads: wrong magic and a hostile
    // detail length are Malformed at the message layer.
    let mut wrong_magic = Vec::new();
    Request::Hello { magic: *b"WRONGMAG", min_version: 1, max_version: 1 }.encode(0, &mut wrong_magic);
    let (_, decoded) = Request::decode(&wrong_magic).expect("structurally fine");
    match decoded {
        Request::Hello { magic, min_version, max_version } => {
            assert!(matches!(
                pufatt_transport::negotiate(magic, min_version, max_version),
                Err(TransportError::Malformed(_))
            ));
        }
        other => panic!("unexpected decode: {other:?}"),
    }
    // A declared string length pointing past the payload must not over-read.
    let mut forged = 0u32.to_le_bytes().to_vec();
    forged.push(8); // Response::Error tag
    forged.push(ErrorCode::Internal.to_byte());
    forged.extend_from_slice(&u16::MAX.to_le_bytes()); // detail "length"
    forged.extend_from_slice(b"tiny");
    assert!(matches!(Response::decode(&forged), Err(TransportError::Malformed(_))));
}

/// An all-zero header IS a valid empty frame (CRC-32 of nothing is 0) —
/// legal at the framing layer, refused at the message layer. Pin both
/// halves so neither layer starts covering for the other.
#[test]
fn zero_frame_is_an_empty_payload_not_an_error() {
    let mut wire = Vec::new();
    encode_frame(b"", &mut wire);
    let (payload, consumed) = decode_frame(&wire).expect("empty frame is legal");
    assert!(payload.is_empty());
    assert_eq!(consumed, FRAME_HEADER);
    // But an empty *message* payload is never a valid Request/Response.
    assert!(Request::decode(payload).is_err());
    assert!(Response::decode(payload).is_err());
}
