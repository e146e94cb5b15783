//! The served read path hands each `Batch` to the engine with the workload
//! fingerprint computed in the pass that verifies the frame digest, and
//! reads every frame into one reused buffer. These tests pin that both
//! changes are invisible from outside:
//!
//! * the `Batch` body after `tag | batch` hashes to exactly
//!   [`workload_fingerprint`] of its sequences, and the reader returns that
//!   value;
//! * a flipped byte anywhere in a `Batch` frame fails with the same typed
//!   error as the single-digest check order (magic, length cap, sequence,
//!   EOF, digest), and a live server runs no batch from it;
//! * a frame whose digest verifies but whose payload is malformed returns
//!   the payload decoder's typed error;
//! * an oversized declared length is rejected before the buffer grows;
//! * a short frame read after a long one sees none of the long one's bytes.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use parapage::cache::{fnv1a64, fnv1a64_seeded, CodecError, PageId, SnapWriter};
use parapage::sched::workload_fingerprint;
use parapage_server::protocol::{
    c2s_chain_seed, error_code, frame_wire, s2c_chain_seed, Frame, TenantConfig, WireError,
    WireState, MAX_FRAME, PROTO_VERSION, WIRE_HEADER, WIRE_MAGIC,
};
use parapage_server::server::{serve, ServeOpts};
use parapage_server::Client;

fn seqs_strategy() -> impl Strategy<Value = Vec<Vec<PageId>>> {
    prop::collection::vec(
        prop::collection::vec(any::<u64>().prop_map(PageId), 0..40),
        1..6,
    )
}

/// The reader's checks in their single-digest form: header EOF, length
/// cap, body EOF, magic, sequence, one FNV chain over everything the
/// digest covers, then the payload decode.
fn reference_read(bytes: &[u8], chain: u64) -> Result<Frame, CodecError> {
    if bytes.len() < WIRE_HEADER {
        return Err(CodecError::UnexpectedEof);
    }
    let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Invalid("frame length exceeds MAX_FRAME"));
    }
    let total = WIRE_HEADER + len + 8;
    if bytes.len() < total {
        return Err(CodecError::UnexpectedEof);
    }
    if bytes[..4] != WIRE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes[4..12] != 0u64.to_le_bytes() {
        return Err(CodecError::Invalid("frame sequence break"));
    }
    let computed = fnv1a64_seeded(chain, &bytes[4..total - 8]);
    let stored = u64::from_le_bytes(bytes[total - 8..total].try_into().unwrap());
    if computed != stored {
        return Err(CodecError::DigestMismatch { computed, stored });
    }
    Frame::decode_payload(&bytes[WIRE_HEADER..WIRE_HEADER + len])
}

/// Reads one frame from `bytes` through a fresh receive state.
fn fused_read(bytes: &[u8]) -> Result<(Frame, Option<u64>), CodecError> {
    let mut rx = WireState::new(c2s_chain_seed());
    match rx.read_frame_fingerprinted(&mut Cursor::new(bytes)) {
        Ok(read) => Ok(read),
        Err(WireError::Codec(e)) => Err(e),
        Err(other) => panic!("a cursor read failed outside the codec: {other}"),
    }
}

fn batch_bytes(batch: u64, seqs: Vec<Vec<PageId>>) -> Vec<u8> {
    let payload = Frame::Batch { batch, seqs }.encode_payload();
    frame_wire(0, c2s_chain_seed(), &payload).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The hand-off rests on one byte identity: a `Batch` body after
    /// `tag | batch` is the stream `workload_fingerprint` hashes.
    #[test]
    fn batch_body_hashes_to_the_workload_fingerprint(
        batch in any::<u64>(),
        seqs in seqs_strategy(),
    ) {
        let want = workload_fingerprint(&seqs);
        let payload = Frame::Batch { batch, seqs: seqs.clone() }.encode_payload();
        prop_assert_eq!(fnv1a64(&payload[9..]), want);

        let (frame, fingerprint) = fused_read(&batch_bytes(batch, seqs.clone())).unwrap();
        prop_assert_eq!(frame, Frame::Batch { batch, seqs });
        prop_assert_eq!(fingerprint, Some(want));
    }

    /// A flipped byte anywhere in a `Batch` frame fails with exactly the
    /// error the single-digest check order gives — never a frame.
    #[test]
    fn flipped_batch_bytes_fail_like_the_single_digest_check(
        batch in any::<u64>(),
        seqs in seqs_strategy(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = batch_bytes(batch, seqs);
        let i = at % bytes.len();
        bytes[i] ^= mask;
        let want = reference_read(&bytes, c2s_chain_seed());
        prop_assert!(want.is_err(), "flip at {} verified", i);
        if i >= WIRE_HEADER {
            prop_assert!(
                matches!(want, Err(CodecError::DigestMismatch { .. })),
                "flip at {}: {:?}", i, want
            );
        }
        prop_assert_eq!(fused_read(&bytes).map(|(frame, _)| frame), want);
    }
}

#[test]
fn every_p_and_empty_sequences_fingerprint_alike() {
    for seqs in [
        vec![vec![]],
        vec![vec![PageId(7)]],
        vec![vec![], vec![], vec![]],
        vec![vec![PageId(1), PageId(2)], vec![], vec![PageId(u64::MAX)]],
    ] {
        let (_, fingerprint) = fused_read(&batch_bytes(9, seqs.clone())).unwrap();
        assert_eq!(fingerprint, Some(workload_fingerprint(&seqs)), "{seqs:?}");
    }
    // Every other frame carries no fingerprint.
    for frame in [Frame::Stats, Frame::Replay { batch: 3 }, Frame::Goodbye] {
        let bytes = frame_wire(0, c2s_chain_seed(), &frame.encode_payload()).0;
        assert_eq!(fused_read(&bytes).unwrap(), (frame, None));
    }
}

#[test]
fn well_framed_malformed_payloads_return_the_decoder_error() {
    let batch_head = |nseqs: u64| {
        let mut w = SnapWriter::new();
        w.put_u8(3); // BATCH tag
        w.put_u64(0);
        w.put_u64(nseqs);
        w
    };
    let mut cases: Vec<(Vec<u8>, CodecError)> = vec![
        (vec![3], CodecError::UnexpectedEof),
        (vec![3, 0, 0, 0, 0, 0, 0, 0, 0], CodecError::UnexpectedEof),
        (vec![200], CodecError::Invalid("unknown frame tag")),
        (
            batch_head(u64::MAX >> 1).into_bytes(),
            CodecError::Invalid("collection length exceeds payload"),
        ),
    ];
    // Two sequences declared, one present.
    let mut w = batch_head(2);
    w.put_len(1);
    w.put_page(PageId(4));
    cases.push((w.into_bytes(), CodecError::UnexpectedEof));
    // Three pages declared, two present.
    let mut w = batch_head(1);
    w.put_len(3);
    w.put_page(PageId(1));
    w.put_page(PageId(2));
    cases.push((
        w.into_bytes(),
        CodecError::Invalid("page list length exceeds remaining payload"),
    ));
    // One page declared, seven of its eight bytes present.
    let mut w = batch_head(1);
    w.put_len(1);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&[0; 7]);
    cases.push((
        bytes,
        CodecError::Invalid("page list length exceeds remaining payload"),
    ));
    // A complete batch with one trailing byte.
    let mut bytes = Frame::Batch {
        batch: 0,
        seqs: vec![vec![PageId(5)]],
    }
    .encode_payload();
    bytes.push(0);
    cases.push((
        bytes,
        CodecError::Invalid("trailing bytes after frame payload"),
    ));

    for (payload, want) in cases {
        assert_eq!(Frame::decode_payload(&payload), Err(want.clone()));
        let (bytes, _) = frame_wire(0, c2s_chain_seed(), &payload);
        assert_eq!(fused_read(&bytes), Err(want), "payload {payload:?}");
    }
}

#[test]
fn oversized_length_is_rejected_before_the_buffer_grows() {
    let mut rx = WireState::new(c2s_chain_seed());
    assert_eq!(rx.buffer_capacity(), 0);
    let mut stream = batch_bytes(0, vec![vec![PageId(1); 100]]);
    let first = stream.len();
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&WIRE_MAGIC);
    oversized.extend_from_slice(&1u64.to_le_bytes());
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.extend_from_slice(&oversized);
    let mut cursor = Cursor::new(stream);
    rx.read_frame(&mut cursor).expect("first frame");
    assert_eq!(rx.buffer_capacity(), first);
    let err = rx.read_frame(&mut cursor).expect_err("oversized");
    assert!(
        matches!(err, WireError::Codec(CodecError::Invalid(_))),
        "{err}"
    );
    assert_eq!(rx.buffer_capacity(), first);

    // The write side refuses an oversized frame too, and keeps no buffer
    // of that size.
    let mut tx = WireState::new(c2s_chain_seed());
    let huge = Frame::Batch {
        batch: 0,
        seqs: vec![vec![PageId(0); MAX_FRAME / 8]],
    };
    let mut sink = Vec::new();
    assert!(matches!(
        tx.write_frame(&mut sink, &huge),
        Err(WireError::Codec(CodecError::Invalid(_)))
    ));
    assert!(sink.is_empty());
    assert_eq!(tx.buffer_capacity(), 0);
}

#[test]
fn short_frames_after_long_ones_see_no_stale_bytes() {
    let frames = [
        Frame::Batch {
            batch: 0,
            seqs: vec![(0..500).map(PageId).collect(), vec![PageId(3); 200]],
        },
        Frame::Stats,
        Frame::Batch {
            batch: 1,
            seqs: vec![vec![PageId(9)], vec![]],
        },
        Frame::Error {
            code: 5,
            message: "x".into(),
        },
        Frame::Batch {
            batch: 2,
            seqs: vec![(0..300).rev().map(PageId).collect(), vec![PageId(1)]],
        },
    ];
    let mut tx = WireState::new(c2s_chain_seed());
    let mut stream = Vec::new();
    let mut chain = c2s_chain_seed();
    for (seq, frame) in frames.iter().enumerate() {
        let at = stream.len();
        tx.write_frame(&mut stream, frame).unwrap();
        // The in-place encoder writes what the reference framer writes.
        let (want, digest) = frame_wire(seq as u64, chain, &frame.encode_payload());
        assert_eq!(&stream[at..], &want[..], "frame {seq}");
        chain = digest;
    }
    let largest = WIRE_HEADER + frames[0].encode_payload().len() + 8;
    let mut rx = WireState::new(c2s_chain_seed());
    let mut cursor = Cursor::new(stream);
    for frame in &frames {
        let (got, fingerprint) = rx.read_frame_fingerprinted(&mut cursor).unwrap();
        assert_eq!(&got, frame);
        if let Frame::Batch { seqs, .. } = frame {
            assert_eq!(fingerprint, Some(workload_fingerprint(seqs)));
        }
        assert_eq!(rx.buffer_capacity(), largest);
    }
    assert!(matches!(rx.read_frame(&mut cursor), Err(WireError::Closed)));
}

/// A live server answers a corrupted `Batch` with a typed `BAD_FRAME` and
/// runs nothing: on re-attach the tenant still expects batch 0 and the
/// server has served no batch.
#[test]
fn corrupted_batch_never_reaches_the_tenant() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();
    let config = TenantConfig {
        tenant: "flip".into(),
        p: 2,
        k: 16,
        s: 4,
        policy: "det-par".into(),
        seed: 1,
        shards: 2,
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut tx = WireState::new(c2s_chain_seed());
    let mut rx = WireState::new(s2c_chain_seed());
    tx.write_frame(
        &mut stream,
        &Frame::Hello {
            proto: PROTO_VERSION,
            config: config.clone(),
        },
    )
    .expect("hello");
    assert!(matches!(
        rx.read_frame(&mut stream),
        Ok(Frame::HelloAck { .. })
    ));
    let mut frame = Vec::new();
    tx.write_frame(
        &mut frame,
        &Frame::Batch {
            batch: 0,
            seqs: vec![vec![PageId(1), PageId(2)], vec![PageId(3)]],
        },
    )
    .expect("encode");
    let body = WIRE_HEADER + 20;
    frame[body] ^= 0x40;
    stream.write_all(&frame).expect("send");
    match rx.read_frame(&mut stream) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, error_code::BAD_FRAME);
            assert!(message.contains("digest mismatch"), "{message}");
        }
        other => panic!("expected BAD_FRAME, got {other:?}"),
    }

    let mut again = Client::connect(addr).expect("reconnect");
    match again.hello(config).expect("hello") {
        Frame::HelloAck { next_batch, .. } => assert_eq!(next_batch, 0),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    assert_eq!(handle.stats().batches, 0);
    assert_eq!(handle.stats().requests, 0);
    handle.shutdown();
}
