//! Replay timing of the protocol and encoding layers: the public
//! functions the container calls, run in isolation on the message shapes
//! of one workload.

use std::hint::black_box;

use bytes::Bytes;
use marea_encoding::{Codec, CompactCodec};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::fec::{FecRate, GroupEncoder, MAX_SHARD_LEN};
use marea_protocol::fragment::{fragment_payload, Reassembler};
use marea_protocol::{crc32, Frame, Message, Micros, NodeId, ProtoDuration};

use crate::alloc;
use crate::ledger::payload;
use crate::wall;

/// Fragment budget the container uses on a 1500-byte MTU.
const FRAGMENT_BUDGET: usize = 1500 - 96;

/// Timed batches per function; the median batch is reported.
const BATCHES: usize = 7;

/// Wall ns a batch should last at least.
const BATCH_NS: u128 = 2_000_000;

/// Median ns per call of `f`.
fn per_op(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let t0 = wall::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_nanos() >= BATCH_NS / 4 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = wall::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// The workload's application message and payload size.
pub struct Shape {
    /// Variable (`true`) or event (`false`) carrying the payload.
    pub var: bool,
    /// Application payload bytes.
    pub size: usize,
    /// Whether reliable delivery wraps it in a `RelData` envelope.
    pub reliable: bool,
}

/// Replay results, ns per call unless named otherwise.
#[derive(Debug, Default)]
pub struct Replay {
    /// CRC-32 over 1 KiB.
    pub crc32_ns_per_kib: f64,
    /// Encode of one wire frame of the workload's dominant shape.
    pub frame_encode_ns: f64,
    /// Decode of the same frame.
    pub frame_decode_ns: f64,
    /// Tagged encode of the message that frame carries.
    pub message_encode_ns: f64,
    /// Tagged decode of that message.
    pub message_decode_ns: f64,
    /// Fragmentation of the application message's reliable envelope.
    pub fragment_ns: f64,
    /// Reassembly of those fragments.
    pub reassemble_ns: f64,
    /// FEC encode, per data shard of a medium-rate group.
    pub fec_encode_ns: f64,
    /// Compact-codec encode of the payload value.
    pub encode_ns: f64,
    /// Compact-codec decode of it.
    pub decode_ns: f64,
    /// Allocations per encode+decode round trip.
    pub allocs_per_roundtrip: f64,
}

/// Times every replayed function on `shape`.
pub fn run(shape: &Shape) -> Replay {
    let codec = CompactCodec;
    let ty = DataType::Bytes;
    let value = Value::Bytes(payload(0, 1, 2, shape.size));
    let encoded = codec.encode_to_vec(&value, &ty).expect("bytes encode");
    let name = Name::new("bench/replay").expect("valid name literal");
    let body = Bytes::from(encoded.clone());
    let app = if shape.var {
        Message::VarSample {
            name,
            seq: 7,
            stamp_us: 1_000,
            validity_us: 1_000_000,
            trace: 3,
            codec: 0,
            payload: body,
        }
    } else {
        Message::EventData { name, seq: 7, stamp_us: 1_000, trace: 3, codec: 0, payload: body }
    };
    let carried = if shape.reliable {
        Message::RelData { channel: 1, seq: 9, payload: app.encode_tagged() }
    } else {
        app
    };
    let tagged = carried.encode_tagged();
    let fragments = fragment_payload(1, &tagged, FRAGMENT_BUDGET).expect("fragmentable");
    // The message one frame carries: the whole envelope, or its first
    // fragment when it does not fit the MTU.
    let on_wire = if fragments.len() > 1 { fragments[0].clone() } else { carried };
    let wire_tagged = on_wire.encode_tagged();
    let frame = Frame::new(NodeId(1), on_wire.kind(), on_wire.encode_payload());
    let wire = frame.encode();
    let kib = vec![0xA5u8; 1024];
    let shard = &tagged[..tagged.len().min(MAX_SHARD_LEN)];
    let (k, r) = FecRate::Medium.params();
    let mut encoder = GroupEncoder::new(MAX_SHARD_LEN, r);

    let a0 = alloc::snapshot();
    const ROUNDTRIPS: u64 = 1_000;
    for _ in 0..ROUNDTRIPS {
        let bytes = codec.encode_to_vec(black_box(&value), &ty).expect("bytes encode");
        black_box(codec.decode(&bytes, &ty).expect("bytes decode"));
    }
    let allocs_per_roundtrip = alloc::snapshot().since(a0).allocs as f64 / ROUNDTRIPS as f64;

    Replay {
        crc32_ns_per_kib: per_op(|| {
            black_box(crc32(black_box(&kib)));
        }),
        frame_encode_ns: per_op(|| {
            black_box(black_box(&frame).encode());
        }),
        frame_decode_ns: per_op(|| {
            black_box(Frame::decode(black_box(&wire)).expect("frame decodes"));
        }),
        message_encode_ns: per_op(|| {
            black_box(black_box(&on_wire).encode_tagged());
        }),
        message_decode_ns: per_op(|| {
            black_box(Message::decode_tagged(black_box(&wire_tagged)).expect("message decodes"));
        }),
        fragment_ns: per_op(|| {
            black_box(fragment_payload(1, black_box(&tagged), FRAGMENT_BUDGET).expect("fragments"));
        }),
        reassemble_ns: per_op(|| {
            let mut re = Reassembler::new(ProtoDuration::from_secs(1));
            for f in &fragments {
                if let Message::Fragment { msg_id, index, count, payload } = f {
                    let done =
                        re.offer(NodeId(1), *msg_id, *index, *count, payload.clone(), Micros(0));
                    black_box(done.expect("consistent fragments"));
                }
            }
        }),
        fec_encode_ns: per_op(|| {
            encoder.begin(k, r);
            for _ in 0..k {
                black_box(encoder.push(black_box(shard)));
            }
            black_box(encoder.parity(0));
        }) / f64::from(k),
        encode_ns: per_op(|| {
            black_box(codec.encode_to_vec(black_box(&value), &ty).expect("bytes encode"));
        }),
        decode_ns: per_op(|| {
            black_box(codec.decode(black_box(&encoded), &ty).expect("bytes decode"));
        }),
        allocs_per_roundtrip,
    }
}
