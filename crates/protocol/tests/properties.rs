//! Property tests for the protocol state machines.
//!
//! These drive the ARQ and MFTP machinery through adversarial loss/reorder
//! schedules and assert the end-to-end invariants the middleware relies on:
//! exactly-once in-order delivery for the reliable channel, and bit-exact
//! file reconstruction for the bulk transfer protocol. The frame check's
//! sliced CRC-32 is held against a bit-at-a-time reference.

use bytes::Bytes;
use proptest::prelude::*;

use marea_presentation::Name;
use marea_protocol::arq::{ArqConfig, ArqReceiver, ArqSender};
use marea_protocol::fec::{FecRate, FecReceiver, FecSender};
use marea_protocol::fragment::{fragment_payload, Reassembler};
use marea_protocol::mftp::{FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{
    crc32, crc32_update, Frame, GroupId, Message, Micros, NodeId, ProtoDuration, TransferId,
};

/// CRC-32 one bit at a time with the reflected polynomial 0xEDB88320:
/// the definition itself, sharing no table with the implementation.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
        }
    }
    !c
}

/// `len` deterministic bytes that are not a repeating pattern.
fn noise(len: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

#[test]
fn crc_matches_bitwise_reference_at_every_short_length_and_offset() {
    let buf = noise(64 + 8);
    for len in 0..=64 {
        for offset in 0..8 {
            let data = &buf[offset..offset + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {len} offset {offset}");
        }
    }
}

#[test]
fn crc_streaming_matches_oneshot_at_every_split() {
    let data = noise(100);
    let whole = crc32_bitwise(&data);
    for split in 0..=data.len() {
        let state = crc32_update(0xFFFF_FFFF, &data[..split]);
        assert_eq!(crc32_update(state, &data[split..]) ^ 0xFFFF_FFFF, whole, "split at {split}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sliced CRC equals the bitwise definition on random inputs up to
    /// a jumbo datagram, at every alignment of the 8-byte steps.
    #[test]
    fn crc_matches_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..9001),
        offset in 0usize..8,
    ) {
        let start = offset.min(data.len());
        prop_assert_eq!(crc32(&data[start..]), crc32_bitwise(&data[start..]));
    }

    /// ARQ delivers every message exactly once, in order, under arbitrary
    /// per-transmission loss (as long as loss is not total) — the §4.2
    /// guarantee behind the event primitive.
    #[test]
    fn arq_delivers_exactly_once_in_order(
        payload_count in 1usize..40,
        loss_seed in any::<u64>(),
        loss_permille in 0u32..700,
    ) {
        let cfg = ArqConfig {
            window: 16,
            initial_rto: ProtoDuration::from_millis(20),
            max_rto: ProtoDuration::from_millis(200),
            max_attempts: 30,
        };
        let mut tx = ArqSender::new(1, cfg);
        let mut rx = ArqReceiver::new(1, 64);
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut to_send: Vec<Bytes> =
            (0..payload_count).map(|i| Bytes::from(vec![i as u8; 8])).collect();
        to_send.reverse();

        // Simple deterministic PRNG for the loss schedule.
        let mut state = loss_seed | 1;
        let mut chance = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as u32
        };

        let mut now = Micros::ZERO;
        let mut stalled_iters = 0;
        while delivered.len() < payload_count {
            // Feed the window.
            while tx.can_send() {
                let Some(p) = to_send.pop() else { break };
                let msg = tx.send(p, now).unwrap();
                if chance() >= loss_permille {
                    if let Message::RelData { seq, payload, .. } = msg {
                        delivered.extend(rx.on_data(seq, payload));
                    }
                }
            }
            // Retransmissions (lossy too).
            let (retx, failed) = tx.poll(now);
            prop_assert!(failed.is_empty(), "retry budget must suffice at this loss rate");
            for msg in retx {
                if chance() >= loss_permille {
                    if let Message::RelData { seq, payload, .. } = msg {
                        delivered.extend(rx.on_data(seq, payload));
                    }
                }
            }
            // Ack path (also lossy).
            if chance() >= loss_permille {
                if let Message::RelAck { cumulative, sack, .. } = rx.make_ack() {
                    tx.on_ack(cumulative, sack);
                }
            }
            now += ProtoDuration::from_millis(25);
            stalled_iters += 1;
            prop_assert!(stalled_iters < 4000, "must converge");
        }
        prop_assert_eq!(delivered.len(), payload_count);
        for (i, p) in delivered.iter().enumerate() {
            let expected = vec![i as u8; 8];
            prop_assert_eq!(p.as_ref(), expected.as_slice());
        }
        // Exactly-once: nothing extra arrives later.
        let (retx, _) = tx.poll(now + ProtoDuration::from_secs(10));
        for msg in retx {
            if let Message::RelData { seq, payload, .. } = msg {
                prop_assert!(rx.on_data(seq, payload).is_empty());
            }
        }
    }

    /// MFTP reconstructs the exact file bytes for every subscriber under
    /// arbitrary independent chunk loss, in a bounded number of rounds.
    #[test]
    fn mftp_reconstructs_exact_bytes(
        size in 0usize..8000,
        chunk_size in 1u32..700,
        n_subs in 1usize..5,
        loss_seed in any::<u64>(),
        loss_permille in 0u32..500,
    ) {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 255) as u8).collect();
        let mut s = FileSender::new(
            TransferId(9),
            Name::new("blob").unwrap(),
            1,
            Bytes::from(data.clone()),
            chunk_size,
            GroupId(3),
        ).unwrap();
        let mut rxs = Vec::new();
        for i in 0..n_subs {
            let node = NodeId(10 + i as u32);
            s.on_subscribe(node);
            let (rx, _sub) =
                FileReceiver::from_announce(&s.announce(), node, RevisionPolicy::Restart).unwrap();
            rxs.push(rx);
        }

        let mut state = loss_seed | 1;
        let mut chance = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as u32
        };

        let mut rounds = 0;
        loop {
            loop {
                let chunks = s.next_chunks(32);
                if chunks.is_empty() {
                    break;
                }
                for c in &chunks {
                    if let Message::FileChunk { revision, index, payload, .. } = c {
                        for rx in rxs.iter_mut() {
                            if chance() >= loss_permille {
                                rx.on_chunk(*revision, *index, payload);
                            }
                        }
                    }
                }
            }
            let q = s.query();
            let Message::FileQuery { revision, .. } = q else { unreachable!() };
            for rx in &rxs {
                match rx.on_query(revision) {
                    Some(Message::FileAck { subscriber, revision, .. }) => {
                        s.on_ack(subscriber, revision);
                    }
                    Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                        s.on_nack(subscriber, revision, &runs).unwrap();
                    }
                    _ => {}
                }
            }
            if s.is_complete() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 200, "transfer must converge");
        }
        for rx in rxs {
            prop_assert!(rx.is_complete());
            let got = rx.into_data();
            prop_assert_eq!(got.as_ref(), data.as_slice());
        }
    }

    /// MFTP reconstructs exact bytes when the chunk stream is *adversarial*
    /// end to end: seeded per-replica loss, per-round reordering and
    /// duplicated deliveries — the multicast reality of a lossy radio LAN
    /// where retransmitted repair rounds interleave with stragglers.
    #[test]
    fn mftp_survives_loss_reorder_and_duplication(
        size in 1usize..6000,
        chunk_size in 16u32..700,
        n_subs in 1usize..4,
        chaos_seed in any::<u64>(),
        loss_permille in 0u32..400,
    ) {
        let data: Vec<u8> = (0..size).map(|i| (i * 131 % 251) as u8).collect();
        let mut s = FileSender::new(
            TransferId(11),
            Name::new("chaos-blob").unwrap(),
            1,
            Bytes::from(data.clone()),
            chunk_size,
            GroupId(5),
        ).unwrap();
        let mut rxs = Vec::new();
        for i in 0..n_subs {
            let node = NodeId(20 + i as u32);
            s.on_subscribe(node);
            let (rx, _sub) =
                FileReceiver::from_announce(&s.announce(), node, RevisionPolicy::Restart).unwrap();
            rxs.push(rx);
        }

        let mut state = chaos_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut rounds = 0;
        loop {
            // Drain the sender's pending chunks for this round.
            let mut round: Vec<Message> = Vec::new();
            loop {
                let chunks = s.next_chunks(16);
                if chunks.is_empty() {
                    break;
                }
                round.extend(chunks);
            }
            // Adversarial delivery per receiver: independent loss, a
            // seeded rotation (reorder), and one duplicated chunk.
            for rx in rxs.iter_mut() {
                let mut deliver: Vec<&Message> =
                    round.iter().filter(|_| next() % 1000 >= loss_permille).collect();
                if !deliver.is_empty() {
                    let rot = next() as usize % deliver.len();
                    deliver.rotate_left(rot);
                    deliver.push(deliver[next() as usize % deliver.len()]);
                }
                for c in deliver {
                    if let Message::FileChunk { revision, index, payload, .. } = c {
                        rx.on_chunk(*revision, *index, payload);
                    }
                }
            }
            // Repair round-trip (queries/acks/nacks are lossless here —
            // the ARQ below them is covered by its own property).
            let Message::FileQuery { revision, .. } = s.query() else { unreachable!() };
            for rx in &rxs {
                match rx.on_query(revision) {
                    Some(Message::FileAck { subscriber, revision, .. }) => {
                        s.on_ack(subscriber, revision);
                    }
                    Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                        s.on_nack(subscriber, revision, &runs).unwrap();
                    }
                    _ => {}
                }
            }
            if s.is_complete() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 300, "transfer must converge under chaos");
        }
        for rx in rxs {
            prop_assert!(rx.is_complete());
            let got = rx.into_data();
            prop_assert_eq!(got.as_ref(), data.as_slice(), "bit-exact after chaos");
        }
    }

    /// FEC encode→erase→decode roundtrip: with at most one data shard
    /// erased per parity lane and the parity delivered, every wrapped
    /// message comes back bit-exact without any retransmission — the
    /// repair the layer exists to buy.
    #[test]
    fn fec_roundtrip_recovers_in_budget_erasures(
        group_count in 1usize..12,
        erase_seed in any::<u64>(),
        rate_loss in 0u16..400,
    ) {
        let mut tx = FecSender::new(1, FecRate::Max);
        tx.on_loss_report(rate_loss); // pick a geometry from the table
        let (k, r) = tx.rate().params();
        prop_assert!(r >= 1);

        let mut state = erase_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut rx = FecReceiver::new();
        let mut sent: Vec<Bytes> = Vec::new();
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut recovered_groups = 0u64;
        for g in 0..group_count {
            let mut wire = Vec::new();
            for i in 0..k {
                let payload = Bytes::from(vec![(g * 16 + usize::from(i)) as u8; 4]);
                let inner = Message::RelData { channel: 1, seq: sent.len() as u64, payload };
                sent.push(inner.encode_tagged());
                tx.wrap(inner, &mut wire);
            }
            // One erased data shard per group, on a seeded index (a lane
            // never loses more than one member when r divides the picks).
            let erase_all_parity = next() % 4 == 0 && r == 1;
            let victim = if erase_all_parity { None } else { Some((next() % u32::from(k)) as u8) };
            if victim.is_some() {
                recovered_groups += 1;
            }
            for m in wire {
                let Message::FecShard { group, index, k, r, payload, .. } = m else {
                    panic!("coded wire expected: {m:?}");
                };
                if Some(index) == victim {
                    continue; // erased by the radio
                }
                if erase_all_parity && index & 0x80 != 0 {
                    continue; // lost parity: group closes with no repair due
                }
                rx.on_shard(group, index, k, r, &payload, &mut delivered);
            }
        }
        prop_assert_eq!(delivered.len(), sent.len(), "one erasure per group is always repaired");
        let mut got = delivered.clone();
        got.sort();
        let mut want = sent.clone();
        want.sort();
        prop_assert_eq!(got, want, "recovered frames must be bit-exact");
        prop_assert_eq!(rx.stats().recovered, recovered_groups);
    }

    /// The full reliable stack — ARQ above, FEC below — delivers exactly
    /// once, in order, when the shard stream is adversarial: seeded
    /// erasure, per-round reordering and duplicated shards. Losses beyond
    /// the parity budget fall through to ARQ's retransmit timers cleanly,
    /// so the property holds at loss rates FEC alone cannot absorb.
    #[test]
    fn fec_below_arq_survives_loss_reorder_and_duplication(
        payload_count in 1usize..30,
        chaos_seed in any::<u64>(),
        loss_permille in 0u32..500,
    ) {
        let cfg = ArqConfig {
            window: 16,
            initial_rto: ProtoDuration::from_millis(20),
            max_rto: ProtoDuration::from_millis(200),
            max_attempts: 40,
        };
        let mut arq_tx = ArqSender::new(1, cfg);
        let mut arq_rx = ArqReceiver::new(1, 64);
        let mut fec_tx = FecSender::new(1, FecRate::Max);
        let mut fec_rx = FecReceiver::new();

        let mut state = chaos_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut to_send: Vec<Bytes> =
            (0..payload_count).map(|i| Bytes::from(vec![i as u8; 8])).collect();
        to_send.reverse();
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut now = Micros::ZERO;
        let mut rounds = 0;
        while delivered.len() < payload_count {
            // Produce this round's coded wire traffic.
            let mut wire: Vec<Message> = Vec::new();
            while arq_tx.can_send() {
                let Some(p) = to_send.pop() else { break };
                fec_tx.wrap(arq_tx.send(p, now).unwrap(), &mut wire);
            }
            let (retx, failed) = arq_tx.poll(now);
            prop_assert!(failed.is_empty(), "retry budget must suffice");
            for m in retx {
                fec_tx.wrap(m, &mut wire);
            }
            fec_tx.flush(&mut wire); // tick boundary: close the partial group
            // Adversarial channel: seeded loss, rotation, one duplicate.
            let mut channel: Vec<&Message> =
                wire.iter().filter(|_| next() % 1000 >= loss_permille).collect();
            if !channel.is_empty() {
                let rot = next() as usize % channel.len();
                channel.rotate_left(rot);
                channel.push(channel[next() as usize % channel.len()]);
            }
            for m in channel {
                let Message::FecShard { group, index, k, r, payload, .. } = m else {
                    panic!("all link traffic is coded here: {m:?}");
                };
                let mut inner = Vec::new();
                fec_rx.on_shard(*group, *index, *k, *r, payload, &mut inner);
                for tagged in inner {
                    if let Ok(Message::RelData { seq, payload, .. }) =
                        Message::decode_tagged(&tagged)
                    {
                        delivered.extend(arq_rx.on_data(seq, payload));
                    }
                }
            }
            // Lossless ack path: the lossy-ack case is ARQ's own property.
            if let Message::RelAck { cumulative, sack, .. } = arq_rx.make_ack() {
                arq_tx.on_ack(cumulative, sack);
            }
            now += ProtoDuration::from_millis(25);
            rounds += 1;
            prop_assert!(rounds < 4000, "must converge (FEC repair or ARQ fallback)");
        }
        prop_assert_eq!(delivered.len(), payload_count);
        for (i, p) in delivered.iter().enumerate() {
            let expected = vec![i as u8; 8];
            prop_assert_eq!(p.as_ref(), expected.as_slice(), "exactly once, in order");
        }
    }

    /// Fragmentation survives arbitrary permutations and duplication.
    #[test]
    fn fragments_reassemble_under_shuffle(
        payload in proptest::collection::vec(any::<u8>(), 0..6000),
        chunk in 1usize..999,
        shuffle in any::<prop::sample::Index>(),
        dup in any::<prop::sample::Index>(),
    ) {
        let frags = fragment_payload(1, &Bytes::from(payload.clone()), chunk).unwrap();
        let mut order: Vec<usize> = (0..frags.len()).collect();
        // Rotate by a generated amount (cheap deterministic permutation).
        let rot = shuffle.index(frags.len().max(1));
        order.rotate_left(rot);
        // Inject one duplicate.
        order.push(dup.index(frags.len().max(1)).min(frags.len() - 1));

        let mut r = Reassembler::new(ProtoDuration::from_secs(5));
        let mut out = None;
        for i in order {
            if let Message::Fragment { msg_id, index, count, payload } = frags[i].clone() {
                if let Some(full) = r
                    .offer(NodeId(1), msg_id, index, count, payload, Micros::ZERO)
                    .unwrap()
                {
                    out = Some(full);
                }
            }
        }
        let got = out.unwrap();
        prop_assert_eq!(got.as_ref(), payload.as_slice());
    }

    /// Arbitrary bytes never panic the frame parser, and valid frames
    /// round-trip bit-exactly.
    #[test]
    fn frame_fuzz_and_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&Bytes::from(bytes.clone())); // must not panic
        let frame = Frame::new(NodeId(1), marea_protocol::MessageKind::VarSample,
            Bytes::from(bytes.clone()));
        let wire = frame.encode();
        let back = Frame::decode(&wire).unwrap();
        prop_assert_eq!(back.payload(), bytes.as_slice());
    }

    /// Arbitrary bytes never panic the tagged-message parser.
    #[test]
    fn message_fuzz_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode_tagged(&Bytes::from(bytes));
    }

    /// A corrupted frame is always rejected (CRC) — flip any single bit.
    #[test]
    fn frame_single_bit_corruption_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = Frame::new(NodeId(7), marea_protocol::MessageKind::EventData,
            Bytes::from(payload));
        let mut wire = frame.encode().to_vec();
        let i = byte.index(wire.len());
        wire[i] ^= 1 << bit;
        prop_assert!(Frame::decode(&Bytes::from(wire)).is_err(), "bit flip at {}:{} accepted", i, bit);
    }
}
