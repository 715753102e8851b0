//! Fragmentation and reassembly of payloads larger than the transport MTU.
//!
//! The transport layer reports an MTU; any logical message whose frame
//! would exceed it is split into [`Message::Fragment`]s. Fragments of
//! different logical messages may interleave on the wire (and arrive
//! reordered or duplicated from multicast retransmission), so the
//! [`Reassembler`] keys buffers by `(source node, message id)` and evicts
//! incomplete sets after a timeout — best-effort traffic must never pin
//! memory on a low-resource node. It stores only the parts that arrived
//! and caps the sets pending across all sources: the count and the source
//! id come from unauthenticated headers, so neither may size a buffer.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use crate::error::ProtocolError;
use crate::ids::NodeId;
use crate::messages::Message;
use crate::time::{Micros, ProtoDuration};

/// Upper bound on fragments per logical message.
pub const MAX_FRAGMENTS: u32 = 64 * 1024;

/// Upper bound on concurrently reassembling messages per source.
const MAX_PENDING_PER_SOURCE: usize = 64;

/// Upper bound on concurrently reassembling messages across all sources:
/// a frame's source id is whatever its header claims.
const MAX_PENDING_SETS: usize = 1024;

/// Splits `payload` into fragment messages of at most `max_chunk` bytes.
/// Each chunk is a slice of `payload`, not a copy.
///
/// Returns a single-element vector when the payload already fits — callers
/// can treat the fragmentation path uniformly.
///
/// # Errors
///
/// [`ProtocolError::BadFragment`] when `max_chunk` is zero or the payload
/// would need more than [`MAX_FRAGMENTS`] pieces.
pub fn fragment_payload(
    msg_id: u64,
    payload: &Bytes,
    max_chunk: usize,
) -> Result<Vec<Message>, ProtocolError> {
    if max_chunk == 0 {
        return Err(ProtocolError::BadFragment("fragment size of zero"));
    }
    let count = payload.len().div_ceil(max_chunk).max(1);
    if count > MAX_FRAGMENTS as usize {
        return Err(ProtocolError::BadFragment("payload needs too many fragments"));
    }
    Ok((0..count)
        .map(|index| {
            let start = index * max_chunk;
            Message::Fragment {
                msg_id,
                index: index as u32,
                count: count as u32,
                payload: payload.slice(start..(start + max_chunk).min(payload.len())),
            }
        })
        .collect())
}

#[derive(Debug)]
struct Pending {
    count: u32,
    /// The parts that arrived, by index: memory follows the bytes
    /// received, not the declared count.
    parts: BTreeMap<u32, Bytes>,
    first_seen: Micros,
}

/// Reassembles interleaved fragment streams from many sources.
#[derive(Debug)]
pub struct Reassembler {
    pending: HashMap<(NodeId, u64), Pending>,
    timeout: ProtoDuration,
}

impl Reassembler {
    /// Creates a reassembler that drops incomplete messages after `timeout`.
    pub fn new(timeout: ProtoDuration) -> Self {
        Reassembler { pending: HashMap::new(), timeout }
    }

    /// Number of partially reassembled messages currently buffered.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Offers one received fragment; returns the full payload when this
    /// fragment completes its set.
    ///
    /// Duplicated fragments are ignored; inconsistent counts abort the set.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadFragment`] on inconsistent metadata (index out of
    /// range, count mismatch, zero count, over-limit counts) or when a new
    /// set would exceed the per-source or the overall pending limit.
    pub fn offer(
        &mut self,
        src: NodeId,
        msg_id: u64,
        index: u32,
        count: u32,
        payload: Bytes,
        now: Micros,
    ) -> Result<Option<Bytes>, ProtocolError> {
        if count == 0 {
            return Err(ProtocolError::BadFragment("fragment count of zero"));
        }
        if count > MAX_FRAGMENTS {
            return Err(ProtocolError::BadFragment("fragment count over limit"));
        }
        if index >= count {
            return Err(ProtocolError::BadFragment("fragment index out of range"));
        }
        // Fast path: unfragmented payload.
        if count == 1 {
            return Ok(Some(payload));
        }
        let key = (src, msg_id);
        if !self.pending.contains_key(&key) {
            if self.pending.len() >= MAX_PENDING_SETS {
                return Err(ProtocolError::BadFragment("too many pending messages"));
            }
            // marea-lint: allow(D1): cardinality count; iteration order cannot affect the result
            let per_source = self.pending.keys().filter(|(s, _)| *s == src).count();
            if per_source >= MAX_PENDING_PER_SOURCE {
                return Err(ProtocolError::BadFragment("too many pending messages from source"));
            }
        }
        let entry = self.pending.entry(key).or_insert_with(|| Pending {
            count,
            parts: BTreeMap::new(),
            first_seen: now,
        });
        if entry.count != count {
            // A mismatched count means the stream is corrupt; drop the set.
            self.pending.remove(&key);
            return Err(ProtocolError::BadFragment("fragment count changed mid-stream"));
        }
        entry.parts.entry(index).or_insert(payload);
        if entry.parts.len() < count as usize {
            return Ok(None);
        }
        let Some(entry) = self.pending.remove(&key) else { return Ok(None) };
        // Every index in 0..count is present, so the map walks them in
        // order; one buffer sized to the total takes them all.
        let mut full = Vec::with_capacity(entry.parts.values().map(Bytes::len).sum());
        for part in entry.parts.values() {
            full.extend_from_slice(part);
        }
        Ok(Some(Bytes::from(full)))
    }

    /// Drops incomplete sets older than the timeout; returns how many were
    /// evicted.
    pub fn expire(&mut self, now: Micros) -> usize {
        let timeout = self.timeout;
        let before = self.pending.len();
        self.pending.retain(|_, p| now.saturating_since(p.first_seen) < timeout);
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_of(msgs: &[Message]) -> Vec<(u64, u32, u32, Bytes)> {
        msgs.iter()
            .map(|m| match m {
                Message::Fragment { msg_id, index, count, payload } => {
                    (*msg_id, *index, *count, payload.clone())
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let frags = fragment_payload(1, &Bytes::from(payload.clone()), 1024).unwrap();
        assert_eq!(frags.len(), 10);
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut done = None;
        for (id, idx, cnt, bytes) in parts_of(&frags) {
            done = r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        }
        assert_eq!(done.unwrap().as_ref(), payload.as_slice());
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn small_payload_is_single_fragment() {
        let frags = fragment_payload(2, &Bytes::from_static(b"tiny"), 1024).unwrap();
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let (id, idx, cnt, bytes) = parts_of(&frags).remove(0);
        let out = r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        assert_eq!(out.unwrap().as_ref(), b"tiny");
    }

    #[test]
    fn empty_payload_works() {
        let frags = fragment_payload(3, &Bytes::new(), 1024).unwrap();
        assert_eq!(frags.len(), 1);
    }

    #[test]
    fn out_of_order_and_duplicates_are_handled() {
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let frags = parts_of(&fragment_payload(4, &Bytes::from(payload.clone()), 999).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut order: Vec<usize> = (0..frags.len()).rev().collect();
        order.push(0); // duplicate
        let mut done = None;
        for i in order {
            let (id, idx, cnt, bytes) = frags[i].clone();
            if let Some(full) = r.offer(NodeId(9), id, idx, cnt, bytes, Micros::ZERO).unwrap() {
                done = Some(full);
            }
        }
        assert_eq!(done.unwrap().as_ref(), payload.as_slice());
    }

    #[test]
    fn interleaved_sources_do_not_collide() {
        let a = parts_of(&fragment_payload(7, &Bytes::from_static(b"aaaaaaaaaa"), 4).unwrap());
        let b = parts_of(&fragment_payload(7, &Bytes::from_static(b"bbbbbbbbbb"), 4).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut got = Vec::new();
        for ((id_a, ia, ca, pa), (id_b, ib, cb, pb)) in a.into_iter().zip(b) {
            if let Some(f) = r.offer(NodeId(1), id_a, ia, ca, pa, Micros::ZERO).unwrap() {
                got.push(f);
            }
            if let Some(f) = r.offer(NodeId(2), id_b, ib, cb, pb, Micros::ZERO).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].as_ref(), b"aaaaaaaaaa");
        assert_eq!(got[1].as_ref(), b"bbbbbbbbbb");
    }

    #[test]
    fn timeout_evicts_incomplete_sets() {
        let frags = parts_of(&fragment_payload(5, &Bytes::from(vec![0u8; 4000]), 1000).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_millis(100));
        let (id, idx, cnt, bytes) = frags[0].clone();
        r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        assert_eq!(r.pending_count(), 1);
        assert_eq!(r.expire(Micros::from_millis(50)), 0);
        assert_eq!(r.expire(Micros::from_millis(150)), 1);
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn bad_metadata_is_rejected() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        assert!(r.offer(NodeId(1), 1, 0, 0, Bytes::new(), Micros::ZERO).is_err());
        assert!(r.offer(NodeId(1), 1, 5, 3, Bytes::new(), Micros::ZERO).is_err());
        assert!(r.offer(NodeId(1), 1, 0, MAX_FRAGMENTS + 1, Bytes::new(), Micros::ZERO).is_err());
    }

    #[test]
    fn count_change_mid_stream_aborts_set() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        r.offer(NodeId(1), 8, 0, 3, Bytes::from_static(b"x"), Micros::ZERO).unwrap();
        let err = r.offer(NodeId(1), 8, 1, 4, Bytes::from_static(b"y"), Micros::ZERO);
        assert!(err.is_err());
        assert_eq!(r.pending_count(), 0, "corrupt set is dropped");
    }

    #[test]
    fn per_source_buffer_limit() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        for id in 0..64u64 {
            r.offer(NodeId(1), id, 0, 2, Bytes::new(), Micros::ZERO).unwrap();
        }
        assert!(r.offer(NodeId(1), 999, 0, 2, Bytes::new(), Micros::ZERO).is_err());
        // A different source is unaffected.
        assert!(r.offer(NodeId(2), 999, 0, 2, Bytes::new(), Micros::ZERO).is_ok());
    }

    #[test]
    fn chunks_point_into_the_payload() {
        let payload = Bytes::from(vec![7u8; 3000]);
        let span = payload.as_ptr_range();
        for (_, _, _, chunk) in parts_of(&fragment_payload(6, &payload, 1000).unwrap()) {
            assert!(span.contains(&chunk.as_ptr()), "fragment_payload copied a chunk");
        }
    }

    #[test]
    fn pending_sets_are_capped_across_spoofed_sources() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(5));
        let legit = parts_of(&fragment_payload(1, &Bytes::from(vec![3u8; 2500]), 1000).unwrap());
        let (id, idx, cnt, bytes) = legit[0].clone();
        assert_eq!(r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap(), None);
        // Hostile first fragments, each claiming the largest count and a
        // different source, so the per-source limit never bites.
        let mut refused = 0;
        for spoofed in 1000..1000 + 2 * MAX_PENDING_SETS as u32 {
            let hostile = Bytes::from_static(b"x");
            match r.offer(NodeId(spoofed), 7, 0, MAX_FRAGMENTS, hostile, Micros::ZERO) {
                Ok(None) => {}
                Err(ProtocolError::BadFragment(_)) => refused += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(r.pending_count(), MAX_PENDING_SETS, "the cap holds");
        assert_eq!(refused, MAX_PENDING_SETS + 1, "every set past the cap is refused");
        // The legitimate set, begun before the flood, still completes.
        let mut done = None;
        for (id, idx, cnt, bytes) in legit.into_iter().skip(1) {
            done = r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        }
        assert_eq!(done.unwrap().as_ref(), &[3u8; 2500][..]);
        // Once the flood times out, new sets are accepted again.
        r.expire(Micros::from_secs(6));
        assert_eq!(r.pending_count(), 0);
        assert!(r.offer(NodeId(2), 9, 0, 2, Bytes::new(), Micros::from_secs(6)).is_ok());
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        assert!(fragment_payload(1, &Bytes::from_static(b"abc"), 0).is_err());
    }
}
