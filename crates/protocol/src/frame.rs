//! Frame layout: fixed 16-byte header + payload, CRC32-protected.
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x4D41 ("MA", little-endian)
//! 2       1     protocol version
//! 3       1     message kind
//! 4       4     source node id (LE)
//! 8       4     payload length (LE)
//! 12      4     crc32 over bytes 0..12 ++ payload (LE)
//! 16      n     payload
//! ```
//!
//! The CRC covers header fields and payload so that a corrupted kind or
//! source id is rejected, not just corrupted payload bytes.

use bytes::{BufMut, Bytes, BytesMut};

use crate::crc::crc32_update;
use crate::error::FrameError;
use crate::ids::NodeId;
use crate::messages::MessageKind;

/// Frame magic: ASCII "MA" read as a little-endian u16.
pub const FRAME_MAGIC: u16 = u16::from_le_bytes(*b"MA");

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Size of the fixed header (including CRC) in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Maximum accepted payload size. Larger application payloads must be
/// fragmented (see [`crate::fragment`]).
pub const MAX_FRAME_PAYLOAD: usize = 4 * 1024 * 1024;

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version of the sender.
    pub version: u8,
    /// Kind of the message carried in the payload.
    pub kind: MessageKind,
    /// Node that emitted the frame.
    pub src: NodeId,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// A complete wire frame: header plus payload bytes.
///
/// # Examples
///
/// ```
/// use marea_protocol::{Frame, MessageKind, NodeId};
///
/// let f = Frame::new(NodeId(3), MessageKind::Heartbeat, b"beat".as_ref().into());
/// let wire = f.encode();
/// let back = Frame::decode(&wire).unwrap();
/// assert_eq!(back.header().src, NodeId(3));
/// assert_eq!(back.payload(), b"beat");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    header: FrameHeader,
    payload: Bytes,
}

impl Frame {
    /// Builds a frame from parts.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`]; callers fragment
    /// larger payloads first (this is an internal programming error, not a
    /// runtime condition).
    pub fn new(src: NodeId, kind: MessageKind, payload: Bytes) -> Self {
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD,
            "payload of {} bytes must be fragmented before framing",
            payload.len()
        );
        Frame {
            header: FrameHeader {
                version: PROTOCOL_VERSION,
                kind,
                src,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// The parsed header.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The payload as a slice of the buffer it was decoded from.
    pub(crate) fn payload_bytes(&self) -> &Bytes {
        &self.payload
    }

    /// Consumes the frame, returning the payload.
    pub fn into_payload(self) -> Bytes {
        self.payload
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_slice(&[0; FRAME_HEADER_LEN]);
        buf.put_slice(&self.payload);
        seal(&mut buf, self.header.kind, self.header.src);
        buf.freeze()
    }

    /// Parses a frame from a received datagram, verifying magic, version,
    /// kind, length and CRC. The payload is a slice of `input`, not a copy.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] describing the first malformed element.
    pub fn decode(input: &Bytes) -> Result<Frame, FrameError> {
        if input.len() < FRAME_HEADER_LEN {
            return Err(FrameError::TooShort { len: input.len() });
        }
        let magic = u16::from_le_bytes([input[0], input[1]]);
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = input[2];
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = MessageKind::from_wire_tag(input[3]).ok_or(FrameError::BadKind(input[3]))?;
        let src = NodeId(u32::from_le_bytes([input[4], input[5], input[6], input[7]]));
        let payload_len = u32::from_le_bytes([input[8], input[9], input[10], input[11]]);
        if payload_len as usize > MAX_FRAME_PAYLOAD {
            return Err(FrameError::PayloadTooLarge(payload_len));
        }
        let stored_crc = u32::from_le_bytes([input[12], input[13], input[14], input[15]]);
        let actual = input.len() - FRAME_HEADER_LEN;
        if actual != payload_len as usize {
            return Err(FrameError::LengthMismatch { declared: payload_len, actual });
        }
        let computed = frame_crc(input);
        if computed != stored_crc {
            return Err(FrameError::BadCrc { stored: stored_crc, computed });
        }
        Ok(Frame {
            header: FrameHeader { version, kind, src, payload_len },
            payload: input.slice(FRAME_HEADER_LEN..),
        })
    }
}

/// Fills in the reserved [`FRAME_HEADER_LEN`] bytes at the front of
/// `frame` (whose payload follows them) and computes the CRC in place, so
/// a message encoded straight behind its header is sealed without a copy.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`], as [`Frame::new`].
pub(crate) fn seal(frame: &mut [u8], kind: MessageKind, src: NodeId) {
    let payload_len = frame.len() - FRAME_HEADER_LEN;
    assert!(
        payload_len <= MAX_FRAME_PAYLOAD,
        "payload of {payload_len} bytes must be fragmented before framing"
    );
    frame[0..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame[2] = PROTOCOL_VERSION;
    frame[3] = kind.wire_tag();
    frame[4..8].copy_from_slice(&src.0.to_le_bytes());
    frame[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = frame_crc(frame);
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// CRC over the header fields before the CRC slot, then the payload.
fn frame_crc(frame: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &frame[..12]);
    crc32_update(state, &frame[FRAME_HEADER_LEN..]) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(NodeId(9), MessageKind::VarSample, Bytes::from_static(b"payload"))
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 7);
        let back = Frame::decode(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decoded_payload_points_into_the_received_buffer() {
        let wire = sample().encode();
        let back = Frame::decode(&wire).unwrap();
        let inside = wire[FRAME_HEADER_LEN..].as_ptr();
        assert_eq!(back.payload().as_ptr(), inside, "Frame::decode copied the payload");
    }

    #[test]
    fn seal_matches_a_separately_computed_crc() {
        let wire = sample().encode();
        let mut crc_input = wire[..12].to_vec();
        crc_input.extend_from_slice(&wire[FRAME_HEADER_LEN..]);
        let stored = u32::from_le_bytes([wire[12], wire[13], wire[14], wire[15]]);
        assert_eq!(stored, crate::crc32(&crc_input));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::new(NodeId(0), MessageKind::Bye, Bytes::new());
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.payload(), b"");
        assert_eq!(back.header().kind, MessageKind::Bye);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut wire = sample().encode().to_vec();
        wire[0] ^= 0xFF;
        assert_eq!(
            Frame::decode(&Bytes::from(wire.clone())),
            Err(FrameError::BadMagic(u16::from_le_bytes([wire[0], wire[1]])))
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut wire = sample().encode().to_vec();
        wire[2] = 99;
        assert_eq!(Frame::decode(&Bytes::from(wire)), Err(FrameError::BadVersion(99)));
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut wire = sample().encode().to_vec();
        wire[3] = 0xEF;
        assert_eq!(Frame::decode(&Bytes::from(wire)), Err(FrameError::BadKind(0xEF)));
    }

    #[test]
    fn rejects_truncation_and_extension() {
        let wire = sample().encode();
        assert!(matches!(Frame::decode(&wire.slice(..10)), Err(FrameError::TooShort { .. })));
        assert!(matches!(
            Frame::decode(&wire.slice(..wire.len() - 1)),
            Err(FrameError::LengthMismatch { .. })
        ));
        let mut extended = wire.to_vec();
        extended.push(0);
        assert!(matches!(
            Frame::decode(&Bytes::from(extended)),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_corruption_anywhere() {
        let wire = sample().encode().to_vec();
        // Flip each payload byte and each header byte not already covered by
        // a structural check; CRC must catch them.
        for i in [4usize, 5, 6, 7, 16, 17, wire.len() - 1] {
            let mut w = wire.clone();
            w[i] ^= 0x01;
            assert!(Frame::decode(&Bytes::from(w)).is_err(), "corruption at byte {i} undetected");
        }
    }

    #[test]
    #[should_panic(expected = "must be fragmented")]
    fn oversized_payload_panics() {
        let huge = Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]);
        let _ = Frame::new(NodeId(1), MessageKind::FileChunk, huge);
    }
}
