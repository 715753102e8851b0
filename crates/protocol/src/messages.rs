//! The typed message vocabulary of the middleware.
//!
//! Every frame payload is one [`Message`]. The vocabulary covers the four
//! communication primitives of the paper (§4) plus the container-to-container
//! control plane (§3): discovery, announcements, heartbeats and service
//! status notifications.

use bytes::{Bytes, BytesMut};

use marea_encoding::{typedesc, DecodeError, WireReader, WireWriter};
use marea_presentation::{DataType, Name};

use crate::frame::{seal, Frame, FRAME_HEADER_LEN};
use crate::ids::{GroupId, NodeId, RequestId, TransferId};

/// Maximum bytes accepted for any embedded blob while decoding messages.
const MAX_EMBEDDED: usize = crate::frame::MAX_FRAME_PAYLOAD;

/// Maximum entries accepted in announcement/nack lists.
const MAX_LIST: usize = 4096;

macro_rules! message_kinds {
    ($($(#[$doc:meta])* $variant:ident = $tag:expr),* $(,)?) => {
        /// Wire tag identifying the message carried by a frame.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum MessageKind {
            $($(#[$doc])* $variant = $tag,)*
        }

        impl MessageKind {
            /// Stable wire tag.
            pub fn wire_tag(self) -> u8 {
                self as u8
            }

            /// Inverse of [`MessageKind::wire_tag`].
            pub fn from_wire_tag(tag: u8) -> Option<MessageKind> {
                match tag {
                    $($tag => Some(MessageKind::$variant),)*
                    _ => None,
                }
            }

            /// Every kind, for exhaustive tests.
            pub const ALL: &'static [MessageKind] = &[$(MessageKind::$variant,)*];
        }
    };
}

message_kinds! {
    /// Container start-up announcement (control group).
    Hello = 0,
    /// Periodic liveness beacon (control group).
    Heartbeat = 1,
    /// Graceful shutdown notice (control group).
    Bye = 2,
    /// Full catalogue of services and provisions hosted by a node.
    Announce = 3,
    /// Single service state-change notification.
    ServiceStatus = 4,
    /// Variable subscription request (unicast to provider).
    SubscribeVar = 5,
    /// Variable unsubscription (unicast to provider).
    UnsubscribeVar = 6,
    /// Best-effort variable sample (multicast).
    VarSample = 7,
    /// Event publication (rides the reliable channel).
    EventData = 8,
    /// Remote invocation request (rides the reliable channel).
    CallRequest = 9,
    /// Remote invocation reply (rides the reliable channel).
    CallReply = 10,
    /// File transfer announcement (multicast).
    FileAnnounce = 11,
    /// File transfer subscription (unicast to publisher).
    FileSubscribe = 12,
    /// One file chunk (multicast).
    FileChunk = 13,
    /// Completion-status query (multicast).
    FileQuery = 14,
    /// Subscriber has every chunk (unicast to publisher).
    FileAck = 15,
    /// Subscriber is missing chunk runs (unicast to publisher).
    FileNack = 16,
    /// Publisher aborts a transfer.
    FileCancel = 17,
    /// Fragment of a larger logical payload.
    Fragment = 18,
    /// Reliable-channel data envelope (ARQ).
    RelData = 19,
    /// Reliable-channel acknowledgement (ARQ).
    RelAck = 20,
    /// Event subscription request (unicast to provider).
    SubscribeEvent = 21,
    /// Event unsubscription (unicast to provider).
    UnsubscribeEvent = 22,
    /// FEC shard: a coded slice of the reliable channel (below ARQ).
    FecShard = 23,
    /// Periodic catalogue summary (control group): replaces the full
    /// `Announce` flood while the catalogue is unchanged.
    AnnounceDigest = 24,
    /// Unicast request for a full catalogue `Announce` (digest mismatch
    /// or unknown-node recovery).
    AnnounceRequest = 25,
}

/// Lifecycle state of a service instance as broadcast to other containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceState {
    /// Registered, `on_start` not yet run.
    Starting,
    /// Healthy and schedulable.
    Running,
    /// Alive but operating in degraded mode.
    Degraded,
    /// Cleanly stopped.
    Stopped,
    /// Crashed or declared dead by the container watchdog.
    Failed,
}

impl ServiceState {
    /// Stable wire tag.
    pub fn wire_tag(self) -> u8 {
        match self {
            ServiceState::Starting => 0,
            ServiceState::Running => 1,
            ServiceState::Degraded => 2,
            ServiceState::Stopped => 3,
            ServiceState::Failed => 4,
        }
    }

    /// Inverse of [`ServiceState::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<ServiceState> {
        Some(match tag {
            0 => ServiceState::Starting,
            1 => ServiceState::Running,
            2 => ServiceState::Degraded,
            3 => ServiceState::Stopped,
            4 => ServiceState::Failed,
            _ => return None,
        })
    }

    /// `true` when the instance can serve subscriptions/calls.
    pub fn is_available(self) -> bool {
        matches!(self, ServiceState::Running | ServiceState::Degraded)
    }
}

/// Signature of a remotely invocable function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSig {
    /// Parameter types, in call order.
    pub params: Vec<DataType>,
    /// Return type; `None` for one-way procedures.
    pub returns: Option<DataType>,
}

/// One capability a service announces to the network.
#[derive(Debug, Clone, PartialEq)]
pub enum Provision {
    /// A published variable (paper §4.1).
    Variable {
        /// Variable name (globally addressable).
        name: Name,
        /// Sample schema.
        ty: DataType,
        /// Nominal publication period in µs (0 = on change only).
        period_us: u64,
        /// Validity window in µs: how long a sample may be served after it
        /// was produced (paper: "the provider service can specify the
        /// variable validity as a quality of service parameter").
        validity_us: u64,
    },
    /// A published event channel (paper §4.2).
    Event {
        /// Event name.
        name: Name,
        /// Payload schema; `None` for bare events that "have meaning by
        /// themselves".
        ty: Option<DataType>,
    },
    /// A remotely callable function (paper §4.3).
    Function {
        /// Function name.
        name: Name,
        /// Call signature.
        sig: FunctionSig,
    },
    /// A file resource that can be distributed (paper §4.4).
    FileResource {
        /// Resource name.
        name: Name,
    },
}

impl Provision {
    /// The provision's addressable name.
    pub fn name(&self) -> &Name {
        match self {
            Provision::Variable { name, .. }
            | Provision::Event { name, .. }
            | Provision::Function { name, .. }
            | Provision::FileResource { name } => name,
        }
    }

    fn wire_tag(&self) -> u8 {
        match self {
            Provision::Variable { .. } => 0,
            Provision::Event { .. } => 1,
            Provision::Function { .. } => 2,
            Provision::FileResource { .. } => 3,
        }
    }
}

/// One service entry inside an [`Message::Announce`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnounceEntry {
    /// Per-node instance sequence number (combined with the frame's source
    /// node this forms the [`ServiceId`](crate::ServiceId)).
    pub service_seq: u32,
    /// Service name.
    pub name: Name,
    /// Current lifecycle state.
    pub state: ServiceState,
    /// Everything the service offers.
    pub provides: Vec<Provision>,
}

/// Outcome tag of a remote invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallStatus {
    /// Function ran; payload is the encoded return value.
    Ok,
    /// Function ran and returned an application-level error string.
    AppError,
    /// No such function at the target.
    NoSuchFunction,
    /// Target service is not available.
    ServiceUnavailable,
    /// The middleware timed out waiting for the reply.
    Timeout,
}

impl CallStatus {
    /// Stable wire tag.
    pub fn wire_tag(self) -> u8 {
        match self {
            CallStatus::Ok => 0,
            CallStatus::AppError => 1,
            CallStatus::NoSuchFunction => 2,
            CallStatus::ServiceUnavailable => 3,
            CallStatus::Timeout => 4,
        }
    }

    /// Inverse of [`CallStatus::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<CallStatus> {
        Some(match tag {
            0 => CallStatus::Ok,
            1 => CallStatus::AppError,
            2 => CallStatus::NoSuchFunction,
            3 => CallStatus::ServiceUnavailable,
            4 => CallStatus::Timeout,
            _ => return None,
        })
    }
}

/// A typed middleware message.
///
/// Serialization is hand-rolled over [`WireWriter`]/[`WireReader`]: message
/// payloads are middleware-internal and never go through the
/// presentation-layer codecs (which are reserved for *application* data).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Container start-up announcement.
    Hello {
        /// Human-readable container name.
        container: Name,
        /// Monotonic restart counter, used to detect node reboots.
        incarnation: u64,
        /// Strongest FEC code rate this node can run on its reliable
        /// links ([`FecRate`](crate::fec::FecRate) wire tag; 0 = none).
        /// Each link runs the weaker of the two ends' capabilities.
        fec_cap: u8,
    },
    /// Periodic liveness beacon.
    Heartbeat {
        /// Restart counter matching the last `Hello`.
        incarnation: u64,
        /// Microseconds since container start.
        uptime_us: u64,
        /// Scheduler load in permille (0-1000), used for dynamic remote
        /// invocation load balancing (paper §4.3).
        load_permille: u16,
        /// FEC capability refresh (same encoding as `Hello::fec_cap`): a
        /// node that missed the peer's `Hello` — attached late, lossy
        /// bring-up — still converges on the advertised cap within one
        /// heartbeat period instead of running uncoded forever.
        fec_cap: u8,
    },
    /// Graceful shutdown notice.
    Bye,
    /// Full service catalogue of the sending node.
    Announce {
        /// Restart counter.
        incarnation: u64,
        /// Hosted services and their provisions.
        entries: Vec<AnnounceEntry>,
    },
    /// Single service state change.
    ServiceStatus {
        /// Instance sequence on the sending node.
        service_seq: u32,
        /// Service name.
        name: Name,
        /// New state.
        state: ServiceState,
    },
    /// Variable subscription request.
    SubscribeVar {
        /// Variable name.
        name: Name,
        /// Subscribing node (for initial-value unicast).
        subscriber: NodeId,
        /// Request the current value immediately (paper §4.1: "a mechanism
        /// that guarantees an initial exact value").
        need_initial: bool,
    },
    /// Variable unsubscription.
    UnsubscribeVar {
        /// Variable name.
        name: Name,
        /// Unsubscribing node.
        subscriber: NodeId,
    },
    /// Best-effort variable sample.
    VarSample {
        /// Variable name.
        name: Name,
        /// Per-variable monotonically increasing sample number.
        seq: u64,
        /// Production timestamp (µs since publisher epoch).
        stamp_us: u64,
        /// Validity window of this sample in µs.
        validity_us: u64,
        /// Mint counter of the causal trace id stamped by the
        /// publisher's flight recorder (0 = untraced). Only the counter
        /// travels — the origin node is the frame's `src`, so traced
        /// frames stay 1-3 varint bytes heavier instead of 5-6.
        trace: u64,
        /// Codec id of the payload.
        codec: u8,
        /// Encoded sample.
        payload: Bytes,
    },
    /// Event publication.
    EventData {
        /// Event name.
        name: Name,
        /// Per-event-channel sequence number.
        seq: u64,
        /// Production timestamp (µs since publisher epoch).
        stamp_us: u64,
        /// Mint counter of the emitter's causal trace id (0 =
        /// untraced); the origin node is the frame's `src`.
        trace: u64,
        /// Codec id of the payload (ignored when `payload` is empty).
        codec: u8,
        /// Encoded associated data; empty for bare events.
        payload: Bytes,
    },
    /// Remote invocation request.
    CallRequest {
        /// Correlation id, unique per calling node.
        request: RequestId,
        /// Function name.
        function: Name,
        /// Target service instance sequence on the destination node.
        target_seq: u32,
        /// Mint counter of the caller's causal trace id (0 =
        /// untraced); the origin node is the frame's `src`.
        trace: u64,
        /// Codec id of the argument payload.
        codec: u8,
        /// Encoded argument list.
        payload: Bytes,
    },
    /// Remote invocation reply.
    CallReply {
        /// Correlation id from the request.
        request: RequestId,
        /// Outcome.
        status: CallStatus,
        /// Mint counter echoed from the request, so the caller's chain
        /// closes without a correlation lookup (0 = untraced); the
        /// origin is the caller itself, which minted the id.
        trace: u64,
        /// Codec id of the result payload.
        codec: u8,
        /// Encoded return value, or UTF-8 error text for `AppError`.
        payload: Bytes,
    },
    /// File transfer announcement (start of the *announce* phase, §4.4).
    FileAnnounce {
        /// Transfer session id.
        transfer: TransferId,
        /// Resource name.
        resource: Name,
        /// Resource revision ("revision numbers identify different versions
        /// of the same resource").
        revision: u32,
        /// Total size in bytes.
        size: u64,
        /// Chunk size in bytes (all chunks equal except the last).
        chunk_size: u32,
        /// Multicast group the chunks will travel on.
        group: GroupId,
    },
    /// Subscription to an announced transfer.
    FileSubscribe {
        /// Transfer session id.
        transfer: TransferId,
        /// Subscribing node.
        subscriber: NodeId,
    },
    /// One chunk of file content.
    FileChunk {
        /// Transfer session id.
        transfer: TransferId,
        /// Revision the chunk belongs to.
        revision: u32,
        /// Chunk index (0-based).
        index: u32,
        /// Chunk bytes.
        payload: Bytes,
    },
    /// Completion-status query (start of the *completion* phase).
    FileQuery {
        /// Transfer session id.
        transfer: TransferId,
        /// Revision being queried.
        revision: u32,
    },
    /// Subscriber holds every chunk of the revision.
    FileAck {
        /// Transfer session id.
        transfer: TransferId,
        /// Completed revision.
        revision: u32,
        /// Acknowledging node.
        subscriber: NodeId,
    },
    /// Subscriber misses the listed chunk runs ("a NACK with a compressed
    /// list of the chunks it lacks").
    FileNack {
        /// Transfer session id.
        transfer: TransferId,
        /// Revision being completed.
        revision: u32,
        /// Nacking node.
        subscriber: NodeId,
        /// Missing chunk runs as `(first_index, run_length)` pairs.
        runs: Vec<(u32, u32)>,
    },
    /// Publisher aborts the transfer.
    FileCancel {
        /// Transfer session id.
        transfer: TransferId,
    },
    /// Fragment of a larger logical payload (see [`crate::fragment`]).
    Fragment {
        /// Id of the fragmented logical message (unique per source node).
        msg_id: u64,
        /// Fragment index (0-based).
        index: u32,
        /// Total number of fragments.
        count: u32,
        /// Fragment bytes.
        payload: Bytes,
    },
    /// Reliable-channel data envelope; `payload` is a complete serialized
    /// inner message (kind byte + body).
    RelData {
        /// Channel id (one per destination link).
        channel: u16,
        /// Channel sequence number.
        seq: u64,
        /// Serialized inner message.
        payload: Bytes,
    },
    /// Reliable-channel acknowledgement.
    RelAck {
        /// Channel id.
        channel: u16,
        /// Receiver's next expected sequence: every `seq < cumulative` has
        /// been delivered.
        cumulative: u64,
        /// Selective-acknowledgement bitmap: bit `i` set means sequence
        /// `cumulative + 1 + i` was received out of order.
        sack: u64,
        /// Receiver's smoothed FEC shard-loss estimate in permille —
        /// the piggybacked feedback that drives the sender's adaptive
        /// code-rate controller (0 when the receiver runs no FEC).
        loss_permille: u16,
    },
    /// Event subscription request.
    SubscribeEvent {
        /// Event name.
        name: Name,
        /// Subscribing node.
        subscriber: NodeId,
    },
    /// Event unsubscription.
    UnsubscribeEvent {
        /// Event name.
        name: Name,
        /// Unsubscribing node.
        subscriber: NodeId,
    },
    /// One shard of an FEC group protecting the reliable channel (sits
    /// *below* ARQ: the payload of a data shard is a complete serialized
    /// `RelData`/`RelAck` message, parity shards carry XOR lane content).
    FecShard {
        /// Reliable-channel id the group belongs to.
        channel: u16,
        /// Group id, strictly increasing per link sender.
        group: u64,
        /// Shard index: `0..k` for data shards;
        /// [`PARITY_INDEX_BIT`](crate::fec::PARITY_INDEX_BIT)` | lane`
        /// for parity shards.
        index: u8,
        /// Data-shard count: the geometry ceiling on data shards, the
        /// group's final count on parity shards (groups may flush short).
        k: u8,
        /// Parity lane count of the group.
        r: u8,
        /// Tagged inner message (data) or XOR lane payload (parity).
        payload: Bytes,
    },
    /// Periodic catalogue summary: the digest-gossip stand-in for a full
    /// [`Message::Announce`]. Receivers that hold a matching digest do
    /// nothing; a mismatch (or an unknown sender) triggers a unicast
    /// [`Message::AnnounceRequest`], so steady-state control traffic is
    /// O(nodes) instead of O(nodes × catalogue).
    AnnounceDigest {
        /// Restart counter matching the last `Hello`/`Announce`.
        incarnation: u64,
        /// Number of catalogue entries the digest summarizes.
        entry_count: u32,
        /// [`announce_hash`] over the full announce body.
        catalogue_hash: u32,
    },
    /// Unicast request that the receiver re-send its full catalogue
    /// (sent on digest mismatch or when a digest arrives from a node we
    /// have no catalogue for).
    AnnounceRequest,
}

/// One message encoded for a link with a datagram size limit, by
/// [`Message::encode_for_mtu`].
#[derive(Debug, Clone, PartialEq)]
pub enum Encoded {
    /// A sealed frame within the limit, ready to send.
    Frame(Bytes),
    /// The tagged encoding of a message too large for one frame, to be
    /// split with [`fragment_payload`](crate::fragment::fragment_payload).
    Oversized(Bytes),
}

impl Message {
    /// The wire kind of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Hello { .. } => MessageKind::Hello,
            Message::Heartbeat { .. } => MessageKind::Heartbeat,
            Message::Bye => MessageKind::Bye,
            Message::Announce { .. } => MessageKind::Announce,
            Message::ServiceStatus { .. } => MessageKind::ServiceStatus,
            Message::SubscribeVar { .. } => MessageKind::SubscribeVar,
            Message::UnsubscribeVar { .. } => MessageKind::UnsubscribeVar,
            Message::VarSample { .. } => MessageKind::VarSample,
            Message::EventData { .. } => MessageKind::EventData,
            Message::CallRequest { .. } => MessageKind::CallRequest,
            Message::CallReply { .. } => MessageKind::CallReply,
            Message::FileAnnounce { .. } => MessageKind::FileAnnounce,
            Message::FileSubscribe { .. } => MessageKind::FileSubscribe,
            Message::FileChunk { .. } => MessageKind::FileChunk,
            Message::FileQuery { .. } => MessageKind::FileQuery,
            Message::FileAck { .. } => MessageKind::FileAck,
            Message::FileNack { .. } => MessageKind::FileNack,
            Message::FileCancel { .. } => MessageKind::FileCancel,
            Message::Fragment { .. } => MessageKind::Fragment,
            Message::RelData { .. } => MessageKind::RelData,
            Message::RelAck { .. } => MessageKind::RelAck,
            Message::SubscribeEvent { .. } => MessageKind::SubscribeEvent,
            Message::UnsubscribeEvent { .. } => MessageKind::UnsubscribeEvent,
            Message::FecShard { .. } => MessageKind::FecShard,
            Message::AnnounceDigest { .. } => MessageKind::AnnounceDigest,
            Message::AnnounceRequest => MessageKind::AnnounceRequest,
        }
    }

    /// Serializes the message body (without frame header).
    pub fn encode_payload(&self) -> Bytes {
        self.encode_behind(0).freeze()
    }

    /// Serializes the message *with* a leading kind byte — the format used
    /// inside [`Message::RelData`] envelopes and fragments.
    pub fn encode_tagged(&self) -> Bytes {
        let mut buf = self.encode_behind(1);
        buf[0] = self.kind().wire_tag();
        buf.freeze()
    }

    /// Encodes the message once, straight into a sealed frame from `src`:
    /// the body is written behind a reserved header, which is then filled
    /// in and CRC'd in place. Byte-identical to
    /// `Frame::new(src, self.kind(), self.encode_payload()).encode()`.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds [`MAX_FRAME_PAYLOAD`](crate::MAX_FRAME_PAYLOAD);
    /// such messages are fragmented first (see [`Message::encode_for_mtu`]).
    pub fn encode_frame(&self, src: NodeId) -> Bytes {
        let mut buf = self.encode_behind(FRAME_HEADER_LEN);
        seal(&mut buf, self.kind(), src);
        buf.freeze()
    }

    /// Encodes the message once for a link whose datagrams carry at most
    /// `mtu` bytes: a sealed frame when it fits, else the tagged encoding
    /// for the caller to fragment (a slice of the same buffer, whose byte
    /// in front of the body becomes the kind tag).
    pub fn encode_for_mtu(&self, src: NodeId, mtu: usize) -> Encoded {
        let mut buf = self.encode_behind(FRAME_HEADER_LEN);
        if buf.len() <= mtu {
            seal(&mut buf, self.kind(), src);
            return Encoded::Frame(buf.freeze());
        }
        buf[FRAME_HEADER_LEN - 1] = self.kind().wire_tag();
        Encoded::Oversized(buf.freeze().slice(FRAME_HEADER_LEN - 1..))
    }

    /// The body written behind `reserved` zero bytes, in one buffer sized
    /// up front for the blob-carrying messages of the hot paths.
    fn encode_behind(&self, reserved: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(reserved + self.body_capacity());
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN][..reserved]);
        self.write_body(&mut WireWriter::new(&mut buf));
        buf
    }

    /// Buffer capacity for the body: the embedded name and blob plus the
    /// most the other fields of a blob-carrying message take (47 bytes of
    /// varints, tags and length prefixes). Control messages with long
    /// names or catalogues grow the buffer instead.
    fn body_capacity(&self) -> usize {
        const FIXED: usize = 48;
        FIXED
            + match self {
                Message::VarSample { name, payload, .. }
                | Message::EventData { name, payload, .. }
                | Message::CallRequest { function: name, payload, .. } => {
                    name.as_str().len() + payload.len()
                }
                Message::CallReply { payload, .. }
                | Message::FileChunk { payload, .. }
                | Message::Fragment { payload, .. }
                | Message::RelData { payload, .. }
                | Message::FecShard { payload, .. } => payload.len(),
                _ => 0,
            }
    }

    /// Inverse of [`Message::encode_tagged`]. Embedded blobs are slices of
    /// `bytes`, not copies.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input.
    pub fn decode_tagged(bytes: &Bytes) -> Result<Message, DecodeError> {
        let mut r = WireReader::new(bytes);
        let tag = r.get_u8()?;
        let kind = MessageKind::from_wire_tag(tag).ok_or(DecodeError::InvalidTag(tag))?;
        Self::read_all(kind, bytes, r)
    }

    /// Deserializes a message of known `kind` from a frame payload.
    /// Embedded blobs are slices of `bytes`, not copies.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed or trailing input.
    pub fn decode_payload(kind: MessageKind, bytes: &Bytes) -> Result<Message, DecodeError> {
        Self::read_all(kind, bytes, WireReader::new(bytes))
    }

    /// Reads the body of a `kind` message from `r`, a reader over `src`,
    /// and rejects trailing bytes.
    fn read_all(
        kind: MessageKind,
        src: &Bytes,
        mut r: WireReader<'_>,
    ) -> Result<Message, DecodeError> {
        let msg = Self::read_body(kind, src, &mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(msg)
    }

    /// Wraps the message in a [`Frame`] from `src`.
    pub fn into_frame(self, src: NodeId) -> Frame {
        Frame::new(src, self.kind(), self.encode_payload())
    }

    /// Extracts the message from a decoded [`Frame`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the payload does not parse as the header's kind.
    pub fn from_frame(frame: &Frame) -> Result<Message, DecodeError> {
        Self::decode_payload(frame.header().kind, frame.payload_bytes())
    }

    fn write_body(&self, w: &mut WireWriter<'_>) {
        match self {
            Message::Hello { container, incarnation, fec_cap } => {
                w.put_str(container.as_str());
                w.put_varint(*incarnation);
                w.put_u8(*fec_cap);
            }
            Message::Heartbeat { incarnation, uptime_us, load_permille, fec_cap } => {
                w.put_varint(*incarnation);
                w.put_varint(*uptime_us);
                w.put_u16_le(*load_permille);
                w.put_u8(*fec_cap);
            }
            Message::Bye => {}
            Message::Announce { incarnation, entries } => {
                write_announce_body(w, *incarnation, entries);
            }
            Message::ServiceStatus { service_seq, name, state } => {
                w.put_varint(u64::from(*service_seq));
                w.put_str(name.as_str());
                w.put_u8(state.wire_tag());
            }
            Message::SubscribeVar { name, subscriber, need_initial } => {
                w.put_str(name.as_str());
                w.put_u32_le(subscriber.0);
                w.put_bool(*need_initial);
            }
            Message::UnsubscribeVar { name, subscriber } => {
                w.put_str(name.as_str());
                w.put_u32_le(subscriber.0);
            }
            Message::VarSample { name, seq, stamp_us, validity_us, trace, codec, payload } => {
                w.put_str(name.as_str());
                w.put_varint(*seq);
                w.put_varint(*stamp_us);
                w.put_varint(*validity_us);
                w.put_varint(*trace);
                w.put_u8(*codec);
                w.put_len_prefixed(payload);
            }
            Message::EventData { name, seq, stamp_us, trace, codec, payload } => {
                w.put_str(name.as_str());
                w.put_varint(*seq);
                w.put_varint(*stamp_us);
                w.put_varint(*trace);
                w.put_u8(*codec);
                w.put_len_prefixed(payload);
            }
            Message::CallRequest { request, function, target_seq, trace, codec, payload } => {
                w.put_varint(request.0);
                w.put_str(function.as_str());
                w.put_varint(u64::from(*target_seq));
                w.put_varint(*trace);
                w.put_u8(*codec);
                w.put_len_prefixed(payload);
            }
            Message::CallReply { request, status, trace, codec, payload } => {
                w.put_varint(request.0);
                w.put_u8(status.wire_tag());
                w.put_varint(*trace);
                w.put_u8(*codec);
                w.put_len_prefixed(payload);
            }
            Message::FileAnnounce { transfer, resource, revision, size, chunk_size, group } => {
                w.put_varint(transfer.0);
                w.put_str(resource.as_str());
                w.put_varint(u64::from(*revision));
                w.put_varint(*size);
                w.put_varint(u64::from(*chunk_size));
                w.put_u32_le(group.0);
            }
            Message::FileSubscribe { transfer, subscriber } => {
                w.put_varint(transfer.0);
                w.put_u32_le(subscriber.0);
            }
            Message::FileChunk { transfer, revision, index, payload } => {
                w.put_varint(transfer.0);
                w.put_varint(u64::from(*revision));
                w.put_varint(u64::from(*index));
                w.put_len_prefixed(payload);
            }
            Message::FileQuery { transfer, revision } => {
                w.put_varint(transfer.0);
                w.put_varint(u64::from(*revision));
            }
            Message::FileAck { transfer, revision, subscriber } => {
                w.put_varint(transfer.0);
                w.put_varint(u64::from(*revision));
                w.put_u32_le(subscriber.0);
            }
            Message::FileNack { transfer, revision, subscriber, runs } => {
                w.put_varint(transfer.0);
                w.put_varint(u64::from(*revision));
                w.put_u32_le(subscriber.0);
                w.put_varint(runs.len() as u64);
                for (start, len) in runs {
                    w.put_varint(u64::from(*start));
                    w.put_varint(u64::from(*len));
                }
            }
            Message::FileCancel { transfer } => {
                w.put_varint(transfer.0);
            }
            Message::Fragment { msg_id, index, count, payload } => {
                w.put_varint(*msg_id);
                w.put_varint(u64::from(*index));
                w.put_varint(u64::from(*count));
                w.put_len_prefixed(payload);
            }
            Message::RelData { channel, seq, payload } => {
                w.put_u16_le(*channel);
                w.put_varint(*seq);
                w.put_len_prefixed(payload);
            }
            Message::RelAck { channel, cumulative, sack, loss_permille } => {
                w.put_u16_le(*channel);
                w.put_u64_le(*cumulative);
                w.put_u64_le(*sack);
                w.put_u16_le(*loss_permille);
            }
            Message::SubscribeEvent { name, subscriber }
            | Message::UnsubscribeEvent { name, subscriber } => {
                w.put_str(name.as_str());
                w.put_u32_le(subscriber.0);
            }
            Message::FecShard { channel, group, index, k, r, payload } => {
                w.put_u16_le(*channel);
                w.put_varint(*group);
                w.put_u8(*index);
                w.put_u8(*k);
                w.put_u8(*r);
                w.put_len_prefixed(payload);
            }
            Message::AnnounceDigest { incarnation, entry_count, catalogue_hash } => {
                w.put_varint(*incarnation);
                w.put_varint(u64::from(*entry_count));
                w.put_u32_le(*catalogue_hash);
            }
            Message::AnnounceRequest => {}
        }
    }

    fn read_body(
        kind: MessageKind,
        src: &Bytes,
        r: &mut WireReader<'_>,
    ) -> Result<Message, DecodeError> {
        Ok(match kind {
            MessageKind::Hello => Message::Hello {
                container: read_name(r)?,
                incarnation: r.get_varint()?,
                fec_cap: r.get_u8()?,
            },
            MessageKind::Heartbeat => Message::Heartbeat {
                incarnation: r.get_varint()?,
                uptime_us: r.get_varint()?,
                load_permille: r.get_u16_le()?,
                fec_cap: r.get_u8()?,
            },
            MessageKind::Bye => Message::Bye,
            MessageKind::Announce => {
                let incarnation = r.get_varint()?;
                let n = checked_len(r.get_varint()?, MAX_LIST)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let service_seq = read_u32(r)?;
                    let name = read_name(r)?;
                    let state_tag = r.get_u8()?;
                    let state = ServiceState::from_wire_tag(state_tag)
                        .ok_or(DecodeError::InvalidTag(state_tag))?;
                    let np = checked_len(r.get_varint()?, MAX_LIST)?;
                    let mut provides = Vec::with_capacity(np);
                    for _ in 0..np {
                        let ptag = r.get_u8()?;
                        let pname = read_name(r)?;
                        provides.push(match ptag {
                            0 => Provision::Variable {
                                name: pname,
                                ty: read_typedesc(r)?,
                                period_us: r.get_varint()?,
                                validity_us: r.get_varint()?,
                            },
                            1 => Provision::Event {
                                name: pname,
                                ty: if r.get_bool()? { Some(read_typedesc(r)?) } else { None },
                            },
                            2 => {
                                let nparams = checked_len(r.get_varint()?, MAX_LIST)?;
                                let mut params = Vec::with_capacity(nparams);
                                for _ in 0..nparams {
                                    params.push(read_typedesc(r)?);
                                }
                                let returns =
                                    if r.get_bool()? { Some(read_typedesc(r)?) } else { None };
                                Provision::Function {
                                    name: pname,
                                    sig: FunctionSig { params, returns },
                                }
                            }
                            3 => Provision::FileResource { name: pname },
                            other => return Err(DecodeError::InvalidTag(other)),
                        });
                    }
                    entries.push(AnnounceEntry { service_seq, name, state, provides });
                }
                Message::Announce { incarnation, entries }
            }
            MessageKind::ServiceStatus => {
                let service_seq = read_u32(r)?;
                let name = read_name(r)?;
                let tag = r.get_u8()?;
                let state = ServiceState::from_wire_tag(tag).ok_or(DecodeError::InvalidTag(tag))?;
                Message::ServiceStatus { service_seq, name, state }
            }
            MessageKind::SubscribeVar => Message::SubscribeVar {
                name: read_name(r)?,
                subscriber: NodeId(r.get_u32_le()?),
                need_initial: r.get_bool()?,
            },
            MessageKind::UnsubscribeVar => {
                Message::UnsubscribeVar { name: read_name(r)?, subscriber: NodeId(r.get_u32_le()?) }
            }
            MessageKind::VarSample => Message::VarSample {
                name: read_name(r)?,
                seq: r.get_varint()?,
                stamp_us: r.get_varint()?,
                validity_us: r.get_varint()?,
                trace: r.get_varint()?,
                codec: r.get_u8()?,
                payload: read_blob(r, src)?,
            },
            MessageKind::EventData => Message::EventData {
                name: read_name(r)?,
                seq: r.get_varint()?,
                stamp_us: r.get_varint()?,
                trace: r.get_varint()?,
                codec: r.get_u8()?,
                payload: read_blob(r, src)?,
            },
            MessageKind::CallRequest => Message::CallRequest {
                request: RequestId(r.get_varint()?),
                function: read_name(r)?,
                target_seq: read_u32(r)?,
                trace: r.get_varint()?,
                codec: r.get_u8()?,
                payload: read_blob(r, src)?,
            },
            MessageKind::CallReply => {
                let request = RequestId(r.get_varint()?);
                let tag = r.get_u8()?;
                let status = CallStatus::from_wire_tag(tag).ok_or(DecodeError::InvalidTag(tag))?;
                Message::CallReply {
                    request,
                    status,
                    trace: r.get_varint()?,
                    codec: r.get_u8()?,
                    payload: read_blob(r, src)?,
                }
            }
            MessageKind::FileAnnounce => Message::FileAnnounce {
                transfer: TransferId(r.get_varint()?),
                resource: read_name(r)?,
                revision: read_u32(r)?,
                size: r.get_varint()?,
                chunk_size: read_u32(r)?,
                group: GroupId(r.get_u32_le()?),
            },
            MessageKind::FileSubscribe => Message::FileSubscribe {
                transfer: TransferId(r.get_varint()?),
                subscriber: NodeId(r.get_u32_le()?),
            },
            MessageKind::FileChunk => Message::FileChunk {
                transfer: TransferId(r.get_varint()?),
                revision: read_u32(r)?,
                index: read_u32(r)?,
                payload: read_blob(r, src)?,
            },
            MessageKind::FileQuery => {
                Message::FileQuery { transfer: TransferId(r.get_varint()?), revision: read_u32(r)? }
            }
            MessageKind::FileAck => Message::FileAck {
                transfer: TransferId(r.get_varint()?),
                revision: read_u32(r)?,
                subscriber: NodeId(r.get_u32_le()?),
            },
            MessageKind::FileNack => {
                let transfer = TransferId(r.get_varint()?);
                let revision = read_u32(r)?;
                let subscriber = NodeId(r.get_u32_le()?);
                let n = checked_len(r.get_varint()?, MAX_LIST)?;
                let mut runs = Vec::with_capacity(n);
                for _ in 0..n {
                    runs.push((read_u32(r)?, read_u32(r)?));
                }
                Message::FileNack { transfer, revision, subscriber, runs }
            }
            MessageKind::FileCancel => {
                Message::FileCancel { transfer: TransferId(r.get_varint()?) }
            }
            MessageKind::Fragment => Message::Fragment {
                msg_id: r.get_varint()?,
                index: read_u32(r)?,
                count: read_u32(r)?,
                payload: read_blob(r, src)?,
            },
            MessageKind::RelData => Message::RelData {
                channel: r.get_u16_le()?,
                seq: r.get_varint()?,
                payload: read_blob(r, src)?,
            },
            MessageKind::RelAck => Message::RelAck {
                channel: r.get_u16_le()?,
                cumulative: r.get_u64_le()?,
                sack: r.get_u64_le()?,
                loss_permille: r.get_u16_le()?,
            },
            MessageKind::SubscribeEvent => {
                Message::SubscribeEvent { name: read_name(r)?, subscriber: NodeId(r.get_u32_le()?) }
            }
            MessageKind::UnsubscribeEvent => Message::UnsubscribeEvent {
                name: read_name(r)?,
                subscriber: NodeId(r.get_u32_le()?),
            },
            MessageKind::FecShard => Message::FecShard {
                channel: r.get_u16_le()?,
                group: r.get_varint()?,
                index: r.get_u8()?,
                k: r.get_u8()?,
                r: r.get_u8()?,
                payload: read_blob(r, src)?,
            },
            MessageKind::AnnounceDigest => Message::AnnounceDigest {
                incarnation: r.get_varint()?,
                entry_count: read_u32(r)?,
                catalogue_hash: r.get_u32_le()?,
            },
            MessageKind::AnnounceRequest => Message::AnnounceRequest,
        })
    }
}

fn write_announce_body(w: &mut WireWriter<'_>, incarnation: u64, entries: &[AnnounceEntry]) {
    w.put_varint(incarnation);
    w.put_varint(entries.len() as u64);
    for e in entries {
        w.put_varint(u64::from(e.service_seq));
        w.put_str(e.name.as_str());
        w.put_u8(e.state.wire_tag());
        w.put_varint(e.provides.len() as u64);
        for p in &e.provides {
            w.put_u8(p.wire_tag());
            w.put_str(p.name().as_str());
            match p {
                Provision::Variable { ty, period_us, validity_us, .. } => {
                    write_typedesc(w, ty);
                    w.put_varint(*period_us);
                    w.put_varint(*validity_us);
                }
                Provision::Event { ty, .. } => match ty {
                    Some(t) => {
                        w.put_u8(1);
                        write_typedesc(w, t);
                    }
                    None => w.put_u8(0),
                },
                Provision::Function { sig, .. } => {
                    w.put_varint(sig.params.len() as u64);
                    for pty in &sig.params {
                        write_typedesc(w, pty);
                    }
                    match &sig.returns {
                        Some(rty) => {
                            w.put_u8(1);
                            write_typedesc(w, rty);
                        }
                        None => w.put_u8(0),
                    }
                }
                Provision::FileResource { .. } => {}
            }
        }
    }
}

/// Canonical digest of a full catalogue announce: FNV-1a over the exact
/// `Announce` body encoding of `(incarnation, entries)`.
///
/// Both ends of the digest-gossip protocol hash through this function —
/// the announcer before broadcasting (stored alongside `last_announce`
/// state), the receiver over the decoded entries it applied — so equal
/// catalogues always hash equal regardless of which side computed it
/// (the wire encoding is canonical).
pub fn announce_hash(incarnation: u64, entries: &[AnnounceEntry]) -> u32 {
    let mut buf = BytesMut::new();
    let mut w = WireWriter::new(&mut buf);
    write_announce_body(&mut w, incarnation, entries);
    let mut h: u32 = 0x811c_9dc5;
    for &b in buf.iter() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn write_typedesc(w: &mut WireWriter<'_>, ty: &DataType) {
    let bytes = typedesc::encode_type_to_vec(ty);
    w.put_len_prefixed(&bytes);
}

fn read_typedesc(r: &mut WireReader<'_>) -> Result<DataType, DecodeError> {
    let bytes = r.get_len_prefixed(MAX_EMBEDDED)?;
    typedesc::decode_type_from_slice(bytes)
}

fn read_name(r: &mut WireReader<'_>) -> Result<Name, DecodeError> {
    let s = r.get_str(256)?;
    Name::new(s).map_err(|_| DecodeError::InvalidName)
}

/// A length-prefixed blob as a slice of `src`, the buffer `r` reads.
fn read_blob(r: &mut WireReader<'_>, src: &Bytes) -> Result<Bytes, DecodeError> {
    let len = r.get_len_prefixed(MAX_EMBEDDED)?.len();
    let end = r.position();
    Ok(src.slice(end - len..end))
}

fn read_u32(r: &mut WireReader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(r.get_varint()?).map_err(|_| DecodeError::VarintOverflow)
}

fn checked_len(declared: u64, limit: usize) -> Result<usize, DecodeError> {
    if declared > limit as u64 {
        return Err(DecodeError::LengthOverflow { declared, limit });
    }
    Ok(declared as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::StructType;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    fn sample_messages() -> Vec<Message> {
        let pos_ty = DataType::Struct(
            StructType::new("Position")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap(),
        );
        vec![
            Message::Hello { container: name("fcs-node"), incarnation: 3, fec_cap: 4 },
            Message::Heartbeat {
                incarnation: 3,
                uptime_us: 1_000_000,
                load_permille: 250,
                fec_cap: 4,
            },
            Message::Bye,
            Message::Announce {
                incarnation: 3,
                entries: vec![AnnounceEntry {
                    service_seq: 1,
                    name: name("gps"),
                    state: ServiceState::Running,
                    provides: vec![
                        Provision::Variable {
                            name: name("gps/position"),
                            ty: pos_ty.clone(),
                            period_us: 50_000,
                            validity_us: 200_000,
                        },
                        Provision::Event { name: name("gps/fix-lost"), ty: None },
                        Provision::Event { name: name("gps/glitch"), ty: Some(DataType::U8) },
                        Provision::Function {
                            name: name("gps/self-test"),
                            sig: FunctionSig {
                                params: vec![DataType::U8],
                                returns: Some(DataType::Bool),
                            },
                        },
                        Provision::Function {
                            name: name("gps/reset"),
                            sig: FunctionSig { params: vec![], returns: None },
                        },
                        Provision::FileResource { name: name("gps/almanac") },
                    ],
                }],
            },
            Message::ServiceStatus {
                service_seq: 1,
                name: name("gps"),
                state: ServiceState::Degraded,
            },
            Message::SubscribeVar {
                name: name("gps/position"),
                subscriber: NodeId(4),
                need_initial: true,
            },
            Message::UnsubscribeVar { name: name("gps/position"), subscriber: NodeId(4) },
            Message::VarSample {
                name: name("gps/position"),
                seq: 991,
                stamp_us: 123_456,
                validity_us: 200_000,
                trace: 991,
                codec: 0,
                payload: Bytes::from_static(&[1, 2, 3]),
            },
            Message::EventData {
                name: name("mc/photo-now"),
                seq: 7,
                stamp_us: 55,
                trace: 12,
                codec: 0,
                payload: Bytes::new(),
            },
            Message::CallRequest {
                request: RequestId(42),
                function: name("camera/prepare"),
                target_seq: 2,
                trace: 77,
                codec: 0,
                payload: Bytes::from_static(&[9]),
            },
            Message::CallReply {
                request: RequestId(42),
                status: CallStatus::Ok,
                trace: 77,
                codec: 0,
                payload: Bytes::from_static(&[1]),
            },
            Message::FileAnnounce {
                transfer: TransferId(5),
                resource: name("camera/img-003"),
                revision: 2,
                size: 1_048_576,
                chunk_size: 1024,
                group: GroupId(7),
            },
            Message::FileSubscribe { transfer: TransferId(5), subscriber: NodeId(2) },
            Message::FileChunk {
                transfer: TransferId(5),
                revision: 2,
                index: 17,
                payload: Bytes::from_static(b"chunkdata"),
            },
            Message::FileQuery { transfer: TransferId(5), revision: 2 },
            Message::FileAck { transfer: TransferId(5), revision: 2, subscriber: NodeId(2) },
            Message::FileNack {
                transfer: TransferId(5),
                revision: 2,
                subscriber: NodeId(2),
                runs: vec![(0, 3), (17, 1), (100, 24)],
            },
            Message::FileCancel { transfer: TransferId(5) },
            Message::Fragment {
                msg_id: 88,
                index: 1,
                count: 3,
                payload: Bytes::from_static(b"frag"),
            },
            Message::RelData { channel: 2, seq: 10, payload: Bytes::from_static(b"inner") },
            Message::RelAck { channel: 2, cumulative: 9, sack: 0b101, loss_permille: 125 },
            Message::SubscribeEvent { name: name("mc/photo-now"), subscriber: NodeId(3) },
            Message::UnsubscribeEvent { name: name("mc/photo-now"), subscriber: NodeId(3) },
            Message::FecShard {
                channel: 2,
                group: 40,
                index: 0x80,
                k: 4,
                r: 1,
                payload: Bytes::from_static(b"xor-lane"),
            },
            Message::AnnounceDigest { incarnation: 3, entry_count: 1, catalogue_hash: 0xDEAD_BEEF },
            Message::AnnounceRequest,
        ]
    }

    #[test]
    fn every_message_roundtrips_via_payload() {
        for msg in sample_messages() {
            let bytes = msg.encode_payload();
            let back = Message::decode_payload(msg.kind(), &bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_message_roundtrips_via_frame() {
        for msg in sample_messages() {
            let frame = msg.clone().into_frame(NodeId(11));
            let wire = frame.encode();
            let parsed = Frame::decode(&wire).unwrap();
            assert_eq!(parsed.header().src, NodeId(11));
            assert_eq!(Message::from_frame(&parsed).unwrap(), msg);
        }
    }

    #[test]
    fn encode_frame_matches_the_two_step_encoding() {
        for msg in sample_messages() {
            let two_step = Frame::new(NodeId(11), msg.kind(), msg.encode_payload()).encode();
            assert_eq!(msg.encode_frame(NodeId(11)), two_step, "{:?}", msg.kind());
            assert_eq!(msg.encode_for_mtu(NodeId(11), two_step.len()), Encoded::Frame(two_step));
        }
    }

    #[test]
    fn oversized_encoding_is_the_tagged_encoding() {
        for msg in sample_messages() {
            let frame_len = msg.encode_frame(NodeId(2)).len();
            assert_eq!(
                msg.encode_for_mtu(NodeId(2), frame_len - 1),
                Encoded::Oversized(msg.encode_tagged()),
                "{:?}",
                msg.kind()
            );
        }
    }

    #[test]
    fn decoded_blobs_point_into_the_received_buffer() {
        let inner = sample_messages()
            .into_iter()
            .find(|m| matches!(m, Message::VarSample { .. }))
            .expect("fixture has a VarSample");
        let envelope = Message::RelData { channel: 1, seq: 3, payload: inner.encode_tagged() };
        let wire = envelope.encode_frame(NodeId(4));
        let span = wire.as_ptr_range();
        let frame = Frame::decode(&wire).unwrap();
        let Ok(Message::RelData { payload: tagged, .. }) = Message::from_frame(&frame) else {
            panic!("RelData roundtrips");
        };
        assert!(span.contains(&tagged.as_ptr()), "RelData blob was copied");
        let Ok(Message::VarSample { payload, .. }) = Message::decode_tagged(&tagged) else {
            panic!("VarSample roundtrips");
        };
        assert!(span.contains(&payload.as_ptr()), "VarSample blob was copied");
        assert_eq!(payload, Bytes::from_static(&[1, 2, 3]));
    }

    #[test]
    fn every_message_roundtrips_via_tagged() {
        for msg in sample_messages() {
            let bytes = msg.encode_tagged();
            assert_eq!(Message::decode_tagged(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn sample_covers_every_kind() {
        let mut kinds: Vec<MessageKind> = sample_messages().iter().map(|m| m.kind()).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), MessageKind::ALL.len(), "fixture must cover all kinds");
    }

    #[test]
    fn kind_tags_roundtrip() {
        for &k in MessageKind::ALL {
            assert_eq!(MessageKind::from_wire_tag(k.wire_tag()), Some(k));
        }
        assert_eq!(MessageKind::from_wire_tag(0xFF), None);
    }

    #[test]
    fn state_and_status_tags_roundtrip() {
        for s in [
            ServiceState::Starting,
            ServiceState::Running,
            ServiceState::Degraded,
            ServiceState::Stopped,
            ServiceState::Failed,
        ] {
            assert_eq!(ServiceState::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert!(ServiceState::from_wire_tag(9).is_none());
        for s in [
            CallStatus::Ok,
            CallStatus::AppError,
            CallStatus::NoSuchFunction,
            CallStatus::ServiceUnavailable,
            CallStatus::Timeout,
        ] {
            assert_eq!(CallStatus::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert!(CallStatus::from_wire_tag(9).is_none());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Bye.encode_payload().to_vec();
        bytes.push(1);
        assert!(matches!(
            Message::decode_payload(MessageKind::Bye, &Bytes::from(bytes)),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn truncated_messages_rejected() {
        for msg in sample_messages() {
            let bytes = msg.encode_payload();
            if bytes.is_empty() {
                continue;
            }
            // Cutting the last byte must fail (every encoding is minimal).
            let cut = &bytes[..bytes.len() - 1];
            assert!(
                Message::decode_payload(msg.kind(), &Bytes::copy_from_slice(cut)).is_err(),
                "truncated {:?} decoded",
                msg.kind()
            );
        }
    }

    #[test]
    fn invalid_names_rejected() {
        // Hand-craft a Hello with a bad name.
        let mut buf = BytesMut::new();
        let mut w = WireWriter::new(&mut buf);
        w.put_str("9bad name");
        w.put_varint(0);
        assert_eq!(
            Message::decode_payload(MessageKind::Hello, &buf.freeze()),
            Err(DecodeError::InvalidName)
        );
    }

    #[test]
    fn announce_hash_is_canonical_across_a_roundtrip() {
        let Some(Message::Announce { incarnation, entries }) =
            sample_messages().into_iter().find(|m| matches!(m, Message::Announce { .. }))
        else {
            panic!("fixture has an Announce");
        };
        let sender_side = announce_hash(incarnation, &entries);
        // The receiver hashes the entries it *decoded*; equal catalogues
        // must digest equal.
        let wire = Message::Announce { incarnation, entries: entries.clone() }.encode_payload();
        let Ok(Message::Announce { incarnation: inc2, entries: decoded }) =
            Message::decode_payload(MessageKind::Announce, &wire)
        else {
            panic!("announce roundtrips");
        };
        assert_eq!(announce_hash(inc2, &decoded), sender_side);
        // Any catalogue change — or a new incarnation — changes the digest.
        assert_ne!(announce_hash(incarnation + 1, &entries), sender_side);
        assert_ne!(announce_hash(incarnation, &entries[..0]), sender_side);
    }

    #[test]
    fn announce_list_limit_enforced() {
        let mut buf = BytesMut::new();
        let mut w = WireWriter::new(&mut buf);
        w.put_varint(1); // incarnation
        w.put_varint(1_000_000); // entry count over limit
        assert!(matches!(
            Message::decode_payload(MessageKind::Announce, &buf.freeze()),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn available_states() {
        assert!(ServiceState::Running.is_available());
        assert!(ServiceState::Degraded.is_available());
        assert!(!ServiceState::Failed.is_available());
        assert!(!ServiceState::Stopped.is_available());
        assert!(!ServiceState::Starting.is_available());
    }
}
