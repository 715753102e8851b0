//! The benchmark's own traffic and its bookkeeping: the payload format,
//! the open-loop sources, the closed-loop callers, the sinks and echo
//! providers, and the ledger that checks and times every delivery.
//!
//! Every payload starts with a 20-byte header — stream id (u32), sequence
//! number (u64) and the virtual µs the message was *due* at the source
//! (u64), little endian — followed by fill bytes derived from the header.
//! A sink can therefore check every byte it receives without keeping a
//! copy of what was sent, and time each message from when it was due.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;
use marea_core::{
    CallError, CallHandle, EventPort, EventQos, FileEvent, FnPort, ProtoDuration, ProviderNotice,
    Service, ServiceContext, ServiceDescriptor, TimerId, TypedCallHandle, VarPort, VarQos,
};
use marea_presentation::{Name, Value};

use crate::wall;

/// Bytes of the payload header.
pub const HEADER: usize = 20;

/// Violation texts kept for the report (all of them are counted).
const KEPT_VIOLATIONS: usize = 16;

/// The fill byte at offset `i` of message `(stream, seq)`.
fn fill(key: u32, i: usize) -> u8 {
    ((i as u32).wrapping_mul(0x9E37_79B1) ^ key).rotate_left(8) as u8
}

fn fill_key(stream: u32, seq: u64) -> u32 {
    stream.wrapping_mul(0x85EB_CA6B) ^ (seq as u32).wrapping_mul(0xC2B2_AE35)
}

/// Builds the payload of message `seq` of `stream`, due at `due_us`.
pub fn payload(stream: u32, seq: u64, due_us: u64, size: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(size.max(HEADER));
    p.extend_from_slice(&stream.to_le_bytes());
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&due_us.to_le_bytes());
    let key = fill_key(stream, seq);
    p.extend((HEADER..size).map(|i| fill(key, i)));
    p
}

/// Reads a payload header back: `(stream, seq, due_us)`.
fn header(bytes: &[u8]) -> Option<(u32, u64, u64)> {
    let stream = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
    let seq = u64::from_le_bytes(bytes.get(4..12)?.try_into().ok()?);
    let due = u64::from_le_bytes(bytes.get(12..20)?.try_into().ok()?);
    Some((stream, seq, due))
}

/// The four paper primitives, as the benchmark drives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Periodic best-effort variable (open loop, multicast).
    Var,
    /// Reliable event stream (open loop).
    Event,
    /// MFTP file revisions (open loop).
    File,
    /// Remote invocation (closed loop, one outstanding call).
    Call,
}

impl Kind {
    fn index(self) -> usize {
        self as usize
    }
}

/// One source of messages and what it has sent.
#[derive(Debug)]
struct Stream {
    kind: Kind,
    /// Open-loop period; 0 for a closed-loop caller.
    period_us: u64,
    size: usize,
    /// Slots registered on this stream (fan-out of one message).
    receivers: u64,
    next_due: u64,
    next_seq: u64,
    /// Messages due inside the measured span.
    span_msgs: u64,
    /// Sequence number of the last message due inside the span.
    span_last_seq: Option<u64>,
    /// Open-loop messages sent (by send time) inside the span.
    span_sent: u64,
}

/// One (stream, receiver) pair.
#[derive(Debug)]
struct Slot {
    stream: u32,
    last_seq: Option<u64>,
    /// Outcomes recorded for messages due inside the span.
    span_outcomes: u64,
    seen: bool,
}

/// Exact latency distribution: virtual µs → count.
pub type Histogram = BTreeMap<u64, u64>;

/// Nearest-rank percentile of `h` (`q` in (0, 1]); 0 when empty.
pub fn percentile(h: &Histogram, q: f64) -> u64 {
    let n: u64 = h.values().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut acc = 0;
    for (&v, &c) in h {
        acc += c;
        if acc >= rank {
            return v;
        }
    }
    0
}

/// Everything the ledger measured that must repeat exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Deliveries (and calls) offered with a due time inside the span.
    pub offered: u64,
    /// Delivered within the latency limit.
    pub in_limit: u64,
    /// Delivered after the latency limit.
    pub late: u64,
    /// Calls that ended in an error.
    pub errored: u64,
    /// Never delivered, though a later message of the stream was: a
    /// variable sample or file revision that was skipped.
    pub lost: u64,
    /// Never delivered, and after the last message each receiver got:
    /// still in flight when the drain ended.
    pub in_flight: u64,
    /// Late, errored, lost or in flight, per primitive.
    pub failed_by_kind: [u64; 4],
    /// Payload bytes delivered within the limit.
    pub payload_bytes: u64,
    /// Latency of every delivery due inside the span.
    pub latency: Histogram,
    /// The same, split by due time into the span's four quarters.
    pub quarters: [Histogram; 4],
    /// In-limit deliveries per announce-period window, by delivery time.
    pub windows: Vec<u64>,
    /// Handler callbacks seen per primitive over the whole run.
    pub callbacks: [u64; 4],
    /// Open-loop messages sent (by send time) inside the span.
    pub gen_sent: u64,
    /// Sum of how late the sources sent the messages due inside the span
    /// (virtual µs).
    pub gen_lag_sum: u64,
    /// Maximum source lateness (virtual µs).
    pub gen_lag_max: u64,
    /// Requested open-loop rate summed over every source (1/s).
    pub requested_hz: f64,
    /// Correctness breaches, counted.
    pub violations: u64,
}

impl Tally {
    /// Offered operations that were late, errored, lost or in flight.
    pub fn failed(&self) -> u64 {
        self.late + self.errored + self.lost + self.in_flight
    }
}

/// The shared ledger every benchmark service reports to.
#[derive(Debug)]
pub struct Ledger {
    streams: Vec<Stream>,
    slots: Vec<Slot>,
    unseen: usize,
    limit_us: u64,
    span: (u64, u64),
    window_us: u64,
    tally: Tally,
    violation_texts: Vec<String>,
    /// Wall ns spent inside benchmark service callbacks (traced runs).
    pub handler_ns: u64,
    /// Benchmark service callbacks timed (traced runs).
    pub handler_calls: u64,
}

/// How services hold the ledger.
pub type Shared = Arc<Mutex<Ledger>>;

/// Locks the ledger (single-threaded harness: never contended).
pub fn lock(ledger: &Shared) -> MutexGuard<'_, Ledger> {
    ledger.lock().expect("a benchmark service panicked while holding the ledger")
}

impl Ledger {
    /// An empty ledger for a workload whose latency limit is `limit_us`.
    pub fn new(limit_us: u64) -> Shared {
        Arc::new(Mutex::new(Ledger {
            streams: Vec::new(),
            slots: Vec::new(),
            unseen: 0,
            limit_us,
            span: (u64::MAX, u64::MAX),
            window_us: 1,
            tally: Tally::default(),
            violation_texts: Vec::new(),
            handler_ns: 0,
            handler_calls: 0,
        }))
    }

    /// Registers a stream; an open-loop one first falls due at `phase_us`.
    pub fn add_stream(&mut self, kind: Kind, period_us: u64, phase_us: u64, size: usize) -> u32 {
        assert!(size >= HEADER, "payloads carry a {HEADER}-byte header");
        if period_us > 0 {
            self.tally.requested_hz += 1e6 / period_us as f64;
        }
        self.streams.push(Stream {
            kind,
            period_us,
            size,
            receivers: 0,
            next_due: phase_us,
            next_seq: 0,
            span_msgs: 0,
            span_last_seq: None,
            span_sent: 0,
        });
        (self.streams.len() - 1) as u32
    }

    /// Registers one receiver of `stream`; returns its slot.
    pub fn add_slot(&mut self, stream: u32) -> u32 {
        self.streams[stream as usize].receivers += 1;
        self.slots.push(Slot { stream, last_seq: None, span_outcomes: 0, seen: false });
        self.unseen += 1;
        (self.slots.len() - 1) as u32
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// `true` once every receiver has seen its first message (and every
    /// caller its first good reply).
    pub fn converged(&self) -> bool {
        self.unseen == 0
    }

    /// Fixes the measured span: messages due in `[start, end)` are
    /// accounted, sources stop at `end`, and in-limit deliveries are
    /// binned into windows of `window_us` by delivery time.
    pub fn set_span(&mut self, start: u64, end: u64, window_us: u64) {
        self.span = (start, end);
        self.window_us = window_us;
        self.tally.windows = vec![0; ((end - start) / window_us) as usize];
    }

    fn in_span(&self, due: u64) -> bool {
        due >= self.span.0 && due < self.span.1
    }

    fn violation(&mut self, text: String) {
        self.tally.violations += 1;
        if self.violation_texts.len() < KEPT_VIOLATIONS {
            self.violation_texts.push(text);
        }
    }

    /// The recorded breaches (at most [`KEPT_VIOLATIONS`] texts).
    pub fn violation_texts(&self) -> &[String] {
        &self.violation_texts
    }

    /// The next message of open-loop `stream` if it is due by `now`.
    fn take_due(&mut self, stream: u32, now: u64) -> Option<Vec<u8>> {
        let (sent_in_span, span_end) = (self.in_span(now), self.span.1);
        let s = &mut self.streams[stream as usize];
        if s.next_due > now || s.next_due >= span_end {
            return None;
        }
        let (due, seq, size, receivers) = (s.next_due, s.next_seq, s.size, s.receivers);
        s.next_due += s.period_us;
        s.next_seq += 1;
        if sent_in_span {
            s.span_sent += 1;
            self.tally.gen_sent += 1;
        }
        if self.in_span(due) {
            let s = &mut self.streams[stream as usize];
            s.span_msgs += 1;
            s.span_last_seq = Some(seq);
            self.tally.offered += receivers;
            self.tally.gen_lag_sum += now - due;
            self.tally.gen_lag_max = self.tally.gen_lag_max.max(now - due);
        }
        Some(payload(stream, seq, due, size))
    }

    /// When open-loop `stream` next falls due, unless the sources stopped.
    fn next_wake(&self, stream: u32) -> Option<u64> {
        let due = self.streams[stream as usize].next_due;
        (due < self.span.1).then_some(due)
    }

    /// Starts the next closed-loop call of `stream`, due at `due`.
    fn start_call(&mut self, stream: u32, due: u64) -> Option<(u64, Vec<u8>)> {
        if due >= self.span.1 {
            return None;
        }
        let s = &mut self.streams[stream as usize];
        let (seq, size) = (s.next_seq, s.size);
        s.next_seq += 1;
        if self.in_span(due) {
            let s = &mut self.streams[stream as usize];
            s.span_msgs += 1;
            s.span_last_seq = Some(seq);
            self.tally.offered += 1;
        }
        Some((seq, payload(stream, seq, due, size)))
    }

    /// Checks a received payload against what `(stream, seq, due)` must
    /// contain; returns the header on success.
    fn check_bytes(&mut self, bytes: &[u8]) -> Option<(u32, u64, u64)> {
        let Some((stream, seq, due)) = header(bytes) else {
            self.violation(format!("payload of {} bytes has no header", bytes.len()));
            return None;
        };
        let Some(s) = self.streams.get(stream as usize) else {
            self.violation(format!("payload names unknown stream {stream}"));
            return None;
        };
        let key = fill_key(stream, seq);
        let intact = bytes.len() == s.size
            && bytes[HEADER..].iter().enumerate().all(|(i, &b)| b == fill(key, HEADER + i));
        if !intact {
            self.violation(format!("stream {stream} seq {seq}: payload bytes differ"));
            return None;
        }
        Some((stream, seq, due))
    }

    /// Records one outcome of a message due at `due` that reached `slot`
    /// at `now` (`delivered == false`: the call failed).
    fn record(&mut self, slot: u32, due: u64, now: u64, size: usize, delivered: bool) {
        if !self.in_span(due) {
            return;
        }
        self.slots[slot as usize].span_outcomes += 1;
        let kind = self.streams[self.slots[slot as usize].stream as usize].kind.index();
        if !delivered {
            self.tally.errored += 1;
            self.tally.failed_by_kind[kind] += 1;
            return;
        }
        let lat = now - due;
        *self.tally.latency.entry(lat).or_default() += 1;
        let span_len = self.span.1 - self.span.0;
        let q = ((due - self.span.0) * 4 / span_len) as usize;
        *self.tally.quarters[q].entry(lat).or_default() += 1;
        if lat <= self.limit_us {
            self.tally.in_limit += 1;
            self.tally.payload_bytes += size as u64;
            if now >= self.span.0 && now < self.span.1 {
                self.tally.windows[((now - self.span.0) / self.window_us) as usize] += 1;
            }
        } else {
            self.tally.late += 1;
            self.tally.failed_by_kind[kind] += 1;
        }
    }

    fn mark_seen(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if !s.seen {
            s.seen = true;
            self.unseen -= 1;
        }
    }

    /// A sink received `bytes` of primitive `kind`; `slots[stream]` is the
    /// sink's slot on each stream it subscribed to.
    fn deliver(&mut self, kind: Kind, slots: &[Option<u32>], bytes: &[u8], now: u64) {
        self.tally.callbacks[kind.index()] += 1;
        let Some((stream, seq, due)) = self.check_bytes(bytes) else { return };
        let Some(slot) = slots.get(stream as usize).copied().flatten() else {
            self.violation(format!("stream {stream} delivered to a sink that never subscribed"));
            return;
        };
        if self.streams[stream as usize].kind != kind {
            self.violation(format!("stream {stream} delivered as {kind:?}"));
            return;
        }
        let last = self.slots[slot as usize].last_seq;
        let in_order = match (kind, last) {
            (_, None) => true,
            // Reliable events: exactly once, in order.
            (Kind::Event, Some(l)) => seq == l + 1,
            // Variables and file revisions: newer only.
            (_, Some(l)) => seq > l,
        };
        if !in_order {
            self.violation(format!("stream {stream}: seq {seq} after {last:?} ({kind:?})"));
            return;
        }
        self.slots[slot as usize].last_seq = Some(seq);
        self.mark_seen(slot);
        self.record(slot, due, now, bytes.len(), true);
    }

    /// A caller's reply (or error) for call `seq` due at `due` arrived.
    fn reply(&mut self, slot: u32, seq: u64, due: u64, reply: Result<&[u8], ()>, now: u64) {
        self.tally.callbacks[Kind::Call.index()] += 1;
        let stream = self.slots[slot as usize].stream;
        let ok = match reply {
            Ok(bytes) => match self.check_bytes(bytes) {
                Some(h) if h == (stream, seq, due) => true,
                Some(h) => {
                    self.violation(format!("call {seq} of stream {stream} answered with {h:?}"));
                    return;
                }
                None => return,
            },
            Err(()) => false,
        };
        if ok {
            self.mark_seen(slot);
        }
        self.slots[slot as usize].last_seq = Some(seq);
        let size = self.streams[stream as usize].size;
        self.record(slot, due, now, size, ok);
    }

    /// Closes the books after the drain: counts what never arrived,
    /// checks conservation and the sources' rate, and returns the tally.
    ///
    /// Conservation holds per slot: offered = in limit + late + errored +
    /// lost + in flight. The outcomes are counted as they happen; the
    /// messages in flight are counted apart, from the sequence numbers
    /// due after the slot's last outcome. What is left is lost, which must
    /// not be negative, and must be zero on reliable events and calls.
    pub fn finish(&mut self, min_samples: u64) -> Tally {
        let mut breaches = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let stream = &self.streams[slot.stream as usize];
            let kind = stream.kind;
            let in_flight = match (stream.span_last_seq, slot.last_seq) {
                (None, _) => 0,
                (Some(end), None) => (end + 1).min(stream.span_msgs),
                (Some(end), Some(last)) => end.saturating_sub(last).min(stream.span_msgs),
            };
            let Some(lost) = stream.span_msgs.checked_sub(slot.span_outcomes + in_flight) else {
                breaches.push(format!(
                    "slot {i}: {} outcomes and {in_flight} in flight for {} messages",
                    slot.span_outcomes, stream.span_msgs
                ));
                continue;
            };
            if lost > 0 && matches!(kind, Kind::Event | Kind::Call) {
                breaches.push(format!("slot {i}: {lost} {kind:?} messages lost"));
            }
            self.tally.lost += lost;
            self.tally.in_flight += in_flight;
            self.tally.failed_by_kind[kind.index()] += lost + in_flight;
        }
        let t = &self.tally;
        let samples: u64 = t.latency.values().sum();
        if samples < min_samples {
            breaches.push(format!("only {samples} latency samples (need {min_samples})"));
        }
        // The sources' rate is counted by send time, so a source that
        // falls behind and catches up in bursts shows here.
        let span_us = (self.span.1 - self.span.0) as f64;
        for (i, s) in self.streams.iter().enumerate().filter(|(_, s)| s.period_us > 0) {
            let expected = span_us / s.period_us as f64;
            if (s.span_sent as f64 - expected).abs() > (0.01 * expected).max(1.0) {
                breaches.push(format!(
                    "source {i}: sent {} messages in the span, requested {expected:.1}",
                    s.span_sent
                ));
            }
        }
        for b in breaches {
            self.violation(b);
        }
        self.tally.clone()
    }
}

/// Runs a service callback, timing it when the run is traced.
fn timed<R>(traced: bool, ledger: &Shared, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let t0 = wall::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let mut l = lock(ledger);
    l.handler_ns += ns;
    l.handler_calls += 1;
    r
}

/// What an open-loop source emits through.
pub enum Out {
    /// A periodic multicast variable.
    Var(VarPort<Vec<u8>>, ProtoDuration),
    /// A reliable event channel.
    Event(EventPort<Vec<u8>>),
    /// An MFTP file resource.
    File(String),
}

/// Open-loop generator of one stream: on each timer fire it sends every
/// message whose due time has passed, then re-arms for the next one.
pub struct Source {
    /// Ledger stream id.
    pub stream: u32,
    /// Output primitive.
    pub out: Out,
    /// The shared ledger.
    pub ledger: Shared,
    /// Time the callbacks.
    pub traced: bool,
}

impl Source {
    fn fire(&mut self, ctx: &mut ServiceContext<'_>) {
        let now = ctx.now().as_micros();
        loop {
            let Some(p) = lock(&self.ledger).take_due(self.stream, now) else { break };
            match &self.out {
                Out::Var(port, _) => ctx.publish_to(port, p),
                Out::Event(port) => ctx.emit_to(port, p),
                Out::File(resource) => ctx.publish_file(resource, Bytes::from(p)),
            }
        }
        if let Some(due) = lock(&self.ledger).next_wake(self.stream) {
            ctx.set_timer(ProtoDuration::from_micros(due.saturating_sub(now).max(1)), None);
        }
    }
}

impl Service for Source {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(&format!("source{}", self.stream));
        match &self.out {
            // Validity well past the limit: a slow sample counts as late,
            // not as silently dropped.
            Out::Var(port, period) => {
                b.provides_var(port, VarQos::periodic(*period, ProtoDuration::from_secs(10)))
            }
            Out::Event(port) => b.provides_event(port),
            Out::File(resource) => b.file_resource(resource),
        };
        b.build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        let (traced, ledger) = (self.traced, self.ledger.clone());
        timed(traced, &ledger, || self.fire(ctx));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let (traced, ledger) = (self.traced, self.ledger.clone());
        timed(traced, &ledger, || self.fire(ctx));
    }
}

/// A subscriber of one or more streams.
pub struct Sink {
    /// `(primitive, channel)` subscriptions.
    pub subs: Vec<(Kind, String)>,
    /// Slot per ledger stream id (`None`: not subscribed).
    pub slots: Vec<Option<u32>>,
    /// The shared ledger.
    pub ledger: Shared,
    /// Time the callbacks.
    pub traced: bool,
}

impl Sink {
    fn take(&self, kind: Kind, value: Option<&Value>, now: u64) {
        timed(self.traced, &self.ledger, || {
            let mut l = lock(&self.ledger);
            match value {
                Some(Value::Bytes(b)) => l.deliver(kind, &self.slots, b, now),
                other => l.violation(format!("{kind:?} delivered a non-bytes value {other:?}")),
            }
        });
    }
}

impl Service for Sink {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("sink");
        for (kind, channel) in &self.subs {
            match kind {
                Kind::Var => {
                    b.subscribe_to_var(&VarPort::<Vec<u8>>::new(channel), VarQos::default());
                }
                Kind::Event => {
                    b.subscribe_to_event(&EventPort::<Vec<u8>>::new(channel), EventQos::default());
                }
                Kind::File => {
                    b.subscribe_file(channel);
                }
                Kind::Call => unreachable!("calls are made by a Caller"),
            }
        }
        b.build()
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _: &Name,
        value: &Value,
        _: marea_core::Micros,
    ) {
        self.take(Kind::Var, Some(value), ctx.now().as_micros());
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _: &Name,
        value: Option<&Value>,
        _: marea_core::Micros,
    ) {
        self.take(Kind::Event, value, ctx.now().as_micros());
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        if let FileEvent::Received { data, .. } = event {
            let now = ctx.now().as_micros();
            timed(self.traced, &self.ledger, || {
                lock(&self.ledger).deliver(Kind::File, &self.slots, data, now)
            });
        }
    }
}

/// Closed-loop command caller: one outstanding call. After each reply
/// (or error) it thinks for a seeded random time, and the next call is
/// due when the thinking ends.
pub struct Caller {
    /// Ledger stream id.
    pub stream: u32,
    /// Ledger slot of this caller.
    pub slot: u32,
    /// The echo function called.
    pub port: FnPort<(Vec<u8>,), Vec<u8>>,
    /// Longest think time between calls (µs).
    pub think_us: u64,
    /// Think-time generator state (xorshift64, seeded, never 0).
    pub rng: u64,
    /// The shared ledger.
    pub ledger: Shared,
    /// Time the callbacks.
    pub traced: bool,
    /// The outstanding call: handle, seq and due time.
    pub pending: Option<(TypedCallHandle<Vec<u8>>, u64, u64)>,
    /// When the next call falls due.
    pub next_due: u64,
}

impl Caller {
    fn start_call(&mut self, ctx: &mut ServiceContext<'_>) {
        if self.pending.is_some() {
            return;
        }
        let due = self.next_due;
        let Some((seq, p)) = lock(&self.ledger).start_call(self.stream, due) else { return };
        let handle = ctx.call_fn(&self.port, (p,));
        self.pending = Some((handle, seq, due));
    }

    fn think(&mut self, ctx: &mut ServiceContext<'_>) {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let think = 1 + self.rng % self.think_us;
        self.next_due = ctx.now().as_micros() + think;
        ctx.set_timer(ProtoDuration::from_micros(think), None);
    }
}

impl Service for Caller {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder(&format!("caller{}", self.stream))
            .requires_fn(&self.port)
            .build()
    }

    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        if matches!(notice, ProviderNotice::FunctionAvailable(n) if self.port.matches(n)) {
            let (traced, ledger) = (self.traced, self.ledger.clone());
            timed(traced, &ledger, || {
                self.next_due = ctx.now().as_micros();
                self.start_call(ctx)
            });
        }
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        let (traced, ledger) = (self.traced, self.ledger.clone());
        timed(traced, &ledger, || {
            let Some((h, seq, due)) = self.pending.take_if(|(h, ..)| h.matches(handle)) else {
                lock(&self.ledger).violation(format!("reply to unknown call {handle:?}"));
                return;
            };
            let now = ctx.now().as_micros();
            let reply = h.decode(result);
            lock(&self.ledger).reply(self.slot, seq, due, reply.as_deref().map_err(|_| ()), now);
            self.think(ctx);
        });
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let (traced, ledger) = (self.traced, self.ledger.clone());
        timed(traced, &ledger, || self.start_call(ctx));
    }
}

/// Echo provider: returns its argument.
pub struct Echo {
    /// The provided function.
    pub port: FnPort<(Vec<u8>,), Vec<u8>>,
    /// The shared ledger (for handler timing).
    pub ledger: Shared,
    /// Time the callbacks.
    pub traced: bool,
}

impl Service for Echo {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("echo").provides_fn(&self.port).build()
    }

    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _f: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        timed(self.traced, &self.ledger, || {
            let (data,) = self.port.decode_args(args).map_err(|e| e.to_string())?;
            Ok(self.port.encode_ret(data))
        })
    }
}
