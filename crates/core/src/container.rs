//! The service container: one per node, the paper's core artifact (§3).
//!
//! The container is a deterministic state machine driven by
//! [`ServiceContainer::tick`]. Every due date it keeps — timeouts,
//! deadlines, timers, retransmissions, cadences — sits on one
//! [`agenda`], and each phase pops only its own due entries. Within a
//! tick it:
//!
//! 1. pumps the transport and interprets every frame (discovery, samples,
//!    reliable-channel envelopes, file transfer traffic) — and returns
//!    right there when no frame arrived, no handler is queued and nothing
//!    on the agenda is due;
//! 2. runs failure detection (heartbeat timeouts ⇒ purge the name cache,
//!    re-resolve subscriptions, fail over pending calls);
//! 3. maintains subscriptions against the directory (name management)
//!    when something that feeds resolution changed;
//! 4. fires timers, then variable-loss deadlines, then call timeouts;
//! 5. polls the reliable links that are due (acks, retransmissions, FEC
//!    flushes) and pumps the file transfers that are due;
//! 6. emits heartbeats/announcements;
//! 7. executes queued handler invocations through the pluggable scheduler,
//!    bounded by a per-tick budget, applying the effects services queue;
//! 8. evicts fragment sets that stayed incomplete too long.
//!
//! Services never see any of this machinery — only their
//! [`ServiceContext`](crate::ServiceContext).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;

use marea_encoding::{CodecId, CodecRegistry, SelfDescribingCodec};
use marea_presentation::{Name, Value};
use marea_protocol::arq::ArqConfig;
use marea_protocol::fec::{FecConfig, FecRate, PARITY_INDEX_BIT};
use marea_protocol::fragment::{fragment_payload, Reassembler};
use marea_protocol::messages::{AnnounceEntry, CallStatus, Encoded, Provision, ServiceState};
use marea_protocol::mftp::{AnnounceOutcome, FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{
    Frame, GroupId, Message, Micros, NodeId, ProtoDuration, RequestId, ServiceId, TransferId,
};
use marea_transport::{Transport, TransportDestination};

use crate::directory::Directory;
use crate::engines::events::{EventEngine, EventSubscriber, PublishedEvent, SubscribedEvent};
use crate::engines::files::{FileEngine, OutgoingFile};
use crate::engines::rpc::{
    decode_args, decode_result, encode_args, encode_result, LocalFunction, PendingCall, RpcEngine,
};
use crate::engines::vars::{PublishedVar, SubscribedVar, VarEngine};
use crate::error::{CallError, ContainerError};
use crate::link::ReliableLink;
use crate::qos::{CallOptions, DropPolicy};
use crate::scheduler::{Priority, Scheduler, SchedulerKind, Task, TaskPayload};
use crate::service::{
    CallHandle, CallPolicy, Effect, FileEvent, ProviderNotice, Service, ServiceContext,
    ServiceDescriptor, TimerId,
};
use crate::stats::{ContainerStats, EventSubscriptionStats, QosStats, VarSubscriptionStats};
use crate::sweep::{sorted_keys, sorted_keys_into};
use crate::trace::{TraceConfig, TraceId, TraceKind, TraceRing, Tracer};
use agenda::{Agenda, Key, Kind};

pub(crate) mod agenda;
mod gossip;
mod pump;
mod subscriptions;

/// Upper bound for one marshalled call argument.
pub(crate) const MAX_ARG_BYTES: usize = 4 * 1024 * 1024;

/// Age at which an incomplete fragment set is evicted.
const REASSEMBLY_TIMEOUT: ProtoDuration = ProtoDuration(5_000_000);

/// Reply deadline of one remote-invocation attempt, unless the call's
/// [`CallOptions`] set one.
const CALL_TIMEOUT: ProtoDuration = ProtoDuration(800_000);

/// Providers tried before a call fails, unless the call's
/// [`CallOptions`] set a retry budget.
const MAX_CALL_ATTEMPTS: u32 = 3;

/// File transfer chunk size in bytes.
const CHUNK_SIZE: u32 = 1024;

/// File chunks pumped per tick per transfer.
const FILE_BURST: usize = 32;

/// Gap between completion queries of an idle transfer.
const FILE_QUERY_INTERVAL: ProtoDuration = ProtoDuration(100_000);

/// Container log ring capacity.
const LOG_CAPACITY: usize = 1024;

/// How variable samples reach remote subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarDistribution {
    /// One multicast datagram per sample (the paper's §4.1 mapping:
    /// "allows optimizing the bandwidth use because one packet sent can
    /// arrive to multiple nodes").
    #[default]
    Multicast,
    /// One unicast datagram per remote subscriber — the baseline the C2
    /// experiment compares against.
    UnicastFanout,
}

/// Static configuration of a container.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Container name (appears in `Hello`).
    pub name: Name,
    /// This node's id.
    pub node: NodeId,
    /// Heartbeat emission period.
    pub heartbeat_period: ProtoDuration,
    /// Full catalogue re-announcement period.
    pub announce_period: ProtoDuration,
    /// Silence after which a peer node is declared dead.
    pub node_timeout: ProtoDuration,
    /// Scheduler policy.
    pub scheduler: SchedulerKind,
    /// Maximum handler invocations per tick (soft real-time budget).
    pub tick_budget: usize,
    /// Forward-error-correction layer below the reliable channel
    /// (enabled by default; each link runs the weaker of the two ends'
    /// advertised capabilities).
    pub fec: FecConfig,
    /// Variable sample distribution mode.
    pub var_distribution: VarDistribution,
    /// Payload codec for application data.
    pub codec: CodecId,
    /// Flight-recorder switch and ring sizing (DESIGN.md §8).
    pub trace: TraceConfig,
}

impl ContainerConfig {
    /// Sensible defaults for a LAN avionics node.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn new(name: &str, node: NodeId) -> Self {
        ContainerConfig {
            // marea-lint: allow(R1): construction-time check of a code literal (documented "# Panics"); never runs on the tick path
            name: Name::new(name).expect("container name must be a valid name literal"),
            node,
            heartbeat_period: ProtoDuration::from_millis(500),
            announce_period: ProtoDuration::from_secs(2),
            node_timeout: ProtoDuration::from_secs(2),
            scheduler: SchedulerKind::Priority,
            tick_budget: 256,
            fec: FecConfig::default(),
            var_distribution: VarDistribution::Multicast,
            codec: CodecId::COMPACT,
            trace: TraceConfig::default(),
        }
    }
}

#[derive(Debug)]
struct ServiceSlot {
    seq: u32,
    service: Option<Box<dyn Service>>,
    descriptor: ServiceDescriptor,
    state: ServiceState,
}

/// A live service timer; its next firing is on the agenda.
#[derive(Debug)]
struct Timer {
    service_seq: u32,
    period: Option<ProtoDuration>,
}

/// The per-node service container (paper §3).
///
/// See the crate-level docs for a complete walk-through; the
/// [`SimHarness`](crate::SimHarness) shows the intended driving pattern.
#[derive(Debug)]
pub struct ServiceContainer {
    config: ContainerConfig,
    transport: Box<dyn Transport>,
    codecs: CodecRegistry,
    slots: Vec<ServiceSlot>,
    directory: Directory,
    scheduler: Scheduler,
    links: HashMap<NodeId, ReliableLink>,
    vars: VarEngine,
    events: EventEngine,
    rpc: RpcEngine,
    files: FileEngine,
    reassembler: Reassembler,
    /// Set and not yet cancelled (or, for one-shots, fired).
    timers: HashMap<u64, Timer>,
    /// Every due date of this container (see [`agenda`]).
    agenda: Agenda,
    next_timer_id: u64,
    next_request_id: u64,
    next_msg_id: u64,
    next_task_seq: u64,
    incarnation: u64,
    running: bool,
    started_at: Micros,
    /// Digest `(hash, entry_count)` of the last full catalogue broadcast.
    /// While the catalogue is unchanged, the periodic announce slot sends
    /// a compact `AnnounceDigest` instead of re-flooding the catalogue.
    last_announce_digest: Option<(u32, u32)>,
    /// Scratch for the link poll sweep (allocation reuse across ticks).
    link_scratch: Vec<NodeId>,
    /// Scratch for sorted map walks in the maintenance and file pumps.
    sweep_scratch: Vec<Name>,
    stats: ContainerStats,
    log: VecDeque<(Micros, String)>,
    tracer: Tracer,
}

impl ServiceContainer {
    /// Creates a container over a transport. Call
    /// [`ServiceContainer::start`] once services are registered.
    pub fn new(config: ContainerConfig, transport: Box<dyn Transport>) -> Self {
        let mut codecs = CodecRegistry::new();
        codecs.set_default(config.codec);
        let mut agenda = Agenda::default();
        agenda.arm(Kind::Heartbeat, Micros::ZERO, Key::Id(0));
        agenda.arm(Kind::Resolve, Micros::ZERO, Key::Id(0));
        ServiceContainer {
            scheduler: config.scheduler.build(),
            codecs,
            transport,
            slots: Vec::new(),
            directory: Directory::new(),
            links: HashMap::new(),
            vars: VarEngine::default(),
            events: EventEngine::default(),
            rpc: RpcEngine::default(),
            files: FileEngine::default(),
            reassembler: Reassembler::new(REASSEMBLY_TIMEOUT),
            timers: HashMap::new(),
            agenda,
            next_timer_id: 0,
            next_request_id: 0,
            next_msg_id: 0,
            next_task_seq: 0,
            incarnation: 1,
            running: false,
            started_at: Micros::ZERO,
            last_announce_digest: None,
            link_scratch: Vec::new(),
            sweep_scratch: Vec::new(),
            stats: ContainerStats::default(),
            log: VecDeque::new(),
            tracer: Tracer::new(config.node, config.trace),
            config,
        }
    }

    /// This container's node id.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// This container's name.
    pub fn name(&self) -> &Name {
        &self.config.name
    }

    /// This container's incarnation (restart counter carried in `Hello`
    /// and heartbeats; peers purge cached provisions from older lives).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Sets the incarnation a restarted container announces itself with.
    /// Must exceed the previous life's incarnation or peers will discard
    /// the new announcements as stale.
    ///
    /// # Panics
    ///
    /// Panics if the container is already running — the incarnation is
    /// part of the identity the `Hello` broadcast establishes.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        assert!(!self.running, "incarnation must be set before start");
        self.incarnation = incarnation;
        self.tracer.set_incarnation(incarnation);
    }

    /// Counter snapshot (merges the per-engine mismatch and QoS counters).
    pub fn stats(&self) -> ContainerStats {
        let mut stats = self.stats;
        stats.type_mismatches = crate::stats::TypeMismatchStats {
            vars: self.vars.type_mismatches,
            events: self.events.type_mismatches,
            calls: self.rpc.type_mismatches,
            files: self.files.type_mismatches,
        };
        stats.qos = QosStats {
            deadline_misses: self.vars.total_deadline_misses(),
            stale_drops: self.vars.total_stale_drops(),
            queue_drops: self.events.total_queue_drops(),
            retries: self.rpc.retries,
        };
        stats.publish_to_deliver = self.tracer.publish_to_deliver;
        stats.event_to_deliver = self.tracer.event_to_deliver;
        stats.call_rtt = self.tracer.call_rtt;
        stats.rto_recovery = self.tracer.rto_recovery;
        stats
    }

    /// The flight-recorder ring of this life (oldest first; see
    /// [`TraceConfig`] for sizing and the disable switch).
    pub fn trace_ring(&self) -> &TraceRing {
        self.tracer.ring()
    }

    /// Drains the flight recorder, leaving an empty ring behind — the
    /// harness calls this when it crashes a node so the black box
    /// survives the container teardown.
    pub fn take_trace_ring(&mut self) -> TraceRing {
        self.tracer.take_ring()
    }

    /// Seeds the ring with events recorded by a previous life of this
    /// node (harness restart path), preserving ring-capacity bounds.
    pub fn adopt_trace_ring(&mut self, older: TraceRing) {
        self.tracer.adopt_ring(older);
    }

    /// QoS counters of a subscribed variable (the channel state shared by
    /// this container's local subscribers of that name).
    pub fn var_qos_stats(&self, name: &str) -> Option<VarSubscriptionStats> {
        let name = Name::new(name).ok()?;
        self.vars.subscribed.get(&name).map(|s| VarSubscriptionStats {
            deadline_misses: s.deadline_misses,
            stale_drops: s.stale_drops,
            history_len: s.history.len(),
        })
    }

    /// QoS counters of a subscribed event channel (summed over this
    /// container's local subscribers of that name).
    pub fn event_qos_stats(&self, name: &str) -> Option<EventSubscriptionStats> {
        let name = Name::new(name).ok()?;
        self.events.subscribed.get(&name).map(|s| EventSubscriptionStats {
            queue_drops: s.total_drops(),
            inbox_peak: s.inbox_peak(),
        })
    }

    /// Transparent re-dispatches performed for calls to `name`.
    pub fn fn_retries(&self, name: &str) -> u64 {
        Name::new(name).ok().and_then(|n| self.rpc.retry_counts.get(&n)).copied().unwrap_or(0)
    }

    /// Freshness snapshot of every subscribed variable channel, in name
    /// order — the observability surface the chaos invariants check
    /// (a bound channel must either deliver within its validity window or
    /// raise the timeout warning; silent staleness is a middleware bug).
    pub fn var_channels(&self) -> Vec<(Name, crate::stats::VarChannelView)> {
        sorted_keys(&self.vars.subscribed)
            .into_iter()
            .map(|name| {
                let s = &self.vars.subscribed[&name];
                let view = crate::stats::VarChannelView {
                    bound: s.provider.is_some(),
                    period_us: s.period_us,
                    validity_us: s.validity_us,
                    deadline_us: s.deadline_us(),
                    last_rx: s.last_rx,
                    last_stamp: s.history.back().map(|(stamp, _)| *stamp),
                    timed_out: s.timed_out,
                };
                (name, view)
            })
            .collect()
    }

    /// The name directory (read access for tests/tools).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Queued handler invocations.
    pub fn scheduler_len(&self) -> usize {
        self.scheduler.len()
    }

    /// `true` between `start` and `stop`.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Aggregated ARQ statistics over all reliable links.
    pub fn arq_stats(&self) -> marea_protocol::arq::ArqStats {
        let mut total = marea_protocol::arq::ArqStats::default();
        // marea-lint: allow(D1): commutative counter sums; no sends, order cannot reach the wire
        for link in self.links.values() {
            let s = link.stats();
            total.sent += s.sent;
            total.retransmitted += s.retransmitted;
            total.acked += s.acked;
            total.failed += s.failed;
            total.payload_bytes += s.payload_bytes;
        }
        total
    }

    /// Recent container log lines (oldest first).
    pub fn log_lines(&self) -> impl Iterator<Item = &(Micros, String)> {
        self.log.iter()
    }

    /// Lifecycle state of a hosted service.
    pub fn service_state(&self, name: &str) -> Option<ServiceState> {
        self.slots.iter().find(|s| s.descriptor.name() == name).map(|s| s.state)
    }

    /// Registers a service; returns its instance id.
    ///
    /// # Errors
    ///
    /// [`ContainerError::DuplicateService`] /
    /// [`ContainerError::DuplicateProvision`] when names collide locally.
    pub fn add_service(&mut self, service: Box<dyn Service>) -> Result<ServiceId, ContainerError> {
        let descriptor = service.descriptor();
        if self.slots.iter().any(|s| s.descriptor.name() == descriptor.name().as_str()) {
            return Err(ContainerError::DuplicateService(descriptor.name().clone()));
        }
        for p in descriptor.provides() {
            let name = p.name();
            let taken =
                self.slots.iter().any(|s| s.descriptor.find_provision(name.as_str()).is_some());
            if taken {
                return Err(ContainerError::DuplicateProvision(name.clone()));
            }
        }
        let seq = self.slots.len() as u32 + 1;

        for p in descriptor.provides() {
            match p {
                Provision::Variable { name, ty, validity_us, .. } => {
                    self.vars.published.insert(
                        name.clone(),
                        PublishedVar {
                            owner_seq: seq,
                            ty: ty.clone(),
                            validity_us: *validity_us,
                            seq: 0,
                            last: None,
                            remote_subscribers: Default::default(),
                        },
                    );
                }
                Provision::Event { name, ty } => {
                    self.events.published.insert(
                        name.clone(),
                        PublishedEvent {
                            owner_seq: seq,
                            ty: ty.clone(),
                            seq: 0,
                            remote_subscribers: Default::default(),
                        },
                    );
                }
                Provision::Function { name, sig } => {
                    self.rpc
                        .functions
                        .insert(name.clone(), LocalFunction { owner_seq: seq, sig: sig.clone() });
                }
                Provision::FileResource { .. } => {}
            }
        }
        for sub in descriptor.var_subscriptions() {
            let entry = self
                .vars
                .subscribed
                .entry(sub.name.clone())
                .or_insert_with(|| SubscribedVar::new(&sub.qos));
            entry.services.push(seq);
            entry.merge_qos(&sub.qos);
        }
        for sub in descriptor.event_subscriptions() {
            self.events
                .subscribed
                .entry(sub.name.clone())
                .or_insert_with(SubscribedEvent::new)
                .subscribers
                .push(EventSubscriber::new(seq, sub.qos));
        }
        for name in descriptor.file_interests() {
            self.files.interests.entry(name.clone()).or_default().services.push(seq);
        }
        self.start_interest_retries();
        for name in descriptor.required_functions() {
            self.rpc.required.entry(name.clone()).or_default().services.push(seq);
        }

        self.slots.push(ServiceSlot {
            seq,
            service: Some(service),
            descriptor,
            state: ServiceState::Starting,
        });
        let id = ServiceId::new(self.config.node, seq);
        if self.running {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Start);
            // Force the next announce slot: the catalogue changed, so the
            // digest check in emit_periodics sends the full catalogue.
            self.agenda.set(Kind::Announce, Micros::ZERO, Key::Id(0));
            self.mark_dirty();
        }
        Ok(id)
    }

    /// Starts the container: joins the control group, announces itself and
    /// schedules every service's `on_start`.
    pub fn start(&mut self, now: Micros) {
        if self.running {
            return;
        }
        self.running = true;
        self.started_at = now;
        self.mark_dirty();
        self.tracer.record(now, TraceKind::NodeStart, TraceId::NONE, None, self.incarnation, None);
        self.transport.join(GroupId::CONTROL.0);
        self.directory.apply_hello(
            self.config.node,
            self.config.name.clone(),
            self.incarnation,
            self.config.fec.advertised_cap().wire_tag(),
            now,
        );
        self.peer_heard(self.config.node);
        let entries = self.announce_entries();
        self.directory.apply_announce(self.config.node, &entries, now);
        self.send_message(
            TransportDestination::Group(GroupId::CONTROL.0),
            &Message::Hello {
                container: self.config.name.clone(),
                incarnation: self.incarnation,
                fec_cap: self.config.fec.advertised_cap().wire_tag(),
            },
        );
        self.broadcast_announce(now);
        let seqs: Vec<u32> = self.slots.iter().map(|s| s.seq).collect();
        for seq in seqs {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Start);
        }
    }

    /// Stops the container: runs every `on_stop`, says `Bye`.
    pub fn stop(&mut self, now: Micros) {
        if !self.running {
            return;
        }
        let seqs: Vec<u32> = self
            .slots
            .iter()
            .filter(|s| s.state.is_available() || s.state == ServiceState::Starting)
            .map(|s| s.seq)
            .collect();
        for seq in seqs {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Stop);
        }
        while let Some(task) = self.scheduler.pop() {
            self.execute_task(task, now);
        }
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &Message::Bye);
        self.running = false;
    }

    /// One cooperative step at time `now`. See the module docs for phases.
    pub fn tick(&mut self, now: Micros) {
        if !self.running {
            return;
        }
        self.stats.ticks += 1;
        self.directory.apply_heartbeat(
            self.config.node,
            self.incarnation,
            self.load_permille(),
            self.config.fec.advertised_cap().wire_tag(),
            now,
        );

        let frames_in = self.stats.frames_in;
        self.pump_transport(now);
        // Idle: nothing arrived, nothing is queued and nothing is due, so
        // every phase below would find no work.
        if self.stats.frames_in == frames_in
            && self.scheduler.is_empty()
            && self.next_due().is_none_or(|due| due > now)
        {
            return;
        }
        self.detect_failures(now);
        // Maintenance runs when something that feeds name resolution
        // changed, and on a cadence that keeps waiting file interests
        // re-trying their seen announces.
        let retry = self.agenda.drain_due(Kind::InterestRetry, now);
        if retry {
            let next = now + FILE_QUERY_INTERVAL;
            self.agenda.set(Kind::InterestRetry, next, Key::Id(0));
        }
        if self.agenda.drain_due(Kind::Resolve, now) | retry {
            self.maintain_subscriptions(now);
        }
        self.fire_timers(now);
        self.sweep_variable_deadlines(now);
        self.sweep_call_timeouts(now);
        self.poll_links(now);
        self.pump_files(now);
        self.emit_periodics(now);
        self.run_tasks(now);
        let len = self.scheduler.len();
        if len > self.stats.queue_peak {
            self.stats.queue_peak = len;
        }
        if self.agenda.drain_due(Kind::Reassembly, now) {
            self.reassembler.expire(now);
            // Only the oldest set's eviction time was armed; while younger
            // sets remain, check again every tick.
            if self.reassembler.pending_count() > 0 {
                self.agenda.arm(Kind::Reassembly, now, Key::Id(0));
            }
        }
    }

    /// The earliest due date on the agenda: a tick before it, with no
    /// frame received and no task queued, only counts itself.
    pub(crate) fn next_due(&self) -> Option<Micros> {
        self.agenda.next_due()
    }

    /// Re-resolve subscriptions at the next maintenance phase. Plain
    /// heartbeats change no resolution, so they do not call this.
    fn mark_dirty(&mut self) {
        self.agenda.arm(Kind::Resolve, Micros::ZERO, Key::Id(0));
    }

    /// Starts the file-interest retry cadence once there is an interest.
    /// It stays armed from then on (interests are never removed).
    fn start_interest_retries(&mut self) {
        let armed = self.agenda.due_of(Kind::InterestRetry, &Key::Id(0)).is_some();
        if !armed && !self.files.interests.is_empty() {
            self.agenda.arm(Kind::InterestRetry, Micros::ZERO, Key::Id(0));
        }
    }

    /// After a `Hello` or heartbeat from `node` was applied: arms its
    /// heartbeat timeout and renegotiates an established link in place to
    /// the capability it advertised.
    fn peer_heard(&mut self, node: NodeId) {
        self.directory.watch(&mut self.agenda, node, self.config.node_timeout);
        let negotiated = self.fec_cap_for(node);
        if let Some(link) = self.links.get_mut(&node) {
            link.negotiate_fec(negotiated);
        }
    }

    /// Polls the link to `peer` in this tick's link phase, or the next.
    fn wake_link(&mut self, peer: NodeId) {
        self.agenda.arm(Kind::Link, Micros::ZERO, Key::Id(u64::from(peer.0)));
    }

    /// Pumps the outgoing file `resource` in this tick's file phase, or the next.
    fn wake_file(&mut self, resource: &Name) {
        self.agenda.arm(Kind::FilePump, Micros::ZERO, Key::Name(resource.clone()));
    }

    fn load_permille(&self) -> u16 {
        let budget = self.config.tick_budget.max(1);
        ((self.scheduler.len().min(budget) * 1000) / budget) as u16
    }

    // ---- timers -------------------------------------------------------------

    fn fire_timers(&mut self, now: Micros) {
        while let Some((due, key)) = self.agenda.pop_due(Kind::Timer, now) {
            let Key::Id(tid) = key else { continue };
            // Cancelled since it was armed.
            let Some(timer) = self.timers.get(&tid) else { continue };
            let seq = timer.service_seq;
            let period = timer.period;
            self.push_task(Priority::TIMER, seq, TaskPayload::Timer { id: TimerId(tid) });
            match period {
                Some(p) => self.agenda.set(Kind::Timer, due + p, Key::Id(tid)),
                None => {
                    self.timers.remove(&tid);
                }
            }
        }
    }

    // ---- task execution -------------------------------------------------------

    fn push_task(&mut self, priority: Priority, service_seq: u32, payload: TaskPayload) {
        self.next_task_seq += 1;
        self.scheduler.push(Task {
            priority,
            enqueued_seq: self.next_task_seq,
            service_seq,
            payload,
        });
    }

    fn run_tasks(&mut self, now: Micros) {
        for _ in 0..self.config.tick_budget {
            let Some(task) = self.scheduler.pop() else { break };
            self.execute_task(task, now);
        }
    }

    fn execute_task(&mut self, task: Task, now: Micros) {
        self.stats.tasks_executed += 1;
        // A DeliverEvent leaving the queue frees its subscription's inbox
        // slot — even when the target service turns out to be unavailable
        // below, so the bound accounting can never leak.
        if let TaskPayload::DeliverEvent { name, .. } = &task.payload {
            if let Some(sub) = self.events.subscribed.get_mut(name) {
                sub.dec_inbox(task.service_seq);
            }
        }
        let idx = (task.service_seq as usize).wrapping_sub(1);
        let payload = task.payload;
        let lifecycle = matches!(payload, TaskPayload::Start | TaskPayload::Stop);

        // Phase 1: extract the service from its slot.
        let (mut service, service_name, seq) = {
            let Some(slot) = self.slots.get_mut(idx) else { return };
            if !lifecycle && !slot.state.is_available() && slot.state != ServiceState::Starting {
                return;
            }
            let Some(service) = slot.service.take() else { return };
            (service, slot.descriptor.name().clone(), slot.seq)
        };

        // Phase 2: run the handler with a fresh context.
        let mut effects: Vec<Effect> = Vec::new();
        let mut next_request_id = self.next_request_id;
        let mut next_timer_id = self.next_timer_id;
        let node = self.config.node;
        let mut call_outcome: Option<(RequestId, NodeId, Name, Result<Value, String>)> = None;

        let panicked = {
            let mut ctx = ServiceContext {
                now,
                node,
                service_name: &service_name,
                service_seq: seq,
                effects: &mut effects,
                next_request_id: &mut next_request_id,
                next_timer_id: &mut next_timer_id,
                var_state: Some(&self.vars.subscribed),
            };
            let unwind = catch_unwind(AssertUnwindSafe(|| {
                match &payload {
                    TaskPayload::Start => service.on_start(&mut ctx),
                    TaskPayload::Stop => service.on_stop(&mut ctx),
                    TaskPayload::DeliverVariable { name, value, stamp, .. } => {
                        service.on_variable(&mut ctx, name, value, *stamp)
                    }
                    TaskPayload::VariableTimeout { name } => {
                        service.on_variable_timeout(&mut ctx, name)
                    }
                    TaskPayload::DeliverEvent { name, value, stamp, .. } => {
                        service.on_event(&mut ctx, name, value.as_ref(), *stamp)
                    }
                    TaskPayload::ExecuteCall { request, caller, function, args, .. } => {
                        let result = service.on_call(&mut ctx, function, args);
                        return Some((*request, *caller, function.clone(), result));
                    }
                    TaskPayload::DeliverReply { request, result } => {
                        service.on_reply(&mut ctx, CallHandle(*request), result.clone())
                    }
                    TaskPayload::File(ev) => service.on_file_event(&mut ctx, ev),
                    TaskPayload::FileBypass { resource, revision, data } => {
                        let ev = FileEvent::Received {
                            resource: resource.clone(),
                            revision: *revision,
                            data: data.clone(),
                        };
                        service.on_file_event(&mut ctx, &ev)
                    }
                    TaskPayload::Provider(notice) => service.on_provider_change(&mut ctx, notice),
                    TaskPayload::Timer { id } => service.on_timer(&mut ctx, *id),
                }
                None
            }));
            match unwind {
                Ok(outcome) => {
                    call_outcome = outcome;
                    false
                }
                Err(_) => true,
            }
        };

        self.next_request_id = next_request_id;
        self.next_timer_id = next_timer_id;

        // Phase 3: restore the service.
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.service = Some(service);
        }

        // Phase 4: accounting and follow-up.
        if panicked {
            // Watchdog: a panicking service is marked failed and the fleet
            // is told (§3: the container watches "for their correct
            // operation and notif[ies] the rest of containers").
            self.stats.services_failed += 1;
            self.log_line(now, format!("service `{service_name}` panicked; marked failed"));
            self.set_service_state(seq, ServiceState::Failed);
            return;
        }
        match &payload {
            TaskPayload::Start => {
                let starting =
                    self.slots.get(idx).map(|s| s.state == ServiceState::Starting).unwrap_or(false);
                if starting {
                    self.set_service_state(seq, ServiceState::Running);
                }
            }
            TaskPayload::Stop => self.set_service_state(seq, ServiceState::Stopped),
            TaskPayload::DeliverVariable { name, stamp, seq: sample_seq, trace, .. } => {
                self.stats.var_samples_delivered += 1;
                self.tracer.record_var_latency(now.saturating_since(*stamp).as_micros());
                self.tracer.record(
                    now,
                    TraceKind::VarDeliver,
                    *trace,
                    None,
                    *sample_seq,
                    Some(name),
                );
            }
            TaskPayload::DeliverEvent { name, stamp, seq: event_seq, trace, .. } => {
                self.stats.events_delivered += 1;
                let latency = now.saturating_since(*stamp).as_micros();
                self.stats.event_latency_sum_us += latency;
                if latency > self.stats.event_latency_max_us {
                    self.stats.event_latency_max_us = latency;
                }
                self.tracer.record_event_latency(latency);
                self.tracer.record(
                    now,
                    TraceKind::EventDeliver,
                    *trace,
                    None,
                    *event_seq,
                    Some(name),
                );
            }
            TaskPayload::ExecuteCall { .. } => self.stats.calls_served += 1,
            TaskPayload::FileBypass { .. } => self.stats.file_bypass_deliveries += 1,
            _ => {}
        }
        let call_trace = match &payload {
            TaskPayload::ExecuteCall { trace, .. } => *trace,
            _ => TraceId::NONE,
        };
        if let Some((request, caller, function, result)) = call_outcome {
            self.finish_call(request, caller, &function, result, call_trace, now);
        }
        self.apply_effects(seq, effects, now);
    }

    fn finish_call(
        &mut self,
        request: RequestId,
        caller: NodeId,
        function: &Name,
        result: Result<Value, String>,
        trace: TraceId,
        now: Micros,
    ) {
        if caller == self.config.node {
            // Local caller: translate directly into a reply task.
            let Some(call) = self.rpc.pending.remove(&request) else { return };
            let result = result.map_err(CallError::App);
            if result.is_err() {
                self.stats.call_errors += 1;
            }
            self.tracer.record_call_rtt(now.saturating_since(call.started_at).as_micros());
            self.tracer.record(
                now,
                TraceKind::CallReply,
                call.trace,
                None,
                request.0,
                Some(function),
            );
            self.push_task(
                Priority::CALL,
                call.caller_seq,
                TaskPayload::DeliverReply { request, result },
            );
        } else {
            let codec = self.codecs.default_codec().clone();
            let returns = self.rpc.functions.get(function).and_then(|f| f.sig.returns.clone());
            let (status, payload) = match result {
                Ok(value) => match encode_result(&value, &returns, codec.as_ref()) {
                    Ok(payload) => (CallStatus::Ok, payload),
                    Err(e) => {
                        // The provider returned a value that violates its
                        // own declared return schema.
                        self.rpc.type_mismatches += 1;
                        (CallStatus::AppError, Bytes::from(e.to_string().into_bytes()))
                    }
                },
                Err(e) => (CallStatus::AppError, Bytes::from(e.into_bytes())),
            };
            let msg = Message::CallReply {
                request,
                status,
                trace: trace.wire(),
                codec: codec.id().0,
                payload,
            };
            self.send_reliable(caller, &msg, now);
        }
    }

    fn set_service_state(&mut self, seq: u32, state: ServiceState) {
        let name = {
            let Some(slot) = self.slots.iter_mut().find(|s| s.seq == seq) else { return };
            if slot.state == state {
                return;
            }
            slot.state = state;
            slot.descriptor.name().clone()
        };
        self.directory.apply_status(self.config.node, seq, state);
        self.mark_dirty();
        let msg = Message::ServiceStatus { service_seq: seq, name, state };
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &msg);
    }

    // ---- effects ---------------------------------------------------------------

    fn apply_effects(&mut self, seq: u32, effects: Vec<Effect>, now: Micros) {
        for effect in effects {
            match effect {
                Effect::Publish { name, value } => self.effect_publish(seq, name, value, now),
                Effect::Emit { name, value } => self.effect_emit(seq, name, value, now),
                Effect::Call { handle, function, args, options } => {
                    self.effect_call(seq, handle, function, args, options, now)
                }
                Effect::PublishFile { resource, data } => {
                    self.effect_publish_file(seq, resource, data, now)
                }
                Effect::SubscribeFile { resource } => {
                    let interest = self.files.interests.entry(resource.clone()).or_default();
                    if !interest.services.contains(&seq) {
                        interest.services.push(seq);
                    }
                    self.start_interest_retries();
                    self.mark_dirty();
                    self.try_local_file_bypass(&resource);
                }
                Effect::SetTimer { id, after, mut period } => {
                    if period == Some(ProtoDuration::ZERO) {
                        // Re-arming at `due + 0` would fire it forever
                        // within one tick.
                        self.log_line(now, format!("timer {} has a zero period; fires once", id.0));
                        period = None;
                    }
                    self.timers.insert(id.0, Timer { service_seq: seq, period });
                    self.agenda.set(Kind::Timer, now + after, Key::Id(id.0));
                }
                Effect::CancelTimer { id } => {
                    self.timers.remove(&id.0);
                }
                Effect::Log { line } => self.log_line(now, line),
                Effect::SetDegraded { degraded } => {
                    let state =
                        if degraded { ServiceState::Degraded } else { ServiceState::Running };
                    self.set_service_state(seq, state);
                }
                Effect::StopSelf => {
                    self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Stop);
                }
            }
        }
    }

    fn effect_publish(&mut self, seq: u32, name: Name, value: Value, now: Micros) {
        let codec = self.codecs.default_codec().clone();
        let prepared = {
            let Some(pv) = self.vars.published.get_mut(&name) else {
                self.log_line(now, format!("publish to undeclared variable `{name}` dropped"));
                return;
            };
            if pv.owner_seq != seq {
                self.log_line(now, format!("publish to foreign variable `{name}` dropped"));
                return;
            }
            if let Err(e) = value.conforms_to(&pv.ty) {
                self.vars.type_mismatches += 1;
                self.log_line(now, format!("publish to `{name}` violates schema: {e}"));
                return;
            }
            let Ok(payload) = codec.encode_to_vec(&value, &pv.ty) else { return };
            let payload = Bytes::from(payload);
            pv.seq += 1;
            pv.last = Some((payload.clone(), now));
            (
                payload,
                pv.seq,
                pv.validity_us,
                pv.remote_subscribers.iter().copied().collect::<Vec<NodeId>>(),
            )
        };
        let (payload, sample_seq, validity_us, remote_subscribers) = prepared;
        self.stats.vars_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::VarPublish, trace, None, sample_seq, Some(&name));

        // Local delivery (Fig. 2 in-container path).
        let local = self.vars.subscribed.get_mut(&name).and_then(|sub| {
            sub.accept(sample_seq, now).then(|| {
                sub.record(now, value.clone());
                sub.services.clone()
            })
        });
        if let Some(services) = local {
            self.vars.arm_deadline(&mut self.agenda, &name);
            for svc in services {
                self.push_task(
                    Priority::VARIABLE,
                    svc,
                    TaskPayload::DeliverVariable {
                        name: name.clone(),
                        value: value.clone(),
                        stamp: now,
                        seq: sample_seq,
                        trace,
                    },
                );
            }
        }

        let msg = Message::VarSample {
            name: name.clone(),
            seq: sample_seq,
            stamp_us: now.as_micros(),
            validity_us,
            trace: trace.wire(),
            codec: codec.id().0,
            payload,
        };
        match self.config.var_distribution {
            VarDistribution::Multicast => {
                self.send_message(TransportDestination::Group(var_group(&name).0), &msg);
            }
            VarDistribution::UnicastFanout => {
                for node in remote_subscribers {
                    self.send_message(TransportDestination::Node(node.0), &msg);
                }
            }
        }
    }

    fn effect_emit(&mut self, seq: u32, name: Name, value: Option<Value>, now: Micros) {
        let codec = self.codecs.default_codec().clone();
        let info = {
            let Some(pe) = self.events.published.get(&name) else {
                self.log_line(now, format!("emit on undeclared event `{name}` dropped"));
                return;
            };
            if pe.owner_seq != seq {
                self.log_line(now, format!("emit on foreign event `{name}` dropped"));
                return;
            }
            pe.ty.clone()
        };
        let payload = match (&info, &value) {
            (Some(ty), Some(v)) => match codec.encode_to_vec(v, ty) {
                Ok(b) => Bytes::from(b),
                Err(e) => {
                    self.events.type_mismatches += 1;
                    self.log_line(now, format!("event `{name}` payload violates schema: {e}"));
                    return;
                }
            },
            (None, Some(_)) => {
                self.events.type_mismatches += 1;
                self.log_line(now, format!("event `{name}` declared bare; payload dropped"));
                Bytes::new()
            }
            _ => Bytes::new(),
        };
        let Some(pe) = self.events.published.get_mut(&name) else { return };
        pe.seq += 1;
        let (event_seq, remote) =
            (pe.seq, pe.remote_subscribers.iter().copied().collect::<Vec<NodeId>>());
        self.stats.events_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::EventEmit, trace, None, event_seq, Some(&name));

        // Local delivery, under each subscriber's declared contract.
        self.push_event_deliveries(&name, value.clone(), event_seq, now, trace, now);
        // Remote delivery over the reliable links.
        let msg = Message::EventData {
            name,
            seq: event_seq,
            stamp_us: now.as_micros(),
            trace: trace.wire(),
            codec: codec.id().0,
            payload,
        };
        for node in remote {
            self.send_reliable(node, &msg, now);
        }
    }

    fn effect_call(
        &mut self,
        seq: u32,
        handle: CallHandle,
        function: Name,
        args: Vec<Value>,
        options: CallOptions,
        now: Micros,
    ) {
        self.stats.calls_made += 1;
        // Resolve the caller's contract against the container defaults:
        // the per-attempt deadline and the retry budget travel with the
        // pending call from here on.
        let attempt_timeout = options.deadline.unwrap_or(CALL_TIMEOUT);
        let max_attempts = options.retry_budget.unwrap_or(MAX_CALL_ATTEMPTS).max(1);
        let policy = options.policy;
        let resolution = self
            .directory
            .resolve_function(function.as_str(), policy, None)
            .map(|p| (p.service, p.provision.clone()));
        let Some((target, Provision::Function { sig, .. })) = resolution else {
            self.stats.call_errors += 1;
            self.push_task(
                Priority::CALL,
                seq,
                TaskPayload::DeliverReply { request: handle.0, result: Err(CallError::NoProvider) },
            );
            return;
        };
        let codec = self.codecs.default_codec().clone();
        let payload = match encode_args(&args, &sig, codec.as_ref()) {
            Ok(p) => p,
            Err(e) => {
                // The caller's arguments disagree with the provider's
                // declared signature: the caller's FnPort was built with
                // the wrong type parameters.
                self.rpc.type_mismatches += 1;
                self.stats.call_errors += 1;
                self.push_task(
                    Priority::CALL,
                    seq,
                    TaskPayload::DeliverReply { request: handle.0, result: Err(e) },
                );
                return;
            }
        };
        let trace = self.tracer.mint();
        self.tracer.record(
            now,
            TraceKind::CallStart,
            trace,
            Some(target.node),
            (handle.0).0,
            Some(&function),
        );
        let call = PendingCall {
            caller_seq: seq,
            function,
            args,
            target,
            returns: sig.returns.clone(),
            deadline: now + attempt_timeout,
            attempt_timeout,
            attempts: 1,
            max_attempts,
            policy,
            started_at: now,
            trace,
        };
        self.dispatch_call(handle.0, &call, payload, now);
        self.rpc.track(&mut self.agenda, handle.0, call);
    }

    fn effect_publish_file(&mut self, seq: u32, resource: Name, data: Bytes, now: Micros) {
        let declared = self
            .slots
            .iter()
            .find(|s| s.seq == seq)
            .map(|s| {
                s.descriptor
                    .provides()
                    .iter()
                    .any(|p| matches!(p, Provision::FileResource { name } if name == &resource))
            })
            .unwrap_or(false);
        if !declared {
            self.files.type_mismatches += 1;
            self.log_line(now, format!("publish of undeclared file resource `{resource}` dropped"));
            return;
        }
        self.stats.files_published += 1;
        let announce = {
            match self.files.outgoing.get_mut(&resource) {
                Some(existing) => {
                    let Ok(announce) = existing.sender.bump_revision(data.clone()) else {
                        return;
                    };
                    existing.complete_notified = false;
                    // A new revision queries at once.
                    self.agenda.disarm(Kind::FileQuery, &Key::Name(resource.clone()));
                    announce
                }
                None => {
                    let transfer = self.files.alloc_transfer();
                    let Ok(sender) = FileSender::new(
                        transfer,
                        resource.clone(),
                        1,
                        data.clone(),
                        CHUNK_SIZE,
                        file_group(&resource),
                    ) else {
                        return;
                    };
                    let announce = sender.announce();
                    self.files.transfer_index.insert(transfer, resource.clone());
                    self.files.outgoing.insert(
                        resource.clone(),
                        OutgoingFile { sender, owner_seq: seq, complete_notified: false },
                    );
                    announce
                }
            }
        };
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &announce);
        self.wake_file(&resource);
        self.try_local_file_bypass(&resource);
    }

    /// Same-node bypass (§4.4): interested local services get the data
    /// directly, no transfer ("the transfer is bypassed by the container as
    /// direct access to the resource").
    fn try_local_file_bypass(&mut self, resource: &Name) {
        let prepared = {
            let Some(out) = self.files.outgoing.get(resource) else { return };
            let revision = out.sender.revision();
            let data = out.sender.data();
            let Some(interest) = self.files.interests.get_mut(resource) else { return };
            if interest.completed_revision == Some(revision) || interest.services.is_empty() {
                return;
            }
            interest.completed_revision = Some(revision);
            (revision, data, interest.services.clone())
        };
        let (revision, data, services) = prepared;
        for svc in services {
            self.push_task(
                Priority::FILE,
                svc,
                TaskPayload::FileBypass {
                    resource: resource.clone(),
                    revision,
                    data: data.clone(),
                },
            );
        }
    }

    // ---- output helpers -----------------------------------------------------

    fn send_reliable(&mut self, peer: NodeId, msg: &Message, now: Micros) {
        let tagged = msg.encode_tagged();
        let out = self.link_to(peer, now).send(tagged, now);
        self.send_link_messages(peer, out);
    }

    /// The reliable link to `peer` — created with the negotiated FEC rate
    /// (and traced) on first use — put on this tick's poll list.
    fn link_to(&mut self, peer: NodeId, now: Micros) -> &mut ReliableLink {
        if !self.links.contains_key(&peer) {
            self.tracer.record(now, TraceKind::LinkUp, TraceId::NONE, Some(peer), 0, None);
        }
        self.wake_link(peer);
        let fec = self.fec_cap_for(peer);
        self.links.entry(peer).or_insert_with(|| {
            let mut link = ReliableLink::new(peer, ArqConfig::default());
            link.negotiate_fec(fec);
            link
        })
    }

    /// The code rate a link to `peer` should run: the weaker of our
    /// configured capability and what the peer advertised in its `Hello`.
    fn fec_cap_for(&self, peer: NodeId) -> FecRate {
        if !self.config.fec.enabled {
            return FecRate::Off;
        }
        let theirs = self
            .directory
            .node(peer)
            .map(|n| FecRate::from_wire_tag(n.fec_cap))
            .unwrap_or(FecRate::Off);
        self.config.fec.advertised_cap().negotiate(theirs)
    }

    /// Sends link wire messages to `peer`, counting outgoing FEC shards.
    ///
    /// Counted per event rather than recomputed from links because links
    /// are dropped when their peer dies and the counters must survive that.
    fn send_link_messages(&mut self, peer: NodeId, msgs: Vec<Message>) {
        for m in msgs {
            if let Message::FecShard { index, .. } = m {
                if index & PARITY_INDEX_BIT != 0 {
                    self.stats.fec.parity_shards_out += 1;
                } else {
                    self.stats.fec.data_shards_out += 1;
                }
            }
            self.send_message(TransportDestination::Node(peer.0), &m);
        }
    }

    /// Encodes `msg` once, straight into its frame; a message too large
    /// for one frame is fragmented from that same encoding.
    fn send_message(&mut self, dest: TransportDestination, msg: &Message) {
        let mtu = self.transport.mtu();
        let tagged = match msg.encode_for_mtu(self.config.node, mtu) {
            Encoded::Frame(wire) => return self.send_frame(dest, wire),
            Encoded::Oversized(tagged) => tagged,
        };
        self.next_msg_id += 1;
        let budget = mtu.saturating_sub(96).max(128);
        let Ok(frags) = fragment_payload(self.next_msg_id, &tagged, budget) else {
            return;
        };
        for frag in frags {
            self.send_frame(dest, frag.encode_frame(self.config.node));
        }
    }

    fn send_frame(&mut self, dest: TransportDestination, wire: Bytes) {
        self.stats.frames_out += 1;
        self.stats.bytes_out += wire.len() as u64;
        let _ = self.transport.send(dest, wire);
    }

    fn log_line(&mut self, now: Micros, line: String) {
        if self.log.len() >= LOG_CAPACITY {
            self.log.pop_front();
        }
        self.log.push_back((now, line));
    }
}

/// Stable group id for a variable's multicast group.
pub(crate) fn var_group(name: &Name) -> GroupId {
    GroupId(1 + (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFE))
}

/// Stable group id for a file resource's multicast group.
pub(crate) fn file_group(name: &Name) -> GroupId {
    GroupId(0x4000_0000 | (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFF))
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}
