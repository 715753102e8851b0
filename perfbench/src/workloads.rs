//! The three workloads: fleet shape, offered traffic and latency limit.

use marea_core::{ContainerConfig, EventPort, FnPort, NodeId, ProtoDuration, SimHarness, VarPort};
use marea_netsim::LinkConfig;

use crate::ledger::{lock, Caller, Echo, Kind, Out, Shared, Sink, Source};
use crate::replay::Shape;

/// The containers' catalogue announce period (µs): measured spans are
/// whole multiples of it, so the slower announce window is always
/// included the same number of times.
pub const ANNOUNCE_US: u64 = 2_000_000;

/// One workload.
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Latency limit that separates a delivery from a late one (µs).
    pub limit_us: u64,
    /// Container tick cadence (µs). Each harness step ticks every
    /// container once, so the cadence sets how much message work a step
    /// carries against the fixed cost of sweeping the fleet.
    pub tick_us: u64,
    /// Announce periods measured per requested wall second (sizes the
    /// span so that it takes roughly that long on a 2-core x86-64 box;
    /// the span itself is virtual time, so results repeat exactly).
    pub periods_per_second: f64,
    /// Link impairment switched on once the fleet has converged (`None`:
    /// the default lossless LAN throughout). Discovery runs on the clean
    /// LAN so that set-up time does not hinge on which discovery datagram
    /// a seed happens to drop.
    pub impairment: Option<LinkConfig>,
    /// The message shape the layer replay times.
    pub shape: Shape,
    /// Adds the fleet's containers and services.
    pub build: fn(&mut Fleet<'_>),
}

/// Every workload, in the canonical order.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "telemetry",
        limit_us: 10_000,
        // A 10 kHz cadence keeps each step to a few deliveries, so per-step
        // harness cost stays light here and heavy on the wide, idle
        // swarm; at 500 µs a telemetry step carried ~31 deliveries and
        // cost as much as a 257-node swarm step.
        tick_us: 100,
        periods_per_second: 1.0,
        impairment: None,
        shape: Shape { var: true, size: 48, reliable: false },
        build: telemetry,
    },
    Workload {
        name: "bulk_lossy",
        limit_us: 1_000_000,
        tick_us: 500,
        periods_per_second: 20.0,
        impairment: Some(LinkConfig {
            loss: 0.03,
            jitter_us: 200,
            latency_us: 100,
            bandwidth_bps: Some(100_000_000),
            mtu: 1500,
        }),
        shape: Shape { var: false, size: 4096, reliable: true },
        build: bulk_lossy,
    },
    Workload {
        name: "swarm_command",
        limit_us: 100_000,
        tick_us: 500,
        periods_per_second: 1.0,
        impairment: None,
        shape: Shape { var: true, size: 32, reliable: false },
        build: swarm_command,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// A fleet under construction: the harness, the ledger and the seeded
/// stream phases.
pub struct Fleet<'a> {
    h: &'a mut SimHarness,
    ledger: &'a Shared,
    /// Whether service callbacks are timed.
    traced: bool,
    tick_us: u64,
    rng: u64,
    sinks: Vec<(NodeId, Sink)>,
}

impl<'a> Fleet<'a> {
    /// Starts building on `h`, drawing phases from `seed`.
    pub fn new(
        h: &'a mut SimHarness,
        ledger: &'a Shared,
        traced: bool,
        tick_us: u64,
        seed: u64,
    ) -> Self {
        let rng = seed ^ 0x5DEE_CE66_D1CE_4E5B;
        Fleet { h, ledger, traced, tick_us, rng, sinks: Vec::new() }
    }

    /// splitmix64: the phase of each source within its period.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn node(&mut self, name: &str, node: u32) -> NodeId {
        self.h.add_container(ContainerConfig::new(name, NodeId(node)))
    }

    /// A seeded phase for source `i` of `n` alike: a random tick within
    /// the period, plus an offset within the tick drawn from the `i`-th of
    /// `n` equal strata. Stratifying keeps the sub-tick offsets spread
    /// evenly, so the latency percentiles barely move from seed to seed.
    /// A lone source (`n == 1`) starts within the first tick: it has no
    /// peers to spread against, and a random tick would only make the
    /// time to convergence depend on the seed.
    fn phase(&mut self, period_us: u64, i: u64, n: u64) -> u64 {
        let tick = self.tick_us;
        let ticks = if n == 1 { 1 } else { (period_us / tick).max(1) };
        (self.next() % ticks) * tick + (i * tick + self.next() % tick) / n
    }

    /// A seeded payload size: `nominal` less up to 1/16, so that byte
    /// counts differ a little from seed to seed while no message needs
    /// more fragments than its nominal size does.
    fn size(&mut self, nominal: usize) -> usize {
        nominal - (self.next() % (nominal as u64 / 16 + 1)) as usize
    }

    /// Adds open-loop source `i` of `n` alike of `kind` on `node`, sending
    /// `size`-byte messages every `period_us`.
    fn source(
        &mut self,
        node: NodeId,
        kind: Kind,
        channel: &str,
        period_us: u64,
        size: usize,
        (i, n): (u64, u64),
    ) -> u32 {
        let phase = self.phase(period_us, i, n);
        let size = self.size(size);
        let stream = lock(self.ledger).add_stream(kind, period_us, phase, size);
        let out = match kind {
            Kind::Var => Out::Var(VarPort::new(channel), ProtoDuration::from_micros(period_us)),
            Kind::Event => Out::Event(EventPort::new(channel)),
            Kind::File => Out::File(channel.to_string()),
            Kind::Call => unreachable!("calls come from a Caller"),
        };
        let ledger = self.ledger.clone();
        self.h.add_service(node, Box::new(Source { stream, out, ledger, traced: self.traced }));
        stream
    }

    /// Subscribes the sink on `node` (created on first use) to `stream`.
    fn subscribe(&mut self, node: NodeId, kind: Kind, channel: &str, stream: u32) {
        let slot = lock(self.ledger).add_slot(stream);
        let i = match self.sinks.iter().position(|(n, _)| *n == node) {
            Some(i) => i,
            None => {
                let sink = Sink {
                    subs: Vec::new(),
                    slots: Vec::new(),
                    ledger: self.ledger.clone(),
                    traced: self.traced,
                };
                self.sinks.push((node, sink));
                self.sinks.len() - 1
            }
        };
        let sink = &mut self.sinks[i].1;
        sink.subs.push((kind, channel.to_string()));
        if sink.slots.len() <= stream as usize {
            sink.slots.resize(stream as usize + 1, None);
        }
        sink.slots[stream as usize] = Some(slot);
    }

    /// Adds a closed-loop caller on `node`, thinking up to `think_us`
    /// between calls, against an echo provider `function` on `provider`.
    fn call_pair(
        &mut self,
        node: NodeId,
        provider: NodeId,
        function: &str,
        size: usize,
        think_us: u64,
    ) {
        let size = self.size(size);
        let (stream, slot) = {
            let mut l = lock(self.ledger);
            let stream = l.add_stream(Kind::Call, 0, 0, size);
            (stream, l.add_slot(stream))
        };
        let (ledger, traced) = (self.ledger.clone(), self.traced);
        self.h
            .add_service(provider, Box::new(Echo { port: FnPort::new(function), ledger, traced }));
        let caller = Caller {
            stream,
            slot,
            port: FnPort::new(function),
            think_us,
            rng: self.next() | 1,
            ledger: self.ledger.clone(),
            traced: self.traced,
            pending: None,
            next_due: 0,
        };
        self.h.add_service(node, Box::new(caller));
    }

    /// Registers the sinks with their containers. Sink slots are sized
    /// to every stream, so a payload naming any stream can be checked.
    pub fn finish(mut self) {
        let streams = lock(self.ledger).stream_count();
        for (node, mut sink) in std::mem::take(&mut self.sinks) {
            sink.slots.resize(streams, None);
            self.h.add_service(node, Box::new(sink));
        }
    }
}

/// 16 nodes, lossless: 4 publishers × (4 variables at 200 Hz + 2 reliable
/// event streams at 1 kHz), 48-byte payloads. Every variable fans out to
/// all 12 subscribers, every event stream to 3 of them.
fn telemetry(f: &mut Fleet<'_>) {
    let subs: Vec<NodeId> = (0..12).map(|i| f.node("sub", 101 + i)).collect();
    let mut event_index = 0;
    for p in 0..4u32 {
        let node = f.node("pub", 1 + p);
        for v in 0..4 {
            let channel = format!("tm/n{p}/v{v}");
            let s = f.source(node, Kind::Var, &channel, 5_000, 48, (u64::from(4 * p + v), 16));
            for &sub in &subs {
                f.subscribe(sub, Kind::Var, &channel, s);
            }
        }
        for e in 0..2 {
            let channel = format!("tm/n{p}/e{e}");
            let s = f.source(node, Kind::Event, &channel, 1_000, 48, (event_index as u64, 8));
            for r in 0..3 {
                f.subscribe(subs[(3 * event_index + r) % 12], Kind::Event, &channel, s);
            }
            event_index += 1;
        }
    }
}

/// 10 nodes, 3 % loss and 200 µs jitter on every link: 3 publishers of
/// 4 KiB reliable events (20, 30, 40 Hz) to 2 subscribers each, and one
/// MFTP publisher of a 64 KiB file revision every 500 ms to 4 subscribers.
fn bulk_lossy(f: &mut Fleet<'_>) {
    let subs: Vec<NodeId> = (0..6).map(|i| f.node("sub", 11 + i)).collect();
    for (p, hz) in [20u64, 30, 40].into_iter().enumerate() {
        let node = f.node("pub", 1 + p as u32);
        let channel = format!("bulk/e{p}");
        let s = f.source(node, Kind::Event, &channel, 1_000_000 / hz, 4096, (p as u64, 3));
        for r in 0..2 {
            f.subscribe(subs[2 * p + r], Kind::Event, &channel, s);
        }
    }
    let node = f.node("files", 4);
    let s = f.source(node, Kind::File, "bulk/map", 500_000, 64 * 1024, (0, 1));
    for &sub in &subs[..4] {
        f.subscribe(sub, Kind::File, "bulk/map", s);
    }
}

/// A swarm container: one heartbeat per 2 s announce period, and peers
/// declared dead after 6 s of silence. Each heartbeat reaches all 256
/// peers, so at the 500 ms default (or the 1 s of the 1024-node corpus
/// scenario) the swarm decoded more frames per virtual second than
/// `telemetry`, and message and frame work outweighed the idle tick loop
/// this workload is for.
fn swarm_node(f: &mut Fleet<'_>, name: &str, node: u32) -> NodeId {
    let mut c = ContainerConfig::new(name, NodeId(node));
    c.heartbeat_period = ProtoDuration::from_secs(2);
    c.node_timeout = ProtoDuration::from_secs(6);
    f.h.add_container(c)
}

/// 257 nodes, lossless: 256 drones each publish a 32-byte 10 Hz variable
/// to the ground node, which also runs 4 closed-loop callers of 64-byte
/// echo commands (up to 2 ms think time) against providers on drones 64,
/// 128, 192 and 256.
fn swarm_command(f: &mut Fleet<'_>) {
    let ground = swarm_node(f, "ground", 1000);
    for d in 1..=256u32 {
        let node = swarm_node(f, "drone", d);
        let channel = format!("sw/d{d}/state");
        let s = f.source(node, Kind::Var, &channel, 100_000, 32, (u64::from(d - 1), 256));
        f.subscribe(ground, Kind::Var, &channel, s);
    }
    for c in 0..4u32 {
        f.call_pair(ground, NodeId(64 * (c + 1)), &format!("sw/echo{c}"), 64, 2_000);
    }
}
