//! The discrete-event network core.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{LinkConfig, NetConfig};
use crate::stats::NetStats;

/// Where a datagram is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// One node.
    Unicast(u32),
    /// Every member of a multicast group (except the sender).
    Multicast(u32),
    /// Every registered node (except the sender).
    Broadcast,
}

/// Error returned by [`SimSocket::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Payload exceeds the sender's link MTU (datagram networks do not
    /// fragment here; the protocol layer must).
    PayloadExceedsMtu {
        /// Attempted payload size.
        size: usize,
        /// Link MTU.
        mtu: usize,
    },
    /// The sending node was removed from the network.
    UnknownNode(u32),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::PayloadExceedsMtu { size, mtu } => {
                write!(f, "payload of {size} bytes exceeds mtu {mtu}")
            }
            SendError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl Error for SendError {}

#[derive(Debug)]
struct NodeState {
    inbox: VecDeque<(u32, Bytes)>,
    groups: HashSet<u32>,
    /// Sender's shared-medium serialization horizon (µs).
    tx_busy_until: u64,
}

#[derive(Debug)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    src: u32,
    dst: u32,
    payload: Bytes,
}

// BinaryHeap is a max-heap; order by Reverse((deliver_at, seq)).
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// Replaces `out` with the receivers of a datagram from `src` to `dest`,
/// in ascending id order: replica order decides how the RNG stream maps
/// onto datagrams. `nodes` is ordered by id, so the walk is the order.
fn sorted_targets(
    nodes: &BTreeMap<u32, NodeState>,
    src: u32,
    dest: Destination,
    out: &mut Vec<u32>,
) {
    out.clear();
    match dest {
        Destination::Unicast(dst) => {
            if nodes.contains_key(&dst) {
                out.push(dst);
            }
        }
        Destination::Multicast(group) => out.extend(
            nodes
                .iter()
                .filter(|(id, st)| **id != src && st.groups.contains(&group))
                .map(|(id, _)| *id),
        ),
        Destination::Broadcast => out.extend(nodes.keys().filter(|id| **id != src)),
    }
}

#[derive(Debug)]
struct SimNetInner {
    now_us: u64,
    rng: SmallRng,
    default_link: LinkConfig,
    links: HashMap<(u32, u32), LinkConfig>,
    partitions: HashSet<(u32, u32)>,
    nodes: BTreeMap<u32, NodeState>,
    /// Fan-out targets of the send in progress, reused across sends.
    targets: Vec<u32>,
    inflight: BinaryHeap<Reverse<InFlight>>,
    next_seq: u64,
    stats: NetStats,
}

impl SimNetInner {
    fn link(&self, src: u32, dst: u32) -> LinkConfig {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
    }

    fn partitioned(&self, a: u32, b: u32) -> bool {
        self.partitions.contains(&(a, b)) || self.partitions.contains(&(b, a))
    }

    fn enqueue_replica(&mut self, src: u32, dst: u32, payload: &Bytes, depart_at: u64) {
        if self.partitioned(src, dst) {
            self.stats.dropped_partition += 1;
            return;
        }
        let link = self.link(src, dst);
        let observed = self.stats.per_link.entry((src, dst)).or_default();
        observed.attempts += 1;
        if self.rng.gen::<f64>() < link.loss {
            observed.lost += 1;
            self.stats.dropped_loss += 1;
            return;
        }
        let jitter = if link.jitter_us > 0 { self.rng.gen_range(0..=link.jitter_us) } else { 0 };
        let deliver_at = depart_at + link.latency_us + jitter;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push(Reverse(InFlight {
            deliver_at,
            seq,
            src,
            dst,
            payload: clone_bytes(payload),
        }));
    }

    fn send(&mut self, src: u32, dest: Destination, payload: Bytes) -> Result<(), SendError> {
        let mtu = self.link_mtu(src);
        if payload.len() > mtu {
            self.stats.dropped_mtu += 1;
            return Err(SendError::PayloadExceedsMtu { size: payload.len(), mtu });
        }
        let now = self.now_us;
        let tx_time = self.default_link.tx_time_us(payload.len());
        let depart_at = {
            let node = self.nodes.get_mut(&src).ok_or(SendError::UnknownNode(src))?;
            let start = node.tx_busy_until.max(now);
            node.tx_busy_until = start + tx_time;
            node.tx_busy_until
        };
        self.stats.datagrams_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        let node_stats = self.stats.per_node.entry(src).or_default();
        node_stats.sent += 1;
        node_stats.sent_bytes += payload.len() as u64;

        let mut targets = std::mem::take(&mut self.targets);
        sorted_targets(&self.nodes, src, dest, &mut targets);
        if targets.is_empty() {
            self.stats.no_receiver += 1;
        }
        for &dst in &targets {
            self.enqueue_replica(src, dst, &payload, depart_at);
        }
        self.targets = targets;
        Ok(())
    }

    fn link_mtu(&self, src: u32) -> usize {
        // The sender's NIC MTU: use the default link's MTU unless a
        // src-specific override exists (keyed (src,src)).
        self.links.get(&(src, src)).map(|l| l.mtu).unwrap_or(self.default_link.mtu)
    }

    fn step(&mut self) -> Option<u64> {
        let Reverse(event) = self.inflight.pop()?;
        self.now_us = self.now_us.max(event.deliver_at);
        if let Some(node) = self.nodes.get_mut(&event.dst) {
            self.stats.datagrams_delivered += 1;
            self.stats.bytes_delivered += event.payload.len() as u64;
            let ns = self.stats.per_node.entry(event.dst).or_default();
            ns.delivered += 1;
            ns.delivered_bytes += event.payload.len() as u64;
            node.inbox.push_back((event.src, event.payload));
        }
        Some(self.now_us)
    }
}

fn clone_bytes(b: &Bytes) -> Bytes {
    b.clone() // cheap refcount bump; replicas share the buffer
}

/// Handle to the shared simulated network.
///
/// Cloning is cheap; all clones observe the same virtual time and state.
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<Mutex<SimNetInner>>,
}

impl SimNet {
    /// Creates a network from `config`.
    pub fn new(config: NetConfig) -> Self {
        SimNet {
            inner: Arc::new(Mutex::new(SimNetInner {
                now_us: 0,
                rng: SmallRng::seed_from_u64(config.seed),
                default_link: config.default_link,
                links: HashMap::new(),
                partitions: HashSet::new(),
                nodes: BTreeMap::new(),
                targets: Vec::new(),
                inflight: BinaryHeap::new(),
                next_seq: 0,
                stats: NetStats::default(),
            })),
        }
    }

    /// Registers (or re-attaches to) node `id` and returns its socket.
    pub fn socket(&self, id: u32) -> SimSocket {
        let mut inner = self.inner.lock();
        inner.nodes.entry(id).or_insert_with(|| NodeState {
            inbox: VecDeque::new(),
            groups: HashSet::new(),
            tx_busy_until: 0,
        });
        SimSocket { net: self.clone(), node: id }
    }

    /// Removes a node: pending deliveries to it vanish (counted as
    /// delivered to nobody), and subsequent sends from it fail. Models a
    /// crashed avionics box for the failover experiments.
    pub fn remove_node(&self, id: u32) {
        let mut inner = self.inner.lock();
        inner.nodes.remove(&id);
    }

    /// `true` if the node is registered.
    pub fn has_node(&self, id: u32) -> bool {
        self.inner.lock().nodes.contains_key(&id)
    }

    /// Installs a directed link override between two nodes.
    pub fn set_link(&self, src: u32, dst: u32, link: LinkConfig) {
        self.inner.lock().links.insert((src, dst), link);
    }

    /// Installs a symmetric link override.
    pub fn set_link_symmetric(&self, a: u32, b: u32, link: LinkConfig) {
        let mut inner = self.inner.lock();
        inner.links.insert((a, b), link);
        inner.links.insert((b, a), link);
    }

    /// Replaces the default link applied to pairs without an override.
    pub fn set_default_link(&self, link: LinkConfig) {
        self.inner.lock().default_link = link;
    }

    /// Blocks (or unblocks) traffic between `a` and `b` in both directions.
    pub fn set_partition(&self, a: u32, b: u32, blocked: bool) {
        let mut inner = self.inner.lock();
        if blocked {
            inner.partitions.insert((a, b));
        } else {
            inner.partitions.remove(&(a, b));
            inner.partitions.remove(&(b, a));
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.inner.lock().now_us
    }

    /// Delivers the next in-flight datagram, advancing virtual time to its
    /// arrival. Returns the new time, or `None` when nothing is in flight.
    pub fn step(&self) -> Option<u64> {
        self.inner.lock().step()
    }

    /// Delivers every datagram due at or before `t_us`, then sets time to
    /// `t_us` (even if idle earlier).
    pub fn advance_to(&self, t_us: u64) {
        let mut inner = self.inner.lock();
        loop {
            match inner.inflight.peek() {
                Some(Reverse(ev)) if ev.deliver_at <= t_us => {
                    inner.step();
                }
                _ => break,
            }
        }
        inner.now_us = inner.now_us.max(t_us);
    }

    /// Delivers everything currently in flight (including cascades already
    /// queued); time ends at the last delivery.
    pub fn run_until_idle(&self) {
        while self.step().is_some() {}
    }

    /// Time of the next scheduled delivery.
    pub fn next_event_at(&self) -> Option<u64> {
        self.inner.lock().inflight.peek().map(|Reverse(ev)| ev.deliver_at)
    }

    /// Datagrams currently in flight.
    pub fn inflight_len(&self) -> usize {
        self.inner.lock().inflight.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().stats.clone()
    }

    /// Runs `f` against the live counters without cloning them — the
    /// metrics sampler's per-period hook ([`stats`](SimNet::stats)
    /// copies both per-node and per-link maps, which a periodic sample
    /// path cannot afford).
    pub fn with_stats<R>(&self, f: impl FnOnce(&NetStats) -> R) -> R {
        f(&self.inner.lock().stats)
    }

    /// Resets the counters (not the clock or state); benches call this
    /// between phases.
    pub fn reset_stats(&self) {
        self.inner.lock().stats = NetStats::default();
    }
}

/// Per-node endpoint of a [`SimNet`].
#[derive(Debug, Clone)]
pub struct SimSocket {
    net: SimNet,
    node: u32,
}

impl SimSocket {
    /// This socket's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The network this socket belongs to.
    pub fn network(&self) -> &SimNet {
        &self.net
    }

    /// Sends a datagram.
    ///
    /// # Errors
    ///
    /// [`SendError::PayloadExceedsMtu`] for oversized payloads,
    /// [`SendError::UnknownNode`] if this node was removed.
    pub fn send(&self, dest: Destination, payload: Bytes) -> Result<(), SendError> {
        self.net.inner.lock().send(self.node, dest, payload)
    }

    /// Pops the next delivered datagram, if any.
    pub fn recv(&self) -> Option<(u32, Bytes)> {
        let mut inner = self.net.inner.lock();
        inner.nodes.get_mut(&self.node)?.inbox.pop_front()
    }

    /// Number of datagrams waiting in the inbox.
    pub fn pending(&self) -> usize {
        self.net.inner.lock().nodes.get(&self.node).map_or(0, |n| n.inbox.len())
    }

    /// Joins a multicast group.
    pub fn join(&self, group: u32) {
        let mut inner = self.net.inner.lock();
        if let Some(n) = inner.nodes.get_mut(&self.node) {
            n.groups.insert(group);
        }
    }

    /// Leaves a multicast group.
    pub fn leave(&self, group: u32) {
        let mut inner = self.net.inner.lock();
        if let Some(n) = inner.nodes.get_mut(&self.node) {
            n.groups.remove(&group);
        }
    }

    /// The sender-side MTU this socket sees.
    pub fn mtu(&self) -> usize {
        self.net.inner.lock().link_mtu(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, NetConfig};
    use crate::stats::LinkObserved;

    fn quiet_net(seed: u64) -> SimNet {
        SimNet::new(NetConfig::default().with_seed(seed))
    }

    #[test]
    fn unicast_delivers_with_latency() {
        let net = quiet_net(1);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.pending(), 0, "not before time advances");
        net.run_until_idle();
        assert!(net.now_us() >= 100, "default 100us latency");
        let (src, p) = b.recv().unwrap();
        assert_eq!((src, p.as_ref()), (1, b"x".as_ref()));
    }

    #[test]
    fn multicast_reaches_members_only() {
        let net = quiet_net(2);
        let a = net.socket(1);
        let b = net.socket(2);
        let c = net.socket(3);
        let d = net.socket(4);
        b.join(7);
        c.join(7);
        a.send(Destination::Multicast(7), Bytes::from_static(b"m")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1);
        assert_eq!(c.pending(), 1);
        assert_eq!(d.pending(), 0);
        // Sender counted once, deliveries per replica.
        let s = net.stats();
        assert_eq!(s.datagrams_sent, 1);
        assert_eq!(s.datagrams_delivered, 2);
    }

    #[test]
    fn sender_not_in_own_multicast() {
        let net = quiet_net(3);
        let a = net.socket(1);
        a.join(7);
        let b = net.socket(2);
        b.join(7);
        a.send(Destination::Multicast(7), Bytes::from_static(b"m")).unwrap();
        net.run_until_idle();
        assert_eq!(a.pending(), 0);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let net = quiet_net(4);
        let socks: Vec<_> = (1..=4).map(|i| net.socket(i)).collect();
        socks[0].send(Destination::Broadcast, Bytes::from_static(b"b")).unwrap();
        net.run_until_idle();
        assert_eq!(socks[0].pending(), 0);
        for s in &socks[1..] {
            assert_eq!(s.pending(), 1);
        }
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| -> u64 {
            let net = SimNet::new(
                NetConfig::default()
                    .with_seed(seed)
                    .with_default_link(LinkConfig::default().with_loss(0.5)),
            );
            let a = net.socket(1);
            let _b = net.socket(2);
            for _ in 0..100 {
                a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
            }
            net.run_until_idle();
            net.stats().datagrams_delivered
        };
        let d1 = run(11);
        let d2 = run(11);
        let d3 = run(12);
        assert_eq!(d1, d2, "same seed, same trace");
        assert!(d1 > 20 && d1 < 80, "loss of ~50% observed ({d1}/100)");
        assert!(d1 != d3 || run(13) != d1, "different seeds eventually differ");
    }

    #[test]
    fn per_link_observed_loss_converges_on_the_configured_rate() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(21)
                .with_default_link(LinkConfig::default().with_loss(0.2)),
        );
        let a = net.socket(1);
        let _b = net.socket(2);
        for _ in 0..2000 {
            a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
        }
        net.run_until_idle();
        let observed = net.stats().link_observed(1, 2);
        assert_eq!(observed.attempts, 2000);
        let permille = observed.loss_permille();
        assert!(
            (160..=240).contains(&permille),
            "measured {permille}‰ should converge on the configured 200‰"
        );
        // The reverse direction carried nothing.
        assert_eq!(net.stats().link_observed(2, 1), LinkObserved::default());
    }

    #[test]
    fn partition_drops_do_not_count_as_loss_attempts() {
        let net = quiet_net(22);
        let a = net.socket(1);
        let _b = net.socket(2);
        net.set_partition(1, 2, true);
        a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
        net.run_until_idle();
        // A partition is a topology fact, not link-quality signal: it must
        // not pollute the loss ground truth the FEC estimator is judged by.
        assert_eq!(net.stats().link_observed(1, 2), LinkObserved::default());
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn mtu_is_enforced() {
        let net = quiet_net(5);
        let a = net.socket(1);
        let _b = net.socket(2);
        let big = Bytes::from(vec![0u8; 2000]);
        let err = a.send(Destination::Unicast(2), big).unwrap_err();
        assert!(matches!(err, SendError::PayloadExceedsMtu { mtu: 1500, .. }));
        assert_eq!(net.stats().dropped_mtu, 1);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        // 1 Mbit/s: a 125-byte datagram takes 1 ms to serialize. Ten sent
        // back-to-back must arrive spread over ~10 ms, not together.
        let net = SimNet::new(NetConfig::default().with_default_link(
            LinkConfig::default().with_bandwidth_bps(Some(1_000_000)).with_latency_us(0),
        ));
        let a = net.socket(1);
        let _b = net.socket(2);
        for _ in 0..10 {
            a.send(Destination::Unicast(2), Bytes::from(vec![0u8; 125])).unwrap();
        }
        net.run_until_idle();
        assert!(net.now_us() >= 10_000, "serialization spread: now={}", net.now_us());
    }

    #[test]
    fn partition_blocks_both_directions() {
        let net = quiet_net(6);
        let a = net.socket(1);
        let b = net.socket(2);
        net.set_partition(1, 2, true);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        b.send(Destination::Unicast(1), Bytes::from_static(b"y")).unwrap();
        net.run_until_idle();
        assert_eq!(a.pending() + b.pending(), 0);
        assert_eq!(net.stats().dropped_partition, 2);
        net.set_partition(1, 2, false);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn link_override_applies() {
        let net = quiet_net(7);
        let a = net.socket(1);
        let _b = net.socket(2);
        net.set_link(1, 2, LinkConfig::default().with_latency_us(50_000));
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert!(net.now_us() >= 50_000);
    }

    #[test]
    fn removed_node_is_unreachable_and_cannot_send() {
        let net = quiet_net(8);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.remove_node(2);
        net.run_until_idle();
        assert!(matches!(
            b.send(Destination::Unicast(1), Bytes::new()),
            Err(SendError::UnknownNode(2))
        ));
        // Delivery to removed node silently vanished.
        assert_eq!(net.stats().datagrams_delivered, 0);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let net = quiet_net(9);
        let _a = net.socket(1);
        net.advance_to(5_000);
        assert_eq!(net.now_us(), 5_000);
        // Does not go backwards.
        net.advance_to(1_000);
        assert_eq!(net.now_us(), 5_000);
    }

    #[test]
    fn delivery_order_is_stable_for_equal_times() {
        let net = SimNet::new(
            NetConfig::default().with_default_link(LinkConfig::default().with_bandwidth_bps(None)),
        );
        let a = net.socket(1);
        let b = net.socket(2);
        for i in 0..10u8 {
            a.send(Destination::Unicast(2), Bytes::from(vec![i])).unwrap();
        }
        net.run_until_idle();
        let mut got = Vec::new();
        while let Some((_, p)) = b.recv() {
            got.push(p[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<u8>>(), "fifo for same-time events");
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let net = SimNet::new(NetConfig::default().with_seed(10).with_default_link(
            LinkConfig::default().with_jitter_us(10_000).with_bandwidth_bps(None),
        ));
        let a = net.socket(1);
        let _b = net.socket(2);
        let mut arrivals = Vec::new();
        for _ in 0..20 {
            a.send(Destination::Unicast(2), Bytes::from_static(b"j")).unwrap();
        }
        while let Some(t) = net.step() {
            arrivals.push(t);
        }
        let min = arrivals.iter().min().unwrap();
        let max = arrivals.iter().max().unwrap();
        assert!(max - min > 1_000, "jitter must spread arrivals ({min}..{max})");
    }

    #[test]
    fn stats_bytes_track_payloads() {
        let net = quiet_net(11);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from(vec![0u8; 100])).unwrap();
        b.send(Destination::Unicast(1), Bytes::from(vec![0u8; 50])).unwrap();
        net.run_until_idle();
        let s = net.stats();
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.bytes_delivered, 150);
        assert_eq!(s.node(1).sent_bytes, 100);
        assert_eq!(s.node(1).delivered_bytes, 50);
        assert_eq!(s.node(2).sent, 1);
    }

    #[test]
    fn unicast_to_unknown_counts_no_receiver() {
        let net = quiet_net(12);
        let a = net.socket(1);
        a.send(Destination::Unicast(99), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(net.stats().no_receiver, 1);
    }
}
