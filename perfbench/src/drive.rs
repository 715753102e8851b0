//! Set-up and measurement of one workload on the simulation harness.

use marea_core::{ContainerStats, NodeId, SimHarness};
use marea_netsim::{NetConfig, NetStats};
use marea_protocol::arq::{ArqConfig, ArqStats};

use crate::alloc;
use crate::ledger::{lock, percentile, Ledger, Shared, Tally};
use crate::wall;
use crate::workloads::{Fleet, Workload, ANNOUNCE_US};

/// Virtual time a fleet gets to converge before the run is refused (µs).
const CONVERGE_TIMEOUT_US: u64 = 30_000_000;

/// Each workload must yield at least this many latency samples.
pub const MIN_SAMPLES: u64 = 1_000;

/// A converged fleet.
pub struct Setup {
    h: SimHarness,
    ledger: Shared,
    /// Virtual µs at which every receiver had seen its first message.
    pub converge_us: u64,
    /// Wall seconds from creating the harness to convergence.
    pub wall_s: f64,
}

/// Builds the fleet of `w`, starts it and steps until it converges.
pub fn setup(w: &Workload, seed: u64, traced: bool) -> Result<Setup, String> {
    let t0 = wall::now();
    let ledger = Ledger::new(w.limit_us);
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.set_tick_us(w.tick_us);
    let mut fleet = Fleet::new(&mut h, &ledger, traced, w.tick_us, seed);
    (w.build)(&mut fleet);
    fleet.finish();
    h.start_all();
    while !lock(&ledger).converged() {
        if h.now().as_micros() >= CONVERGE_TIMEOUT_US {
            return Err(format!("{}: no convergence within {CONVERGE_TIMEOUT_US} µs", w.name));
        }
        h.step();
    }
    let converge_us = h.now().as_micros();
    if let Some(link) = w.impairment {
        h.network().set_default_link(link);
    }
    Ok(Setup { h, ledger, converge_us, wall_s: t0.elapsed().as_secs_f64() })
}

/// Fleet-wide counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Every container's stats, in node order.
    pub containers: Vec<(NodeId, ContainerStats)>,
    /// Reliable-channel totals over every container.
    pub arq: ArqStats,
    /// The network's counters.
    pub net: NetStats,
}

impl Counters {
    fn read(h: &SimHarness) -> Counters {
        let mut arq = ArqStats::default();
        let mut containers = Vec::new();
        for node in h.nodes() {
            let c = h.container(node).expect("listed node is live");
            let a = c.arq_stats();
            arq.sent += a.sent;
            arq.retransmitted += a.retransmitted;
            arq.acked += a.acked;
            arq.failed += a.failed;
            arq.payload_bytes += a.payload_bytes;
            containers.push((node, c.stats()));
        }
        Counters { containers, arq, net: h.network().stats() }
    }

    /// Sum of `f` over every container.
    pub fn sum(&self, f: impl Fn(&ContainerStats) -> u64) -> u64 {
        self.containers.iter().map(|(_, s)| f(s)).sum()
    }
}

/// What the traced run adds.
#[derive(Debug, Default)]
pub struct Spans {
    /// Wall ns of each harness step inside the span.
    pub step_ns: Vec<u64>,
    /// Wall ns of netsim delivery inside those steps.
    pub netsim_ns: u64,
    /// Wall ns inside benchmark service callbacks during the span.
    pub handler_ns: u64,
    /// Benchmark service callbacks during the span.
    pub handler_calls: u64,
    /// Most datagrams in flight after any step.
    pub inflight_peak: usize,
}

/// One measured run.
pub struct Measured {
    /// The ledger's books.
    pub tally: Tally,
    /// Breach texts (the count is `tally.violations`).
    pub violations: Vec<String>,
    /// Virtual µs at which the fleet converged.
    pub converge_us: u64,
    /// Span start (virtual µs).
    pub span_start: u64,
    /// Span length (virtual µs).
    pub span_us: u64,
    /// Counters at span start.
    pub at_start: Counters,
    /// Counters at span end.
    pub at_end: Counters,
    /// Counters after the drain.
    pub drained: Counters,
    /// Wall seconds of each announce-period window of the span.
    pub window_wall_s: Vec<f64>,
    /// Host-speed factor of each window (see [`wall::HostClock`]).
    pub window_host: Vec<f64>,
    /// Allocations during the span.
    pub allocs: alloc::Snapshot,
    /// Spans of the traced run.
    pub spans: Option<Spans>,
}

impl Measured {
    /// Wall seconds of the whole span.
    pub fn span_wall_s(&self) -> f64 {
        self.window_wall_s.iter().sum()
    }

    /// The same, with each window divided by its host-speed factor.
    pub fn span_host_s(&self) -> f64 {
        self.window_wall_s.iter().zip(&self.window_host).map(|(s, f)| s / f).sum()
    }
}

/// Steps `h` to `until` one tick at a time, timing netsim delivery and the
/// whole step separately.
fn traced_steps(h: &mut SimHarness, tick_us: u64, until: u64, spans: &mut Spans) {
    while h.now().as_micros() < until {
        let t0 = wall::now();
        // Delivering up to the next tick first makes the step's own
        // `advance_to` a no-op, so this span is the netsim's share.
        h.network().advance_to(h.now().as_micros() + tick_us);
        let t1 = wall::now();
        h.step();
        let step_ns = t0.elapsed().as_nanos() as u64;
        spans.netsim_ns += (t1 - t0).as_nanos() as u64;
        spans.step_ns.push(step_ns);
        spans.inflight_peak = spans.inflight_peak.max(h.network().inflight_len());
    }
}

/// Runs a converged fleet over `periods` announce periods, then stops
/// the sources and drains for one latency limit.
pub fn measure(w: &Workload, s: Setup, periods: u64, traced: bool) -> Measured {
    let Setup { mut h, ledger, converge_us, .. } = s;
    let span_start = (converge_us / ANNOUNCE_US + 1) * ANNOUNCE_US;
    let span_us = periods * ANNOUNCE_US;
    lock(&ledger).set_span(span_start, span_start + span_us, ANNOUNCE_US);
    h.run_until_us(span_start);

    let mut spans = traced.then(|| Spans {
        step_ns: Vec::with_capacity((span_us / w.tick_us) as usize),
        ..Spans::default()
    });
    let at_start = Counters::read(&h);
    let (handler_ns0, handler_calls0) = {
        let l = lock(&ledger);
        (l.handler_ns, l.handler_calls)
    };
    let mut window_wall_s = Vec::with_capacity(periods as usize);
    let mut host = wall::HostClock::start();
    let mut allocs = alloc::Snapshot::default();
    for k in 1..=periods {
        let until = span_start + k * ANNOUNCE_US;
        let a0 = alloc::snapshot();
        let t0 = wall::now();
        match spans.as_mut() {
            Some(sp) => traced_steps(&mut h, w.tick_us, until, sp),
            None => h.run_until_us(until),
        }
        let window_s = t0.elapsed().as_secs_f64();
        allocs = allocs.plus(alloc::snapshot().since(a0));
        window_wall_s.push(window_s);
        host.add(window_s);
    }
    let at_end = Counters::read(&h);
    if let Some(sp) = spans.as_mut() {
        let l = lock(&ledger);
        sp.handler_ns = l.handler_ns - handler_ns0;
        sp.handler_calls = l.handler_calls - handler_calls0;
    }

    h.run_until_us(span_start + span_us + w.limit_us);
    let drained = Counters::read(&h);
    let mut l = lock(&ledger);
    let tally = l.finish(MIN_SAMPLES);
    let violations = l.violation_texts().to_vec();
    drop(l);
    let mut m = Measured {
        tally,
        violations,
        converge_us,
        span_start,
        span_us,
        at_start,
        at_end,
        drained,
        window_wall_s,
        window_host: host.factors(),
        allocs,
        spans,
    };
    cross_check(&mut m);
    backlog_check(w, &mut m);
    m
}

/// `latency_p99_us`'s bound in BENCHMARK.json: the share by which the
/// last quarter's p99 may exceed the first quarter's.
const P99_BOUND: f64 = 0.1;

/// Flags a span whose last quarter's p99 exceeds the first quarter's by
/// more than [`P99_BOUND`] plus two steps of the workload's latency
/// granularity: a backlog that grows over the run. On a lossy link the
/// tail sits on plateaus one initial RTO apart (retransmissions and the
/// head-of-line waits behind them), and a quarter's few hundred tail
/// samples can land one plateau higher by chance; on a lossless link the
/// step is one tick. From the ~151 ms p99 of `bulk_lossy`, a last quarter
/// fails from 266 ms on: below a doubling, and below the next backoff
/// plateau (~351 ms).
fn backlog_check(w: &Workload, m: &mut Measured) {
    let first = percentile(&m.tally.quarters[0], 0.99);
    let last = percentile(&m.tally.quarters[3], 0.99);
    let step = match w.impairment {
        Some(_) => ArqConfig::default().initial_rto.as_micros(),
        None => w.tick_us,
    };
    let allowed = (first as f64 * (1.0 + P99_BOUND)) as u64 + 2 * step;
    if last > allowed {
        m.tally.violations += 1;
        m.violations.push(format!(
            "growing backlog: p99 {first} µs in the first quarter, {last} µs in the last \
             (allowed {allowed} µs)"
        ));
    }
}

/// Checks the ledger against the containers' own counters: every handler
/// callback the ledger saw must be one the containers counted.
fn cross_check(m: &mut Measured) {
    let (d, t) = (&m.drained, &m.tally);
    let made = d.sum(|s| s.calls_made);
    let checks = [
        ("variable deliveries", d.sum(|s| s.var_samples_delivered), t.callbacks[0]),
        ("event deliveries", d.sum(|s| s.events_delivered), t.callbacks[1]),
        ("file receptions", d.sum(|s| s.files_received), t.callbacks[2]),
        ("call outcomes", made, t.callbacks[3]),
    ];
    for (what, containers, ledger) in checks {
        if containers != ledger {
            m.tally.violations += 1;
            m.violations
                .push(format!("{what}: containers counted {containers}, services saw {ledger}"));
        }
    }
}
