//! marea-trace — query the flight recorder of a chaos-scenario run.
//!
//! Re-runs a named corpus scenario under its seed and dumps what the
//! per-node flight recorders captured. Everything is deterministic: the
//! scenario name and seed fully determine the output, byte for byte, so
//! a violation seen in CI reproduces on any machine with the same two
//! arguments.
//!
//! Usage:
//!
//! ```text
//! marea-trace list
//! marea-trace <scenario> [--seed N] [--json] dump
//!     [--node N] [--kind LABEL] [--channel NAME] [--last N]
//! marea-trace <scenario> [--seed N] [--json] chain <origin:counter>
//! marea-trace <scenario> [--seed N] [--json] violations
//! marea-trace <scenario> [--seed N] [--json] histo
//! ```
//!
//! `dump` (the default) prints every recorded event in causal order;
//! `chain` assembles the cross-node journey of one trace id; `histo`
//! prints each node's latency histograms (publish→deliver, call RTT,
//! RTO recovery); `violations` replays the run's invariant breaches
//! complete with the flight-recorder tail and assembled causal chain —
//! the same evidence the scenario corpus attaches in CI.

use std::io::{self, Write};

use marea_core::json::Object;
use marea_core::scenario::corpus::{self, ScenarioConfig};
use marea_core::scenario::{ScenarioReport, Violation};
use marea_core::trace::{render_event, LatencyHistogram, TraceEvent, TraceId};
use marea_core::{ContainerStats, NodeId, SimHarness};

enum Mode {
    Dump,
    Chain(TraceId),
    Violations,
    Histo,
}

struct Opts {
    scenario: String,
    seed: u64,
    mode: Mode,
    node: Option<u32>,
    kind: Option<String>,
    channel: Option<String>,
    last: Option<usize>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: marea-trace <scenario|list> [--seed N] [--json] \
         [dump [--node N] [--kind LABEL] [--channel NAME] [--last N] \
         | chain <origin:counter> | violations | histo]"
    );
    std::process::exit(2)
}

fn parse_trace_id(s: &str) -> Option<TraceId> {
    let (origin, counter) = s.split_once(':')?;
    Some(TraceId::new(NodeId(origin.parse().ok()?), counter.parse().ok()?))
}

fn parse_args() -> Opts {
    let mut raw = std::env::args().skip(1);
    let scenario = match raw.next() {
        Some(s) => s,
        None => usage(),
    };
    let mut opts = Opts {
        scenario,
        seed: 42,
        mode: Mode::Dump,
        node: None,
        kind: None,
        channel: None,
        last: None,
        json: false,
    };
    let value = |raw: &mut dyn Iterator<Item = String>, flag: &str| match raw.next() {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        }
    };
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--seed" => opts.seed = value(&mut raw, "--seed").parse().unwrap_or_else(|_| usage()),
            "--node" => {
                opts.node = Some(value(&mut raw, "--node").parse().unwrap_or_else(|_| usage()))
            }
            "--kind" => opts.kind = Some(value(&mut raw, "--kind")),
            "--channel" => opts.channel = Some(value(&mut raw, "--channel")),
            "--last" => {
                opts.last = Some(value(&mut raw, "--last").parse().unwrap_or_else(|_| usage()))
            }
            "--json" => opts.json = true,
            "dump" => opts.mode = Mode::Dump,
            "chain" => {
                let id = value(&mut raw, "chain");
                opts.mode = Mode::Chain(parse_trace_id(&id).unwrap_or_else(|| {
                    eprintln!("error: chain id must be <origin:counter>, got `{id}`");
                    std::process::exit(2);
                }));
            }
            "violations" => opts.mode = Mode::Violations,
            "histo" => opts.mode = Mode::Histo,
            _ => usage(),
        }
    }
    opts
}

fn event_json(node: NodeId, ev: &TraceEvent) -> Object {
    Object::new()
        .field("at_us", ev.at.0)
        .field("node", node.0)
        .field("incarnation", ev.incarnation)
        .field("kind", ev.kind.label())
        .field("trace", ev.trace.to_string())
        .field("peer", ev.peer.map(|p| p.0))
        .field("seq", ev.seq)
        .field("name", ev.name.as_ref().map(|n| n.as_str()))
}

fn events_json(events: &[(NodeId, TraceEvent)]) -> Vec<Object> {
    events.iter().map(|(node, ev)| event_json(*node, ev)).collect()
}

/// Every recorded event across every ring, in the same deterministic
/// causal order [`assemble_chain`](marea_core::trace::assemble_chain)
/// uses.
fn all_events(h: &SimHarness) -> Vec<(NodeId, TraceEvent)> {
    let mut out: Vec<(NodeId, TraceEvent)> = Vec::new();
    for (node, ring) in h.trace_rings() {
        out.extend(ring.events().map(|ev| (node, ev.clone())));
    }
    out.sort_by_key(|(node, ev)| (ev.at, *node, ev.incarnation, ev.kind, ev.seq));
    out
}

fn dump(out: &mut impl Write, h: &SimHarness, opts: &Opts) -> io::Result<()> {
    let mut events = all_events(h);
    events.retain(|(node, ev)| {
        opts.node.is_none_or(|n| node.0 == n)
            && opts.kind.as_deref().is_none_or(|k| ev.kind.label() == k)
            && opts
                .channel
                .as_deref()
                .is_none_or(|c| ev.name.as_ref().map(|n| n.as_str()) == Some(c))
    });
    if let Some(last) = opts.last {
        let skip = events.len().saturating_sub(last);
        events.drain(..skip);
    }
    if opts.json {
        return write!(out, "{}", Object::new().field("events", events_json(&events)).document());
    }
    for (node, ev) in &events {
        writeln!(out, "{}", render_event(*node, ev))?;
    }
    writeln!(out, "-- {} events", events.len())?;
    for (node, ring) in h.trace_rings() {
        if ring.evicted() > 0 {
            writeln!(out, "-- n{}: {} older events evicted from the ring", node.0, ring.evicted())?;
        }
    }
    Ok(())
}

fn chain(out: &mut impl Write, h: &SimHarness, trace: TraceId, json: bool) -> io::Result<()> {
    let links = h.trace_chain(trace);
    if json {
        let doc =
            Object::new().field("trace", trace.to_string()).field("chain", events_json(&links));
        return write!(out, "{}", doc.document());
    }
    if links.is_empty() {
        return writeln!(out, "no recorded events carry trace {trace}");
    }
    writeln!(out, "causal chain of trace {trace}:")?;
    for (node, ev) in &links {
        writeln!(out, "{}", render_event(*node, ev))?;
    }
    Ok(())
}

fn violation_text(out: &mut impl Write, v: &Violation) -> io::Result<()> {
    let node = v.node.map(|n| format!("n{}", n.0)).unwrap_or_else(|| "-".into());
    let channel = v.channel.as_ref().map(|c| c.as_str()).unwrap_or("-");
    writeln!(out, "VIOLATION {} at {}us node={} channel={}", v.invariant, v.at.0, node, channel)?;
    writeln!(out, "  {}", v.detail)?;
    for (title, lines) in [("flight recorder tail", &v.trace), ("causal chain", &v.chain)] {
        if !lines.is_empty() {
            writeln!(out, "  {title}:")?;
            for line in lines {
                writeln!(out, "  {line}")?;
            }
        }
    }
    Ok(())
}

fn violation_json(v: &Violation) -> Object {
    Object::new()
        .field("invariant", v.invariant.as_str())
        .field("at_us", v.at.0)
        .field("node", v.node.map(|n| n.0))
        .field("channel", v.channel.as_ref().map(|c| c.as_str()))
        .field("detail", v.detail.as_str())
        .field("trace", v.trace.clone())
        .field("chain", v.chain.clone())
}

fn violations(out: &mut impl Write, report: &ScenarioReport, json: bool) -> io::Result<()> {
    if json {
        let rows: Vec<Object> = report.violations.iter().map(violation_json).collect();
        return write!(out, "{}", Object::new().field("violations", rows).document());
    }
    if report.violations.is_empty() {
        return writeln!(out, "no violations: {} checks passed", report.checks_run);
    }
    report.violations.iter().try_for_each(|v| violation_text(out, v))
}

fn histo_row(label: &str, h: &LatencyHistogram) -> String {
    // Empty histograms emit the same field set as populated ones
    // (`count=0`, `-` bounds) so text-mode output parses uniformly,
    // mirroring the JSON mode's explicit nulls.
    let bound = |v: Option<u64>| v.map(|x| format!("{x}us")).unwrap_or_else(|| "-".into());
    format!(
        "  {label:<18} count={:<8} p50<={} p99<={} p999<={}",
        h.count(),
        bound(h.p50_us()),
        bound(h.p99_us()),
        bound(h.p999_us())
    )
}

fn histo_json(h: &LatencyHistogram) -> Object {
    Object::new()
        .field("count", h.count())
        .field("p50_us", h.p50_us())
        .field("p99_us", h.p99_us())
        .field("p999_us", h.p999_us())
}

fn histo(out: &mut impl Write, h: &SimHarness, json: bool) -> io::Result<()> {
    let mut nodes: Vec<NodeId> = h.trace_rings().iter().map(|(n, _)| *n).collect();
    nodes.sort();
    let stats: Vec<(NodeId, ContainerStats)> =
        nodes.into_iter().filter_map(|n| h.container(n).map(|c| (n, c.stats()))).collect();
    let histograms = |s: &ContainerStats| {
        [
            ("publish_to_deliver", s.publish_to_deliver),
            ("event_to_deliver", s.event_to_deliver),
            ("call_rtt", s.call_rtt),
            ("rto_recovery", s.rto_recovery),
        ]
    };
    if json {
        let row = |(n, s): &(NodeId, ContainerStats)| {
            histograms(s).iter().fold(Object::new().field("node", n.0), |row, (label, h)| {
                row.field(*label, histo_json(h))
            })
        };
        let rows: Vec<Object> = stats.iter().map(row).collect();
        return write!(out, "{}", Object::new().field("nodes", rows).document());
    }
    for (n, s) in &stats {
        writeln!(out, "n{}:", n.0)?;
        for (label, h) in histograms(s) {
            writeln!(out, "{}", histo_row(label, &h))?;
        }
    }
    Ok(())
}

/// Runs the requested query, writing to `out`; returns the exit code.
fn run(out: &mut impl Write, opts: &Opts) -> io::Result<i32> {
    if opts.scenario == "list" {
        for name in corpus::NAMES {
            writeln!(out, "{name}")?;
        }
        return Ok(0);
    }
    let cfg = ScenarioConfig::quick(opts.seed);
    let Some(mut chaos) = corpus::build(&opts.scenario, &cfg) else {
        eprintln!(
            "error: unknown scenario `{}`; known: {}",
            opts.scenario,
            corpus::NAMES.join(", ")
        );
        return Ok(2);
    };
    let report = chaos.run();
    let h = chaos.runner.harness();
    match &opts.mode {
        Mode::Dump => dump(out, h, opts)?,
        Mode::Chain(id) => chain(out, h, *id, opts.json)?,
        Mode::Violations => violations(out, &report, opts.json)?,
        Mode::Histo => histo(out, h, opts.json)?,
    }
    Ok(i32::from(matches!(opts.mode, Mode::Violations) && !report.violations.is_empty()))
}

fn main() {
    let opts = parse_args();
    let mut out = io::stdout().lock();
    // A reader that stops early (`| head`) closes the pipe: that ends
    // the output, it is not an error.
    let code = match run(&mut out, &opts).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: writing output: {e}");
            1
        }
    };
    std::process::exit(code);
}
