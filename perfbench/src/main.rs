//! End-to-end and per-layer benchmark of the MAREA middleware.
//!
//! ```text
//! marea-perfbench --workload <telemetry|bulk_lossy|swarm_command> --seed <n>
//!                 --seconds <s> --trace <0|1> [--rustc <version line>]
//! ```
//!
//! Each workload runs single-threaded on `SimHarness`. Traffic comes from
//! the benchmark's own services (see `ledger.rs`), seeded by `--seed`.
//! Virtual-time metrics repeat exactly for a seed; wall-clock metrics are
//! medians. `--trace 0` prints the end-to-end metrics. `--trace 1` runs
//! the workload untraced and traced with the same seed, checks that both
//! runs agree count for count, and prints the per-layer metrics. The
//! human-readable report goes to stderr. The last stdout line is one JSON
//! object. Any failed correctness check gives exit code 1.

mod alloc;
mod drive;
mod ledger;
mod replay;
mod wall;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use drive::{Counters, Measured};
use ledger::percentile;
use workloads::{Workload, ANNOUNCE_US};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run: at least `SETUPS_MIN`, and more while they
/// add up to less than `SETUP_WALL_S` (at most `SETUPS_MAX`); `setup_s`
/// is their median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 64;
const SETUP_WALL_S: f64 = 1.0;

const USAGE: &str = "usage: marea-perfbench --workload <telemetry|bulk_lossy|swarm_command> \
                     --seed <n> --seconds <s> --trace <0|1> [--rustc <version>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rustc: String,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut rustc = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rustc,
    })
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One printed metric: name, value, unit, and a note for the report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric { name, value, unit, note }
}

/// In-limit deliveries whose delivery time fell inside the span.
fn span_deliveries(m: &Measured) -> u64 {
    m.tally.windows.iter().sum()
}

/// The two wall-clock metrics are host-normalised: each set-up and each
/// window is scaled by the host-speed factor paired with it
/// (`setup_host`, `Measured::window_host`), so that drifts in host speed
/// cancel out; the raw medians are printed beside them.
fn end_to_end(m: &Measured, setups: &[f64], setup_host: &[f64]) -> Vec<Metric> {
    let t = &m.tally;
    let samples: u64 = t.latency.values().sum();
    let rates: Vec<f64> =
        t.windows.iter().zip(&m.window_wall_s).map(|(&n, &s)| n as f64 / s).collect();
    let span_s = m.span_us as f64 / 1e6;
    let wire = m.at_end.net.bytes_sent - m.at_start.net.bytes_sent;
    let failed = t.failed();
    let delivered = span_deliveries(m);
    let setup_norm = median(setups.iter().zip(setup_host).map(|(s, f)| s / f).collect());
    let rate_norm = median(rates.iter().zip(&m.window_host).map(|(r, f)| r * f).collect());
    let (setup, rate) = (median(setups.to_vec()), median(rates));
    vec![
        metric(
            "setup_s",
            setup_norm,
            "s",
            format!("median of {} set-ups; {setup:.4} s on this host", setups.len()),
        ),
        metric(
            "delivered_per_s",
            rate_norm,
            "1/s",
            format!(
                "median of {} windows of {} s virtual; {rate:.0}/s on this host",
                t.windows.len(),
                ANNOUNCE_US / 1_000_000
            ),
        ),
        metric(
            "latency_p50_us",
            percentile(&t.latency, 0.50) as f64,
            "us",
            format!("n = {samples}"),
        ),
        metric(
            "latency_p99_us",
            percentile(&t.latency, 0.99) as f64,
            "us",
            format!("n = {samples}"),
        ),
        metric(
            "failed_share",
            ratio(failed as f64, t.offered as f64),
            "ratio",
            format!(
                "late {} + errored {} + lost {} + in flight {} of {} offered",
                t.late, t.errored, t.lost, t.in_flight, t.offered
            ),
        ),
        metric(
            "goodput_bps",
            t.payload_bytes as f64 * 8.0 / span_s,
            "bit/s",
            format!("{} payload bytes in limit over {span_s} s virtual", t.payload_bytes),
        ),
        metric(
            "wire_overhead",
            ratio(wire as f64, t.payload_bytes as f64),
            "ratio",
            format!("{wire} wire bytes"),
        ),
        metric(
            "allocs_per_delivered",
            ratio(m.allocs.allocs as f64, delivered as f64),
            "count",
            format!(
                "{} allocations of {:.0} bytes per delivery, {delivered} deliveries",
                m.allocs.allocs,
                ratio(m.allocs.bytes as f64, delivered as f64)
            ),
        ),
        metric(
            "peak_heap_mib",
            alloc::peak_bytes() as f64 / (1u64 << 20) as f64,
            "MiB",
            "whole run, set-ups included".to_string(),
        ),
    ]
}

/// The end-to-end metrics the JSON result carries (`failed_share` travels
/// as its `failed` count: it is 0 on healthy runs, so it cannot serve as a
/// ratio with a bound).
const GATED: [&str; 8] = [
    "setup_s",
    "delivered_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "goodput_bps",
    "wire_overhead",
    "allocs_per_delivered",
    "peak_heap_mib",
];

fn delta(m: &Measured, f: impl Fn(&Counters) -> u64) -> f64 {
    (f(&m.at_end) - f(&m.at_start)) as f64
}

fn per_layer(m: &Measured, r: &replay::Replay) -> Vec<Metric> {
    let sp = m.spans.as_ref().expect("the traced run records spans");
    let mut steps = sp.step_ns.clone();
    steps.sort_unstable();
    let pick = |q: f64| steps[((q * steps.len() as f64).ceil() as usize).clamp(1, steps.len()) - 1];
    let n_steps = steps.len() as f64;
    let step_total: u64 = steps.iter().sum();
    let core_self = step_total.saturating_sub(sp.netsim_ns + sp.handler_ns) as f64;
    let delivered = span_deliveries(m) as f64;
    let c = |f: fn(&marea_core::ContainerStats) -> u64| delta(m, |k| k.sum(f));
    let frames_in = c(|s| s.frames_in);
    let frames_out = c(|s| s.frames_out);
    let data_shards = c(|s| s.fec.data_shards_out);
    let arq_sent = delta(m, |k| k.arq.sent);
    let encoded = c(|s| s.vars_published + s.events_published + s.calls_made + s.calls_served);
    let decoded =
        c(|s| s.var_samples_delivered + s.events_delivered + s.calls_served + s.calls_made);
    let protocol_ns = frames_out * (r.message_encode_ns + r.frame_encode_ns)
        + frames_in * (r.frame_decode_ns + r.message_decode_ns);
    let encoding_ns = encoded * r.encode_ns + decoded * r.decode_ns;
    let queue_peak = m.at_end.containers.iter().map(|(_, s)| s.queue_peak).max().unwrap_or(0);
    let n = String::new;
    vec![
        metric("harness.step_ns_p50", pick(0.50) as f64, "ns", n()),
        metric("harness.step_ns_p99", pick(0.99) as f64, "ns", n()),
        metric("harness.steps", n_steps, "count", n()),
        metric("harness.allocs_per_step", ratio(m.allocs.allocs as f64, n_steps), "count", n()),
        metric("netsim.advance_ns_per_step", ratio(sp.netsim_ns as f64, n_steps), "ns", n()),
        metric("netsim.datagrams_sent", delta(m, |k| k.net.datagrams_sent), "count", n()),
        metric("netsim.replicas_delivered", delta(m, |k| k.net.datagrams_delivered), "count", n()),
        metric("netsim.dropped_loss", delta(m, |k| k.net.dropped_loss), "count", n()),
        metric("netsim.inflight_peak", sp.inflight_peak as f64, "count", n()),
        metric("core.tick_self_ns_per_delivered", ratio(core_self, delivered), "ns", n()),
        metric("core.frames_in", frames_in, "count", n()),
        metric("core.frames_out", frames_out, "count", n()),
        metric("core.tasks_executed", c(|s| s.tasks_executed), "count", n()),
        metric("core.queue_peak", queue_peak as f64, "count", n()),
        metric("core.qos_drops", c(|s| s.qos.queue_drops + s.qos.stale_drops), "count", n()),
        metric("core.deadline_misses", c(|s| s.qos.deadline_misses), "count", n()),
        metric("core.call_errors", c(|s| s.call_errors), "count", n()),
        metric("core.call_retries", c(|s| s.qos.retries), "count", n()),
        metric("core.converge_virtual_ms", m.converge_us as f64 / 1e3, "ms", n()),
        metric("protocol.arq_sent", arq_sent, "count", n()),
        metric(
            "protocol.arq_retx_ratio",
            ratio(delta(m, |k| k.arq.retransmitted), arq_sent),
            "ratio",
            n(),
        ),
        metric("protocol.arq_failed", delta(m, |k| k.arq.failed), "count", n()),
        metric(
            "protocol.fec_parity_ratio",
            ratio(c(|s| s.fec.parity_shards_out), data_shards),
            "ratio",
            n(),
        ),
        metric("protocol.fec_recovered", c(|s| s.fec.recovered), "count", n()),
        metric("protocol.crc32_ns_per_kib", r.crc32_ns_per_kib, "ns", n()),
        metric("protocol.frame_encode_ns", r.frame_encode_ns, "ns", n()),
        metric("protocol.frame_decode_ns", r.frame_decode_ns, "ns", n()),
        metric("protocol.message_encode_ns", r.message_encode_ns, "ns", n()),
        metric("protocol.message_decode_ns", r.message_decode_ns, "ns", n()),
        metric("protocol.fragment_ns", r.fragment_ns, "ns", n()),
        metric("protocol.reassemble_ns", r.reassemble_ns, "ns", n()),
        metric("protocol.fec_encode_ns", r.fec_encode_ns, "ns", n()),
        metric(
            "protocol.share",
            ratio(protocol_ns, core_self),
            "ratio",
            "frames × (message + frame) replay ns / core self ns".to_string(),
        ),
        metric("encoding.encode_ns", r.encode_ns, "ns", n()),
        metric("encoding.decode_ns", r.decode_ns, "ns", n()),
        metric("encoding.allocs_per_roundtrip", r.allocs_per_roundtrip, "count", n()),
        metric(
            "encoding.share",
            ratio(encoding_ns, core_self),
            "ratio",
            "values × codec replay ns / core self ns".to_string(),
        ),
        metric(
            "service.handler_ns_per_call",
            ratio(sp.handler_ns as f64, sp.handler_calls as f64),
            "ns",
            format!("{} callbacks", sp.handler_calls),
        ),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

fn report_run(label: &str, m: &Measured) {
    let t = &m.tally;
    let span_s = m.span_us as f64 / 1e6;
    eprintln!(
        "{label}: converged at {:.1} ms virtual; measured [{:.0}, {:.0}) s virtual ({} announce \
         periods) in {:.3} s wall; drained one latency limit",
        m.converge_us as f64 / 1e3,
        m.span_start as f64 / 1e6,
        (m.span_start + m.span_us) as f64 / 1e6,
        t.windows.len(),
        m.span_wall_s(),
    );
    eprintln!(
        "{label}: generator requested {:.1}/s, achieved {:.1}/s ({} messages), gen_lag_us mean \
         {:.1} max {}",
        t.requested_hz,
        t.gen_sent as f64 / span_s,
        t.gen_sent,
        ratio(t.gen_lag_sum as f64, t.gen_sent as f64),
        t.gen_lag_max,
    );
    eprintln!(
        "{label}: failed per primitive: variables {}, events {}, files {}, calls {}",
        t.failed_by_kind[0], t.failed_by_kind[1], t.failed_by_kind[2], t.failed_by_kind[3]
    );
    let q: Vec<String> = t.quarters.iter().map(|h| percentile(h, 0.99).to_string()).collect();
    eprintln!("{label}: latency_p99_us by quarter of the span (due time): {}", q.join(" / "));
    for v in &m.violations {
        eprintln!("{label}: VIOLATION {v}");
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload;
    let periods = ((a.seconds as f64 * w.periods_per_second).round() as u64).max(1);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "marea-perfbench workload={} seed={} seconds={} trace={} | host: nproc={threads} {}",
        w.name, a.seed, a.seconds, a.trace as u8, a.rustc
    );
    if !a.trace {
        let mut setups = Vec::new();
        let mut setup_host = wall::HostClock::start();
        let mut last = None;
        while setups.len() < SETUPS_MIN
            || (setups.len() < SETUPS_MAX && setups.iter().sum::<f64>() < SETUP_WALL_S)
        {
            // Drop the previous fleet before building the next one.
            drop(last.take());
            let s = drive::setup(w, a.seed, false)?;
            setups.push(s.wall_s);
            setup_host.add(s.wall_s);
            last = Some(s);
        }
        let setup_host = setup_host.factors();
        let m = drive::measure(w, last.expect("at least one set-up"), periods, false);
        report_run("untraced", &m);
        eprintln!(
            "host speed: reference kernel at {:.3} × its {} s nominal (median over set-ups), \
             {:.3} × (median over the span)",
            median(setup_host.clone()),
            wall::REFERENCE_NOMINAL_S,
            median(m.window_host.clone()),
        );
        let metrics = end_to_end(&m, &setups, &setup_host);
        print_metrics("end-to-end (untraced run; wall-clock metrics host-normalised):", &metrics);
        let t = &m.tally;
        let gated: Vec<&Metric> = metrics.iter().filter(|x| GATED.contains(&x.name)).collect();
        println!("{}", json(t.violations == 0, t.offered, t.failed(), &gated));
        return Ok(t.violations == 0);
    }

    let base = drive::measure(w, drive::setup(w, a.seed, false)?, periods, false);
    let mut traced = drive::measure(w, drive::setup(w, a.seed, true)?, periods, true);
    report_run("untraced", &base);
    report_run("traced", &traced);
    let same = base.tally == traced.tally
        && base.converge_us == traced.converge_us
        && base.at_start == traced.at_start
        && base.at_end == traced.at_end
        && base.drained == traced.drained;
    if !same {
        traced.tally.violations += 1;
        eprintln!("traced: VIOLATION the traced run's counts differ from the untraced run's");
    }
    eprintln!(
        "tracing overhead: traced span {:.3} s wall / untraced span {:.3} s wall = {:.3}; \
         host-normalised {:.3} s / {:.3} s = {:.3}",
        traced.span_wall_s(),
        base.span_wall_s(),
        ratio(traced.span_wall_s(), base.span_wall_s()),
        traced.span_host_s(),
        base.span_host_s(),
        ratio(traced.span_host_s(), base.span_host_s()),
    );
    let r = replay::run(&w.shape);
    let metrics = per_layer(&traced, &r);
    print_metrics("per-layer (traced run):", &metrics);
    let t = &traced.tally;
    let ok = t.violations == 0 && base.tally.violations == 0;
    let all: Vec<&Metric> = metrics.iter().collect();
    println!("{}", json(ok, t.offered, t.failed(), &all));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
