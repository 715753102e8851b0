//! Regenerates every figure/claim table whose numbers are recorded in
//! `BENCH_experiments.json`.
//!
//! Usage: `cargo run -p marea-bench --release --bin experiments [-- <id>...]`
//! where `<id>` is one of `f1 f2 f3 f4 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10
//! c11` or `all` (default). All numbers are virtual-time/deterministic:
//! identical on every machine.
//!
//! `--json <section> <path>` additionally writes one section's numbers
//! as a machine-readable document, where `<section>` is `suite` (the
//! full table set), `fec` (the C9 loss sweep), `trace` (the C10
//! flight-recorder comparison) or `swarm` (the C11 fleet-size sweep);
//! `--json all <dir>` writes every section
//! to its checked-in filename inside `<dir>`. The checked-in copies at
//! the repo root regenerate with
//! `cargo run -p marea-bench --release --bin experiments -- --json all .`
//! (`BENCH_experiments.json`, `BENCH_fec_loss.json`,
//! `BENCH_trace_overhead.json`, `BENCH_swarm_scale.json`). Any other
//! section, or any other `--` option, is a usage error (exit code 2).

use marea_bench::*;
use marea_core::SchedulerKind;

/// One `--json` request: which document, written where.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JsonSection {
    Suite,
    Fec,
    Trace,
    Swarm,
    All,
}

impl JsonSection {
    fn parse(s: &str) -> Option<JsonSection> {
        match s {
            "suite" => Some(JsonSection::Suite),
            "fec" => Some(JsonSection::Fec),
            "trace" => Some(JsonSection::Trace),
            "swarm" => Some(JsonSection::Swarm),
            "all" => Some(JsonSection::All),
            _ => None,
        }
    }
}

fn main() {
    let mut json_requests: Vec<(JsonSection, String)> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    let usage = |why: &str| -> ! {
        eprintln!("error: {why}");
        std::process::exit(2);
    };
    let missing = |flag: &str| -> ! { usage(&format!("{flag} needs an output path")) };
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => {
                let Some(tok) = raw.next() else { missing("--json") };
                let Some(section) = JsonSection::parse(&tok) else {
                    usage(&format!(
                        "unknown --json section `{tok}` (expected suite, fec, trace, swarm or all)"
                    ))
                };
                match raw.next() {
                    Some(path) => json_requests.push((section, path)),
                    None => missing(&format!("--json {tok}")),
                }
            }
            _ if a.starts_with("--") => usage(&format!("unknown option `{a}`")),
            _ => args.push(a),
        }
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    if want("f1") {
        f1_discovery();
    }
    if want("f2") {
        f2_local_vs_remote();
    }
    if want("c1") {
        c1_event_vs_rpc();
    }
    if want("c2") {
        c2_fanout();
    }
    if want("c3") {
        c3_arq_vs_tcp();
    }
    if want("c4") {
        c4_file_distribution();
    }
    if want("c5") {
        c5_scheduler();
    }
    if want("c6") {
        c6_failover();
    }
    if want("c7") {
        c7_bypass();
    }
    if want("c8") {
        c8_scenario_failover();
    }
    if want("c9") {
        c9_fec_loss();
    }
    if want("c10") {
        c10_trace_overhead();
    }
    if want("c11") {
        c11_swarm_scale();
    }

    // Each document always covers its full section regardless of which
    // ids were requested above, so the checked-in copies never depend
    // on the table selection.
    let write_doc = |path: &str, doc: String| match std::fs::write(path, doc) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
    };
    for (section, path) in json_requests {
        match section {
            JsonSection::Suite => write_doc(&path, json_document()),
            JsonSection::Fec => write_doc(&path, fec_json_document()),
            JsonSection::Trace => write_doc(&path, trace_json_document()),
            JsonSection::Swarm => write_doc(&path, swarm_json_document()),
            JsonSection::All => {
                write_doc(&format!("{path}/BENCH_experiments.json"), json_document());
                write_doc(&format!("{path}/BENCH_fec_loss.json"), fec_json_document());
                write_doc(&format!("{path}/BENCH_trace_overhead.json"), trace_json_document());
                write_doc(&format!("{path}/BENCH_swarm_scale.json"), swarm_json_document());
            }
        }
    }
}

/// The full suite as JSON. Runs every experiment with the same
/// parameters the tables use — all virtual-time, so the output is
/// byte-identical on every machine and safe to check in.
fn json_document() -> String {
    fn section(out: &mut String, last: bool, id: &str, rows: Vec<String>) {
        out.push_str(&format!("  \"{id}\": [\n"));
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]");
        out.push_str(if last { "\n" } else { ",\n" });
    }

    let mut out = String::from("{\n");

    let f1 = [2u32, 4, 8, 16]
        .iter()
        .map(|&n| {
            let ms = bench_discovery(n, 100 + u64::from(n));
            format!("    {{\"nodes\": {n}, \"full_mesh_ms\": {ms}}}")
        })
        .collect();
    section(&mut out, false, "f1_discovery", f1);

    let (local, remote) = bench_local_vs_remote_event(100, 200);
    let f2 = vec![
        format!(
            "    {{\"path\": \"same container\", \"mean_us\": {:.3}, \"max_us\": {}}}",
            local.mean_us, local.max_us
        ),
        format!(
            "    {{\"path\": \"across the LAN\", \"mean_us\": {:.3}, \"max_us\": {}}}",
            remote.mean_us, remote.max_us
        ),
    ];
    section(&mut out, false, "f2_local_vs_remote", f2);

    let c1 = [8usize, 64, 512]
        .iter()
        .map(|&payload| {
            let ev = bench_event_latency(payload, 100, 0.0, 300);
            let rpc = bench_rpc_rtt(payload, 100, 0.0, 300);
            format!(
                "    {{\"payload_bytes\": {payload}, \"event_mean_us\": {:.3}, \
                 \"rpc_mean_us\": {:.3}}}",
                ev.mean_us, rpc.mean_us
            )
        })
        .collect();
    section(&mut out, false, "c1_event_vs_rpc", c1);

    let c2 = [1u32, 2, 4, 8, 16, 32]
        .iter()
        .map(|&subs| {
            let m = bench_var_fanout(subs, 100, true, 400);
            let u = bench_var_fanout(subs, 100, false, 400);
            format!(
                "    {{\"subscribers\": {subs}, \"multicast_datagrams\": {}, \
                 \"unicast_datagrams\": {}, \"unicast_bytes\": {}}}",
                m.publisher_datagrams, u.publisher_datagrams, u.publisher_bytes
            )
        })
        .collect();
    section(&mut out, false, "c2_fanout", c2);

    let c3 = [0.0, 0.001, 0.01, 0.05, 0.10]
        .iter()
        .map(|&loss| {
            let arq = bench_arq_under_loss(loss, 100, 64, 20_000, 500);
            let tcp = bench_tcp_under_loss(loss, 100, 64, 20_000, 500);
            format!(
                "    {{\"loss\": {loss}, \"arq_mean_us\": {:.3}, \"tcp_mean_us\": {:.3}, \
                 \"arq_max_us\": {}, \"tcp_max_us\": {}, \"arq_bytes\": {}, \"tcp_bytes\": {}}}",
                arq.latency.mean_us,
                tcp.latency.mean_us,
                arq.latency.max_us,
                tcp.latency.max_us,
                arq.wire_bytes,
                tcp.wire_bytes
            )
        })
        .collect();
    section(&mut out, false, "c3_arq_vs_tcp", c3);

    let c4 = [
        (64 * 1024usize, 4u32, 0.0),
        (64 * 1024, 16, 0.0),
        (1024 * 1024, 4, 0.0),
        (1024 * 1024, 16, 0.0),
        (1024 * 1024, 8, 0.02),
        (4 * 1024 * 1024, 8, 0.0),
    ]
    .iter()
    .map(|&(size, subs, loss)| {
        let m = bench_file_multicast(size, subs, loss, 600);
        let u = bench_file_unicast_equivalent(size, subs, loss, 600);
        format!(
            "    {{\"size_bytes\": {size}, \"subscribers\": {subs}, \"loss\": {loss}, \
             \"multicast_bytes\": {}, \"unicast_bytes\": {}, \"multicast_completion_ms\": {}}}",
            m.publisher_bytes, u.publisher_bytes, m.completion_ms
        )
    })
    .collect();
    section(&mut out, false, "c4_file_distribution", c4);

    let c5 = [0u32, 50, 150, 400]
        .iter()
        .map(|&bg| {
            let p = bench_scheduler_latency(SchedulerKind::Priority, bg, 50, 700);
            let f = bench_scheduler_latency(SchedulerKind::Fifo, bg, 50, 700);
            format!(
                "    {{\"background_per_tick\": {bg}, \"priority_mean_us\": {:.3}, \
                 \"fifo_mean_us\": {:.3}, \"priority_max_us\": {}, \"fifo_max_us\": {}}}",
                p.mean_us, f.mean_us, p.max_us, f.max_us
            )
        })
        .collect();
    section(&mut out, false, "c5_scheduler", c5);

    let mut c5b = Vec::new();
    for bulk in [150u32, 400, 800] {
        for contract in [false, true] {
            let r = bench_qos_priority(contract, bulk, 50, 700);
            c5b.push(format!(
                "    {{\"bulk_per_tick\": {bulk}, \"contract\": {contract}, \
                 \"critical_mean_us\": {:.3}, \"critical_max_us\": {}, \
                 \"bulk_delivered\": {}, \"queue_drops\": {}}}",
                r.critical.mean_us, r.critical.max_us, r.bulk_delivered, r.queue_drops
            ));
        }
    }
    section(&mut out, false, "c5b_qos_contract", c5b);

    let c6 = [800u64, 801, 802]
        .iter()
        .map(|&seed| {
            let r = bench_failover(seed);
            format!(
                "    {{\"seed\": {seed}, \"blackout_ms\": {}, \"app_errors\": {}, \
                 \"failovers\": {}}}",
                r.blackout_ms, r.errors, r.failovers
            )
        })
        .collect();
    section(&mut out, false, "c6_failover", c6);

    let c7 = [64 * 1024usize, 1024 * 1024, 8 * 1024 * 1024]
        .iter()
        .map(|&size| {
            let (deliveries, wire) = bench_file_bypass(size, 900);
            format!(
                "    {{\"size_bytes\": {size}, \"bypass_deliveries\": {deliveries}, \
                 \"control_wire_bytes\": {wire}}}"
            )
        })
        .collect();
    section(&mut out, false, "c7_bypass", c7);

    let c8 = [810u64, 811, 812]
        .iter()
        .map(|&seed| {
            let r = bench_scenario_failover(seed);
            format!(
                "    {{\"seed\": {seed}, \"recovery_ms\": {}, \"violations\": {}, \
                 \"calls_ok\": {}, \"faults_applied\": {}}}",
                r.recovery_ms, r.violations, r.calls_ok, r.events_applied
            )
        })
        .collect();
    section(&mut out, false, "c8_scenario_failover", c8);

    section(&mut out, true, "c10_trace_overhead", c10_rows());

    out.push('}');
    out.push('\n');
    out
}

/// C9 parameters shared by the table, the JSON document and the CI
/// smoke gate in `marea_bench::tests` — bulk mode (back-to-back sends)
/// so goodput, not the send interval, is what the sweep measures.
const C9_N: u32 = 200;
const C9_MSG_LEN: usize = 64;
const C9_SEED: u64 = 9;

/// The C9 loss sweep as JSON. Everything is virtual-time and the
/// goodput division is integer, so the document is byte-identical on
/// every machine and safe to check in.
fn fec_json_document() -> String {
    let mut out = String::from("{\n  \"c9_fec_loss\": [\n");
    let rows = bench_fec_loss_sweep(C9_N, C9_MSG_LEN, C9_SEED);
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"loss_permille\": {}, \"payload_bytes\": {}, \
                 \"arq_goodput_bps\": {}, \"arq_fec_goodput_bps\": {}, \
                 \"tcp_goodput_bps\": {}, \"arq_completion_us\": {}, \
                 \"arq_fec_completion_us\": {}, \"arq_wire_bytes\": {}, \
                 \"arq_fec_wire_bytes\": {}, \"arq_retransmissions\": {}, \
                 \"arq_fec_retransmissions\": {}}}",
                r.loss_permille,
                r.payload_bytes,
                r.arq.goodput_bps(r.payload_bytes),
                r.arq_fec.goodput_bps(r.payload_bytes),
                r.tcp.goodput_bps(r.payload_bytes),
                r.arq.completion_us,
                r.arq_fec.completion_us,
                r.arq.wire_bytes,
                r.arq_fec.wire_bytes,
                r.arq.retransmissions,
                r.arq_fec.retransmissions,
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn c9_fec_loss() {
    banner(
        "C9",
        "bulk goodput under radio loss: plain ARQ vs ARQ+FEC vs TCP",
        "§4.2 — repair data reconstructs erased frames without paying the retransmission RTT",
    );
    println!(
        "   {:<8} {:>14} {:>16} {:>14} {:>10} {:>12} {:>12}",
        "loss", "arq bps", "arq+fec bps", "tcp bps", "fec gain", "arq retx", "fec retx"
    );
    for r in bench_fec_loss_sweep(C9_N, C9_MSG_LEN, C9_SEED) {
        let arq = r.arq.goodput_bps(r.payload_bytes);
        let fec = r.arq_fec.goodput_bps(r.payload_bytes);
        println!(
            "   {:<8} {:>14} {:>16} {:>14} {:>9.1}x {:>12} {:>12}",
            format!("{:.0}%", r.loss_permille as f64 / 10.0),
            arq,
            fec,
            r.tcp.goodput_bps(r.payload_bytes),
            fec as f64 / arq.max(1) as f64,
            r.arq.retransmissions,
            r.arq_fec.retransmissions,
        );
    }
}

fn banner(id: &str, title: &str, anchor: &str) {
    println!("\n== {id}: {title}");
    println!("   paper anchor: {anchor}");
}

fn f1_discovery() {
    banner("F1", "fleet discovery time", "Fig. 1 — services distributed over nodes");
    println!("   {:<8} {:>18}", "nodes", "full-mesh (ms)");
    for n in [2u32, 4, 8, 16] {
        let ms = bench_discovery(n, 100 + u64::from(n));
        println!("   {n:<8} {ms:>18}");
    }
}

fn f2_local_vs_remote() {
    banner(
        "F2",
        "in-container vs networked delivery",
        "Fig. 2 — the container communicates services locally or across the LAN",
    );
    let (local, remote) = bench_local_vs_remote_event(100, 200);
    println!("   {:<22} {:>12} {:>12}", "path", "mean (µs)", "max (µs)");
    println!("   {:<22} {:>12.0} {:>12}", "same container", local.mean_us, local.max_us);
    println!("   {:<22} {:>12.0} {:>12}", "across the LAN", remote.mean_us, remote.max_us);
    if local.mean_us < 1.0 {
        println!("   → local delivery completes within the same tick (no frames, no links)");
    } else {
        println!(
            "   → local bypass is {:.1}x faster (no frames, no links)",
            remote.mean_us / local.mean_us
        );
    }
}

fn c1_event_vs_rpc() {
    banner(
        "C1",
        "event one-way latency vs remote-invocation round trip",
        "§4.3 — \"events seem faster than their function equivalent\"",
    );
    println!(
        "   {:<10} {:>16} {:>16} {:>10}",
        "payload", "event mean (µs)", "rpc mean (µs)", "rpc/event"
    );
    for payload in [8usize, 64, 512] {
        let ev = bench_event_latency(payload, 100, 0.0, 300);
        let rpc = bench_rpc_rtt(payload, 100, 0.0, 300);
        println!(
            "   {:<10} {:>16.0} {:>16.0} {:>9.1}x",
            payload,
            ev.mean_us,
            rpc.mean_us,
            rpc.mean_us / ev.mean_us.max(1.0)
        );
    }
}

fn c2_fanout() {
    banner(
        "C2",
        "variable distribution wire cost vs subscriber count",
        "§4.1 — multicast \"allows optimizing the bandwidth use\"",
    );
    println!(
        "   {:<6} {:>18} {:>18} {:>18} {:>10}",
        "subs", "multicast dgrams", "unicast dgrams", "unicast bytes", "ratio"
    );
    for subs in [1u32, 2, 4, 8, 16, 32] {
        let m = bench_var_fanout(subs, 100, true, 400);
        let u = bench_var_fanout(subs, 100, false, 400);
        println!(
            "   {:<6} {:>18} {:>18} {:>18} {:>9.1}x",
            subs,
            m.publisher_datagrams,
            u.publisher_datagrams,
            u.publisher_bytes,
            u.publisher_datagrams as f64 / m.publisher_datagrams.max(1) as f64
        );
    }
}

fn c3_arq_vs_tcp() {
    banner(
        "C3",
        "sporadic event delivery: middleware ARQ vs generic TCP",
        "§4.2 — app-layer retransmission \"more efficient ... than the generic case provided by the TCP stack\"",
    );
    println!(
        "   {:<8} {:>14} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "loss", "arq mean µs", "tcp mean µs", "arq max µs", "tcp max µs", "arq bytes", "tcp bytes"
    );
    for loss in [0.0, 0.001, 0.01, 0.05, 0.10] {
        let arq = bench_arq_under_loss(loss, 100, 64, 20_000, 500);
        let tcp = bench_tcp_under_loss(loss, 100, 64, 20_000, 500);
        println!(
            "   {:<8} {:>14.0} {:>14.0} {:>14} {:>14} {:>12} {:>12}",
            format!("{:.1}%", loss * 100.0),
            arq.latency.mean_us,
            tcp.latency.mean_us,
            arq.latency.max_us,
            tcp.latency.max_us,
            arq.wire_bytes,
            tcp.wire_bytes,
        );
    }
}

fn c4_file_distribution() {
    banner(
        "C4",
        "file distribution: multicast MFTP vs unicast-equivalent",
        "§4.4 — \"huge performance benefits\" of the dedicated primitive",
    );
    println!(
        "   {:<10} {:<6} {:<6} {:>16} {:>16} {:>10} {:>14}",
        "size", "subs", "loss", "mcast bytes", "ucast bytes", "saving", "mcast ms"
    );
    for (size, subs, loss) in [
        (64 * 1024, 4u32, 0.0),
        (64 * 1024, 16, 0.0),
        (1024 * 1024, 4, 0.0),
        (1024 * 1024, 16, 0.0),
        (1024 * 1024, 8, 0.02),
        (4 * 1024 * 1024, 8, 0.0),
    ] {
        let m = bench_file_multicast(size, subs, loss, 600);
        let u = bench_file_unicast_equivalent(size, subs, loss, 600);
        println!(
            "   {:<10} {:<6} {:<6} {:>16} {:>16} {:>9.1}x {:>14}",
            format!("{}KiB", size / 1024),
            subs,
            format!("{:.0}%", loss * 100.0),
            m.publisher_bytes,
            u.publisher_bytes,
            u.publisher_bytes as f64 / m.publisher_bytes.max(1) as f64,
            m.completion_ms,
        );
    }
}

fn c5_scheduler() {
    banner(
        "C5",
        "event handler latency under load: priority vs FIFO scheduler",
        "§6 — \"a simple thread pool with fixed priorities for each named primitive\"",
    );
    println!(
        "   {:<22} {:>14} {:>14} {:>14} {:>14}",
        "background load", "prio mean µs", "fifo mean µs", "prio max µs", "fifo max µs"
    );
    for bg in [0u32, 50, 150, 400] {
        let p = bench_scheduler_latency(SchedulerKind::Priority, bg, 50, 700);
        let f = bench_scheduler_latency(SchedulerKind::Fifo, bg, 50, 700);
        println!(
            "   {:<22} {:>14.0} {:>14.0} {:>14} {:>14}",
            format!("{bg} samples/tick"),
            p.mean_us,
            f.mean_us,
            p.max_us,
            f.max_us
        );
    }

    println!(
        "\n   C5b — per-subscription QoS contract (EventQos::bulk + bounded inbox)\n   \
         {:<22} {:>16} {:>16} {:>14} {:>12}",
        "bulk load", "critical mean µs", "critical max µs", "bulk delivered", "queue drops"
    );
    for bulk in [150u32, 400, 800] {
        for contract in [false, true] {
            let r = bench_qos_priority(contract, bulk, 50, 700);
            println!(
                "   {:<22} {:>16.0} {:>16} {:>14} {:>12}",
                format!("{bulk}/tick {}", if contract { "(contract)" } else { "(default)" }),
                r.critical.mean_us,
                r.critical.max_us,
                r.bulk_delivered,
                r.queue_drops
            );
        }
    }
}

fn c6_failover() {
    banner(
        "C6",
        "provider failover",
        "§4.3 — \"redirect requests to the redundant service ... continue its mission\"",
    );
    println!("   {:<8} {:>16} {:>14} {:>12}", "seed", "blackout (ms)", "app errors", "failovers");
    for seed in [800u64, 801, 802] {
        let r = bench_failover(seed);
        println!("   {:<8} {:>16} {:>14} {:>12}", seed, r.blackout_ms, r.errors, r.failovers);
    }
}

fn c8_scenario_failover() {
    banner(
        "C8",
        "chaos scenario: publisher failover recovery time",
        "§4.3 — crash detection + transparent failover, measured by the RTO invariant",
    );
    println!(
        "   {:<8} {:>16} {:>12} {:>12} {:>12}",
        "seed", "recovery (ms)", "violations", "calls ok", "faults"
    );
    for seed in [810u64, 811, 812] {
        let r = bench_scenario_failover(seed);
        println!(
            "   {:<8} {:>16} {:>12} {:>12} {:>12}",
            seed, r.recovery_ms, r.violations, r.calls_ok, r.events_applied
        );
    }
}

fn c7_bypass() {
    banner(
        "C7",
        "same-node file bypass",
        "§4.4 — \"the transfer is bypassed by the container as direct access to the resource\"",
    );
    println!("   {:<10} {:>20} {:>22}", "size", "bypass deliveries", "wire bytes (control)");
    for size in [64 * 1024usize, 1024 * 1024, 8 * 1024 * 1024] {
        let (deliveries, wire) = bench_file_bypass(size, 900);
        println!("   {:<10} {:>20} {:>22}", format!("{}KiB", size / 1024), deliveries, wire);
    }
}

/// C10 parameters shared by the table, the JSON document and the CI
/// regeneration gate: the same worst-case flood the wall-clock gate in
/// `marea_bench::tests::trace_overhead_stays_within_five_percent` times
/// (every sample is tiny, so tracing cost has nowhere to hide).
const C10_BG_PER_TICK: u32 = 800;
const C10_EVENTS: u32 = 100;
const C10_SEED: u64 = 710;

fn c10_rows() -> Vec<String> {
    [true, false]
        .iter()
        .map(|&traced| {
            let r = bench_trace_overhead_run(traced, C10_BG_PER_TICK, C10_EVENTS, C10_SEED);
            format!(
                "    {{\"traced\": {traced}, \"vars_delivered\": {}, \
                 \"critical_events\": {}, \"critical_mean_us\": {:.1}, \
                 \"critical_max_us\": {}, \"trace_events\": {}, \
                 \"histogram_count\": {}, \"wire_bytes\": {}}}",
                r.vars_delivered,
                r.critical.count,
                r.critical.mean_us,
                r.critical.max_us,
                r.trace_events,
                r.histogram_count,
                r.wire_bytes,
            )
        })
        .collect()
}

/// The C10 flight-recorder overhead comparison as JSON. Only
/// virtual-time quantities appear (latencies, wire bytes, recorder
/// counts) so the document is byte-identical on every machine; the
/// wall-clock side of the claim is the ignored release-mode gate test
/// named in `wall_clock_gate`, which CI runs alongside the diff.
fn trace_json_document() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"params\": {{\"bg_per_tick\": {C10_BG_PER_TICK}, \
         \"critical_events\": {C10_EVENTS}, \"seed\": {C10_SEED}}},\n"
    ));
    out.push_str("  \"c10_trace_overhead\": [\n");
    out.push_str(&c10_rows().join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(
        "  \"wall_clock_gate\": \"trace_overhead_stays_within_five_percent: \
         traced wall-clock <= 1.05x untraced, release mode\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}

/// C11 seed shared by the table and the JSON document, so the
/// checked-in copy regenerates from the same runs the table prints.
const C11_SEED: u64 = 1_100;

fn c11_rows() -> Vec<marea_bench::SwarmScaleRow> {
    bench_swarm_scale(C11_SEED)
}

/// The C11 fleet-size sweep as JSON. Every field is virtual-time or a
/// deterministic counter, so the document is byte-identical on every
/// machine; the wall-clock ticks/sec side of the swarm claim is the
/// ignored release-mode floor test named in `wall_clock_gate`.
fn swarm_json_document() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"params\": {{\"tick_us\": {SWARM_TICK_US}, \"settle_ms\": {SWARM_SETTLE_MS}, \
         \"window_ms\": {SWARM_WINDOW_MS}, \"seed\": {C11_SEED}}},\n"
    ));
    out.push_str("  \"c11_swarm_scale\": [\n");
    let body: Vec<String> = c11_rows()
        .iter()
        .map(|r| {
            format!(
                "    {{\"nodes\": {}, \"ticks\": {}, \"virtual_ms\": {}, \
                 \"beacons_delivered\": {}, \"datagrams\": {}, \"wire_bytes\": {}, \
                 \"full_mesh\": {}}}",
                r.nodes,
                r.ticks,
                r.virtual_ms,
                r.beacons_delivered,
                r.datagrams,
                r.wire_bytes,
                r.full_mesh,
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(
        "  \"wall_clock_gate\": \"swarm_ticks_per_sec_floor_at_256_nodes: \
         >= 250k container ticks/sec at 256 nodes, release mode\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}

fn c11_swarm_scale() {
    banner(
        "C11",
        "swarm scale: sim-core wire cost vs fleet size",
        "DESIGN.md §10 — due-date scheduling + digest gossip keep the control plane subquadratic per period",
    );
    println!(
        "   {:<8} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "nodes", "ticks", "beacons", "datagrams", "wire bytes", "full mesh"
    );
    for r in c11_rows() {
        println!(
            "   {:<8} {:>12} {:>12} {:>12} {:>14} {:>10}",
            r.nodes, r.ticks, r.beacons_delivered, r.datagrams, r.wire_bytes, r.full_mesh
        );
    }
    println!("   wall-clock gate: tests::swarm_ticks_per_sec_floor_at_256_nodes (release, >=250k)");
}

fn c10_trace_overhead() {
    banner(
        "C10",
        "flight-recorder overhead: traced vs untraced worst-case flood",
        "DESIGN.md §8 — the recorder must be cheap enough to leave on in flight",
    );
    println!(
        "   {:<10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "recorder", "vars", "criticals", "mean us", "max us", "trace evts", "wire bytes"
    );
    let mut wire = [0u64; 2];
    for (i, traced) in [true, false].into_iter().enumerate() {
        let r = bench_trace_overhead_run(traced, C10_BG_PER_TICK, C10_EVENTS, C10_SEED);
        wire[i] = r.wire_bytes;
        println!(
            "   {:<10} {:>10} {:>10} {:>12.1} {:>12} {:>12} {:>12}",
            if traced { "on" } else { "off" },
            r.vars_delivered,
            r.critical.count,
            r.critical.mean_us,
            r.critical.max_us,
            r.trace_events,
            r.wire_bytes,
        );
    }
    println!(
        "   wire overhead of trace ids: {:.2}% ({} extra bytes)",
        (wire[0] as f64 / wire[1] as f64 - 1.0) * 100.0,
        wire[0] - wire[1],
    );
    println!("   wall-clock gate: tests::trace_overhead_stays_within_five_percent (release, <=5%)");
}
