//! Regenerates every figure/claim table whose numbers are recorded in
//! the `BENCH_*.json` experiment documents.
//!
//! Usage: `cargo run -p marea-bench --release --bin experiments [-- <id>...]`
//! where `<id>` is one of `f1 f2 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11`
//! (`c5` prints C5 and C5b) or `all` (default). All numbers are
//! virtual-time/deterministic: identical on every machine.
//!
//! Each experiment is one function that runs it once and returns a
//! [`Table`]; the printed table and the JSON section are two renderings
//! of that one table, with the same columns.
//!
//! `--json <section> <path>` additionally writes one document, where
//! `<section>` is `suite` (the full table set), `fec` (the C9 loss
//! sweep), `trace` (the C10 flight-recorder comparison) or `swarm` (the
//! C11 fleet-size sweep); `--json all <dir>` writes every document to
//! its checked-in filename inside `<dir>`. Each experiment runs at most
//! once per invocation, however many documents and tables show it. The
//! checked-in copies at the repo root regenerate with
//! `cargo run -p marea-bench --release --bin experiments -- --json all .`
//! (`BENCH_experiments.json`, `BENCH_fec_loss.json`,
//! `BENCH_trace_overhead.json`, `BENCH_swarm_scale.json`). Any other
//! section, or any other `--` option, is a usage error (exit code 2).

use std::fmt::Write as _;

use marea_bench::*;
use marea_core::json::{Json, Object};
use marea_core::SchedulerKind;

/// One experiment's result: what it measured and the rows it measured.
struct Table {
    /// Section key in the JSON documents, e.g. `c1_event_vs_rpc`.
    id: &'static str,
    title: &'static str,
    anchor: &'static str,
    /// The header: one whitespace-separated name per column, which is
    /// also that column's key in each JSON row.
    columns: &'static str,
    rows: Vec<Vec<Json>>,
}

impl Table {
    /// The rows as a JSON array of `{"column": value}` objects.
    fn json(&self) -> Json {
        let object = |row: &Vec<Json>| {
            Json::Object(Object(
                self.columns.split_whitespace().map(String::from).zip(row.clone()).collect(),
            ))
        };
        Json::Array(self.rows.iter().map(object).collect())
    }

    /// The printed table: a banner, then the columns right-aligned, each
    /// value rendered as in the JSON (strings unquoted).
    fn text(&self) -> String {
        let header: Vec<String> = self.columns.split_whitespace().map(String::from).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                debug_assert_eq!(row.len(), header.len(), "{}: row width", self.id);
                row.iter()
                    .map(|v| match v {
                        Json::Str(s) => s.clone(),
                        v => v.to_string(),
                    })
                    .collect()
            })
            .collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|i| cells.iter().map(|row| row[i].len()).fold(header[i].len(), usize::max))
            .collect();
        let mut out =
            format!("\n== {}: {}\n   paper anchor: {}\n", self.id, self.title, self.anchor);
        for row in std::iter::once(&header).chain(&cells) {
            out.push(' ');
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }
}

/// Runs one experiment and returns its table.
type Experiment = fn() -> Table;

/// A table row of mixed values.
macro_rules! row {
    ($($v:expr),* $(,)?) => { vec![$(Json::from($v)),*] };
}

/// Every experiment in print order, under the id that selects it on the
/// command line.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("f1", f1_discovery),
    ("f2", f2_local_vs_remote),
    ("c1", c1_event_vs_rpc),
    ("c2", c2_fanout),
    ("c3", c3_arq_vs_tcp),
    ("c4", c4_file_distribution),
    ("c5", c5_scheduler),
    ("c5", c5b_qos_contract),
    ("c6", c6_failover),
    ("c7", c7_bypass),
    ("c8", c8_scenario_failover),
    ("c9", c9_fec_loss),
    ("c10", c10_trace_overhead),
    ("c11", c11_swarm_scale),
];

/// One checked-in JSON document.
#[derive(Clone, Copy)]
enum Document {
    Suite,
    Fec,
    Trace,
    Swarm,
}

impl Document {
    const ALL: [Document; 4] = [Document::Suite, Document::Fec, Document::Trace, Document::Swarm];

    fn parse(s: &str) -> Option<Document> {
        match s {
            "suite" => Some(Document::Suite),
            "fec" => Some(Document::Fec),
            "trace" => Some(Document::Trace),
            "swarm" => Some(Document::Swarm),
            _ => None,
        }
    }

    fn file(self) -> &'static str {
        match self {
            Document::Suite => "BENCH_experiments.json",
            Document::Fec => "BENCH_fec_loss.json",
            Document::Trace => "BENCH_trace_overhead.json",
            Document::Swarm => "BENCH_swarm_scale.json",
        }
    }

    /// Whether the document holds the tables of the experiment `id`.
    fn holds(self, id: &str) -> bool {
        match self {
            Document::Suite => !matches!(id, "c9" | "c11"),
            Document::Fec => id == "c9",
            Document::Trace => id == "c10",
            Document::Swarm => id == "c11",
        }
    }

    /// Renders the document from the tables run so far, which include
    /// every table it holds. Only virtual-time quantities appear, so the
    /// bytes are the same on every machine; the wall-clock side of a
    /// claim is the ignored release-mode test named in `wall_clock_gate`.
    fn render(self, tables: &[(&str, Table)]) -> String {
        let mut doc = Object::new();
        match self {
            Document::Trace => {
                let params = Object::new()
                    .field("bg_per_tick", C10_BG_PER_TICK)
                    .field("critical_events", C10_EVENTS)
                    .field("seed", C10_SEED);
                doc = doc.field("params", params);
            }
            Document::Swarm => {
                let params = Object::new()
                    .field("tick_us", SWARM_TICK_US)
                    .field("settle_ms", SWARM_SETTLE_MS)
                    .field("window_ms", SWARM_WINDOW_MS)
                    .field("seed", C11_SEED);
                doc = doc.field("params", params);
            }
            Document::Suite | Document::Fec => {}
        }
        for (_, table) in tables.iter().filter(|(id, _)| self.holds(id)) {
            doc = doc.field(table.id, table.json());
        }
        let gate = match self {
            Document::Trace => {
                "trace_overhead_stays_within_five_percent: \
                 traced wall-clock <= 1.05x untraced, release mode"
            }
            Document::Swarm => {
                "swarm_ticks_per_sec_floor_at_256_nodes: \
                 >= 250k container ticks/sec at 256 nodes, release mode"
            }
            Document::Suite | Document::Fec => return doc.document(),
        };
        doc.field("wall_clock_gate", gate).document()
    }
}

fn main() {
    let mut requests: Vec<(Document, String)> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    let usage = |why: &str| -> ! {
        eprintln!("error: {why}");
        std::process::exit(2);
    };
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => {
                let Some(tok) = raw.next() else { usage("--json needs an output path") };
                let docs = match (tok.as_str(), Document::parse(&tok)) {
                    ("all", _) => Document::ALL.to_vec(),
                    (_, Some(doc)) => vec![doc],
                    (_, None) => usage(&format!(
                        "unknown --json section `{tok}` (expected suite, fec, trace, swarm or all)"
                    )),
                };
                let Some(path) = raw.next() else {
                    usage(&format!("--json {tok} needs an output path"))
                };
                for doc in docs {
                    let to =
                        if tok == "all" { format!("{path}/{}", doc.file()) } else { path.clone() };
                    requests.push((doc, to));
                }
            }
            _ if a.starts_with("--") => usage(&format!("unknown option `{a}`")),
            _ => args.push(a),
        }
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    // Each document covers its full section regardless of which ids
    // were requested, so the checked-in copies never depend on the
    // table selection.
    let mut tables = Vec::new();
    for &(id, run) in EXPERIMENTS {
        if want(id) || requests.iter().any(|(doc, _)| doc.holds(id)) {
            let table = run();
            if want(id) {
                print!("{}", table.text());
            }
            tables.push((id, table));
        }
    }
    for (doc, path) in requests {
        match std::fs::write(&path, doc.render(&tables)) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => usage(&format!("writing {path}: {e}")),
        }
    }
}

fn f1_discovery() -> Table {
    Table {
        id: "f1_discovery",
        title: "fleet discovery time",
        anchor: "Fig. 1 — services distributed over nodes",
        columns: "nodes full_mesh_ms",
        rows: [2u32, 4, 8, 16]
            .iter()
            .map(|&n| row![n, bench_discovery(n, 100 + u64::from(n))])
            .collect(),
    }
}

fn f2_local_vs_remote() -> Table {
    let (local, remote) = bench_local_vs_remote_event(100, 200);
    Table {
        id: "f2_local_vs_remote",
        title: "in-container vs networked delivery",
        anchor: "Fig. 2 — the container communicates services locally or across the LAN",
        columns: "path mean_us max_us",
        rows: [("same container", local), ("across the LAN", remote)]
            .iter()
            .map(|(path, r)| row![*path, Json::Fixed(r.mean_us, 3), r.max_us])
            .collect(),
    }
}

fn c1_event_vs_rpc() -> Table {
    Table {
        id: "c1_event_vs_rpc",
        title: "event one-way latency vs remote-invocation round trip",
        anchor: "§4.3 — \"events seem faster than their function equivalent\"",
        columns: "payload_bytes event_mean_us rpc_mean_us",
        rows: [8usize, 64, 512]
            .iter()
            .map(|&payload| {
                let ev = bench_event_latency(payload, 100, 0.0, 300);
                let rpc = bench_rpc_rtt(payload, 100, 0.0, 300);
                row![payload, Json::Fixed(ev.mean_us, 3), Json::Fixed(rpc.mean_us, 3)]
            })
            .collect(),
    }
}

fn c2_fanout() -> Table {
    Table {
        id: "c2_fanout",
        title: "variable distribution wire cost vs subscriber count",
        anchor: "§4.1 — multicast \"allows optimizing the bandwidth use\"",
        columns: "subscribers multicast_datagrams unicast_datagrams unicast_bytes",
        rows: [1u32, 2, 4, 8, 16, 32]
            .iter()
            .map(|&subs| {
                let m = bench_var_fanout(subs, 100, true, 400);
                let u = bench_var_fanout(subs, 100, false, 400);
                row![subs, m.publisher_datagrams, u.publisher_datagrams, u.publisher_bytes]
            })
            .collect(),
    }
}

fn c3_arq_vs_tcp() -> Table {
    Table {
        id: "c3_arq_vs_tcp",
        title: "sporadic event delivery: middleware ARQ vs generic TCP",
        anchor: "§4.2 — app-layer retransmission \"more efficient ... than the generic case provided by the TCP stack\"",
        columns: "loss arq_mean_us tcp_mean_us arq_max_us tcp_max_us arq_bytes tcp_bytes",
        rows: [0.0, 0.001, 0.01, 0.05, 0.10]
            .iter()
            .map(|&loss| {
                let arq = bench_arq_under_loss(loss, 100, 64, 20_000, 500);
                let tcp = bench_tcp_under_loss(loss, 100, 64, 20_000, 500);
                row![
                    loss,
                    Json::Fixed(arq.latency.mean_us, 3),
                    Json::Fixed(tcp.latency.mean_us, 3),
                    arq.latency.max_us,
                    tcp.latency.max_us,
                    arq.wire_bytes,
                    tcp.wire_bytes,
                ]
            })
            .collect(),
    }
}

fn c4_file_distribution() -> Table {
    let runs = [
        (64 * 1024usize, 4u32, 0.0),
        (64 * 1024, 16, 0.0),
        (1024 * 1024, 4, 0.0),
        (1024 * 1024, 16, 0.0),
        (1024 * 1024, 8, 0.02),
        (4 * 1024 * 1024, 8, 0.0),
    ];
    Table {
        id: "c4_file_distribution",
        title: "file distribution: multicast MFTP vs unicast-equivalent",
        anchor: "§4.4 — \"huge performance benefits\" of the dedicated primitive",
        columns:
            "size_bytes subscribers loss multicast_bytes unicast_bytes multicast_completion_ms",
        rows: runs
            .iter()
            .map(|&(size, subs, loss)| {
                let m = bench_file_multicast(size, subs, loss, 600);
                let u = bench_file_unicast_equivalent(size, subs, loss, 600);
                row![size, subs, loss, m.publisher_bytes, u.publisher_bytes, m.completion_ms]
            })
            .collect(),
    }
}

fn c5_scheduler() -> Table {
    Table {
        id: "c5_scheduler",
        title: "event handler latency under load: priority vs FIFO scheduler",
        anchor: "§6 — \"a simple thread pool with fixed priorities for each named primitive\"",
        columns: "background_per_tick priority_mean_us fifo_mean_us priority_max_us fifo_max_us",
        rows: [0u32, 50, 150, 400]
            .iter()
            .map(|&bg| {
                let p = bench_scheduler_latency(SchedulerKind::Priority, bg, 50, 700);
                let f = bench_scheduler_latency(SchedulerKind::Fifo, bg, 50, 700);
                row![bg, Json::Fixed(p.mean_us, 3), Json::Fixed(f.mean_us, 3), p.max_us, f.max_us]
            })
            .collect(),
    }
}

fn c5b_qos_contract() -> Table {
    let mut rows = Vec::new();
    for bulk in [150u32, 400, 800] {
        for contract in [false, true] {
            let r = bench_qos_priority(contract, bulk, 50, 700);
            rows.push(row![
                bulk,
                contract,
                Json::Fixed(r.critical.mean_us, 3),
                r.critical.max_us,
                r.bulk_delivered,
                r.queue_drops,
            ]);
        }
    }
    Table {
        id: "c5b_qos_contract",
        title: "per-subscription QoS contract (EventQos::bulk + bounded inbox)",
        anchor: "§6 — \"a simple thread pool with fixed priorities for each named primitive\"",
        columns:
            "bulk_per_tick contract critical_mean_us critical_max_us bulk_delivered queue_drops",
        rows,
    }
}

fn c6_failover() -> Table {
    Table {
        id: "c6_failover",
        title: "provider failover",
        anchor: "§4.3 — \"redirect requests to the redundant service ... continue its mission\"",
        columns: "seed blackout_ms app_errors failovers",
        rows: [800u64, 801, 802]
            .iter()
            .map(|&seed| {
                let r = bench_failover(seed);
                row![seed, r.blackout_ms, r.errors, r.failovers]
            })
            .collect(),
    }
}

fn c7_bypass() -> Table {
    Table {
        id: "c7_bypass",
        title: "same-node file bypass",
        anchor:
            "§4.4 — \"the transfer is bypassed by the container as direct access to the resource\"",
        columns: "size_bytes bypass_deliveries control_wire_bytes",
        rows: [64 * 1024usize, 1024 * 1024, 8 * 1024 * 1024]
            .iter()
            .map(|&size| {
                let (deliveries, wire) = bench_file_bypass(size, 900);
                row![size, deliveries, wire]
            })
            .collect(),
    }
}

fn c8_scenario_failover() -> Table {
    Table {
        id: "c8_scenario_failover",
        title: "chaos scenario: publisher failover recovery time",
        anchor: "§4.3 — crash detection + transparent failover, measured by the RTO invariant",
        columns: "seed recovery_ms violations calls_ok faults_applied",
        rows: [810u64, 811, 812]
            .iter()
            .map(|&seed| {
                let r = bench_scenario_failover(seed);
                row![seed, r.recovery_ms, r.violations, r.calls_ok, r.events_applied]
            })
            .collect(),
    }
}

/// C9 parameters: bulk mode (back-to-back sends), so goodput, not the
/// send interval, is what the sweep measures.
const C9_N: u32 = 200;
const C9_MSG_LEN: usize = 64;
const C9_SEED: u64 = 9;

fn c9_fec_loss() -> Table {
    Table {
        id: "c9_fec_loss",
        title: "bulk goodput under radio loss: plain ARQ vs ARQ+FEC vs TCP",
        anchor:
            "§4.2 — repair data reconstructs erased frames without paying the retransmission RTT",
        columns: "loss_permille payload_bytes arq_goodput_bps arq_fec_goodput_bps tcp_goodput_bps \
                  arq_completion_us arq_fec_completion_us arq_wire_bytes arq_fec_wire_bytes \
                  arq_retransmissions arq_fec_retransmissions",
        rows: bench_fec_loss_sweep(C9_N, C9_MSG_LEN, C9_SEED)
            .iter()
            .map(|r| {
                row![
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
                ]
            })
            .collect(),
    }
}

/// C10 parameters: the same worst-case flood the wall-clock gate in
/// `marea_bench::tests::trace_overhead_stays_within_five_percent` times
/// (every sample is tiny, so tracing cost has nowhere to hide).
const C10_BG_PER_TICK: u32 = 800;
const C10_EVENTS: u32 = 100;
const C10_SEED: u64 = 710;

fn c10_trace_overhead() -> Table {
    Table {
        id: "c10_trace_overhead",
        title: "flight-recorder overhead: traced vs untraced worst-case flood",
        anchor: "DESIGN.md §8 — the recorder must be cheap enough to leave on in flight",
        columns: "traced vars_delivered critical_events critical_mean_us critical_max_us \
                  trace_events histogram_count wire_bytes",
        rows: [true, false]
            .iter()
            .map(|&traced| {
                let r = bench_trace_overhead_run(traced, C10_BG_PER_TICK, C10_EVENTS, C10_SEED);
                row![
                    traced,
                    r.vars_delivered,
                    r.critical.count,
                    Json::Fixed(r.critical.mean_us, 1),
                    r.critical.max_us,
                    r.trace_events,
                    r.histogram_count,
                    r.wire_bytes,
                ]
            })
            .collect(),
    }
}

const C11_SEED: u64 = 1_100;

fn c11_swarm_scale() -> Table {
    Table {
        id: "c11_swarm_scale",
        title: "swarm scale: sim-core wire cost vs fleet size",
        anchor: "DESIGN.md §10 — due-date scheduling + digest gossip keep the control plane subquadratic per period",
        columns: "nodes ticks virtual_ms beacons_delivered datagrams wire_bytes full_mesh",
        rows: bench_swarm_scale(C11_SEED)
            .iter()
            .map(|r| {
                row![
                    r.nodes,
                    r.ticks,
                    r.virtual_ms,
                    r.beacons_delivered,
                    r.datagrams,
                    r.wire_bytes,
                    r.full_mesh,
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_header_names_every_key_of_the_json_rows() {
        let table = f2_local_vs_remote();
        let text = table.text();
        let header: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("paper anchor"))
            .nth(1)
            .expect("header line")
            .split_whitespace()
            .collect();
        let Json::Array(rows) = table.json() else { panic!("rows render as an array") };
        assert_eq!(rows.len(), 2);
        for row in rows {
            let Json::Object(row) = row else { panic!("each row renders as an object") };
            let keys: Vec<&str> = row.0.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, header);
        }
    }
}
