//! `perfbench`: the repository benchmark. One invocation runs one
//! workload for a given time with a given seed and prints, as its last
//! line, one JSON object with the correctness verdict, the attempted and
//! failed operation counts, and the metrics:
//!
//! ```text
//! perfbench --workload stream|sync|durable|verify --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced iterations, reports the per-layer metrics from
//! the traced ones plus the tracing overhead, and writes the spans to
//! `.perfbench/spans/`. `--smoke` shrinks every program to its smallest
//! size and `--inject final-value|accept-all|pending` plants a wrong output;
//! both exist for the self-test (`selftest.py`). Run it from the
//! repository root through `run.py`, which builds it first.

mod layers;
mod prog;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Inject, Iter, Opts, Workload};

/// Iterations a run makes at least, however short `--seconds` is:
/// enough for a median and for ten samples beyond every p99.
const MIN_ITERS: usize = 3;

struct Args {
    opts: Opts,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut inject, mut smoke) = (None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {v}"))?),
            "--seconds" => {
                let s = v.parse::<f64>().map_err(|_| format!("bad seconds {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--inject" => {
                inject = Some(match v.as_str() {
                    "final-value" => Inject::FinalValue,
                    "accept-all" => Inject::AcceptAll,
                    "pending" => Inject::Pending,
                    _ => return Err(format!("unknown injection {v}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        opts: Opts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            sizes: if smoke { workloads::SMOKE } else { workloads::FULL },
            inject,
            tmp: PathBuf::from(".perfbench/tmp"),
        },
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// Nearest-rank percentile of sorted `v`.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    v.sort_by(f64::total_cmp);
    pct(&v, 0.5)
}

/// Samples per window of the p99 estimate: ten of them beyond it.
const WINDOW: usize = 1000;

/// Latency percentiles in µs over a run's samples (iteration order):
/// the p50 of all of them, and the p99 as the median of the p99s of
/// consecutive `WINDOW`-sample windows, so a burst of host noise moves
/// one window rather than the figure. A short tail joins the last
/// window.
fn latency_us(iters: &[&Iter], f: impl Fn(&Iter) -> &Vec<u64>) -> (f64, f64, usize) {
    let all: Vec<f64> =
        iters.iter().flat_map(|it| f(it).iter().map(|&ns| ns as f64 / 1e3)).collect();
    let windows = (all.len() / WINDOW).max(1);
    let p99s = (0..windows).map(|w| {
        let end = if w + 1 == windows { all.len() } else { (w + 1) * WINDOW };
        let mut v = all[w * WINDOW..end].to_vec();
        v.sort_by(f64::total_cmp);
        pct(&v, 0.99)
    });
    let p99 = median(p99s);
    (median(all.iter().copied()), p99, all.len())
}

/// One reported metric; `samples` is the count behind a percentile or
/// median.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn m(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name, unit, value, samples }
}

fn end_to_end(iters: &[&Iter]) -> Vec<Metric> {
    let n = iters.len();
    let hs = latency_us(iters, |i| &i.handshake_ns);
    let lock = latency_us(iters, |i| &i.lock_ns);
    let bar = latency_us(iters, |i| &i.barrier_ns);
    let setups: Vec<f64> = iters.iter().flat_map(|i| i.setup_s.iter().copied()).collect();
    vec![
        m("ops_per_s", "1/s", median(iters.iter().map(|i| i.ops_per_s)), n),
        m("setup_s", "s", median(setups.iter().copied()), setups.len()),
        m("handshake_rtt_p50_us", "us", hs.0, hs.2),
        m("handshake_rtt_p99_us", "us", hs.1, hs.2),
        m("lock_p50_us", "us", lock.0, lock.2),
        m("lock_p99_us", "us", lock.1, lock.2),
        m("barrier_p50_us", "us", bar.0, bar.2),
        m("barrier_p99_us", "us", bar.1, bar.2),
        m("explore_s", "s", median(iters.iter().map(|i| i.explore_s)), n),
        // The fastest iteration: on the development host the checker's
        // time per iteration flips between two levels about 1.7x apart
        // that each last around a second, so a run's median followed
        // the mix of the two while the fastest iteration held still.
        m("check_s", "s", iters.iter().map(|i| i.check_s).fold(f64::INFINITY, f64::min), n),
    ]
}

fn span_pct(
    aggs: &BTreeMap<&'static str, spans::Agg>,
    name: &str,
    q: f64,
    scale: f64,
) -> (f64, usize) {
    match aggs.get(name) {
        Some(a) => {
            let mut v: Vec<f64> = a.durs.iter().map(|&d| d as f64 / scale).collect();
            v.sort_by(f64::total_cmp);
            (pct(&v, q), a.count as usize)
        }
        None => (f64::NAN, 0),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `wal` holds the iterations whose WAL counters and reboot time are
/// reported: the traced ones on `durable`, its probe elsewhere.
fn per_layer(
    traced: &[&Iter],
    untraced: &[&Iter],
    wal: &[&Iter],
    aggs: &BTreeMap<&'static str, spans::Agg>,
    micro: Vec<layers::Row>,
) -> Vec<Metric> {
    let n = traced.len();
    let sum = |f: &dyn Fn(&Iter) -> f64| traced.iter().map(|i| f(i)).sum::<f64>();
    let calls = sum(&|i| i.calls as f64);
    let mut out = Vec::new();
    for (name, span, q, scale, unit) in [
        ("live.write_ns_p50", "live.write", 0.50, 1.0, "ns"),
        ("live.read_pram_ns_p50", "live.read_pram", 0.50, 1.0, "ns"),
        ("live.read_causal_ns_p50", "live.read_causal", 0.50, 1.0, "ns"),
        ("live.read_causal_ns_p99", "live.read_causal", 0.99, 1.0, "ns"),
        ("live.await_us_p50", "live.await", 0.50, 1e3, "us"),
        ("live.unlock_us_p50", "live.unlock", 0.50, 1e3, "us"),
        ("live.add_ns_p50", "live.add", 0.50, 1.0, "ns"),
    ] {
        let (v, k) = span_pct(aggs, span, q, scale);
        out.push(m(name, unit, v, k));
    }
    out.push(m("live.msgs_per_op", "msg/op", ratio(sum(&|i| i.msgs as f64), calls), n));
    out.push(m("live.bytes_per_op", "B/op", ratio(sum(&|i| i.bytes as f64), calls), n));
    out.push(m("live.dropped_sends", "count", sum(&|i| i.dropped_sends as f64), n));
    out.push(m("live.lost", "count", sum(&|i| i.lost as f64), n));
    out.push(m("replica.pending_at_end", "count", sum(&|i| i.pending_at_end as f64), n));
    let (wn, wal_calls) = (wal.len(), wal.iter().map(|i| i.calls as f64).sum::<f64>());
    let wsum = |f: &dyn Fn(&mc_sim::DurabilityStats) -> u64| {
        wal.iter().map(|i| f(&i.wal) as f64).sum::<f64>()
    };
    out.push(m("wal.fsyncs_per_op", "1/op", ratio(wsum(&|w| w.fsyncs), wal_calls), wn));
    out.push(m(
        "wal.records_per_fsync",
        "count",
        ratio(wsum(&|w| w.synced), wsum(&|w| w.fsyncs)),
        wn,
    ));
    out.push(m("wal.snapshots_per_op", "1/op", ratio(wsum(&|w| w.snapshots), wal_calls), wn));
    out.push(m("wal.replayed", "count", wsum(&|w| w.replayed), wn));
    let recover: Vec<f64> = wal.iter().filter_map(|i| i.recover_ms).collect();
    out.push(m("wal.recover_ms", "ms", median(recover.iter().copied()), recover.len()));
    out.push(m(
        "sim.ns_per_delivered_msg",
        "ns",
        median(traced.iter().map(|i| i.sim_ns_per_msg)),
        n,
    ));
    let ex = traced[0].explore;
    let per_phase_ms =
        |name: &str| aggs.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6 / n as f64);
    let set_self_ns = aggs.get("explore.set").map_or(0, |a| a.self_ns) as f64;
    out.push(m("explore.runs", "count", ex.runs as f64, 1));
    out.push(m("explore.pruned", "count", ex.pruned as f64, 1));
    out.push(m("explore.outcomes", "count", ex.outcomes as f64, 1));
    out.push(m("explore.outcomes_per_run", "1/run", ratio(ex.outcomes as f64, ex.runs as f64), 1));
    out.push(m("explore.make_ms", "ms", per_phase_ms("explore.make"), n));
    out.push(m("explore.verify_ms", "ms", per_phase_ms("explore.verify"), n));
    out.push(m("explore.us_per_run", "us", set_self_ns / 1e3 / (ex.runs * n).max(1) as f64, n));
    out.push(m(
        "model.check_ops_per_s",
        "1/s",
        median(traced.iter().map(|i| i.check_ops as f64 / i.check_s)),
        n,
    ));
    let micro: BTreeMap<&'static str, f64> = micro.into_iter().collect();
    for (name, unit) in MICRO_UNITS {
        out.push(m(name, unit, micro.get(name).copied().unwrap_or(f64::NAN), 1));
    }
    let med = |v: &[&Iter], f: fn(&Iter) -> f64| median(v.iter().map(|i| f(i)));
    let pct_over = |slow: f64, fast: f64| (slow / fast - 1.0) * 100.0;
    out.push(m(
        "trace.overhead_ops_pct",
        "%",
        pct_over(med(untraced, |i| i.ops_per_s), med(traced, |i| i.ops_per_s)),
        n,
    ));
    out.push(m(
        "trace.overhead_explore_pct",
        "%",
        pct_over(med(traced, |i| i.explore_s), med(untraced, |i| i.explore_s)),
        n,
    ));
    out.push(m(
        "trace.overhead_check_pct",
        "%",
        pct_over(med(traced, |i| i.check_s), med(untraced, |i| i.check_s)),
        n,
    ));
    out
}

/// The micro-measured rows, in report order.
const MICRO_UNITS: [(&str, &str); 21] = [
    ("live.batch_writes", "count"),
    ("live.frames_in_flight", "count"),
    ("net.frame_rtt_us_p50", "us"),
    ("net.frame_rtt_us_p99", "us"),
    ("net.batch_frames_per_s", "1/s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_frame", "B"),
    ("wire.grant_encode_ns", "ns"),
    ("wire.grant_decode_ns", "ns"),
    ("session.wrap_ns", "ns"),
    ("session.on_data_ns", "ns"),
    ("session.on_ack_ns", "ns"),
    ("replica.local_write_ns", "ns"),
    ("replica.ingest_batch_ns_per_entry", "ns"),
    ("replica.causal_ready_ns", "ns"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.snapshot_install_us", "us"),
    ("manager.lock_cycle_ns", "ns"),
    ("manager.barrier_arrive_ns", "ns"),
];

fn micro_rows(
    tmp: &Path,
    traffic: Option<workloads::Traffic>,
    seed: u64,
    problems: &mut Vec<String>,
) -> Vec<layers::Row> {
    let mut rows = Vec::new();
    if let Some(t) = &traffic {
        rows.extend(layers::wire(t, seed));
        rows.extend(layers::session(t, seed));
        rows.extend(layers::replica(t));
    }
    rows.extend(layers::manager());
    match layers::wal(tmp) {
        Ok(r) => rows.extend(r),
        Err(e) => problems.push(format!("wal micro-measurement failed: {e}")),
    }
    if let Some(t) = &traffic {
        rows.extend(layers::net(t, seed));
        rows.push(("live.batch_writes", t.batch_writes));
        rows.push(("live.frames_in_flight", t.in_flight));
    }
    rows
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    if let Err(e) = std::fs::create_dir_all(&o.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", o.tmp.display());
        return ExitCode::from(2);
    }
    let start = Instant::now();
    let min_iters = if args.smoke { 1 } else { MIN_ITERS };
    let mut problems = Vec::new();
    let mut iters: Vec<(bool, Iter)> = Vec::new();
    let mut aggs = BTreeMap::new();
    let mut last_spans = Vec::new();
    let mut i = 0u64;
    // Trace mode alternates untraced and traced iterations on the same
    // inputs, so the overhead compares like with like.
    loop {
        let traced = args.trace && i % 2 == 1;
        spans::set_enabled(traced);
        let seed_index = if args.trace { i / 2 } else { i };
        let it = workloads::iterate(o, seed_index, traced, &mut problems);
        iters.push((traced, it));
        if traced {
            last_spans = spans::take();
            spans::aggregate(&mut aggs, &last_spans);
        }
        i += 1;
        let done = |want: bool| iters.iter().filter(|(t, _)| *t == want).count() >= min_iters;
        let enough = done(false) && (!args.trace || done(true));
        if enough && (start.elapsed().as_secs_f64() >= args.seconds || args.smoke) {
            break;
        }
    }
    // The traced run's extra measurements: stream's traffic for the
    // micro-rows, and a `durable` iteration for the WAL rows where the
    // workload has none.
    let traffic = args.trace.then(|| workloads::traffic_probe(o, &mut problems));
    let probe = (args.trace && o.workload != Workload::Durable)
        .then(|| workloads::durable_probe(o, &mut problems));
    let untraced: Vec<&Iter> = iters.iter().filter(|(t, _)| !t).map(|(_, it)| it).collect();
    let traced: Vec<&Iter> = iters.iter().filter(|(t, _)| *t).map(|(_, it)| it).collect();
    let metrics = if args.trace {
        spans::set_enabled(true);
        let shape = traffic.as_ref().and_then(|(_, t)| *t);
        let micro = micro_rows(&o.tmp, shape, o.seed, &mut problems);
        spans::set_enabled(false);
        let wal: Vec<&Iter> = match &probe {
            Some(p) => vec![p],
            None => traced.clone(),
        };
        let micro_spans = spans::take();
        spans::aggregate(&mut aggs, &micro_spans);
        last_spans.extend(micro_spans);
        // The last traced iteration and the micro-measurements.
        let dir = Path::new(".perfbench/spans");
        let file = dir.join(format!("{}-{}.tsv", o.workload.name(), o.seed));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| spans::write_tsv(&file, &last_spans, 200_000))
        {
            eprintln!("perfbench: spans not written: {e}");
        }
        per_layer(&traced, &untraced, &wal, &aggs, micro)
    } else {
        end_to_end(&untraced)
    };
    let _ = std::fs::remove_dir_all(&o.tmp);

    for mt in &metrics {
        if !mt.value.is_finite() {
            problems.push(format!("{} was not measured", mt.name));
        }
    }
    let all = || {
        let probes = traffic.iter().map(|(it, _)| it).chain(&probe);
        iters.iter().map(|(_, it)| it).chain(probes)
    };
    let attempted: u64 = all().map(|it| it.attempted).sum();
    let failed: u64 = all().map(|it| it.failed).sum();
    let correct = problems.is_empty() && failed == 0 && attempted > 0;

    // A human-readable table on stderr, then the report line with sample
    // counts, then the result line.
    for mt in &metrics {
        eprintln!("{:<36} {:>16.4} {:<7} (n={})", mt.name, mt.value, mt.unit, mt.samples);
    }
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"iterations\": {}, \"elapsed_s\": {}, \"samples\": {{",
        json_str(o.workload.name()),
        o.seed,
        args.seconds,
        u8::from(args.trace),
        iters.len(),
        start.elapsed().as_secs_f64()
    );
    let samples: Vec<String> =
        metrics.iter().map(|mt| format!("{}: {}", json_str(mt.name), mt.samples)).collect();
    report.push_str(&samples.join(", "));
    report.push_str("}, \"per_iteration\": {");
    let series = |name: &str, f: &dyn Fn(&Iter) -> f64| {
        let v: Vec<String> = untraced.iter().map(|i| f(i).to_string()).collect();
        format!("{}: [{}]", json_str(name), v.join(", "))
    };
    let series = [
        series("setup_s", &|i| median(i.setup_s.iter().copied())),
        series("ops_per_s", &|i| i.ops_per_s),
        series("explore_s", &|i| i.explore_s),
        series("check_s", &|i| i.check_s),
    ];
    report.push_str(&series.join(", "));
    report.push_str("}, \"problems\": [");
    let probs: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    report.push_str(&probs.join(", "));
    report.push_str("]}}");
    println!("{report}");

    let values: Vec<String> = metrics
        .iter()
        .map(|mt| {
            let v = if mt.value.is_finite() { mt.value } else { 0.0 };
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(mt.name), json_str(mt.unit))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        values.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
