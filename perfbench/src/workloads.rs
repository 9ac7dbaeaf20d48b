//! The four workloads. Every iteration of every workload runs three
//! phases on its own program: execute it (TCP cluster, threaded
//! executor, or — for `verify` — the simulator run that records the
//! history to check), check a recorded history with `check_model`, and
//! exhaust a DPOR exploration of a litmus set.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use mc_live::{LiveCtx, LiveError, LiveOutcome, LiveSystem};
use mc_model::{
    litmus, trace, History, Loc, LockId, LockMode, ModelAssignment, ModelSpec, ProcId, ReadLabel,
};
use mc_net::NetSystem;
use mc_proto::{BatchPolicy, DurabilityPolicy, Mode};
use mc_sim::DurabilityStats;
use mixed_consistency::explore::{explore_with, ExploreOptions};
use mixed_consistency::{BarrierId, Ctx, Outcome, ProgSpec, SpecOp, System};

use crate::prog::{key, sync_expected, Proc, Program, Report, StreamShape, SyncShape, RANGE};
use crate::spans::span;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Stream,
    Sync,
    Durable,
    Verify,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::Stream, Workload::Sync, Workload::Durable, Workload::Verify];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Sync => "sync",
            Workload::Durable => "durable",
            Workload::Verify => "verify",
        }
    }
}

/// A deliberately wrong output, for the benchmark's self-test: the run
/// must notice it and fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// One replica's final value of one key is misreported.
    FinalValue,
    /// The checker verdict is replaced by "accepted" for every history.
    AcceptAll,
    /// One peer write is reported as received but never applied.
    Pending,
}

/// Program sizes for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    stream: StreamShape,
    sync: SyncShape,
    durable: StreamShape,
    verify: SyncShape,
    /// The small programs the runtime workloads record and check.
    check_stream: StreamShape,
    check_sync: SyncShape,
}

pub const FULL: Sizes = Sizes {
    stream: StreamShape { nprocs: 2, writes: 300_000, tail_rounds: 300 },
    sync: SyncShape { nprocs: 2, rounds: 1_000, barrier_every: 4 },
    durable: StreamShape { nprocs: 2, writes: 3_000, tail_rounds: 150 },
    verify: SyncShape { nprocs: 3, rounds: 360, barrier_every: 1 },
    check_stream: StreamShape { nprocs: 2, writes: 300, tail_rounds: 20 },
    check_sync: SyncShape { nprocs: 2, rounds: 100, barrier_every: 4 },
};

/// The smallest sizes, for the self-test.
pub const SMOKE: Sizes = Sizes {
    stream: StreamShape { nprocs: 2, writes: 2_000, tail_rounds: 10 },
    sync: SyncShape { nprocs: 2, rounds: 40, barrier_every: 4 },
    durable: StreamShape { nprocs: 2, writes: 200, tail_rounds: 10 },
    verify: SyncShape { nprocs: 3, rounds: 30, barrier_every: 1 },
    check_stream: StreamShape { nprocs: 2, writes: 40, tail_rounds: 4 },
    check_sync: SyncShape { nprocs: 2, rounds: 10, barrier_every: 4 },
};

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub inject: Option<Inject>,
    /// Scratch space inside the checkout (WAL directories).
    pub tmp: PathBuf,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreTally {
    pub runs: usize,
    pub pruned: usize,
    pub outcomes: usize,
}

/// One iteration's measurements.
#[derive(Debug, Default)]
pub struct Iter {
    /// Set-up samples: the iteration's own run plus its probes.
    pub setup_s: Vec<f64>,
    pub ops_per_s: f64,
    pub check_s: f64,
    pub explore_s: f64,
    pub handshake_ns: Vec<u64>,
    pub lock_ns: Vec<u64>,
    pub barrier_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub msgs: u64,
    pub bytes: u64,
    /// Calls of the whole executed program (the base of per-op ratios).
    pub calls: u64,
    pub dropped_sends: u64,
    pub lost: u64,
    pub pending_at_end: u64,
    pub wal: DurabilityStats,
    pub recover_ms: Option<f64>,
    pub sim_ns_per_msg: f64,
    pub check_ops: usize,
    pub explore: ExploreTally,
}

fn iter_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs iteration `i`; correctness failures land in `problems`. A
/// `traced` iteration of `verify` also replays its program on the
/// threaded executor, so the `live` layer has figures there too.
pub fn iterate(o: &Opts, i: u64, traced: bool, problems: &mut Vec<String>) -> Iter {
    let s = iter_seed(o.seed, i);
    let mut it = Iter::default();
    let histories = match o.workload {
        Workload::Stream => {
            let shape = o.sizes.stream;
            let sys = cluster(o.workload, &o.tmp, s);
            if let Some((reps, out)) =
                execute(&mut it, sys, Program::Stream(shape), s, o.inject, problems)
            {
                check_stream(&out, shape, s, o.inject, problems);
                check_sync_readback(&reps, shape.nprocs, shape.tail_rounds, s, problems);
            }
            record_runtime(&mut it, o, s, problems)
        }
        Workload::Sync => {
            let shape = o.sizes.sync;
            let sys = cluster(o.workload, &o.tmp, s);
            if let Some((reps, _)) =
                execute(&mut it, sys, Program::Sync(shape), s, o.inject, problems)
            {
                check_sync_readback(&reps, shape.nprocs, shape.rounds, s, problems);
            }
            record_runtime(&mut it, o, s, problems)
        }
        Workload::Durable => {
            durable_iter(&mut it, o, s, problems);
            record_runtime(&mut it, o, s, problems)
        }
        Workload::Verify => {
            let history = verify_setup(&mut it, o, s, problems);
            if traced {
                live_replay(&mut it, o, s, problems);
            }
            history.into_iter().collect()
        }
    };
    if o.workload != Workload::Verify {
        setup_probes(&mut it, o, s, problems);
    }
    let t = Instant::now();
    for h in &histories {
        let _s = span("model.check", 0);
        if let Err(e) = judge(h, &ModelAssignment::mixed(h.nprocs()), o.inject) {
            problems.push(format!("check_model rejected the recorded history: {e}"));
        }
        it.check_ops += h.len();
    }
    it.check_s = t.elapsed().as_secs_f64();
    match histories.first() {
        Some(h) if i == 0 => negative_checks(h, s, o.inject, problems),
        _ => {}
    }
    explore_phase(&mut it, o.workload, problems);
    it
}

// ------------------------------------------------------------ executors

/// The two real executors behind one spawn/run surface.
enum Sys {
    Net(NetSystem),
    Live(LiveSystem),
}

impl Sys {
    fn spawn(&mut self, f: impl FnOnce(&mut LiveCtx) + Send + 'static) {
        match self {
            Sys::Net(s) => {
                s.spawn(f);
            }
            Sys::Live(s) => {
                s.spawn(f);
            }
        }
    }

    fn run(self) -> Result<LiveOutcome, LiveError> {
        match self {
            Sys::Net(s) => s.run(),
            Sys::Live(s) => s.run(),
        }
    }
}

/// The workload's cluster: processes 0 and 1 plus the manager. `durable`
/// keeps its WAL under `tmp`, in a directory named by `tag`.
fn cluster(workload: Workload, tmp: &Path, tag: u64) -> Sys {
    let batching = Some(BatchPolicy::default());
    match workload {
        Workload::Stream => {
            Sys::Net(NetSystem::new(2, Mode::Mixed).batching(batching).reliable(true))
        }
        Workload::Sync => Sys::Net(NetSystem::new(2, Mode::Mixed).batching(batching)),
        _ => Sys::Live(
            LiveSystem::new(2, Mode::Mixed)
                .batching(batching)
                .durability(DurabilityPolicy::default().with_group_commit(true), wal_dir(tmp, tag)),
        ),
    }
}

fn wal_dir(tmp: &Path, tag: u64) -> PathBuf {
    tmp.join(format!("wal-{}-{tag:x}", std::process::id()))
}

/// Set-up probes per iteration: the cluster brought up to its opening
/// barrier and shut down again, so the set-up median rests on several
/// samples per iteration.
const SETUP_PROBES: u64 = 4;

fn setup_probes(it: &mut Iter, o: &Opts, s: u64, problems: &mut Vec<String>) {
    for k in 0..SETUP_PROBES {
        let tag = s.wrapping_add(k + 1);
        let mut probe = Iter::default();
        let sys = cluster(o.workload, &o.tmp, tag);
        execute(&mut probe, sys, Program::Open(2), s, o.inject, problems);
        let _ = std::fs::remove_dir_all(wal_dir(&o.tmp, tag));
        it.setup_s.extend(probe.setup_s);
        it.attempted += probe.attempted;
        it.failed += probe.failed;
    }
}

/// Runs `prog` on every process of `sys` and folds the run into `it`:
/// set-up time, the throughput window, latency samples, counters, and
/// the attempted/failed tally (an error fails every call that did not
/// complete).
fn execute(
    it: &mut Iter,
    mut sys: Sys,
    prog: Program,
    seed: u64,
    inject: Option<Inject>,
    problems: &mut Vec<String>,
) -> Option<(Vec<Report>, LiveOutcome)> {
    let nprocs = prog.nprocs();
    let planned = prog.planned(seed);
    let done = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    for me in 0..nprocs {
        let (done, tx) = (done.clone(), tx.clone());
        sys.spawn(move |ctx| {
            let mut p = Proc::new(ctx, me, true, done);
            prog.run(&mut p, seed);
            let rep = std::mem::take(&mut p.rep);
            drop(p);
            crate::spans::flush();
            let _ = tx.send(rep);
        });
    }
    drop(tx);
    let t0 = Instant::now();
    let result = sys.run();
    let completed = done.load(Ordering::SeqCst);
    it.attempted += planned;
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            it.failed += planned.saturating_sub(completed);
            problems.push(format!("run failed: {e}"));
            return None;
        }
    };
    if completed != planned {
        it.failed += planned.abs_diff(completed);
        problems.push(format!("{completed} calls completed of {planned} planned"));
    }
    let mut reps: Vec<Report> = rx.try_iter().collect();
    reps.sort_by_key(|r| r.me);
    fold_reports(it, t0, &reps);
    it.calls += completed;
    it.msgs += out.messages;
    it.bytes += out.bytes;
    it.dropped_sends += out.dropped_sends;
    it.lost += out.lost;
    // A received update still buffered at the end was never applied,
    // unless the applied clock already covers it: a rebooted replica is
    // re-sent copies of batches it had applied, and it drops such
    // copies only on its next ingest, so a reboot ends with a few of
    // them buffered. `pending_at_end` counts every buffered entry; a
    // peer write the applied clock misses is an error.
    let (mut pending, mut unapplied) = (0, 0);
    for q in 0..nprocs {
        pending += out.replica(ProcId(q)).pending_len() as u64;
        for p in (0..nprocs).filter(|&p| p != q) {
            let wrote = out.replica(ProcId(p)).own_count();
            unapplied += u64::from(wrote.saturating_sub(out.applied(ProcId(q)).get(ProcId(p))));
        }
    }
    if inject == Some(Inject::Pending) {
        pending += 1;
        unapplied += 1;
    }
    it.pending_at_end += pending;
    if out.dropped_sends != 0 || out.lost != 0 {
        problems.push(format!(
            "{} dropped sends and {} lost messages on a loss-free run",
            out.dropped_sends, out.lost
        ));
    }
    if unapplied != 0 {
        problems.push(format!(
            "{unapplied} peer writes never applied ({pending} received updates still buffered)"
        ));
    }
    Some((reps, out))
}

/// Set-up ends when the last process passes the opening barrier; the
/// window runs from the first opening-barrier exit to the last closing
/// one.
fn fold_reports(it: &mut Iter, t0: Instant, reps: &[Report]) {
    let opened: Vec<Instant> = reps.iter().filter_map(|r| r.opened).collect();
    let closed: Vec<Instant> = reps.iter().filter_map(|r| r.closed).collect();
    if let (Some(last_open), Some(first_open), Some(last_close)) =
        (opened.iter().max(), opened.iter().min(), closed.iter().max())
    {
        it.setup_s.push((*last_open - t0).as_secs_f64());
        let window = (*last_close - *first_open).as_secs_f64();
        let calls: u64 = reps.iter().map(|r| r.window_calls).sum();
        it.ops_per_s = calls as f64 / window;
    }
    for r in reps {
        it.handshake_ns.extend(&r.handshake_ns);
        it.lock_ns.extend(&r.lock_ns);
        it.barrier_ns.extend(&r.barrier_ns);
    }
}

/// Runs `prog` on the simulator; returns the outcome, the reports, when
/// `System::run` was called and its wall time.
fn simulate(
    mut sys: System,
    prog: Program,
    seed: u64,
) -> (Result<Outcome, String>, Vec<Report>, Instant, f64) {
    let (tx, rx) = mpsc::channel();
    for me in 0..prog.nprocs() {
        let tx = tx.clone();
        let done = Arc::new(AtomicU64::new(0));
        sys.spawn(move |ctx: &mut Ctx<'_>| {
            let mut p = Proc::new(ctx, me, false, done);
            prog.run(&mut p, seed);
            let rep = std::mem::take(&mut p.rep);
            drop(p);
            crate::spans::flush();
            let _ = tx.send(rep);
        });
    }
    drop(tx);
    let t0 = Instant::now();
    let out = sys.run().map_err(|e| e.to_string());
    let wall = t0.elapsed().as_secs_f64();
    let mut reps: Vec<Report> = rx.try_iter().collect();
    reps.sort_by_key(|r| r.me);
    (out, reps, t0, wall)
}

// ------------------------------------------------------------ stream / sync

fn check_stream(
    out: &LiveOutcome,
    shape: StreamShape,
    seed: u64,
    inject: Option<Inject>,
    problems: &mut Vec<String>,
) {
    let mut expected: HashMap<Loc, i64> = HashMap::new();
    for me in 0..shape.nprocs {
        let sh = Program::Stream(shape).shadow(me, seed);
        for k in 0..RANGE {
            let loc = key(me, k);
            expected.insert(loc, sh.store.get(&loc).copied().unwrap_or(0));
        }
    }
    let mut wrong = 0;
    for q in 0..shape.nprocs {
        for (&loc, &want) in &expected {
            let mut got = out.final_value(ProcId(q), loc).expect_i64();
            if inject == Some(Inject::FinalValue) && q == 0 && loc == key(0, 0) {
                got += 1;
            }
            if got != want {
                wrong += 1;
                if wrong <= 3 {
                    problems.push(format!("replica {q}: {loc} = {got}, last write was {want}"));
                }
            }
        }
    }
    if wrong > 3 {
        problems.push(format!("{wrong} final values differ from the last write"));
    }
}

fn check_sync_readback(
    reps: &[Report],
    nprocs: u32,
    rounds: u32,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let (locked, counter) = sync_expected(nprocs, rounds, seed);
    for r in reps {
        for &(name, v) in &r.seen {
            let want = match name {
                "locked_counter" => locked,
                "counter_object" => counter,
                _ => continue,
            };
            if v != want {
                problems.push(format!("process {}: {name} = {v}, expected {want}", r.me));
            }
        }
    }
}

// ------------------------------------------------------------ traffic

/// Stream's traffic, as the `wire`, `session`, `net` and `replica`
/// micro-rows replay it.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    /// Mean writes one update batch carries.
    pub batch_writes: f64,
    /// Frames in flight on a link, the sender's unacknowledged window.
    pub in_flight: f64,
}

/// Runs of stream's program the traffic is taken from.
const TRAFFIC_RUNS: u64 = 3;

/// Runs stream's program without its synchronization tail on stream's
/// cluster, checks it like a `stream` iteration, and takes the traffic
/// from what each run reports (the median over the runs):
///
/// - Writes per batch: the session layer answers every data frame with
///   one standalone ack, so half the messages are data frames; nearly
///   all of them are batches, since the program synchronizes only at
///   its opening and closing barriers. Every write travels once to each
///   peer.
/// - Frames in flight: the time from a process writing its final marker
///   until its peer sees it (the link's backlog draining), times the
///   link's frame rate over the throughput window (Little's law).
pub fn traffic_probe(o: &Opts, problems: &mut Vec<String>) -> (Iter, Option<Traffic>) {
    let shape = StreamShape { tail_rounds: 0, ..o.sizes.stream };
    let n = u64::from(shape.nprocs);
    let links = n * (n - 1);
    let mut it = Iter::default();
    let (mut writes, mut flight) = (Vec::new(), Vec::new());
    for k in 0..TRAFFIC_RUNS {
        let s = iter_seed(o.seed, u64::MAX - 1 - k);
        let sys = cluster(Workload::Stream, &o.tmp, s);
        let mut run = Iter::default();
        let result = execute(&mut run, sys, Program::Stream(shape), s, o.inject, problems);
        it.attempted += run.attempted;
        it.failed += run.failed;
        let Some((reps, out)) = result else { continue };
        check_stream(&out, shape, s, o.inject, problems);
        let frames = out.messages as f64 / 2.0;
        writes.push(((u64::from(shape.writes) + 1) * links) as f64 / frames);
        let window = reps
            .iter()
            .filter_map(|r| r.closed)
            .max()
            .zip(reps.iter().filter_map(|r| r.opened).min());
        let Some((close, open)) = window else { continue };
        let rate = frames / links as f64 / (close - open).as_secs_f64();
        for p in &reps {
            for q in reps.iter().filter(|q| q.me != p.me) {
                if let (Some(marked), Some(seen)) = (p.marked, q.saw_marks) {
                    flight.push(rate * seen.saturating_duration_since(marked).as_secs_f64());
                }
            }
        }
    }
    let traffic = (!writes.is_empty() && !flight.is_empty())
        .then(|| Traffic { batch_writes: crate::median(writes), in_flight: crate::median(flight) });
    if traffic.is_none() {
        problems.push("the traffic probe measured nothing".into());
    }
    (it, traffic)
}

// ------------------------------------------------------------ durable

/// `durable`'s executed phase, run once by every other workload's traced
/// run so that the WAL counters and the reboot time exist there too.
pub fn durable_probe(o: &Opts, problems: &mut Vec<String>) -> Iter {
    let mut it = Iter::default();
    durable_iter(&mut it, o, iter_seed(o.seed, u64::MAX), problems);
    it
}

/// The write storm with a group-commit WAL, then a second incarnation
/// that reboots from the same directories and reads every key back.
fn durable_iter(it: &mut Iter, o: &Opts, s: u64, problems: &mut Vec<String>) {
    let dir = wal_dir(&o.tmp, s);
    let _ = std::fs::remove_dir_all(&dir);
    let shape = o.sizes.durable;
    let sys = cluster(Workload::Durable, &o.tmp, s);
    let first = execute(it, sys, Program::Stream(shape), s, o.inject, problems);
    if let Some((reps, out)) = first {
        check_stream(&out, shape, s, o.inject, problems);
        check_sync_readback(&reps, shape.nprocs, shape.tail_rounds, s, problems);
        it.wal = out.wal;
        let mut reboot = Iter::default();
        let n = shape.nprocs;
        let prog = Program::Readback(shape);
        let sys = cluster(Workload::Durable, &o.tmp, s);
        if let Some((reps, out)) = execute(&mut reboot, sys, prog, s, o.inject, problems) {
            it.recover_ms = reboot.setup_s.first().map(|s| s * 1e3);
            it.wal.replayed = out.wal.replayed;
            check_readback(&reps, shape, s, problems);
            for p in 0..n {
                if out.incarnation(ProcId(p)) != 1 {
                    problems.push(format!(
                        "process {p} rebooted as incarnation {}, expected 1",
                        out.incarnation(ProcId(p))
                    ));
                }
            }
        }
        it.attempted += reboot.attempted;
        it.failed += reboot.failed;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn check_readback(reps: &[Report], shape: StreamShape, seed: u64, problems: &mut Vec<String>) {
    let finals: Vec<_> =
        (0..shape.nprocs).map(|me| Program::Stream(shape).shadow(me, seed)).collect();
    for r in reps {
        let keys = (0..shape.nprocs).flat_map(|q| (0..RANGE).map(move |k| (q, key(q, k))));
        let mut wrong = 0;
        for ((q, loc), &(_, got)) in keys.zip(&r.seen) {
            let want = finals[q as usize].store.get(&loc).copied().unwrap_or(0);
            if got != want {
                wrong += 1;
            }
        }
        if wrong > 0 || r.seen.len() != (shape.nprocs * RANGE) as usize {
            problems.push(format!(
                "reboot: process {} read back {wrong} wrong of {} keys",
                r.me,
                r.seen.len()
            ));
        }
    }
}

// ------------------------------------------------------------ recording

/// Histories the runtime workloads record and check per iteration. The
/// checker's cost differs by up to 2x between histories of one program
/// and size, so one history per iteration made `check_s` swing with
/// the seed. Each is kept near 1k ops, so the checker's working set fits
/// a core's L2 cache: four 2k-op histories gave twice the run-to-run
/// spread (`verify`'s 10k-op history measures the larger regime).
const CHECKED: u64 = 8;

/// The runtime workloads' check phase: their own program, small, on the
/// seeded simulator with the same configuration, recorded.
fn record_runtime(it: &mut Iter, o: &Opts, s: u64, problems: &mut Vec<String>) -> Vec<History> {
    let (stream, sync) = (o.sizes.check_stream, o.sizes.check_sync);
    let mut histories = Vec::new();
    let mut sim_ns = Vec::new();
    for k in 0..CHECKED {
        let seed = iter_seed(s, k + 1);
        let mut sys = System::new(2, Mode::Mixed)
            .seed(seed)
            .record(true)
            .batching(Some(BatchPolicy::default()));
        let (result, _, _, wall) = match o.workload {
            Workload::Stream => {
                sys = sys.reliable(true);
                simulate(sys, Program::Stream(stream), seed)
            }
            Workload::Sync => simulate(sys, Program::Sync(sync), seed),
            _ => {
                sys = sys.durability(Some(DurabilityPolicy::default().with_group_commit(true)));
                simulate(sys, Program::Stream(stream), seed)
            }
        };
        histories.extend(recorded(it, result, wall, problems));
        sim_ns.push(it.sim_ns_per_msg);
    }
    it.sim_ns_per_msg = sim_ns.iter().sum::<f64>() / sim_ns.len() as f64;
    histories
}

fn recorded(
    it: &mut Iter,
    result: Result<Outcome, String>,
    wall: f64,
    problems: &mut Vec<String>,
) -> Option<History> {
    match result {
        Ok(out) => {
            it.sim_ns_per_msg = wall * 1e9 / out.metrics.delivered.max(1) as f64;
            out.history
        }
        Err(e) => {
            problems.push(format!("simulated run failed: {e}"));
            None
        }
    }
}

/// `verify`'s set-up: build the 3-process program and record its
/// history on the seeded simulator. The run itself gives `verify`'s
/// throughput and latency figures (simulator wall time).
fn verify_setup(it: &mut Iter, o: &Opts, s: u64, problems: &mut Vec<String>) -> Option<History> {
    let shape = o.sizes.verify;
    let prog = Program::Mixed(shape);
    let planned = prog.planned(s);
    let t0 = Instant::now();
    let sys = System::new(shape.nprocs as usize, Mode::Mixed).seed(s).record(true);
    let (result, reps, run_start, wall) = simulate(sys, prog, s);
    it.attempted += planned;
    let history = recorded(it, result, wall, problems);
    it.setup_s.push(t0.elapsed().as_secs_f64());
    let mut rest = Iter::default();
    fold_reports(&mut rest, run_start, &reps);
    it.ops_per_s = rest.ops_per_s;
    it.handshake_ns = rest.handshake_ns;
    it.lock_ns = rest.lock_ns;
    it.barrier_ns = rest.barrier_ns;
    match &history {
        Some(h) => {
            it.calls = h.len() as u64;
            if it.calls != planned {
                it.failed += planned.abs_diff(it.calls);
                problems.push(format!("recorded {} ops of {planned} planned", it.calls));
            }
            check_sync_readback(&reps, shape.nprocs, shape.rounds, s, problems);
        }
        None => it.failed += planned,
    }
    history
}

fn live_replay(it: &mut Iter, o: &Opts, s: u64, problems: &mut Vec<String>) {
    let shape = o.sizes.verify;
    let sys = Sys::Live(LiveSystem::new(shape.nprocs as usize, Mode::Mixed));
    let mut replay = Iter::default();
    if let Some((reps, _)) = execute(&mut replay, sys, Program::Mixed(shape), s, o.inject, problems)
    {
        check_sync_readback(&reps, shape.nprocs, shape.rounds, s, problems);
    }
    it.attempted += replay.attempted;
    it.failed += replay.failed;
    it.calls = replay.calls;
    it.msgs = replay.msgs;
    it.bytes = replay.bytes;
    it.dropped_sends = replay.dropped_sends;
    it.lost = replay.lost;
    it.pending_at_end = replay.pending_at_end;
}

// ------------------------------------------------------------ checking

fn judge(h: &History, models: &ModelAssignment, inject: Option<Inject>) -> Result<(), String> {
    if inject == Some(Inject::AcceptAll) {
        return Ok(());
    }
    mc_model::spec::check_model(h, models).map(|_| ()).map_err(|e| format!("{e:?}"))
}

/// The checker must still say no: to PRAM's FIFO violation, to the
/// causality chain under causal memory, and to the recorded history
/// with one read made stale.
fn negative_checks(h: &History, seed: u64, inject: Option<Inject>, problems: &mut Vec<String>) {
    let fifo = litmus::fifo_violation();
    if judge(&fifo, &ModelAssignment::uniform(2, ModelSpec::PRAM), inject).is_ok() {
        problems.push("check_model accepted litmus::fifo_violation under PRAM".into());
    }
    let chain = litmus::causality_chain(ReadLabel::Causal);
    if judge(&chain, &ModelAssignment::uniform(3, ModelSpec::CAUSAL), inject).is_ok() {
        problems.push("check_model accepted litmus::causality_chain under causal".into());
    }
    match stale_read_mutant(h, seed) {
        Some(m) => {
            if judge(&m, &ModelAssignment::mixed(m.nprocs()), inject).is_ok() {
                problems.push("check_model accepted the stale-read mutant".into());
            }
        }
        None => problems.push("recorded history has no read to mutate".into()),
    }
}

/// The recorded history with one read — by a process that had already
/// written or read a non-initial value of that location — made to
/// return the initial value. Counters are left alone.
fn stale_read_mutant(h: &History, seed: u64) -> Option<History> {
    let text = trace::to_text(h);
    let lines: Vec<&str> = text.lines().collect();
    let counters: HashSet<&str> = lines
        .iter()
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            (t.get(1) == Some(&"u")).then(|| t[2])
        })
        .collect();
    let mut observed: HashSet<(&str, &str)> = HashSet::new();
    let mut candidates = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let t: Vec<&str> = l.split_whitespace().collect();
        match t.as_slice() {
            [p, "w", loc, ..] => {
                observed.insert((p, loc));
            }
            [p, "r", _, loc, _, from] if !counters.contains(loc) => {
                if observed.contains(&(*p, *loc)) {
                    candidates.push(i);
                }
                if *from != "from=init" {
                    observed.insert((p, loc));
                }
            }
            _ => {}
        }
    }
    let pick = *candidates.get((seed % candidates.len().max(1) as u64) as usize)?;
    let mut t: Vec<String> = lines[pick].split_whitespace().map(String::from).collect();
    t[4] = "0".into();
    t[5] = "from=init".into();
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    out[pick] = t.join(" ");
    trace::parse(&out.join("\n")).ok()
}

// ------------------------------------------------------------ exploration

fn w(loc: u32, value: i64) -> SpecOp {
    SpecOp::Write { loc: Loc(loc), value }
}

fn r(loc: u32, label: ReadLabel) -> SpecOp {
    SpecOp::Read { loc: Loc(loc), label }
}

/// One litmus program to exhaust, with the counts it must reach.
struct Litmus {
    name: &'static str,
    spec: ProgSpec,
    batching: bool,
    runs: usize,
    outcomes: usize,
}

/// Each workload's litmus set, in miniature of its own program. The
/// streaming minis explore unbatched: under the racing simulator
/// configuration a batch is never flushed before the reads, which
/// leaves a single outcome to find.
fn litmus_set(workload: Workload) -> Vec<Litmus> {
    use ReadLabel::{Causal as C, Pram as P};
    let lit = |name, spec, runs, outcomes| Litmus { name, spec, batching: false, runs, outcomes };
    let mixed = || ProgSpec::new(Mode::Mixed);
    match workload {
        Workload::Verify => vec![
            lit(
                "store_buffer",
                mixed().proc(vec![w(0, 1), r(1, C)]).proc(vec![w(1, 1), r(0, C)]),
                8,
                4,
            ),
            lit(
                "wrc",
                mixed()
                    .proc(vec![w(0, 1)])
                    .proc(vec![r(0, C), w(1, 1)])
                    .proc(vec![r(1, P), r(0, P)]),
                56,
                7,
            ),
            lit(
                "iriw",
                mixed()
                    .proc(vec![w(0, 1)])
                    .proc(vec![w(1, 1)])
                    .proc(vec![r(0, C), r(1, C)])
                    .proc(vec![r(1, C), r(0, C)]),
                315,
                15,
            ),
            lit(
                "2+2w",
                mixed()
                    .proc(vec![w(0, 1), w(1, 2)])
                    .proc(vec![w(1, 1), w(0, 2)])
                    .proc(vec![r(0, C), r(0, C)]),
                5279,
                7,
            ),
        ],
        Workload::Stream => vec![lit(
            "stream_mini",
            mixed().proc(vec![w(0, 1), w(1, 1), r(2, P), r(3, C)]).proc(vec![
                w(2, 1),
                w(3, 1),
                r(0, P),
                r(1, C),
            ]),
            439,
            16,
        )],
        Workload::Durable => vec![lit(
            "durable_mini",
            mixed()
                .proc(vec![w(0, 1), w(1, 1), r(2, P)])
                .proc(vec![w(2, 1), r(0, P), r(1, C)])
                .durable(2),
            1156,
            8,
        )],
        Workload::Sync => {
            let lk = SpecOp::Lock { lock: LockId(0), mode: LockMode::Write };
            let ul = SpecOp::Unlock { lock: LockId(0), mode: LockMode::Write };
            let bar = SpecOp::Barrier { barrier: BarrierId(0) };
            let add = |delta| SpecOp::Add { loc: Loc(3), delta };
            let aw = |loc, value| SpecOp::Await { loc: Loc(loc), value };
            let spec = mixed()
                .proc(vec![w(0, 1), aw(1, 1), lk, r(2, C), w(2, 1), ul, add(1), bar])
                .proc(vec![aw(0, 1), w(1, 1), lk, r(2, C), w(2, 2), ul, add(2), bar]);
            vec![Litmus { batching: true, ..lit("sync_mini", spec, 557, 1) }]
        }
    }
}

/// Exhausts the workload's litmus set (DPOR, one worker), checking every
/// distinct outcome with `check_model` and the counts against the pins.
fn explore_phase(it: &mut Iter, workload: Workload, problems: &mut Vec<String>) {
    let t = Instant::now();
    for l in litmus_set(workload) {
        let _set = span("explore.set", 0);
        let nprocs = l.spec.procs.len();
        let make = || {
            let _s = span("explore.make", 0);
            let mut sys = l.spec.build_system();
            if l.batching {
                sys = sys.batching(Some(BatchPolicy::default()));
            }
            sys
        };
        let verify = |o: &Outcome| {
            let _s = span("explore.verify", 0);
            let h = o.history.as_ref().ok_or("recording is on")?;
            judge(h, &ModelAssignment::mixed(nprocs), None)
        };
        match explore_with(ExploreOptions::new().workers(1), make, verify) {
            Ok(out) => {
                it.explore.runs += out.runs;
                it.explore.pruned += out.pruned;
                it.explore.outcomes += out.unique_outcomes;
                let pinned = (l.runs, l.outcomes);
                if !out.complete || (out.runs, out.unique_outcomes) != pinned {
                    problems.push(format!(
                        "explore {}: complete={} runs={} outcomes={}, pinned runs={} outcomes={}",
                        l.name, out.complete, out.runs, out.unique_outcomes, l.runs, l.outcomes
                    ));
                }
            }
            Err(e) => problems.push(format!("explore {}: {e}", l.name)),
        }
    }
    it.explore_s = t.elapsed().as_secs_f64();
}
