//! The workload programs, written once against [`Mem`] so the same body
//! runs on the TCP cluster, the threaded executor, the simulator, and a
//! sequential shadow that derives the expected results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mc_live::LiveCtx;
use mc_model::{Loc, LockId};
use mixed_consistency::Ctx;

use crate::spans::{span, Guard};

/// The memory calls the workloads make.
pub trait Mem {
    fn write(&mut self, loc: Loc, v: i64);
    fn add(&mut self, loc: Loc, d: i64);
    fn read_pram(&mut self, loc: Loc) -> i64;
    fn read_causal(&mut self, loc: Loc) -> i64;
    fn write_lock(&mut self, l: LockId);
    fn write_unlock(&mut self, l: LockId);
    fn barrier(&mut self);
    fn await_eq(&mut self, loc: Loc, v: i64);
}

macro_rules! forward_mem {
    ($($head:tt)*) => {
        $($head)* {
            fn write(&mut self, loc: Loc, v: i64) {
                Self::write(self, loc, v);
            }
            fn add(&mut self, loc: Loc, d: i64) {
                Self::add(self, loc, d);
            }
            fn read_pram(&mut self, loc: Loc) -> i64 {
                Self::read_pram(self, loc).expect_i64()
            }
            fn read_causal(&mut self, loc: Loc) -> i64 {
                Self::read_causal(self, loc).expect_i64()
            }
            fn write_lock(&mut self, l: LockId) {
                Self::write_lock(self, l);
            }
            fn write_unlock(&mut self, l: LockId) {
                Self::write_unlock(self, l);
            }
            fn barrier(&mut self) {
                Self::barrier(self);
            }
            fn await_eq(&mut self, loc: Loc, v: i64) {
                Self::await_eq(self, loc, v);
            }
        }
    };
}

forward_mem!(impl Mem for LiveCtx);
forward_mem!(impl<'a> Mem for Ctx<'a>);

/// Sequential stand-in: counts calls and keeps one process's own view
/// (awaits succeed at once). Running a body on it yields the exact call
/// count and the values that process writes.
#[derive(Default)]
pub struct Shadow {
    pub calls: u64,
    pub store: HashMap<Loc, i64>,
}

impl Mem for Shadow {
    fn write(&mut self, loc: Loc, v: i64) {
        self.calls += 1;
        self.store.insert(loc, v);
    }
    fn add(&mut self, loc: Loc, d: i64) {
        self.calls += 1;
        *self.store.entry(loc).or_default() += d;
    }
    fn read_pram(&mut self, loc: Loc) -> i64 {
        self.calls += 1;
        self.store.get(&loc).copied().unwrap_or(0)
    }
    fn read_causal(&mut self, loc: Loc) -> i64 {
        self.read_pram(loc)
    }
    fn write_lock(&mut self, _: LockId) {
        self.calls += 1;
    }
    fn write_unlock(&mut self, _: LockId) {
        self.calls += 1;
    }
    fn barrier(&mut self) {
        self.calls += 1;
    }
    fn await_eq(&mut self, _: Loc, _: i64) {
        self.calls += 1;
    }
}

/// What one process measured and observed.
#[derive(Default, Debug)]
pub struct Report {
    pub me: u32,
    /// When the opening barrier returned.
    pub opened: Option<Instant>,
    /// When the closing barrier (after convergence) returned.
    pub closed: Option<Instant>,
    /// Calls completed between the two.
    pub window_calls: u64,
    pub handshake_ns: Vec<u64>,
    pub lock_ns: Vec<u64>,
    pub barrier_ns: Vec<u64>,
    /// When this process wrote its final marker (`stream`).
    pub marked: Option<Instant>,
    /// When it saw every peer's final marker.
    pub saw_marks: Option<Instant>,
    /// Values the program read back for checking, by name.
    pub seen: Vec<(&'static str, i64)>,
}

/// A process's handle on its memory: times every call the workload
/// makes, records spans when tracing, and counts completed calls.
pub struct Proc<'m, M: Mem> {
    m: &'m mut M,
    /// Whether to record `live.*` spans (the threaded and TCP
    /// executors) or none (the simulator and the shadow).
    traced: bool,
    calls: u64,
    opened_at_calls: u64,
    /// Completed calls, published when the process ends — also on a
    /// panic, so a failed run can count what did not finish.
    done: Arc<AtomicU64>,
    pub rep: Report,
}

impl<'m, M: Mem> Drop for Proc<'m, M> {
    fn drop(&mut self) {
        self.done.fetch_add(self.calls, Ordering::SeqCst);
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl<'m, M: Mem> Proc<'m, M> {
    pub fn new(m: &'m mut M, me: u32, traced: bool, done: Arc<AtomicU64>) -> Self {
        Proc {
            m,
            traced,
            calls: 0,
            opened_at_calls: 0,
            done,
            rep: Report { me, ..Report::default() },
        }
    }

    pub fn me(&self) -> u32 {
        self.rep.me
    }

    fn span(&self, name: &'static str) -> Option<Guard> {
        let op = (u64::from(self.rep.me) << 48) | self.calls;
        self.traced.then(|| span(name, op))
    }

    pub fn write(&mut self, loc: Loc, v: i64) {
        let _s = self.span("live.write");
        self.m.write(loc, v);
        self.calls += 1;
    }

    pub fn add(&mut self, loc: Loc, d: i64) {
        let _s = self.span("live.add");
        self.m.add(loc, d);
        self.calls += 1;
    }

    pub fn read_pram(&mut self, loc: Loc) -> i64 {
        let _s = self.span("live.read_pram");
        let v = self.m.read_pram(loc);
        self.calls += 1;
        v
    }

    pub fn read_causal(&mut self, loc: Loc) -> i64 {
        let _s = self.span("live.read_causal");
        let v = self.m.read_causal(loc);
        self.calls += 1;
        v
    }

    /// Write-lock acquire, timed for `lock_*`.
    pub fn write_lock(&mut self, l: LockId) {
        let _s = self.span("live.lock");
        let t = Instant::now();
        self.m.write_lock(l);
        self.rep.lock_ns.push(ns(t));
        self.calls += 1;
    }

    pub fn write_unlock(&mut self, l: LockId) {
        let _s = self.span("live.unlock");
        self.m.write_unlock(l);
        self.calls += 1;
    }

    /// A barrier, timed for `barrier_*`.
    pub fn barrier(&mut self) {
        let _s = self.span("live.barrier");
        let t = Instant::now();
        self.m.barrier();
        self.rep.barrier_ns.push(ns(t));
        self.calls += 1;
    }

    pub fn await_eq(&mut self, loc: Loc, v: i64) {
        let _s = self.span("live.await");
        self.m.await_eq(loc, v);
        self.calls += 1;
    }

    /// The opening barrier: everything before it is set-up.
    fn open(&mut self) {
        self.m.barrier();
        self.calls += 1;
        self.rep.opened = Some(Instant::now());
        self.opened_at_calls = self.calls;
    }

    /// The closing barrier: ends the throughput window.
    fn close(&mut self) {
        self.m.barrier();
        self.calls += 1;
        self.rep.closed = Some(Instant::now());
        self.rep.window_calls = self.calls - self.opened_at_calls;
    }
}

// ------------------------------------------------------------ layout

/// Keys per process in the streaming range.
pub const RANGE: u32 = 1024;
/// Final-marker location of process `p` is `MARK + p`.
const MARK: u32 = 4000;
const HS_A: Loc = Loc(5000);
const HS_B: Loc = Loc(5001);
/// Shared counter updated read-modify-write under [`LOCK`].
const CTR: Loc = Loc(5002);
/// Counter object updated with lock-free `add`.
const CNT: Loc = Loc(5003);
const LOCK: LockId = LockId(0);

/// splitmix64: the workload input generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

pub fn key(p: u32, k: u32) -> Loc {
    Loc(p * RANGE + k)
}

/// Shape of one streaming program.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    pub nprocs: u32,
    pub writes: u32,
    /// Handshake/lock/add/barrier rounds after the window closes.
    pub tail_rounds: u32,
}

/// Shape of one synchronization program.
#[derive(Clone, Copy, Debug)]
pub struct SyncShape {
    pub nprocs: u32,
    pub rounds: u32,
    pub barrier_every: u32,
}

/// `stream`/`durable`: seeded writes to the own range, a PRAM read of a
/// peer's range every 4th write and a causal one every 16th, a final
/// marker, then the awaits that prove convergence; after the window, a
/// tail of synchronization rounds.
fn stream_body<M: Mem>(p: &mut Proc<M>, s: StreamShape, seed: u64) {
    let me = p.me();
    let mut rng = Rng::new(seed, u64::from(me));
    p.open();
    for i in 1..=s.writes {
        p.write(key(me, rng.below(RANGE)), i64::from(i));
        let peer = (me + 1 + rng.below(s.nprocs - 1)) % s.nprocs;
        if i % 16 == 0 {
            p.read_causal(key(peer, rng.below(RANGE)));
        } else if i % 4 == 0 {
            p.read_pram(key(peer, rng.below(RANGE)));
        }
    }
    p.write(Loc(MARK + me), i64::from(s.writes));
    p.rep.marked = Some(Instant::now());
    for q in (0..s.nprocs).filter(|&q| q != me) {
        p.await_eq(Loc(MARK + q), i64::from(s.writes));
    }
    p.rep.saw_marks = Some(Instant::now());
    p.close();
    sync_rounds(p, SyncShape { nprocs: s.nprocs, rounds: s.tail_rounds, barrier_every: 1 }, seed);
    sync_readback(p);
}

/// `sync`: only synchronization rounds.
fn sync_body<M: Mem>(p: &mut Proc<M>, s: SyncShape, seed: u64) {
    p.open();
    sync_rounds(p, s, seed);
    p.close();
    sync_readback(p);
}

/// Per-round delta process `me` adds to the counter object.
fn add_delta(rng: &mut Rng) -> i64 {
    1 + i64::from(rng.below(8))
}

/// Each round: a write/await handshake between processes 0 and 1
/// (Fig. 3), a read-modify-write of a shared counter under a write lock
/// and a lock-free `add` to a counter object (Fig. 5), and every
/// `barrier_every` rounds a barrier followed by a PRAM read (Fig. 2).
fn sync_rounds<M: Mem>(p: &mut Proc<M>, s: SyncShape, seed: u64) {
    let mut deltas = delta_rng(seed, p.me());
    for r in 1..=s.rounds {
        sync_round(p, s, r, &mut deltas);
    }
}

fn delta_rng(seed: u64, me: u32) -> Rng {
    Rng::new(seed, 0x5ec0 + u64::from(me))
}

fn sync_round<M: Mem>(p: &mut Proc<M>, s: SyncShape, round: u32, deltas: &mut Rng) {
    let r = i64::from(round);
    match p.me() {
        0 => {
            let t = Instant::now();
            p.write(HS_A, r);
            p.await_eq(HS_B, r);
            p.rep.handshake_ns.push(ns(t));
        }
        1 => {
            p.await_eq(HS_A, r);
            p.write(HS_B, r);
        }
        _ => {}
    }
    p.write_lock(LOCK);
    let v = p.read_causal(CTR);
    p.write(CTR, v + 1);
    p.write_unlock(LOCK);
    p.add(CNT, add_delta(deltas));
    if round.is_multiple_of(s.barrier_every) {
        p.barrier();
        p.read_pram(CNT);
    }
}

/// After every process's last round: both counters, read causally
/// behind a barrier, go back for checking.
fn sync_readback<M: Mem>(p: &mut Proc<M>) {
    p.barrier();
    let c = p.read_causal(CTR);
    let n = p.read_causal(CNT);
    p.rep.seen.push(("locked_counter", c));
    p.rep.seen.push(("counter_object", n));
}

/// Expected `(locked_counter, counter_object)` after a program whose
/// processes each ran `rounds` synchronization rounds.
pub fn sync_expected(nprocs: u32, rounds: u32, seed: u64) -> (i64, i64) {
    let mut sum = 0;
    for me in 0..nprocs {
        let mut rng = delta_rng(seed, me);
        for _ in 0..rounds {
            sum += add_delta(&mut rng);
        }
    }
    (i64::from(nprocs) * i64::from(rounds), sum)
}

/// `durable`'s second incarnation: reads back every streamed key.
fn readback_body<M: Mem>(p: &mut Proc<M>, nprocs: u32) {
    p.open();
    for q in 0..nprocs {
        for k in 0..RANGE {
            let v = p.read_pram(key(q, k));
            p.rep.seen.push(("key", v));
        }
    }
    p.close();
}

/// `verify`'s recorded program: every round mixes a streamed write and
/// a labelled read of a peer's range with one synchronization round.
fn mixed_body<M: Mem>(p: &mut Proc<M>, s: SyncShape, seed: u64) {
    let me = p.me();
    let mut rng = Rng::new(seed, 0x3ed + u64::from(me));
    let mut deltas = delta_rng(seed, me);
    p.open();
    for r in 1..=s.rounds {
        p.write(key(me, rng.below(64)), i64::from(r));
        let peer = (me + 1 + rng.below(s.nprocs - 1)) % s.nprocs;
        if r % 2 == 0 {
            p.read_pram(key(peer, rng.below(64)));
        } else {
            p.read_causal(key(peer, rng.below(64)));
        }
        sync_round(p, s, r, &mut deltas);
    }
    p.close();
    sync_readback(p);
}

/// A workload program: which body every process runs, at what size.
#[derive(Clone, Copy, Debug)]
pub enum Program {
    Stream(StreamShape),
    Sync(SyncShape),
    /// `durable`'s reboot, reading back the keys `Stream` wrote.
    Readback(StreamShape),
    Mixed(SyncShape),
    /// Only the opening and closing barriers: a set-up probe.
    Open(u32),
}

impl Program {
    pub fn nprocs(self) -> u32 {
        match self {
            Program::Stream(s) | Program::Readback(s) => s.nprocs,
            Program::Sync(s) | Program::Mixed(s) => s.nprocs,
            Program::Open(n) => n,
        }
    }

    pub fn run<M: Mem>(self, p: &mut Proc<M>, seed: u64) {
        match self {
            Program::Stream(s) => stream_body(p, s, seed),
            Program::Sync(s) => sync_body(p, s, seed),
            Program::Readback(s) => readback_body(p, s.nprocs),
            Program::Mixed(s) => mixed_body(p, s, seed),
            Program::Open(_) => {
                p.open();
                p.close();
            }
        }
    }

    /// Runs process `me` on the sequential shadow: its exact call count
    /// and the values it writes.
    pub fn shadow(self, me: u32, seed: u64) -> Shadow {
        let mut sh = Shadow::default();
        let mut p = Proc::new(&mut sh, me, false, Arc::new(AtomicU64::new(0)));
        self.run(&mut p, seed);
        drop(p);
        sh
    }

    /// Calls the whole program makes.
    pub fn planned(self, seed: u64) -> u64 {
        (0..self.nprocs()).map(|me| self.shadow(me, seed).calls).sum()
    }
}
