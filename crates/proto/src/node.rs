//! One process node of the DSM protocol as a sans-IO state machine.
//!
//! [`ProcNode`] owns everything a process's memory-system node knows:
//! its [`Replica`], the outgoing update batches, the per-link delta
//! shadow clocks, recovery bookkeeping, shard routes, flush probes, and
//! the lock/barrier/SC glue. It never touches a socket, a channel, a
//! clock, or a file: every effect goes through a [`NodeIo`] the executor
//! supplies. The deterministic simulator ([`crate::Dsm`]), the threaded
//! executor and the TCP runtime all drive this one type, so the model
//! checker explores the same protocol code that runs over real links.
//!
//! Entry points: [`ProcNode::start`] submits a request (answering at
//! once or parking the process), [`ProcNode::poll`] re-examines a parked
//! request, [`ProcNode::on_msg`] ingests one unwrapped protocol message,
//! [`ProcNode::on_flush_due`] flushes the outgoing batch when its timer
//! expires (or the executor is about to park), and
//! [`ProcNode::rebuild`] recovers the node from its durable state.

use std::collections::HashMap;
use std::sync::Arc;

use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, ReadLabel, VClock, Value, WriteId};
use mc_sim::{NodeId, Poll};

use crate::config::{DsmConfig, LockPropagation, Mode};
use crate::durability::{Snapshot, WalRecord};
use crate::msg::{BatchEntry, GrantInfo, Msg, UpdatePayload};
use crate::replica::Replica;
use crate::session::Session;

/// A memory or synchronization operation submitted by a process.
#[derive(Clone, Debug)]
pub enum Req {
    /// Labeled read (labels are ignored in the pure modes: PRAM memory
    /// reads PRAM, causal memory reads causal, SC reads at the server).
    Read {
        /// Location.
        loc: Loc,
        /// Consistency label (honored in [`Mode::Mixed`]).
        label: ReadLabel,
    },
    /// Write.
    Write {
        /// Location.
        loc: Loc,
        /// Value stored.
        value: Value,
    },
    /// Commutative increment (counter objects, Section 5.3).
    Update {
        /// Location.
        loc: Loc,
        /// Signed delta (integer or float).
        delta: Value,
    },
    /// Acquire a read or write lock.
    Lock {
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Release a lock.
    Unlock {
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Arrive at (and pass) a barrier.
    Barrier {
        /// Barrier object.
        barrier: BarrierId,
    },
    /// `await(loc = value)`.
    Await {
        /// Location.
        loc: Loc,
        /// Value awaited.
        value: Value,
    },
}

/// The response to a [`Req`].
#[derive(Clone, Debug, PartialEq)]
pub enum Resp {
    /// Read result.
    Value {
        /// The value returned.
        value: Value,
        /// The write that produced it (`None` = initial value).
        writer: Option<WriteId>,
    },
    /// Write/update result.
    Wrote {
        /// The minted write identity.
        id: WriteId,
    },
    /// Lock, unlock.
    Done,
    /// Barrier passed.
    BarrierPassed {
        /// The round that completed.
        round: u32,
    },
    /// Await satisfied.
    Awaited {
        /// The observed value.
        value: Value,
        /// The writes whose application produced it.
        writers: Vec<WriteId>,
    },
}

/// How a [`ProcNode`] reaches its executor. Implementations are plain
/// generics (never trait objects), so the per-write hot path stays
/// monomorphized in every executor.
pub trait NodeIo {
    /// Sends `msg` to node `to`, through the session layer when one runs.
    fn send(&mut self, to: NodeId, msg: Msg);

    /// Sends `msg` to node `to` raw, never sessioned: recovery requests
    /// must not ride the sessions they are re-fencing.
    fn send_raw(&mut self, to: NodeId, msg: Msg);

    /// Puts session payloads re-wrapped by a link reset back on the wire
    /// (already wrapped, so they travel raw).
    fn resend(&mut self, to: NodeId, wire: Vec<Msg>);

    /// The session layer, when one runs.
    fn session(&mut self) -> Option<&mut Session>;

    /// A write entered empty outgoing buffers: within `delay_micros`
    /// the executor must call [`ProcNode::on_flush_due`]. An executor
    /// whose timers cannot be cancelled may keep a still-pending timer
    /// instead of arming another.
    fn arm_flush_timer(&mut self, delay_micros: u64);

    /// Stages one encoded write-ahead-log record (not yet durable).
    fn wal_append(&mut self, frame: &[u8]);

    /// fsyncs the staged log tail.
    fn wal_sync(&mut self);

    /// Installs a compacted snapshot (the log is already synced).
    fn install_snapshot(&mut self, bytes: Vec<u8>);

    /// Whether the executor's wall-clock snapshot interval has elapsed
    /// since its last snapshot. The simulator's cadence is count-only,
    /// so the default says never.
    fn snapshot_interval_elapsed(&self, interval_micros: u64) -> bool {
        let _ = interval_micros;
        false
    }

    /// Called immediately before the `LockRel` of `lock` leaves, so an
    /// executor can record the unlock ahead of the next holder's grant.
    fn releasing(&mut self, lock: LockId, mode: LockMode) {
        let _ = (lock, mode);
    }
}

/// What a parked process is waiting for.
#[derive(Clone, Debug)]
enum Blocked {
    Read {
        loc: Loc,
        label: ReadLabel,
    },
    Await {
        loc: Loc,
        value: Value,
    },
    Lock {
        lock: LockId,
        mode: LockMode,
    },
    UnlockFlush {
        lock: LockId,
    },
    Barrier {
        barrier: BarrierId,
        round: u32,
    },
    /// Waiting for an SC server RPC response.
    Sc,
    /// Waiting for a dynamic shard subscription to be acknowledged by
    /// the directory; the first-touch request retries once it is.
    Subscribe {
        shard: u32,
        retry: Box<Req>,
    },
}

/// One outgoing update buffer (batching enabled only): the whole
/// replica's under full replication, one shard's under sharding.
/// Entries coalesce same-location writes: `Set` last-write-wins, `Add`
/// sums — each against the *latest* entry for the location, so a kind
/// mismatch starts a new entry and order is preserved.
#[derive(Debug, Default)]
struct OutBatch<D> {
    /// Full replication: the first own-write sequence buffered.
    /// Sharded: the writer's own seq in the shard before the first
    /// member (the chain link).
    base: u32,
    /// Last own-write sequence buffered.
    upto: u32,
    entries: Vec<BatchEntry>,
    /// Latest entry index per location (coalescing target).
    last_idx: HashMap<Loc, usize>,
    /// Dependencies of the last buffered write: a vector (full
    /// replication, vector modes) or sparse triples (sharded). Clocks
    /// are monotone, so the last member's knowledge dominates.
    deps: D,
}

impl<D: Default> OutBatch<D> {
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffers one write and returns the buffered entry count. `base`
    /// is taken only when the buffer was empty.
    fn push(&mut self, base: u32, loc: Loc, payload: UpdatePayload, id: WriteId, deps: D) -> usize {
        if self.entries.is_empty() {
            self.base = base;
        }
        self.upto = id.seq;
        self.deps = deps;
        let coalesced = match self.last_idx.get(&loc) {
            Some(&idx) => {
                let e = &mut self.entries[idx];
                match (&mut e.payload, &payload) {
                    (UpdatePayload::Set(cur), UpdatePayload::Set(v)) => {
                        *cur = *v;
                        e.writer = id;
                        true
                    }
                    (UpdatePayload::Add(cur), UpdatePayload::Add(d)) => match cur.checked_add(*d) {
                        Some(sum) => {
                            *cur = sum;
                            e.adds.push(id.seq);
                            e.writer = id;
                            true
                        }
                        None => false,
                    },
                    // Kind mismatch: a fresh entry keeps application order.
                    _ => false,
                }
            }
            None => false,
        };
        if !coalesced {
            let adds = match &payload {
                UpdatePayload::Add(_) => vec![id.seq],
                UpdatePayload::Set(_) => Vec::new(),
            };
            self.last_idx.insert(loc, self.entries.len());
            self.entries.push(BatchEntry { loc, payload, writer: id, adds });
        }
        self.entries.len()
    }

    /// Empties the buffer: `(base, upto, entries, deps)`. The entries
    /// come back as one shared buffer, so every copy of a fan-out (and
    /// every session retransmit) bumps a refcount instead of cloning.
    fn take(&mut self) -> (u32, u32, Arc<[BatchEntry]>, D) {
        let entries = std::mem::take(&mut self.entries).into();
        self.last_idx.clear();
        (self.base, self.upto, entries, std::mem::take(&mut self.deps))
    }
}

/// Dependency triples of a sharded write.
type ShardDeps = Vec<(u32, ProcId, u32)>;

/// The node of process `p` (process `i` runs on node `i`).
fn proc_node(p: ProcId) -> NodeId {
    NodeId(p.0)
}

/// Process `me`'s replica as `cfg` configures it: from `snap` when
/// given, pre-sized, coherent per its lattice point, and sharded with
/// the static interest set (sharding binds to the replicated modes
/// only: the SC substrate's central server holds the one authoritative
/// copy).
fn fresh_replica(me: ProcId, cfg: &DsmConfig, snap: Option<&Snapshot>) -> Replica {
    let r = match snap {
        Some(snap) => Replica::from_snapshot(me, cfg.nprocs, snap),
        None => Replica::new(me, cfg.nprocs),
    };
    let coherent = cfg.models.as_ref().is_some_and(|m| m.is_coherent(me));
    let r = r.with_store_capacity(cfg.locations).with_coherent(coherent);
    match cfg.sharding.as_ref().filter(|_| cfg.mode.is_replicated()) {
        Some(sc) => r.with_sharding(sc.nshards, sc.interest[me.index()].clone()),
        None => r,
    }
}

/// One process's memory-system node (see the module docs).
#[derive(Debug)]
pub struct ProcNode {
    me: ProcId,
    cfg: Arc<DsmConfig>,
    /// Sharded interest-based replication is active (a shard map on a
    /// replicated mode).
    sharded: bool,
    replica: Replica,
    blocked: Option<Blocked>,
    held: HashMap<LockId, LockMode>,
    granted: HashMap<LockId, GrantInfo>,
    flush_acks: usize,
    /// Flush probes whose acknowledgement awaits local applies.
    flush_waiters: Vec<(ProcId, u32)>,
    barrier_next: HashMap<BarrierId, u32>,
    barrier_released: HashMap<(BarrierId, u32), VClock>,
    sc_resp: Option<Resp>,
    sc_pending_write: Option<WriteId>,
    /// The outgoing update buffer (full replication with batching).
    batch: OutBatch<Option<VClock>>,
    /// Per-shard outgoing buffers (sharding with batching). One flush
    /// timer serves every shard.
    shard_out: HashMap<u32, OutBatch<ShardDeps>>,
    /// Sender-side shadow of the dependency clock last transmitted to
    /// each peer (vector-clock delta compression).
    link_clock_out: HashMap<NodeId, VClock>,
    /// Receiver-side shadow clocks reconstructing full vectors from each
    /// peer's per-link deltas. FIFO delivery (native or restored by the
    /// session layer) keeps both shadows in lockstep.
    link_clock_in: HashMap<NodeId, VClock>,
    /// Highest reborn incarnation already answered, per peer — a
    /// duplicated raw recovery request must not reset the link (and
    /// resend the delta) twice.
    recover_seen: HashMap<ProcId, u32>,
    /// High-water of own-write sequences already pushed back to each
    /// reborn peer — chunked recovery responses repeat `seen`, and the
    /// push-back must not repeat with them.
    recover_pushed: HashMap<ProcId, u32>,
    /// Multicast routes (sharding only): `shard_routes[s]` lists the
    /// peers this node knows to subscribe to shard `s` (self excluded).
    /// Seeded from the static interest sets; dynamic joiners merge in
    /// from [`Msg::SubNotify`], [`Msg::SubAck`] and recovery answers.
    /// Kept sorted so multicast order is deterministic under DPOR.
    shard_routes: Vec<Vec<ProcId>>,
    /// Log records appended since the last snapshot (the count-based
    /// compaction cadence).
    records_since_snap: u32,
}

impl ProcNode {
    /// The node of process `me` under `cfg`, with a fresh replica.
    pub fn new(me: ProcId, cfg: Arc<DsmConfig>) -> Self {
        let sharded = cfg.sharding.is_some() && cfg.mode.is_replicated();
        let shard_routes = match cfg.sharding.as_ref().filter(|_| sharded) {
            None => Vec::new(),
            Some(sc) => (0..sc.nshards)
                .map(|s| {
                    (0..cfg.nprocs as u32)
                        .map(ProcId)
                        .filter(|&q| q != me && sc.subscribed(q, s))
                        .collect()
                })
                .collect(),
        };
        ProcNode {
            me,
            replica: fresh_replica(me, &cfg, None),
            sharded,
            blocked: None,
            held: HashMap::new(),
            granted: HashMap::new(),
            flush_acks: 0,
            flush_waiters: Vec::new(),
            barrier_next: HashMap::new(),
            barrier_released: HashMap::new(),
            sc_resp: None,
            sc_pending_write: None,
            batch: OutBatch::default(),
            shard_out: HashMap::new(),
            link_clock_out: HashMap::new(),
            link_clock_in: HashMap::new(),
            recover_seen: HashMap::new(),
            recover_pushed: HashMap::new(),
            shard_routes,
            records_since_snap: 0,
            cfg,
        }
    }

    /// This node's process.
    pub fn proc(&self) -> ProcId {
        self.me
    }

    /// The replica (tests, invariant checks, diagnostics).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Consumes the node, keeping its replica (final-state collection).
    pub fn into_replica(self) -> Replica {
        self.replica
    }

    fn node(&self) -> NodeId {
        proc_node(self.me)
    }

    // ------------------------------------------------------------- effects

    /// Sends one protocol message. Group-commit externalization barrier:
    /// no message may leave while log records are still staged — a peer
    /// (or, transitively, the program) could otherwise observe a write
    /// that a crash then un-happens. Per-write policies sync at the
    /// write itself; group commit relies on this barrier (and on
    /// [`ProcNode::observe_sync`] for local reads) to amortize one fsync
    /// over every record staged since the last.
    fn send(&mut self, io: &mut impl NodeIo, to: NodeId, msg: Msg) {
        if self.cfg.durability.is_some_and(|d| d.group_commit) {
            io.wal_sync();
        }
        io.send(to, msg);
    }

    /// Stages one write-ahead-log record (not yet durable).
    fn wal_append(&mut self, io: &mut impl NodeIo, rec: &WalRecord) {
        io.wal_append(&rec.encode());
        self.records_since_snap += 1;
    }

    /// Fsync before an observation returns. Remote ingests are staged
    /// (appended, unsynced) until some local read or await could expose
    /// them to the program; past that point a crash must not un-happen
    /// them, or a surviving reader would watch its own history regress.
    fn observe_sync(&mut self, io: &mut impl NodeIo) {
        if self.cfg.durability.is_some() {
            io.wal_sync();
        }
    }

    /// Compacts the log into a snapshot once the record-count cadence
    /// (or the executor's wall-clock interval) is due. The log is
    /// fsynced first so the snapshot never covers records a crash could
    /// still drop.
    fn maybe_snapshot(&mut self, io: &mut impl NodeIo) {
        let Some(policy) = self.cfg.durability else { return };
        // Snapshots do not capture per-shard clocks, own chains, or
        // subscriptions: sharded replicas stay log-only, and recovery
        // replays the full WAL.
        if self.sharded {
            return;
        }
        let due = self.records_since_snap >= policy.snapshot_every
            || (self.records_since_snap > 0
                && io.snapshot_interval_elapsed(policy.snapshot_interval_micros));
        if !due {
            return;
        }
        io.wal_sync();
        let me = self.node();
        let watermarks = match io.session() {
            None => Vec::new(),
            Some(s) => (0..self.cfg.nprocs as u32)
                .filter(|&j| j != self.me.0)
                .map(|j| (ProcId(j), s.receiver(NodeId(j), me).delivered()))
                .collect(),
        };
        io.install_snapshot(self.replica.to_snapshot(watermarks).encode());
        self.records_since_snap = 0;
    }

    /// Delta compression for the link to `to`: only the clock components
    /// that changed since the last frame on this link go on the wire,
    /// as absolute values.
    fn batch_delta(&mut self, to: NodeId, deps: &VClock) -> Vec<(ProcId, u32)> {
        let n = self.cfg.nprocs;
        let prev = self.link_clock_out.entry(to).or_insert_with(|| VClock::new(n));
        let changed: Vec<(ProcId, u32)> = (0..n as u32)
            .map(ProcId)
            .filter(|&q| deps[q] != prev[q])
            .map(|q| (q, deps[q]))
            .collect();
        *prev = deps.clone();
        changed
    }

    /// Sends `msg` to every peer replica.
    fn broadcast(&mut self, io: &mut impl NodeIo, msg: Msg) {
        for i in 0..self.cfg.nprocs as u32 {
            if i != self.me.0 {
                self.send(io, NodeId(i), msg.clone());
            }
        }
    }

    /// Multicasts a sharded message to the peers this node knows to
    /// subscribe to `shard` — the partial-replication broadcast.
    fn multicast_shard(&mut self, io: &mut impl NodeIo, shard: u32, msg: Msg) {
        let peers = self.shard_routes[shard as usize].clone();
        for q in peers {
            self.send(io, proc_node(q), msg.clone());
        }
    }

    /// Records that `q` subscribes to `shard` (routes never list this
    /// node's own process; insertion keeps them sorted).
    fn add_shard_route(&mut self, shard: u32, q: ProcId) {
        if q == self.me {
            return;
        }
        let routes = &mut self.shard_routes[shard as usize];
        if let Err(i) = routes.binary_search(&q) {
            routes.insert(i, q);
        }
    }

    /// Arms the flush timer: a write is entering empty buffers.
    fn arm_flush(&self, io: &mut impl NodeIo) {
        io.arm_flush_timer(self.cfg.batch.expect("batching enabled").max_delay_micros);
    }

    // ------------------------------------------------------------ batching

    /// Buffers a local write into the outgoing batch, arming the flush
    /// timer on the empty→non-empty transition and force-flushing at the
    /// policy's size limit.
    fn buffer_write(
        &mut self,
        io: &mut impl NodeIo,
        loc: Loc,
        payload: UpdatePayload,
        id: WriteId,
        deps: Option<VClock>,
    ) {
        if self.batch.is_empty() {
            self.arm_flush(io);
        }
        let max = self.cfg.batch.expect("batching enabled").max_updates;
        if self.batch.push(id.seq, loc, payload, id, deps) >= max {
            self.flush_updates(io);
        }
    }

    /// Buffers a sharded local write into its shard's outgoing batch,
    /// sharing the one flush timer across shards.
    fn buffer_shard_write(
        &mut self,
        io: &mut impl NodeIo,
        loc: Loc,
        payload: UpdatePayload,
        id: WriteId,
        prev: u32,
        deps: ShardDeps,
    ) {
        let shard = self.cfg.sharding.as_ref().expect("sharded").shard_of(loc) as u32;
        // Program order crosses shards: this write's dependency triples
        // cover the process's own *buffered* writes in other shards, so
        // two chains buffered concurrently could each require a member
        // of the other and deadlock every receiver. Ship the other
        // shards' buffers first — a chain then only references own
        // writes already on the wire, and coalescing still collapses
        // runs of same-shard writes (the locality case sharding is
        // built around).
        let mut others: Vec<u32> = self
            .shard_out
            .iter()
            .filter(|&(&s, b)| s != shard && !b.is_empty())
            .map(|(&s, _)| s)
            .collect();
        others.sort_unstable();
        for s in others {
            self.flush_shard(io, s);
        }
        if self.shard_out.get(&shard).is_none_or(OutBatch::is_empty) {
            self.arm_flush(io);
        }
        let max = self.cfg.batch.expect("batching enabled").max_updates;
        if self.shard_out.entry(shard).or_default().push(prev, loc, payload, id, deps) >= max {
            self.flush_shard(io, shard);
        }
    }

    /// Flushes one shard's outgoing buffer to its subscribers.
    fn flush_shard(&mut self, io: &mut impl NodeIo, shard: u32) {
        let Some(b) = self.shard_out.get_mut(&shard) else { return };
        if b.is_empty() {
            return;
        }
        let (prev, upto, entries, deps) = b.take();
        let msg = Msg::ShardUpdateBatch { proc: self.me, shard, prev, upto, entries, deps };
        self.multicast_shard(io, shard, msg);
    }

    /// Flushes the outgoing batch (no-op when empty or when batching is
    /// off) to every peer replica, attaching a per-link dependency-clock
    /// delta and — when the session layer runs — a piggybacked
    /// cumulative ack for the reverse link. Sharded, every non-empty
    /// shard buffer goes out in shard order (deterministic under DPOR).
    /// Called before every message that establishes `↦lock`/`↦bar`
    /// order, at the size limit, and when the flush timer expires.
    fn flush_updates(&mut self, io: &mut impl NodeIo) {
        if self.cfg.batch.is_none() {
            return;
        }
        if self.sharded {
            let mut shards: Vec<u32> =
                self.shard_out.iter().filter(|(_, b)| !b.is_empty()).map(|(&s, _)| s).collect();
            shards.sort_unstable();
            for s in shards {
                self.flush_shard(io, s);
            }
            return;
        }
        if self.batch.is_empty() {
            return;
        }
        let (first_seq, upto, entries, deps) = self.batch.take();
        let me = self.node();
        for j in 0..self.cfg.nprocs as u32 {
            if j == self.me.0 {
                continue;
            }
            let to = NodeId(j);
            let delta = deps.as_ref().map(|d| self.batch_delta(to, d));
            let ack = io.session().and_then(|s| {
                let rx = s.receiver(to, me);
                let upto = rx.delivered();
                (upto > 0).then_some((upto, rx.epoch()))
            });
            let msg = Msg::UpdateBatch {
                proc: self.me,
                first_seq,
                upto,
                entries: entries.clone(),
                delta,
                ack,
            };
            self.send(io, to, msg);
        }
    }

    /// The flush timer expired — or the executor is about to park the
    /// process and must not sit on buffered writes a peer may await.
    pub fn on_flush_due(&mut self, io: &mut impl NodeIo) {
        self.flush_updates(io);
    }

    // ------------------------------------------------------------ requests

    /// Gates a sharded access to `loc` on a subscription to its shard.
    /// Returns `true` when the access may proceed (not sharded, or
    /// already subscribed). A first touch outside the interest set
    /// parks the process on a directory round-trip when the dynamic
    /// fallback is enabled, and is a program error otherwise.
    fn shard_gate(&mut self, io: &mut impl NodeIo, loc: Loc, req: &Req) -> bool {
        if !self.sharded {
            return true;
        }
        let (shard, dynamic) = {
            let sc = self.cfg.sharding.as_ref().expect("sharded");
            (sc.shard_of(loc), sc.dynamic)
        };
        if self.replica.shards().expect("sharded").subscribed(shard) {
            return true;
        }
        assert!(
            dynamic,
            "{} touches {loc} (shard {shard}) outside its interest set \
             and the dynamic subscribe-on-first-touch fallback is off",
            self.me
        );
        let shard = shard as u32;
        let mgr = self.cfg.manager_node();
        self.send(io, mgr, Msg::SubReq { proc: self.me, shard });
        self.blocked = Some(Blocked::Subscribe { shard, retry: Box::new(req.clone()) });
        false
    }

    fn read_ready(&mut self, io: &mut impl NodeIo, loc: Loc, label: ReadLabel) -> Option<Resp> {
        let r = &self.replica;
        let ok = match label {
            ReadLabel::Causal => r.causal_ready(loc),
            ReadLabel::Pram => r.pram_ready(loc),
        };
        if !ok {
            return None;
        }
        let (value, writer) = (r.value(loc), r.writer_of(loc));
        self.observe_sync(io);
        Some(Resp::Value { value, writer })
    }

    fn await_ready(&mut self, io: &mut impl NodeIo, loc: Loc, value: Value) -> Option<Resp> {
        if self.replica.value(loc) != value {
            return None;
        }
        let writers = self.replica.await_writers(loc);
        self.observe_sync(io);
        Some(Resp::Awaited { value, writers })
    }

    /// A read past the SC and shard gates: answers or parks.
    fn read(&mut self, io: &mut impl NodeIo, loc: Loc, label: ReadLabel) -> Option<Resp> {
        let label = self.cfg.read_policy(self.me, label);
        let resp = self.read_ready(io, loc, label);
        if resp.is_none() {
            self.blocked = Some(Blocked::Read { loc, label });
        }
        resp
    }

    /// An await past the SC and shard gates: answers or parks.
    fn await_eq(&mut self, io: &mut impl NodeIo, loc: Loc, value: Value) -> Option<Resp> {
        let resp = self.await_ready(io, loc, value);
        if resp.is_none() {
            // Blocking on a flag others may in turn await: don't sit on
            // unflushed writes while parked.
            self.flush_updates(io);
            self.blocked = Some(Blocked::Await { loc, value });
        }
        resp
    }

    /// Submits one request. `Ready` answers at once; `Pending` parks the
    /// process until [`ProcNode::poll`] answers.
    pub fn start(&mut self, io: &mut impl NodeIo, req: Req) -> Poll<Resp> {
        let p = self.me;
        let resp = match req {
            Req::Read { loc, label } => {
                if self.cfg.mode == Mode::Sc {
                    self.send(io, self.cfg.manager_node(), Msg::ScRead { proc: p, loc });
                    self.blocked = Some(Blocked::Sc);
                    return Poll::Pending;
                }
                if !self.shard_gate(io, loc, &req) {
                    return Poll::Pending;
                }
                self.read(io, loc, label)
            }
            Req::Write { loc, value } => self.write(io, loc, UpdatePayload::Set(value)),
            Req::Update { loc, delta } => self.write(io, loc, UpdatePayload::Add(delta)),
            Req::Lock { lock, mode } => {
                assert!(!self.sharded, "locks are not supported with sharding");
                assert!(!self.held.contains_key(&lock), "{p} re-acquires {lock}");
                let mgr = self.cfg.lock_manager_node(lock);
                self.send(io, mgr, Msg::LockReq { proc: p, lock, mode });
                self.blocked = Some(Blocked::Lock { lock, mode });
                None
            }
            Req::Unlock { lock, mode } => {
                let held = self.held.get(&lock).copied();
                assert_eq!(held, Some(mode), "{p} unlocks {lock} with wrong mode");
                let eager_flush = self.cfg.lock_propagation == LockPropagation::Eager
                    && self.cfg.mode.is_replicated()
                    && self.cfg.nprocs > 1;
                if eager_flush {
                    // Buffered updates must precede the flush probes on
                    // every link, or peers could never reach `upto`.
                    self.flush_updates(io);
                    let upto = self.replica.own_count();
                    self.flush_acks = 0;
                    self.broadcast(io, Msg::Flush { from_proc: p, upto });
                    self.blocked = Some(Blocked::UnlockFlush { lock });
                    None
                } else {
                    self.finish_release(io, lock);
                    Some(Resp::Done)
                }
            }
            Req::Barrier { barrier } => {
                assert!(!self.sharded, "barriers are not supported with sharding");
                let round = {
                    let e = self.barrier_next.entry(barrier).or_insert(0);
                    let r = *e;
                    *e += 1;
                    r
                };
                // The arrival establishes `↦bar` order: flush first so
                // participants released with our knowledge can apply
                // the writes it promises.
                self.flush_updates(io);
                let knowledge = match self.cfg.mode {
                    Mode::Causal | Mode::Mixed => self.replica.knowledge(),
                    // PRAM barriers carry the per-sender update counts
                    // (Section 6).
                    Mode::Pram => self.replica.applied.clone(),
                    Mode::Sc => VClock::new(0),
                };
                let mgr = self.cfg.barrier_manager_node(barrier);
                self.send(io, mgr, Msg::BarrierArrive { proc: p, barrier, round, knowledge });
                self.blocked = Some(Blocked::Barrier { barrier, round });
                None
            }
            Req::Await { loc, value } => {
                if self.cfg.mode == Mode::Sc {
                    let msg = Msg::ScAwait { proc: p, loc, value };
                    self.send(io, self.cfg.manager_node(), msg);
                    self.blocked = Some(Blocked::Sc);
                    return Poll::Pending;
                }
                if !self.shard_gate(io, loc, &req) {
                    return Poll::Pending;
                }
                self.await_eq(io, loc, value)
            }
        };
        match resp {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        }
    }

    /// Re-examines the parked request (if any) after an event; `Some`
    /// answers it and unparks the process.
    pub fn poll(&mut self, io: &mut impl NodeIo) -> Option<Resp> {
        let blocked = self.blocked.clone()?;
        let resp = match blocked {
            Blocked::Read { loc, label } => self.read_ready(io, loc, label),
            Blocked::Await { loc, value } => self.await_ready(io, loc, value),
            Blocked::Sc => self.sc_resp.take(),
            Blocked::Lock { lock, mode } => {
                let grant_ready = match self.granted.get(&lock) {
                    None => false,
                    // In SC mode the data lives at the server; grants
                    // never gate on replica state.
                    Some(_) if !self.cfg.mode.is_replicated() => true,
                    Some(g) => match self.cfg.lock_propagation {
                        LockPropagation::Eager | LockPropagation::DemandDriven => true,
                        LockPropagation::Lazy => {
                            let r = &self.replica;
                            if g.knowledge.is_empty() {
                                g.preds.iter().all(|&(q, c)| r.applied[q] >= c)
                            } else {
                                r.applied.dominates(&g.knowledge)
                            }
                        }
                    },
                };
                if grant_ready {
                    let g = self.granted.remove(&lock).expect("checked");
                    if self.cfg.lock_propagation == LockPropagation::DemandDriven {
                        self.replica.absorb_demand(&g.demand);
                    } else {
                        self.replica.absorb_sync(&g.knowledge, &g.preds);
                    }
                    self.held.insert(lock, mode);
                    Some(Resp::Done)
                } else {
                    None
                }
            }
            Blocked::UnlockFlush { lock } => {
                if self.flush_acks == self.cfg.nprocs - 1 {
                    self.flush_acks = 0;
                    self.finish_release(io, lock);
                    Some(Resp::Done)
                } else {
                    None
                }
            }
            Blocked::Barrier { barrier, round } => {
                self.barrier_released.remove(&(barrier, round)).map(|k| {
                    let r = &mut self.replica;
                    if !k.is_empty() {
                        if self.cfg.mode.carries_vectors() {
                            r.must_see.merge(&k);
                        }
                        r.pram_wait.merge(&k);
                    }
                    Resp::BarrierPassed { round }
                })
            }
            Blocked::Subscribe { shard, retry } => {
                if !self.replica.shards().is_some_and(|st| st.subscribed(shard as usize)) {
                    return None;
                }
                // Subscribed: retry the stashed first-touch request. The
                // retry may park again on its own account (an await, a
                // not-yet-ready read) — it cannot re-enter the subscribe
                // gate for this shard.
                self.blocked = None;
                match *retry {
                    Req::Read { loc, label } => self.read(io, loc, label),
                    Req::Write { loc, value } => self.write(io, loc, UpdatePayload::Set(value)),
                    Req::Update { loc, delta } => self.write(io, loc, UpdatePayload::Add(delta)),
                    Req::Await { loc, value } => self.await_eq(io, loc, value),
                    other => unreachable!("subscribe gate stashed {other:?}"),
                }
            }
        };
        if resp.is_some() {
            self.blocked = None;
        }
        resp
    }

    /// Sends the release to the manager, shipping demand/lazy metadata.
    /// Buffered updates flush first: the release establishes `↦lock`
    /// order, so every write program-ordered before it must already be
    /// on the wire (FIFO links then deliver them ahead of any knowledge
    /// derived from this release).
    fn finish_release(&mut self, io: &mut impl NodeIo, lock: LockId) {
        self.flush_updates(io);
        let mode = self
            .held
            .remove(&lock)
            .unwrap_or_else(|| panic!("{} releases {lock} it does not hold", self.me));
        let r = &mut self.replica;
        let dirty = if self.cfg.lock_propagation == LockPropagation::DemandDriven {
            r.take_dirty(lock)
        } else {
            Vec::new()
        };
        let knowledge =
            if self.cfg.mode.carries_vectors() { r.knowledge() } else { VClock::new(0) };
        let msg =
            Msg::LockRel { proc: self.me, lock, mode, knowledge, own_count: r.own_count(), dirty };
        io.releasing(lock, mode);
        self.send(io, self.cfg.lock_manager_node(lock), msg);
    }

    /// A write or update: to the SC server, through the shard gate and
    /// per-shard chain, or minted locally and broadcast (or buffered).
    /// `None` when the process parks (SC round trip, first touch).
    fn write(&mut self, io: &mut impl NodeIo, loc: Loc, payload: UpdatePayload) -> Option<Resp> {
        let p = self.me;
        if self.cfg.mode == Mode::Sc {
            self.replica.applied.tick(p);
            let id = WriteId::new(p, self.replica.applied[p]);
            self.sc_pending_write = Some(id);
            self.send(io, self.cfg.manager_node(), Msg::ScWrite { writer: id, loc, payload });
            self.blocked = Some(Blocked::Sc);
            return None;
        }
        if self.sharded {
            let req = match payload {
                UpdatePayload::Set(value) => Req::Write { loc, value },
                UpdatePayload::Add(delta) => Req::Update { loc, delta },
            };
            if !self.shard_gate(io, loc, &req) {
                return None;
            }
            return Some(self.sharded_write(io, loc, payload));
        }
        let (id, deps) = self.replica.local_write(loc, payload.clone(), &self.cfg);
        if let Some(policy) = self.cfg.durability {
            // Append-before-ack: the write's log record is staged before
            // `Wrote` reaches the program. Per-write policies fsync
            // here; group commit defers to the next outgoing message or
            // observation, amortizing one sync over every record staged
            // since the last.
            let rec = WalRecord::OwnWrite { loc, payload: payload.clone(), deps: deps.clone() };
            self.wal_append(io, &rec);
            if !policy.group_commit {
                io.wal_sync();
            }
            self.maybe_snapshot(io);
        }
        if self.cfg.batch.is_some() {
            self.buffer_write(io, loc, payload, id, deps);
        } else {
            self.broadcast(io, Msg::Update { writer: id, loc, payload, deps });
        }
        // The local apply may satisfy pending flush probes.
        self.drain_flush_waiters(io);
        Some(Resp::Wrote { id })
    }

    /// The sharded write path: mint through the per-shard chain, log,
    /// and multicast (or buffer) to the shard's subscribers only.
    fn sharded_write(&mut self, io: &mut impl NodeIo, loc: Loc, payload: UpdatePayload) -> Resp {
        let (id, prev, deps) = self.replica.sharded_write(loc, payload.clone(), &self.cfg);
        if let Some(policy) = self.cfg.durability {
            let rec =
                WalRecord::OwnWriteSharded { loc, payload: payload.clone(), deps: deps.clone() };
            self.wal_append(io, &rec);
            if !policy.group_commit {
                io.wal_sync();
            }
        }
        if self.cfg.batch.is_some() {
            self.buffer_shard_write(io, loc, payload, id, prev, deps);
        } else {
            let shard = self.cfg.sharding.as_ref().expect("sharded").shard_of(loc) as u32;
            self.multicast_shard(
                io,
                shard,
                Msg::ShardUpdate { writer: id, loc, payload, prev, deps },
            );
        }
        Resp::Wrote { id }
    }

    /// After applies, acknowledges every satisfied flush probe.
    fn drain_flush_waiters(&mut self, io: &mut impl NodeIo) {
        let waiters = std::mem::take(&mut self.flush_waiters);
        let (ready, still): (Vec<_>, Vec<_>) =
            waiters.into_iter().partition(|&(fp, upto)| self.replica.applied[fp] >= upto);
        self.flush_waiters = still;
        for (fp, _) in ready {
            self.send(io, proc_node(fp), Msg::FlushAck);
        }
    }

    // ------------------------------------------------------------ messages

    /// Whether a durable replica already holds `upto` of `proc`'s writes
    /// in `shard` (full replication: `shard` is `None`). Recovery can
    /// re-deliver content the disk (or a recovery answer) already
    /// covers; such ghosts must be neither re-applied nor re-logged.
    /// Without durability, duplicate chaos stays visible to the
    /// checkers.
    fn is_ghost(&self, proc: ProcId, shard: Option<usize>, upto: u32) -> bool {
        if self.cfg.durability.is_none() {
            return false;
        }
        let have = match shard {
            None => self.replica.applied[proc],
            Some(s) => self.replica.shards().expect("sharded").applied(s).get(proc),
        };
        upto <= have
    }

    /// Logs (when durable) and ingests one remote batch of `proc`'s
    /// writes `first_seq..=upto`.
    #[allow(clippy::too_many_arguments)]
    fn ingest_batch(
        &mut self,
        io: &mut impl NodeIo,
        proc: ProcId,
        first_seq: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: Option<VClock>,
    ) {
        if self.cfg.durability.is_some() {
            let rec = WalRecord::IngestBatch {
                proc,
                first_seq,
                upto,
                entries: entries.to_vec(),
                deps: deps.clone(),
            };
            self.wal_append(io, &rec);
            self.maybe_snapshot(io);
        }
        if self.replica.ingest_batch(proc, first_seq, upto, entries, deps, self.cfg.mode) {
            self.drain_flush_waiters(io);
        }
    }

    /// Logs (when durable) and ingests one remote chain of `proc`'s
    /// writes in `shard`.
    #[allow(clippy::too_many_arguments)]
    fn ingest_shard_chain(
        &mut self,
        io: &mut impl NodeIo,
        proc: ProcId,
        shard: u32,
        prev: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: ShardDeps,
        trim: bool,
    ) {
        if self.cfg.durability.is_some() {
            let rec = WalRecord::IngestShardChain {
                proc,
                shard,
                prev,
                upto,
                entries: entries.to_vec(),
                deps: deps.clone(),
                trim,
            };
            self.wal_append(io, &rec);
        }
        let mode = self.cfg.mode;
        self.replica.ingest_shard_chain(proc, shard, prev, upto, entries, deps, mode, trim);
    }

    /// Resets the session link toward a reborn peer into a fresh,
    /// higher epoch — its newborn receiver would otherwise buffer
    /// forever behind sequence numbers that died with the old
    /// incarnation. Update-class payloads are dropped rather than
    /// re-wrapped: their content (with full dependency information)
    /// travels in the recovery answer, and their deltas reference shadow
    /// clocks about to be cleared. The shadows are cleared on this side
    /// to match the reborn node's empty ones.
    fn reset_reborn_link(&mut self, io: &mut impl NodeIo, reborn: NodeId) {
        let me = self.node();
        let wire = io.session().map(|s| {
            s.reset_sender_with(me, reborn, |m| {
                !matches!(
                    m,
                    Msg::Update { .. }
                        | Msg::UpdateBatch { .. }
                        | Msg::RecoverResp { .. }
                        | Msg::ShardUpdate { .. }
                        | Msg::ShardUpdateBatch { .. }
                        | Msg::ShardRecoverResp { .. }
                )
            })
        });
        if let Some(wire) = wire {
            io.resend(reborn, wire);
        }
        self.link_clock_out.remove(&reborn);
        self.link_clock_in.remove(&reborn);
    }

    /// Whether a (raw, hence possibly duplicated) recovery request from
    /// `reborn`'s `incarnation` is new; marks it handled.
    fn first_recover_req(&mut self, reborn: ProcId, incarnation: u32) -> bool {
        let handled = self.recover_seen.entry(reborn).or_insert(0);
        if incarnation <= *handled {
            return false;
        }
        *handled = incarnation;
        true
    }

    /// Delivers one unwrapped protocol message from node `from`.
    pub fn on_msg(&mut self, io: &mut impl NodeIo, from: NodeId, msg: Msg) {
        let me = self.node();
        match msg {
            Msg::Update { writer, loc, payload, deps } => {
                if self.is_ghost(writer.proc, None, writer.seq) {
                    return;
                }
                if self.cfg.durability.is_some() {
                    let rec = WalRecord::Ingest {
                        writer,
                        loc,
                        payload: payload.clone(),
                        deps: deps.clone(),
                    };
                    self.wal_append(io, &rec);
                    self.maybe_snapshot(io);
                }
                if self.replica.ingest(writer, loc, payload, deps, self.cfg.mode) {
                    self.drain_flush_waiters(io);
                }
            }
            Msg::UpdateBatch { proc, first_seq, upto, entries, delta, ack } => {
                // A piggybacked ack covers the reverse link, sparing a
                // standalone SessAck's information (the standalone still
                // travels; cumulative acks are idempotent). The epoch tag
                // keeps a pre-crash ack from advancing a reborn sender.
                if let Some((acked, epoch)) = ack {
                    if let Some(s) = io.session() {
                        let cfg = s.cfg;
                        s.sender(me, from).on_ack(acked, epoch, &cfg);
                    }
                }
                // Reconstruct the full dependency clock from the
                // per-link delta against this link's shadow copy. This
                // happens before the recovery-ghost check: any batch
                // that reaches the node belongs to the link's current
                // epoch chain (stale-epoch traffic dies in the session
                // receiver, pre-crash in-flight dies with the crash), so
                // even a ghost's delta must advance the shadow to keep it
                // in lockstep with the sender's.
                let n = self.cfg.nprocs;
                let deps = delta.map(|dv| {
                    let prev = self.link_clock_in.entry(from).or_insert_with(|| VClock::new(n));
                    for (q, c) in dv {
                        prev.set(q, c);
                    }
                    prev.clone()
                });
                // Batch windows from one writer never partially overlap,
                // so a whole-batch ghost skip is exact.
                if self.is_ghost(proc, None, upto) {
                    return;
                }
                self.ingest_batch(io, proc, first_seq, upto, entries, deps);
            }
            Msg::RecoverReq { proc: reborn, incarnation, applied } => {
                debug_assert_eq!(proc_node(reborn), from, "requests come from the reborn");
                if !self.first_recover_req(reborn, incarnation) {
                    return;
                }
                // Writes still coalescing in the out-batch are already
                // in our durable history; flush so the recovery delta
                // and the shadow clocks agree on what has been sent.
                self.flush_updates(io);
                self.reset_reborn_link(io, from);
                // Answer with the suffix of our own writes the reborn
                // replica is missing — full dependency vectors, no link
                // delta — plus how much of *its* history we hold, so it
                // can push back its own suffix. One response per
                // dependency-homogeneous chunk: a single batch gated on
                // its last member's vector deadlocks when two survivors'
                // deltas cross-reference each other's writes (see
                // `Replica::delta_chunks`). Every chunk carries `seen`;
                // the push-back dedups on the reborn side.
                self.recover_pushed.remove(&reborn);
                let after = applied[self.me];
                let seen = self.replica.applied[reborn];
                let chunks = self.replica.delta_chunks(after);
                if chunks.is_empty() {
                    let resp = Msg::RecoverResp {
                        proc: self.me,
                        first_seq: after + 1,
                        upto: after,
                        entries: Vec::new(),
                        deps: None,
                        seen,
                    };
                    self.send(io, from, resp);
                }
                for (first_seq, upto, entries, deps) in chunks {
                    let resp =
                        Msg::RecoverResp { proc: self.me, first_seq, upto, entries, deps, seen };
                    self.send(io, from, resp);
                }
            }
            Msg::RecoverResp { proc, first_seq, upto, entries, deps, seen } => {
                // Continuity guard: a duplicated response (or one raced
                // by an in-flight pre-crash copy) re-covers the applied
                // prefix — skip it rather than double-ingest.
                if upto >= first_seq && first_seq > self.replica.applied[proc] {
                    self.ingest_batch(io, proc, first_seq, upto, entries.into(), deps);
                }
                // Push back our own suffix the responder has not seen,
                // as plain batches chunked at dependency boundaries: the
                // shadow clocks for this link were cleared on both
                // sides, so the first delta degenerates to the full
                // vector. High-watered — one RecoverResp arrives per
                // chunk and each repeats `seen`, so the suffix must be
                // pushed exactly once.
                let pushed = self.recover_pushed.get(&proc).copied().unwrap_or(0);
                let chunks = self.replica.delta_chunks(seen.max(pushed));
                if let Some(&(_, last_upto, _, _)) = chunks.last() {
                    self.recover_pushed.insert(proc, last_upto);
                }
                for (first_seq, upto, entries, d) in chunks {
                    let delta = d.as_ref().map(|deps| self.batch_delta(from, deps));
                    let msg = Msg::UpdateBatch {
                        proc: self.me,
                        first_seq,
                        upto,
                        entries: entries.into(),
                        delta,
                        ack: None,
                    };
                    self.send(io, from, msg);
                }
            }
            Msg::Flush { from_proc, upto } => {
                if self.replica.applied[from_proc] >= upto {
                    self.send(io, proc_node(from_proc), Msg::FlushAck);
                } else {
                    self.flush_waiters.push((from_proc, upto));
                }
            }
            Msg::FlushAck => self.flush_acks += 1,
            Msg::LockGrant { lock, grant } => {
                self.granted.insert(lock, grant);
            }
            Msg::BarrierRelease { barrier, round, knowledge } => {
                self.barrier_released.insert((barrier, round), knowledge);
            }
            Msg::ScReadResp { value, writer } => self.sc_resp = Some(Resp::Value { value, writer }),
            Msg::ScWriteAck => {
                let id = self.sc_pending_write.take().expect("pending SC write");
                self.sc_resp = Some(Resp::Wrote { id });
            }
            Msg::ScAwaitResp { value, writers } => {
                self.sc_resp = Some(Resp::Awaited { value, writers });
            }
            Msg::ShardUpdate { writer, loc, payload, prev, deps } => {
                let shard = self.replica.shards().expect("sharded").shard_of(loc);
                if self.is_ghost(writer.proc, Some(shard), writer.seq) {
                    return;
                }
                if self.cfg.durability.is_some() {
                    let rec = WalRecord::IngestSharded {
                        writer,
                        loc,
                        payload: payload.clone(),
                        prev,
                        deps: deps.clone(),
                    };
                    self.wal_append(io, &rec);
                }
                self.replica.ingest_sharded(writer, loc, payload, prev, deps, self.cfg.mode);
            }
            Msg::ShardUpdateBatch { proc, shard, prev, upto, entries, deps } => {
                if self.is_ghost(proc, Some(shard as usize), upto) {
                    return;
                }
                self.ingest_shard_chain(io, proc, shard, prev, upto, entries, deps, false);
            }
            Msg::SubAck { shard, subs } => {
                // Persist the subscription before any access can depend
                // on it: replay must filter dependency triples with the
                // same interest set the replica had live.
                if self.replica.shard_subscribe(shard as usize) && self.cfg.durability.is_some() {
                    self.wal_append(io, &WalRecord::Subscribe { shard });
                    io.wal_sync();
                }
                for q in subs {
                    self.add_shard_route(shard, q);
                }
                // The first-touch request retries in `poll`.
            }
            Msg::SubNotify { shard, proc } => {
                // A new subscriber joined: route future updates to it
                // and push our own write suffix for the shard directly,
                // so the join window closes without third-party state.
                // One update per write — an atomic chain can deadlock
                // against another parked chain whose dependency triples
                // point back into this shard.
                self.add_shard_route(shard, proc);
                for (writer, loc, payload, prev, deps) in
                    self.replica.shard_updates_after(&[(shard, 0)])
                {
                    let msg = Msg::ShardUpdate { writer, loc, payload, prev, deps };
                    self.send(io, proc_node(proc), msg);
                }
            }
            Msg::ShardRecoverReq { proc: reborn, incarnation, applied } => {
                debug_assert_eq!(proc_node(reborn), from, "requests come from the reborn");
                if !self.first_recover_req(reborn, incarnation) {
                    return;
                }
                // Buffered shard batches are already in our durable own
                // chains; flush so the recovery delta covers them.
                self.flush_updates(io);
                self.reset_reborn_link(io, from);
                // Answer once per shard we share. The triples' shard ids
                // double as the reborn's subscription set (zeros kept),
                // so this also re-learns a dynamic subscriber's routes.
                // Each answer carries only the watermark metadata (the
                // push-back trigger); the write suffix itself follows as
                // individual ShardUpdates interleaved across shards in
                // global sequence order — per-shard atomic chains with
                // mutual cross-shard triples would park against each
                // other forever on a reborn replica that lost both.
                let mut shards: Vec<u32> = applied.iter().map(|&(s, _, _)| s).collect();
                shards.dedup();
                let mut wants = Vec::new();
                for s in shards {
                    let st = self.replica.shards().expect("sharded");
                    if !st.subscribed(s as usize) {
                        continue;
                    }
                    let seen = st.applied(s as usize).get(reborn);
                    self.add_shard_route(s, reborn);
                    let after = applied
                        .iter()
                        .find(|&&(ds, q, _)| ds == s && q == self.me)
                        .map_or(0, |&(_, _, c)| c);
                    let msg = Msg::ShardRecoverResp {
                        proc: self.me,
                        shard: s,
                        prev: after,
                        upto: after,
                        entries: Vec::new(),
                        deps: Vec::new(),
                        seen,
                    };
                    self.send(io, from, msg);
                    wants.push((s, after));
                }
                for (writer, loc, payload, prev, deps) in self.replica.shard_updates_after(&wants) {
                    self.send(io, from, Msg::ShardUpdate { writer, loc, payload, prev, deps });
                }
            }
            Msg::ShardRecoverResp { proc, shard, prev, upto, entries, deps, seen } => {
                // The responder subscribes to the shard, or it would not
                // answer for it — merge the route (recovery re-learning,
                // and the join-backfill path where it is already known).
                self.add_shard_route(shard, proc);
                let have =
                    self.replica.shards().expect("sharded").applied(shard as usize).get(proc);
                if upto > have {
                    self.ingest_shard_chain(
                        io,
                        proc,
                        shard,
                        prev,
                        upto,
                        entries.into(),
                        deps,
                        true,
                    );
                }
                // Push back our own suffix the responder has not seen,
                // one update per write for the same acyclicity reason as
                // the recovery answers themselves.
                for (writer, loc, payload, prev, deps) in
                    self.replica.shard_updates_after(&[(shard, seen)])
                {
                    let msg = Msg::ShardUpdate { writer, loc, payload, prev, deps };
                    self.send(io, proc_node(proc), msg);
                }
            }
            other => panic!("replica received unexpected {other:?}"),
        }
    }

    // ------------------------------------------------------------ recovery

    /// Rebuilds the node from its durable state after a crash (or at
    /// startup over existing state): the replica is rebuilt from the
    /// snapshot plus the replayed log records, the incarnation is bumped
    /// and persisted (fsynced before any session traffic, so a second
    /// crash cannot resurrect this epoch space), every piece of volatile
    /// per-link state is wiped, and every peer is asked — raw, never
    /// sessioned — for the missing delta.
    ///
    /// The client program survives: its earned read gates and lock
    /// watermarks carry over onto the reborn replica, so post-crash
    /// reads still wait for everything the program has already
    /// observed.
    pub fn rebuild(
        &mut self,
        io: &mut impl NodeIo,
        snapshot: Option<&Snapshot>,
        records: Vec<WalRecord>,
    ) {
        let fresh = fresh_replica(self.me, &self.cfg, snapshot);
        let old = std::mem::replace(&mut self.replica, fresh);
        let replayed = records.len() as u32;
        for rec in records {
            self.replica.replay_record(rec, self.cfg.mode);
        }
        let r = &mut self.replica;
        r.must_see = old.must_see;
        r.pram_wait = old.pram_wait;
        r.invalid = old.invalid;
        r.lock_watermarks = old.lock_watermarks;
        let inc = r.incarnation.max(old.incarnation) + 1;
        r.incarnation = inc;
        io.wal_append(&WalRecord::Incarnation { incarnation: inc }.encode());
        io.wal_sync();
        self.records_since_snap = replayed + 1;
        // Volatile state is gone: session links (fresh senders start at
        // the incarnation's base epoch), shadow clocks, and the outgoing
        // batches — their writes are durable in the own-write history
        // and travel in the push-back of each recovery answer.
        let me = self.node();
        if let Some(s) = io.session() {
            s.set_base_epoch(me, inc);
            s.forget_node_links(me);
        }
        self.batch = OutBatch::default();
        self.shard_out.clear();
        self.link_clock_out.clear();
        self.link_clock_in.clear();
        // Sharded recovery ships the per-shard applied summary instead
        // of the global vector — peers answer only for the shards they
        // share, so the reborn replica re-fetches exactly its
        // subscribed state.
        let req = if self.sharded {
            let applied = self.replica.shards().expect("sharded").applied_summary();
            Msg::ShardRecoverReq { proc: self.me, incarnation: inc, applied }
        } else {
            let applied = self.replica.applied.clone();
            Msg::RecoverReq { proc: self.me, incarnation: inc, applied }
        };
        for j in 0..self.cfg.nprocs as u32 {
            if j != self.me.0 {
                io.send_raw(NodeId(j), req.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Drives hand-built nodes through a recording fake executor: no
    //! simulator, no threads — each test pins one behaviour both real
    //! executors inherit.

    use super::*;
    use crate::config::{BatchPolicy, ShardConfig};
    use crate::durability::DurabilityPolicy;

    /// One recorded effect, in issue order.
    #[derive(Debug)]
    enum Effect {
        Send(NodeId, Msg),
        Raw(NodeId, Msg),
        Released(LockId),
    }

    /// A fake executor that records every effect and performs none.
    #[derive(Debug, Default)]
    struct Recorder {
        log: Vec<Effect>,
        armed: usize,
    }

    impl Recorder {
        /// The messages sent (sessioned or raw) since the last call.
        fn take_sent(&mut self) -> Vec<(NodeId, Msg)> {
            std::mem::take(&mut self.log)
                .into_iter()
                .filter_map(|e| match e {
                    Effect::Send(to, m) | Effect::Raw(to, m) => Some((to, m)),
                    Effect::Released(_) => None,
                })
                .collect()
        }
    }

    impl NodeIo for Recorder {
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.log.push(Effect::Send(to, msg));
        }

        fn send_raw(&mut self, to: NodeId, msg: Msg) {
            self.log.push(Effect::Raw(to, msg));
        }

        fn resend(&mut self, to: NodeId, wire: Vec<Msg>) {
            for m in wire {
                self.log.push(Effect::Raw(to, m));
            }
        }

        fn session(&mut self) -> Option<&mut Session> {
            None
        }

        fn arm_flush_timer(&mut self, _delay_micros: u64) {
            self.armed += 1;
        }

        fn wal_append(&mut self, _frame: &[u8]) {}

        fn wal_sync(&mut self) {}

        fn install_snapshot(&mut self, _bytes: Vec<u8>) {}

        fn releasing(&mut self, lock: LockId, _mode: LockMode) {
            self.log.push(Effect::Released(lock));
        }
    }

    fn node(p: u32, cfg: &DsmConfig) -> ProcNode {
        ProcNode::new(ProcId(p), Arc::new(cfg.clone()))
    }

    fn write(n: &mut ProcNode, io: &mut Recorder, loc: u32, v: i64) -> WriteId {
        match n.start(io, Req::Write { loc: Loc(loc), value: Value::Int(v) }) {
            Poll::Ready(Resp::Wrote { id }) => id,
            other => panic!("write did not complete: {other:?}"),
        }
    }

    #[test]
    fn duplicate_recover_req_is_answered_once() {
        let cfg =
            DsmConfig::new(2, Mode::Causal).with_durability(Some(DurabilityPolicy::default()));
        let (mut p0, mut io) = (node(0, &cfg), Recorder::default());
        for v in 1..=3 {
            write(&mut p0, &mut io, v as u32, v);
        }
        io.take_sent();
        let req = Msg::RecoverReq { proc: ProcId(1), incarnation: 1, applied: VClock::new(2) };
        p0.on_msg(&mut io, NodeId(1), req.clone());
        let answers = io.take_sent();
        assert!(!answers.is_empty());
        assert!(answers
            .iter()
            .all(|(to, m)| *to == NodeId(1) && matches!(m, Msg::RecoverResp { upto: 3, .. })));
        // The raw request travels again (a duplicating network): no
        // second link reset, no second delta.
        p0.on_msg(&mut io, NodeId(1), req);
        assert!(io.take_sent().is_empty(), "a duplicate RecoverReq is answered once");
        // A later incarnation of the same peer is a new recovery.
        let again = Msg::RecoverReq { proc: ProcId(1), incarnation: 2, applied: VClock::new(2) };
        p0.on_msg(&mut io, NodeId(1), again);
        assert_eq!(io.take_sent().len(), answers.len());
    }

    #[test]
    fn recover_resp_push_back_is_high_watered_across_chunks() {
        let cfg = DsmConfig::new(2, Mode::Pram).with_durability(Some(DurabilityPolicy::default()));
        let (mut reborn, mut io) = (node(1, &cfg), Recorder::default());
        write(&mut reborn, &mut io, 0, 10);
        write(&mut reborn, &mut io, 1, 11);
        io.take_sent();
        // The survivor answers in two chunks, each repeating `seen = 0`:
        // it holds none of the reborn's writes.
        let chunk = |seq: u32| Msg::RecoverResp {
            proc: ProcId(0),
            first_seq: seq,
            upto: seq,
            entries: vec![BatchEntry {
                loc: Loc(5),
                payload: UpdatePayload::Set(Value::Int(seq as i64)),
                writer: WriteId::new(ProcId(0), seq),
                adds: vec![],
            }],
            deps: None,
            seen: 0,
        };
        reborn.on_msg(&mut io, NodeId(0), chunk(1));
        let pushed = io.take_sent();
        assert_eq!(pushed.len(), 1, "{pushed:?}");
        assert!(matches!(
            &pushed[0],
            (NodeId(0), Msg::UpdateBatch { proc: ProcId(1), first_seq: 1, upto: 2, .. })
        ));
        reborn.on_msg(&mut io, NodeId(0), chunk(2));
        assert!(io.take_sent().is_empty(), "the push-back must not repeat per chunk");
        assert_eq!(reborn.replica().applied[ProcId(0)], 2, "both chunks ingested");
    }

    #[test]
    fn batch_flushes_before_lock_release_and_barrier_arrival() {
        let cfg = DsmConfig::new(2, Mode::Causal).with_batching(Some(BatchPolicy::default()));
        let (mut p0, mut io) = (node(0, &cfg), Recorder::default());
        let (lock, mgr) = (LockId(0), cfg.manager_node());
        assert!(matches!(
            p0.start(&mut io, Req::Lock { lock, mode: LockMode::Write }),
            Poll::Pending
        ));
        let grant = GrantInfo { knowledge: VClock::new(2), preds: vec![], demand: vec![] };
        p0.on_msg(&mut io, mgr, Msg::LockGrant { lock, grant });
        assert_eq!(p0.poll(&mut io), Some(Resp::Done));
        io.take_sent();
        write(&mut p0, &mut io, 0, 1);
        write(&mut p0, &mut io, 1, 2);
        assert_eq!(io.armed, 1, "one timer for the empty→non-empty transition");
        assert!(io.log.is_empty(), "writes stay buffered");
        let unlock = p0.start(&mut io, Req::Unlock { lock, mode: LockMode::Write });
        assert!(matches!(unlock, Poll::Ready(Resp::Done)));
        let kinds: Vec<&str> = io
            .log
            .iter()
            .map(|e| match e {
                Effect::Send(_, m) | Effect::Raw(_, m) => m.kind(),
                Effect::Released(l) => {
                    assert_eq!(*l, lock);
                    "released"
                }
            })
            .collect();
        assert_eq!(kinds, ["update_batch", "released", "lock_rel"]);
        io.take_sent();
        write(&mut p0, &mut io, 2, 3);
        let barrier = BarrierId(0);
        assert!(matches!(p0.start(&mut io, Req::Barrier { barrier }), Poll::Pending));
        let sent = io.take_sent();
        assert!(matches!(&sent[0], (NodeId(1), Msg::UpdateBatch { first_seq: 3, upto: 3, .. })));
        assert!(matches!(&sent[1], (to, Msg::BarrierArrive { round: 0, .. }) if *to == mgr));
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn sharded_first_touch_parks_on_sub_req_and_retries_after_sub_ack() {
        // Loc 1 lives in shard 1; p0 statically subscribes to shard 0.
        let sc = ShardConfig::new(2, vec![vec![0], vec![0, 1]]).with_dynamic(true);
        let cfg = DsmConfig::new(2, Mode::Causal).with_sharding(Some(sc));
        let (mut p0, mut io) = (node(0, &cfg), Recorder::default());
        let mgr = cfg.manager_node();
        let req = Req::Write { loc: Loc(1), value: Value::Int(7) };
        assert!(matches!(p0.start(&mut io, req), Poll::Pending));
        let sent = io.take_sent();
        assert_eq!(sent.len(), 1);
        assert!(matches!(&sent[0], (to, Msg::SubReq { proc: ProcId(0), shard: 1 }) if *to == mgr));
        assert_eq!(p0.poll(&mut io), None, "parked until the directory answers");
        assert!(io.log.is_empty());
        p0.on_msg(&mut io, mgr, Msg::SubAck { shard: 1, subs: vec![ProcId(1)] });
        let Some(Resp::Wrote { id }) = p0.poll(&mut io) else { panic!("write retried") };
        assert_eq!(id, WriteId::new(ProcId(0), 1));
        assert!(p0.replica().shards().unwrap().subscribed(1));
        // The retried write multicasts to the subscriber the ack named.
        let sent = io.take_sent();
        assert_eq!(sent.len(), 1);
        assert!(matches!(&sent[0], (NodeId(1), Msg::ShardUpdate { writer, .. }) if *writer == id));
        assert_eq!(p0.poll(&mut io), None, "nothing left parked");
    }
}
