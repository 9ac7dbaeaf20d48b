//! The live executor: processes as threads, links as channels, the
//! `mc-proto` state machines unchanged.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use mc_model::{
    BarrierId, BarrierRound, History, HistoryBuilder, Loc, LockId, LockMode, MalformedHistory,
    OpKind, ProcId, ReadLabel, VClock, Value, WriteId,
};
use mc_proto::{
    decode_wal, BatchPolicy, DsmConfig, DurabilityPolicy, FileDisk, LockPropagation, Manager, Mode,
    Msg, NodeIo, ProcNode, Replica, Req, Resp, Session, SessionConfig, ShardConfig, Snapshot,
    WalRecord, WalTail,
};
use mc_sim::{DurabilityStats, Poll, SimTime, TraceEvent, Tracer};

/// What travels on a node's inbox: a protocol message (tagged with the
/// sending node, which the session layer needs to identify the link) or
/// the shutdown signal.
///
/// Public so alternative transports (e.g. the TCP runtime in `mc-net`)
/// can feed decoded frames into the same node mains.
pub enum Wire {
    /// A protocol message from node `from`.
    Proto {
        /// The sending node.
        from: NodeId,
        /// The message itself.
        msg: Msg,
    },
    /// Drain-and-exit: the coordinator saw every process finish.
    Shutdown,
}

/// Node id in the live topology (same layout as the simulator: process
/// `i` on node `i`, manager shards after).
pub type NodeId = usize;

/// How a live node's outgoing messages reach their destination. The
/// in-process executor wires nodes with crossbeam channels
/// ([`ChannelTransport`]); `mc-net` substitutes TCP links carrying
/// length-prefixed binary frames. Everything above this seam — session
/// fencing, retransmission, batching, recovery — is shared.
pub trait Transport: Send + Sync {
    /// Delivers one protocol message. Returns `false` if the
    /// destination's inbox is gone (counted as a lost send unless the
    /// run is already shutting down).
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool;

    /// Tells node `to` to drain its inbox and exit.
    fn shutdown(&self, to: NodeId);
}

/// The in-process transport: one unbounded channel per node.
pub struct ChannelTransport {
    senders: Vec<Sender<Wire>>,
}

impl ChannelTransport {
    /// Wraps the per-node inbox senders.
    pub fn new(senders: Vec<Sender<Wire>>) -> Self {
        ChannelTransport { senders }
    }
}

impl Transport for ChannelTransport {
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        self.senders[to].send(Wire::Proto { from, msg }).is_ok()
    }

    fn shutdown(&self, to: NodeId) {
        let _ = self.senders[to].send(Wire::Shutdown);
    }
}

/// How often a node with unacknowledged session payloads retransmits.
/// Wall-clock ticks stand in for the simulator's per-link timers; the
/// period is coarse enough that a healthy ack always wins the race.
const RETX_TICK: Duration = Duration::from_millis(1);

/// Shared durability counters, aggregated into [`LiveOutcome::wal`] at
/// teardown (the live twin of the simulator's `Metrics::wal`).
#[derive(Default)]
pub struct WalCounters {
    appends: AtomicU64,
    synced: AtomicU64,
    /// Fsync calls that made at least one record durable (`fsyncs <
    /// synced` is the signature of effective group-commit batching).
    fsyncs: AtomicU64,
    replayed: AtomicU64,
    snapshots: AtomicU64,
    recoveries: AtomicU64,
}

impl WalCounters {
    /// Snapshots the counters into the simulator's stats shape (`lost`
    /// is a simulator-only notion and reads zero here).
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            appends: self.appends.load(Ordering::Relaxed),
            synced: self.synced.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            lost: 0,
            replayed: self.replayed.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

/// SplitMix64: a statistically solid 64-bit mixer, enough for loss rolls.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The send side every live node shares: counters, the lossy shim, the
/// optional tracer — all in front of a pluggable [`Transport`].
#[derive(Clone)]
pub struct Net {
    transport: Arc<dyn Transport>,
    messages: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    /// Drop probability per message (the lossy-channel shim).
    loss: f64,
    seed: u64,
    rolls: Arc<AtomicU64>,
    /// Messages eaten by the lossy shim (intentional).
    lost: Arc<AtomicU64>,
    /// Messages that hit an already-closed inbox (a bug unless the run is
    /// already shutting down — asserted zero at teardown).
    closed_dropped: Arc<AtomicU64>,
    shutting_down: Arc<AtomicBool>,
    /// Shared structured-event tracer, when enabled. Live events are keyed
    /// by wall-clock time since `epoch`, reusing the simulator's trace
    /// format (so the same Perfetto/JSONL exporters apply).
    tracer: Option<Arc<Mutex<Tracer>>>,
    epoch: Instant,
}

impl Net {
    /// Builds a loss-free, untraced net over `transport` — what an
    /// external transport (TCP) wants; the in-process executor fills in
    /// the lossy shim and tracer itself.
    pub fn new(transport: Arc<dyn Transport>) -> Net {
        Net {
            transport,
            messages: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
            loss: 0.0,
            seed: 0,
            rolls: Arc::new(AtomicU64::new(0)),
            lost: Arc::new(AtomicU64::new(0)),
            closed_dropped: Arc::new(AtomicU64::new(0)),
            shutting_down: Arc::new(AtomicBool::new(false)),
            tracer: None,
            epoch: Instant::now(),
        }
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Modeled wire bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Sends that hit a closed inbox before shutdown began (a bug).
    pub fn dropped_sends(&self) -> u64 {
        self.closed_dropped.load(Ordering::SeqCst)
    }

    /// Flips the run into shutdown mode (closed-inbox sends stop
    /// counting as losses) and tells every one of the `nnodes` nodes to
    /// drain and exit.
    pub fn begin_shutdown(&self, nnodes: usize) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for node in 0..nnodes {
            self.transport.shutdown(node);
        }
    }

    /// Records an instant event on the shared tracer (no-op when tracing
    /// is off), stamped with the wall-clock offset from the run start.
    fn trace_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) {
        let Some(tracer) = &self.tracer else { return };
        let t = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
        tracer.lock().expect("tracer healthy").record(TraceEvent {
            t,
            dur: None,
            cat,
            name: name.to_string(),
            track: to as u32,
            args: vec![
                ("from", from.to_string()),
                ("to", to.to_string()),
                ("bytes", bytes.to_string()),
            ],
        });
    }

    fn send(&self, from: NodeId, to: NodeId, msg: Msg) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(msg.wire_bytes(), Ordering::Relaxed);
        if self.loss > 0.0 {
            let n = self.rolls.fetch_add(1, Ordering::Relaxed);
            let r = splitmix64(self.seed ^ n) as f64 / u64::MAX as f64;
            if r < self.loss {
                self.lost.fetch_add(1, Ordering::Relaxed);
                self.trace_instant("fault", "drop", from, to, msg.wire_bytes());
                return;
            }
        }
        // Name session-wrapped payloads by what they carry: "update" is
        // a more useful track label than "sess_data".
        let kind = match &msg {
            Msg::SessData { inner, .. } => inner.kind(),
            m => m.kind(),
        };
        self.trace_instant("msg", kind, from, to, msg.wire_bytes());
        if !self.transport.deliver(from, to, msg) && !self.shutting_down.load(Ordering::SeqCst) {
            // A closed inbox before shutdown begins means a message was
            // silently lost while the run still depended on it.
            self.closed_dropped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Converts a live node id into the simulator's node-id type, which keys
/// the shared session state machines.
fn nid(node: NodeId) -> mc_sim::NodeId {
    mc_sim::NodeId(node as u32)
}

/// Sends `msg` from `from` to `to`, wrapping it with a session sequence
/// number when the session layer is on.
fn sess_send(net: &Net, session: &mut Option<Session>, from: NodeId, to: NodeId, msg: Msg) {
    match session {
        None => net.send(from, to, msg),
        Some(s) => {
            let wrapped = s.sender(nid(from), nid(to)).wrap(msg);
            net.send(from, to, wrapped);
        }
    }
}

/// Filters one arriving message through the session layer: acks are
/// consumed, data is sequenced (answering with a cumulative ack) and the
/// in-order payloads are returned for dispatch. Without a session the
/// message passes through untouched.
fn sess_receive(
    net: &Net,
    session: &mut Option<Session>,
    me: NodeId,
    from: NodeId,
    msg: Msg,
) -> Vec<Msg> {
    let Some(s) = session else { return vec![msg] };
    match msg {
        Msg::SessAck { upto, epoch } => {
            let cfg = s.cfg;
            s.sender(nid(me), nid(from)).on_ack(upto, epoch, &cfg);
            Vec::new()
        }
        Msg::SessData { seq, epoch, inner } => {
            let rx = s.receiver(nid(from), nid(me));
            let (ready, upto) = rx.on_data(seq, epoch, *inner);
            let ack_epoch = rx.epoch();
            // Acks travel raw: sessioning them would recurse forever.
            net.send(me, from, Msg::SessAck { upto, epoch: ack_epoch });
            ready
        }
        other => vec![other],
    }
}

/// Retransmits every unacknowledged payload on every outgoing link of
/// `me`. Called on wall-clock ticks while anything is outstanding.
fn sess_retransmit(net: &Net, session: &mut Option<Session>, me: NodeId) {
    let Some(s) = session else { return };
    let cfg = s.cfg;
    for ((_, to), tx) in s.senders_mut() {
        let epoch = tx.epoch();
        for (seq, inner) in tx.on_timeout(&cfg) {
            net.send(me, to.index(), Msg::SessData { seq, epoch, inner: Box::new(inner) });
        }
    }
}

/// Error from a live run.
#[derive(Debug)]
pub enum LiveError {
    /// A process thread panicked (deadlock timeouts surface this way,
    /// with a descriptive payload).
    ProcPanicked {
        /// The process that panicked.
        proc: ProcId,
        /// The panic message, if it was a string.
        message: String,
    },
    /// The recorded history failed validation.
    Malformed(MalformedHistory),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::ProcPanicked { proc, message } => {
                write!(f, "live process {proc} panicked: {message}")
            }
            LiveError::Malformed(e) => write!(f, "recorded history is malformed: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

/// Result of a live run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Recorded history, when enabled.
    pub history: Option<History>,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Total modeled payload bytes.
    pub bytes: u64,
    /// Messages eaten by the lossy-channel shim (zero unless
    /// [`LiveSystem::lossy`] was configured).
    pub lost: u64,
    /// Messages that found their destination inbox already closed before
    /// shutdown began. Always zero on a successful run (asserted at
    /// teardown); exposed so the invariant is visible.
    pub dropped_sends: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Structured event trace when [`LiveSystem::trace`] was enabled,
    /// keyed by wall-clock time since the run started. Exportable as
    /// JSONL or a Chrome/Perfetto trace, like the simulator's.
    pub trace: Option<Tracer>,
    /// Durability counters when [`LiveSystem::durability`] was enabled
    /// (all zero otherwise). `lost` stays zero here: live records lost
    /// to a `kill -9` die with the process and are only observable as
    /// the torn tail the next incarnation recovers through.
    pub wal: DurabilityStats,
    replicas: Vec<Replica>,
    server: Manager,
    mode: Mode,
}

impl LiveOutcome {
    /// Assembles an outcome from externally-run nodes. The TCP runtime
    /// (`mc-net`) drives the same [`run_proc_node`]/[`run_manager_node`]
    /// mains on its own threads and collects the identical parts; the
    /// lossy-shim (`lost`) and closed-inbox (`dropped_sends`) counters
    /// are in-process notions and read zero there.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        history: Option<History>,
        wal: DurabilityStats,
        messages: u64,
        bytes: u64,
        wall: Duration,
        replicas: Vec<Replica>,
        server: Manager,
        mode: Mode,
    ) -> LiveOutcome {
        LiveOutcome {
            history,
            wal,
            messages,
            bytes,
            lost: 0,
            dropped_sends: 0,
            wall,
            trace: None,
            replicas,
            server,
            mode,
        }
    }

    /// The final value of `loc`: from `proc`'s replica in the replicated
    /// modes (all in-flight updates are drained before shutdown), from
    /// the server in SC mode.
    pub fn final_value(&self, proc: ProcId, loc: Loc) -> Value {
        if self.mode.is_replicated() {
            self.replicas[proc.index()].peek(loc)
        } else {
            self.server.peek(loc)
        }
    }

    /// The replica incarnation number `proc` finished on (0 for a node
    /// that never crash-recovered).
    pub fn incarnation(&self, proc: ProcId) -> u32 {
        self.replicas[proc.index()].incarnation
    }

    /// `proc`'s final applied vector clock.
    pub fn applied(&self, proc: ProcId) -> &VClock {
        &self.replicas[proc.index()].applied
    }

    /// Read access to `proc`'s final replica state (tests, invariant
    /// checks — e.g. shard subscriptions after a dynamic first touch).
    pub fn replica(&self, proc: ProcId) -> &Replica {
        &self.replicas[proc.index()]
    }
}

/// Builder for a live (threaded) mixed-consistency system. Mirrors the
/// simulator-backed `mixed_consistency::System` API.
pub struct LiveSystem {
    cfg: DsmConfig,
    record: bool,
    trace: bool,
    timeout: Duration,
    loss: f64,
    seed: u64,
    durability_dir: Option<PathBuf>,
    #[allow(clippy::type_complexity)]
    procs: Vec<Box<dyn FnOnce(&mut LiveCtx) + Send + 'static>>,
}

impl fmt::Debug for LiveSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveSystem")
            .field("cfg", &self.cfg)
            .field("nprocs", &self.procs.len())
            .finish()
    }
}

impl LiveSystem {
    /// Creates a live system of `nprocs` processes on memory `mode`.
    pub fn new(nprocs: usize, mode: Mode) -> Self {
        LiveSystem {
            cfg: DsmConfig::new(nprocs, mode),
            record: false,
            trace: false,
            timeout: Duration::from_secs(10),
            loss: 0.0,
            seed: 0,
            durability_dir: None,
            procs: Vec::new(),
        }
    }

    /// Enables durable replicas: each process appends to a write-ahead
    /// log under `dir/replica-{i}` (own writes fsynced before the write
    /// returns — the append-before-ack discipline), compacts into a
    /// snapshot on the policy's cadence, and **recovers from existing
    /// state at startup**: snapshot plus the valid WAL prefix are
    /// replayed (a torn tail from a `kill -9` is truncated, a corrupt
    /// frame mid-log panics with a diagnostic), the incarnation number
    /// is bumped and persisted, and peers are asked for the missing
    /// update delta. Pair with [`LiveSystem::reliable`].
    pub fn durability(mut self, policy: DurabilityPolicy, dir: impl Into<PathBuf>) -> Self {
        self.cfg.durability = Some(policy);
        self.durability_dir = Some(dir.into());
        self
    }

    /// Installs the lossy-channel shim: every message is independently
    /// dropped with probability `loss` (rolls are derived from `seed`, so
    /// the drop pattern over send order is reproducible). Pair with
    /// [`LiveSystem::reliable`] — raw protocols over lossy channels block
    /// forever and surface as per-operation timeouts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss < 1.0`.
    pub fn lossy(mut self, loss: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss probability must be in [0, 1)");
        self.loss = loss;
        self.seed = seed;
        self
    }

    /// Enables the reliable-delivery session layer
    /// ([`mc_proto::session`]) on every node: per-link sequence numbers,
    /// cumulative acks, and tick-driven retransmission — the same state
    /// machines the simulator exercises, glued to wall-clock time.
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.cfg.reliable = reliable;
        self
    }

    /// Enables (or disables) batched update propagation. Buffered writes
    /// are flushed before every synchronization send, at the size limit,
    /// and once the wall-clock [`BatchPolicy::max_delay_micros`] window
    /// elapses (checked on operation entry and whenever a process is
    /// about to block).
    pub fn batching(mut self, batch: Option<BatchPolicy>) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Partitions the address space into shards with interest-based
    /// partial replication (the live twin of the simulator's
    /// `System::sharding`): each process subscribes to the shards in
    /// its interest set, updates multicast only to subscribers, and a
    /// first touch outside the set either performs a directory
    /// round-trip ([`ShardConfig::dynamic`]) or is a program error.
    ///
    /// # Panics
    ///
    /// [`LiveSystem::run`] panics if the interest table's length does
    /// not match the process count, or if the program uses locks or
    /// barriers (unsupported with sharding).
    pub fn sharding(mut self, sharding: Option<ShardConfig>) -> Self {
        self.cfg = self.cfg.with_sharding(sharding);
        self
    }

    /// Presizes every replica's store for `locations` locations.
    pub fn locations(mut self, locations: usize) -> Self {
        self.cfg.locations = locations;
        self
    }

    /// Assigns one consistency-lattice point per process. The substrate
    /// mode is re-derived from the assignment and each process's reads
    /// follow its own point's policy — the live twin of the simulator's
    /// `System::models`.
    pub fn models(mut self, models: mc_model::ModelAssignment) -> Self {
        self.cfg = self.cfg.with_models(models);
        self
    }

    /// Selects the lock-propagation variant.
    pub fn lock_propagation(mut self, p: LockPropagation) -> Self {
        self.cfg.lock_propagation = p;
        self
    }

    /// Enables history recording.
    pub fn record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Enables structured event tracing: every message send (and lossy
    /// drop) is recorded on a shared tracer, keyed by wall-clock time
    /// since the run started, and returned on
    /// [`LiveOutcome::trace`].
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Distributes managers over `shards` nodes.
    pub fn manager_shards(mut self, shards: usize) -> Self {
        self.cfg = self.cfg.with_manager_shards(shards);
        self
    }

    /// Restricts a barrier to a process subset.
    pub fn barrier_group(mut self, barrier: BarrierId, group: Vec<ProcId>) -> Self {
        self.cfg = self.cfg.with_barrier_group(barrier, group);
        self
    }

    /// Sets the blocked-operation timeout (default 10 s); a process that
    /// waits longer panics with a diagnostic, surfacing as
    /// [`LiveError::ProcPanicked`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Adds the next process.
    pub fn spawn<F>(&mut self, f: F) -> ProcId
    where
        F: FnOnce(&mut LiveCtx) + Send + 'static,
    {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Box::new(f));
        id
    }

    /// Runs all processes to completion on real threads.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::ProcPanicked`] if any process panicked
    /// (including blocked-operation timeouts) and
    /// [`LiveError::Malformed`] if the recorded history fails validation.
    ///
    /// # Panics
    ///
    /// Panics if more processes were spawned than configured.
    pub fn run(mut self) -> Result<LiveOutcome, LiveError> {
        assert_eq!(
            self.procs.len(),
            self.cfg.nprocs,
            "spawned {} processes but configured {}",
            self.procs.len(),
            self.cfg.nprocs
        );
        let cfg = self.cfg.clone();
        let nnodes = cfg.nnodes();
        let start = Instant::now();

        let mut senders = Vec::with_capacity(nnodes);
        let mut receivers = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let net = Net {
            transport: Arc::new(ChannelTransport::new(senders)),
            messages: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
            loss: self.loss,
            seed: self.seed,
            rolls: Arc::new(AtomicU64::new(0)),
            lost: Arc::new(AtomicU64::new(0)),
            closed_dropped: Arc::new(AtomicU64::new(0)),
            shutting_down: Arc::new(AtomicBool::new(false)),
            tracer: self.trace.then(|| Arc::new(Mutex::new(Tracer::new()))),
            epoch: start,
        };
        let recorder = self.record.then(|| Arc::new(Mutex::new(HistoryBuilder::new(cfg.nprocs))));
        let walc = Arc::new(WalCounters::default());

        // Manager shard threads (the last `manager_shards` nodes).
        let mut manager_handles = Vec::new();
        let mut receivers_iter = receivers.into_iter();
        let mut proc_rx: Vec<Receiver<Wire>> = Vec::new();
        for _ in 0..cfg.nprocs {
            proc_rx.push(receivers_iter.next().expect("receiver per node"));
        }
        for (shard, rx) in receivers_iter.enumerate() {
            let net = net.clone();
            let cfg = cfg.clone();
            let node = cfg.nprocs + shard;
            manager_handles.push(std::thread::spawn(move || run_manager_node(rx, net, cfg, node)));
        }

        // Process threads.
        let (done_tx, done_rx) = unbounded::<u32>();
        let mut proc_handles = Vec::new();
        for (i, f) in self.procs.drain(..).enumerate() {
            let rx = proc_rx.remove(0);
            let opts = NodeConfig {
                proc: ProcId(i as u32),
                cfg: cfg.clone(),
                timeout: self.timeout,
                durability_dir: self.durability_dir.clone(),
            };
            let ctx_net = net.clone();
            let recorder = recorder.clone();
            let done_tx = done_tx.clone();
            let walc = walc.clone();
            proc_handles.push(std::thread::spawn(move || {
                run_proc_node(opts, rx, ctx_net, walc, recorder, f, move || {
                    let _ = done_tx.send(i as u32);
                })
            }));
        }
        drop(done_tx);

        // One done signal per process, however long its program runs;
        // blocked operations are bounded by the per-op timeout (which
        // panics, which still sends done), so this cannot hang.
        let mut finished = 0usize;
        while finished < proc_handles.len() {
            match done_rx.recv() {
                Ok(_) => finished += 1,
                Err(_) => break, // all senders gone: every thread exited
            }
        }
        // From here on, sends may legitimately race closing inboxes
        // (e.g. a retransmission of an already-consumed grant whose ack
        // was lost), so stop treating them as silent losses.
        net.begin_shutdown(nnodes);

        let mut replicas = Vec::new();
        for (i, h) in proc_handles.into_iter().enumerate() {
            match h.join() {
                Ok(replica) => replicas.push(replica),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    return Err(LiveError::ProcPanicked { proc: ProcId(i as u32), message });
                }
            }
        }
        let mut managers: Vec<Manager> = manager_handles
            .into_iter()
            .map(|h| h.join().expect("manager threads do not panic"))
            .collect();

        let history = match recorder {
            None => None,
            Some(rec) => {
                let builder = Arc::try_unwrap(rec)
                    .expect("all recorder handles dropped")
                    .into_inner()
                    .expect("recorder healthy");
                Some(builder.build().map_err(LiveError::Malformed)?)
            }
        };
        let dropped_sends = net.closed_dropped.load(Ordering::SeqCst);
        assert_eq!(
            dropped_sends, 0,
            "messages were silently lost on closed inboxes before shutdown"
        );
        let trace = net.tracer.as_ref().map(|tr| tr.lock().expect("tracer healthy").clone());
        let wal = walc.stats();
        Ok(LiveOutcome {
            history,
            wal,
            messages: net.messages.load(Ordering::Relaxed),
            bytes: net.bytes.load(Ordering::Relaxed),
            lost: net.lost.load(Ordering::Relaxed),
            dropped_sends,
            wall: start.elapsed(),
            trace,
            replicas,
            server: managers.remove(0),
            mode: cfg.mode,
        })
    }
}

/// Opens process `proc`'s write-ahead log under `dir/replica-{i}`.
/// Returns the disk and, when prior state exists, the snapshot and the
/// valid log records to rebuild from. A torn tail (the expected
/// `kill -9` residue) is truncated; a corrupt frame *before* the tail is
/// a real integrity failure and panics with a diagnostic rather than
/// silently dropping durable state.
#[allow(clippy::type_complexity)]
fn open_disk(proc: ProcId, dir: &Path) -> (FileDisk, Option<(Option<Snapshot>, Vec<WalRecord>)>) {
    let rdir = dir.join(format!("replica-{}", proc.index()));
    let (snap_bytes, log_bytes) =
        FileDisk::load(&rdir).unwrap_or_else(|e| panic!("{proc}: cannot load {rdir:?}: {e}"));
    let had_state = snap_bytes.is_some() || !log_bytes.is_empty();
    let snap = snap_bytes.map(|b| {
        Snapshot::decode(&b)
            .unwrap_or_else(|e| panic!("{proc}: snapshot in {rdir:?} is corrupt: {e}"))
    });
    let (records, tail) = decode_wal(&log_bytes);
    let valid_len = match tail {
        WalTail::Clean => log_bytes.len(),
        WalTail::Torn { at } => at,
        WalTail::Corrupt { at } => {
            // A CRC failure with more frames behind it would mean durable
            // records silently vanish; all observed kill patterns tear
            // only the tail, so refuse anything else loudly.
            panic!("{proc}: wal in {rdir:?} has a corrupt frame at byte {at}")
        }
    };
    if valid_len < log_bytes.len() {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(rdir.join("wal.log"))
            .unwrap_or_else(|e| panic!("{proc}: cannot reopen wal: {e}"));
        f.set_len(valid_len as u64).unwrap_or_else(|e| panic!("{proc}: cannot truncate wal: {e}"));
        f.sync_all().unwrap_or_else(|e| panic!("{proc}: cannot sync truncated wal: {e}"));
    }
    let disk = FileDisk::open(&rdir).unwrap_or_else(|e| panic!("{proc}: cannot open wal: {e}"));
    (disk, had_state.then_some((snap, records)))
}

/// Per-node options for [`run_proc_node`] — everything a process node
/// needs besides its inbox, the shared net, and its program body.
pub struct NodeConfig {
    /// Which process this node runs.
    pub proc: ProcId,
    /// The shared protocol configuration.
    pub cfg: DsmConfig,
    /// Blocked-operation timeout (panics past it).
    pub timeout: Duration,
    /// Durability root; each process keeps its WAL under
    /// `dir/replica-{i}`.
    pub durability_dir: Option<PathBuf>,
}

/// One process node's whole life, transport-agnostic: open (and, when
/// prior state exists, rebuild) the node, run the program body, flush,
/// signal `done`, then keep ingesting — retransmitting on session ticks
/// — until the shutdown signal, and fsync on the way out. Both the
/// in-process executor and the TCP runtime (`mc-net`) call this; only
/// the [`Transport`] behind `net` and the inbox feeding `rx` differ.
pub fn run_proc_node(
    opts: NodeConfig,
    rx: Receiver<Wire>,
    net: Net,
    walc: Arc<WalCounters>,
    recorder: Option<Arc<Mutex<HistoryBuilder>>>,
    body: impl FnOnce(&mut LiveCtx),
    done: impl FnOnce(),
) -> Replica {
    let NodeConfig { proc, cfg, timeout, durability_dir } = opts;
    let mut io = LiveIo {
        proc,
        session: cfg.reliable.then(|| Session::new(SessionConfig::default())),
        net,
        disk: None,
        walc,
        recorder,
        flush_at: None,
        last_snap: Instant::now(),
    };
    let durable = cfg.durability.is_some();
    let mut node = ProcNode::new(proc, Arc::new(cfg));
    if let (true, Some(dir)) = (durable, durability_dir) {
        let (disk, state) = open_disk(proc, &dir);
        io.disk = Some(disk);
        if let Some((snap, records)) = state {
            // Replays the log, persists the bumped incarnation (which
            // fences this node's session epochs above anything a
            // previous life could have acked), and asks every peer for
            // the updates this disk never made durable; the answers
            // arrive during (or after) the program and unblock its read
            // gates.
            io.walc.replayed.fetch_add(records.len() as u64, Ordering::Relaxed);
            io.walc.recoveries.fetch_add(1, Ordering::Relaxed);
            node.rebuild(&mut io, snap.as_ref(), records);
        }
    }
    let mut ctx = LiveCtx { node, io, inbox: rx, timeout };
    // The done signal must fire even on panic (op timeouts panic by
    // design): the coordinator waits for exactly one signal per process,
    // with no wall-clock limit of its own — long-running programs are
    // fine.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
    // Push out any still-buffered writes before signalling done: the
    // coordinator broadcasts shutdown once every done signal is in, and
    // sends racing that broadcast may land after a peer's ingest loop
    // has exited.
    ctx.flush();
    done();
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    // Keep ingesting until shutdown so the replica converges and other
    // nodes' sends never hit a closed channel. With the session layer
    // on, keep retransmitting too: a peer may still be blocked on a
    // payload the network ate.
    loop {
        let wire = if ctx.io.session.is_some() {
            match ctx.inbox.recv_timeout(RETX_TICK) {
                Ok(w) => Some(w),
                Err(RecvTimeoutError::Timeout) => {
                    ctx.retransmit();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => None,
            }
        } else {
            ctx.inbox.recv().ok()
        };
        match wire {
            Some(Wire::Proto { from, msg }) => ctx.receive(from, msg),
            Some(Wire::Shutdown) | None => break,
        }
    }
    // Final fsync: a clean shutdown leaves no staged records behind
    // (only a kill can lose appended work).
    ctx.io.wal_sync();
    ctx.node.into_replica()
}

/// One manager shard: receive (through the session filter), dispatch to
/// the shared [`Manager`] state machine, forward its outbox — and, with
/// the session layer on, retransmit unacknowledged grants/releases on
/// wall-clock ticks. Transport-agnostic for the same reason as
/// [`run_proc_node`].
pub fn run_manager_node(rx: Receiver<Wire>, net: Net, cfg: DsmConfig, node: NodeId) -> Manager {
    let mut manager = Manager::new(cfg.nprocs);
    let mut session = cfg.reliable.then(|| Session::new(SessionConfig::default()));
    loop {
        let wire = if session.is_some() {
            match rx.recv_timeout(RETX_TICK) {
                Ok(w) => Some(w),
                Err(RecvTimeoutError::Timeout) => {
                    sess_retransmit(&net, &mut session, node);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => None,
            }
        } else {
            rx.recv().ok()
        };
        match wire {
            Some(Wire::Proto { from, msg }) => {
                for msg in sess_receive(&net, &mut session, node, from, msg) {
                    for (proc, msg) in manager.handle(msg, &cfg) {
                        sess_send(&net, &mut session, node, proc.index(), msg);
                    }
                }
            }
            Some(Wire::Shutdown) | None => return manager,
        }
    }
}

/// A process node's view of the live executor: the shared net, the
/// node's session state machines, its write-ahead log, the history
/// recorder, and wall-clock stand-ins for the simulator's timers.
struct LiveIo {
    proc: ProcId,
    net: Net,
    session: Option<Session>,
    /// The write-ahead log (durability on only).
    disk: Option<FileDisk>,
    walc: Arc<WalCounters>,
    recorder: Option<Arc<Mutex<HistoryBuilder>>>,
    /// When the armed flush timer expires. There is no background timer
    /// thread: the deadline is checked on every operation entry, and
    /// parking flushes at least as eagerly.
    flush_at: Option<Instant>,
    /// When the last snapshot was installed (wall-clock cadence).
    last_snap: Instant,
}

impl LiveIo {
    fn record(&self, kind: OpKind) {
        if let Some(rec) = &self.recorder {
            rec.lock().expect("recorder healthy").push(self.proc, kind);
        }
    }
}

impl NodeIo for LiveIo {
    fn send(&mut self, to: mc_sim::NodeId, msg: Msg) {
        sess_send(&self.net, &mut self.session, self.proc.index(), to.index(), msg);
    }

    fn send_raw(&mut self, to: mc_sim::NodeId, msg: Msg) {
        self.net.send(self.proc.index(), to.index(), msg);
    }

    fn resend(&mut self, to: mc_sim::NodeId, wire: Vec<Msg>) {
        for m in wire {
            self.net.send(self.proc.index(), to.index(), m);
        }
    }

    fn session(&mut self) -> Option<&mut Session> {
        self.session.as_mut()
    }

    fn arm_flush_timer(&mut self, delay_micros: u64) {
        self.flush_at = Some(Instant::now() + Duration::from_micros(delay_micros));
    }

    fn wal_append(&mut self, frame: &[u8]) {
        let Some(disk) = &mut self.disk else { return };
        disk.append(frame).unwrap_or_else(|e| panic!("{}: wal append failed: {e}", self.proc));
        self.walc.appends.fetch_add(1, Ordering::Relaxed);
    }

    fn wal_sync(&mut self) {
        let Some(disk) = &mut self.disk else { return };
        if disk.staged_records() == 0 {
            return;
        }
        let n = disk.sync().unwrap_or_else(|e| panic!("{}: wal sync failed: {e}", self.proc));
        if n > 0 {
            self.walc.synced.fetch_add(n, Ordering::Relaxed);
            self.walc.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn install_snapshot(&mut self, bytes: Vec<u8>) {
        let Some(disk) = &mut self.disk else { return };
        disk.install_snapshot(&bytes)
            .unwrap_or_else(|e| panic!("{}: snapshot install failed: {e}", self.proc));
        self.last_snap = Instant::now();
        self.walc.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot_interval_elapsed(&self, interval_micros: u64) -> bool {
        self.last_snap.elapsed() >= Duration::from_micros(interval_micros)
    }

    fn releasing(&mut self, lock: LockId, mode: LockMode) {
        // Record before the release message leaves: the next holder's
        // grant (and its own record) is causally after this push,
        // keeping the recorder's epoch order valid.
        self.record(OpKind::Unlock { lock, mode });
    }
}

/// The per-process handle of the live executor: the same operation
/// vocabulary as the simulator-backed `Ctx`, each operation a blocking
/// loop around the shared [`ProcNode`].
pub struct LiveCtx {
    node: ProcNode,
    io: LiveIo,
    inbox: Receiver<Wire>,
    timeout: Duration,
}

impl fmt::Debug for LiveCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveCtx").field("proc", &self.io.proc).finish()
    }
}

impl LiveCtx {
    /// This process's id.
    pub fn proc(&self) -> ProcId {
        self.io.proc
    }

    /// Filters one arriving wire message through the session layer and
    /// hands whatever is deliverable to the node.
    fn receive(&mut self, from: NodeId, msg: Msg) {
        let me = self.io.proc.index();
        for inner in sess_receive(&self.io.net, &mut self.io.session, me, from, msg) {
            self.node.on_msg(&mut self.io, nid(from), inner);
        }
    }

    /// Retransmits every unacknowledged session payload.
    fn retransmit(&mut self) {
        sess_retransmit(&self.io.net, &mut self.io.session, self.io.proc.index());
    }

    /// Fires the flush timer: ships whatever the node has buffered.
    fn flush(&mut self) {
        self.io.flush_at = None;
        self.node.on_flush_due(&mut self.io);
    }

    /// Handles all already-delivered messages without blocking, then
    /// fires the flush timer if it has expired.
    fn drain(&mut self) {
        while let Ok(wire) = self.inbox.try_recv() {
            match wire {
                Wire::Proto { from, msg } => self.receive(from, msg),
                Wire::Shutdown => unreachable!("shutdown during the program"),
            }
        }
        if self.io.flush_at.is_some_and(|t| Instant::now() >= t) {
            self.flush();
        }
    }

    /// Blocks until one more message arrives and handles it. With the
    /// session layer on, waits in [`RETX_TICK`] slices, retransmitting
    /// unacknowledged payloads between them.
    ///
    /// # Panics
    ///
    /// Panics (with a description) after the configured timeout — the
    /// live executor's deadlock detector.
    fn step(&mut self, waiting_for: &str) {
        // About to park: never sit on buffered writes another process
        // might be waiting for — blocking is a flush point.
        self.flush();
        let deadline = Instant::now() + self.timeout;
        loop {
            let wait = if self.io.session.is_some() {
                RETX_TICK.min(deadline.saturating_duration_since(Instant::now()))
            } else {
                self.timeout
            };
            match self.inbox.recv_timeout(wait) {
                Ok(Wire::Proto { from, msg }) => return self.receive(from, msg),
                Ok(Wire::Shutdown) => {
                    panic!("{} received shutdown while waiting for {waiting_for}", self.io.proc)
                }
                Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                    self.retransmit();
                }
                Err(_) => {
                    // The session dump is the post-mortem for stuck
                    // clusters: which links stopped acking, and where.
                    let r = self.node.replica();
                    panic!(
                        "{} timed out after {:?} waiting for {waiting_for} \
                         (applied={:?} pending={} links={:?})",
                        self.io.proc,
                        self.timeout,
                        r.applied,
                        r.pending_len(),
                        self.io.session.as_ref().map(|s| s.debug_links()),
                    )
                }
            }
        }
    }

    /// Runs one request to completion: submit it to the node, then park
    /// on the inbox until the node answers.
    fn run(&mut self, req: Req, waiting_for: &str) -> Resp {
        self.drain();
        if let Poll::Ready(resp) = self.node.start(&mut self.io, req) {
            return resp;
        }
        loop {
            self.step(waiting_for);
            if let Some(resp) = self.node.poll(&mut self.io) {
                return resp;
            }
        }
    }

    fn wrote(&mut self, req: Req) -> WriteId {
        match self.run(req, "write") {
            Resp::Wrote { id } => id,
            other => unreachable!("expected a write identity, got {other:?}"),
        }
    }

    /// Writes `value` to `loc` and returns the write identity.
    pub fn write(&mut self, loc: Loc, value: impl Into<Value>) -> WriteId {
        let value = value.into();
        let id = self.wrote(Req::Write { loc, value });
        self.io.record(OpKind::Write { loc, value, id });
        id
    }

    /// Applies a commutative increment (counter objects).
    pub fn add(&mut self, loc: Loc, delta: impl Into<Value>) -> WriteId {
        let delta = delta.into();
        let id = self.wrote(Req::Update { loc, delta });
        self.io.record(OpKind::Update { loc, delta, id });
        id
    }

    /// Reads `loc` with an explicit label.
    pub fn read(&mut self, loc: Loc, label: ReadLabel) -> Value {
        let Resp::Value { value, writer } = self.run(Req::Read { loc, label }, "read visibility")
        else {
            unreachable!("reads answer with a value")
        };
        let writer = Some(writer.unwrap_or(WriteId::initial(loc)));
        self.io.record(OpKind::Read { loc, label, value, writer });
        value
    }

    /// A causal read (Definition 2).
    pub fn read_causal(&mut self, loc: Loc) -> Value {
        self.read(loc, ReadLabel::Causal)
    }

    /// A PRAM read (Definition 3).
    pub fn read_pram(&mut self, loc: Loc) -> Value {
        self.read(loc, ReadLabel::Pram)
    }

    /// Acquires a lock.
    pub fn lock(&mut self, lock: LockId, mode: LockMode) {
        self.run(Req::Lock { lock, mode }, "lock grant");
        self.io.record(OpKind::Lock { lock, mode });
    }

    /// Releases a lock (recorded by the node's release hook, before the
    /// release message leaves).
    pub fn unlock(&mut self, lock: LockId, mode: LockMode) {
        self.run(Req::Unlock { lock, mode }, "flush acks");
    }

    /// Write-locks (`wl`).
    pub fn write_lock(&mut self, lock: LockId) {
        self.lock(lock, LockMode::Write);
    }

    /// Write-unlocks (`wu`).
    pub fn write_unlock(&mut self, lock: LockId) {
        self.unlock(lock, LockMode::Write);
    }

    /// Read-locks (`rl`).
    pub fn read_lock(&mut self, lock: LockId) {
        self.lock(lock, LockMode::Read);
    }

    /// Read-unlocks (`ru`).
    pub fn read_unlock(&mut self, lock: LockId) {
        self.unlock(lock, LockMode::Read);
    }

    /// Runs `f` under a write lock.
    pub fn with_write_lock<R>(&mut self, lock: LockId, f: impl FnOnce(&mut Self) -> R) -> R {
        self.write_lock(lock);
        let r = f(self);
        self.write_unlock(lock);
        r
    }

    /// Arrives at (and passes) the default barrier.
    pub fn barrier(&mut self) {
        self.barrier_on(BarrierId(0));
    }

    /// Arrives at (and passes) a barrier object.
    pub fn barrier_on(&mut self, barrier: BarrierId) {
        let Resp::BarrierPassed { round } = self.run(Req::Barrier { barrier }, "barrier release")
        else {
            unreachable!("barriers answer with their round")
        };
        self.io.record(OpKind::Barrier { barrier, round: BarrierRound(round) });
    }

    /// Blocks until `loc = value` (`await`).
    pub fn await_eq(&mut self, loc: Loc, value: impl Into<Value>) -> Value {
        let value = value.into();
        let Resp::Awaited { value, mut writers } =
            self.run(Req::Await { loc, value }, "await condition")
        else {
            unreachable!("awaits answer with the awaited value")
        };
        if writers.is_empty() {
            writers.push(WriteId::initial(loc));
        }
        self.io.record(OpKind::Await { loc, value, writers });
        value
    }
}
