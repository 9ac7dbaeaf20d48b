//! Per-process replica state for the replicated memory modes.
//!
//! Section 6 of the paper: "The memory is maintained as a set of pages and
//! each process keeps a local copy of the memory. Read operations are
//! non-blocking and return local values. ... Each process maintains a
//! vector timestamp in order to define the causality between operations."
//!
//! A [`Replica`] holds one process's copy of every location, its applied
//! vector, the causal-application buffer, and the synchronization gates:
//!
//! * `must_see` — merged knowledge from lock grants and barrier releases;
//!   **causal reads** block until `applied ≥ must_see`;
//! * `pram_wait` — per-predecessor write counts from the same events;
//!   **PRAM reads** block until `applied ≥ pram_wait` (only components of
//!   direct synchronization predecessors are ever raised);
//! * `invalid` — demand-driven per-location requirements installed by lock
//!   grants; reads of exactly those locations block.

use std::collections::HashMap;
use std::sync::Arc;

use mc_model::{Loc, ProcId, VClock, Value, WriteId};

use crate::config::{DsmConfig, Mode};
use crate::durability::{OwnUpdate, SnapBatch, SnapPending, Snapshot, WalRecord};
use crate::msg::{BatchEntry, UpdatePayload};

/// A pending (causally not yet ready) remote update.
#[derive(Clone, Debug)]
pub struct PendingUpdate {
    /// Identity of the write.
    pub writer: WriteId,
    /// Location.
    pub loc: Loc,
    /// Overwrite or increment.
    pub payload: UpdatePayload,
    /// The writer's vector timestamp.
    pub deps: VClock,
}

/// A pending (causally not yet ready) remote update batch, applied
/// atomically once its first member is next in the sender's sequence
/// and the last member's cross-process dependencies are met.
#[derive(Clone, Debug)]
struct PendingBatch {
    proc: ProcId,
    first_seq: u32,
    upto: u32,
    entries: Arc<[BatchEntry]>,
    /// Dependency vector of the *last* member write. Deps are monotone
    /// in batch order (same sender, program order), so the last
    /// member's vector covers every member's cross-process needs.
    deps: VClock,
}

/// One own write in a shard's chain, retained (in sharded mode) for
/// subscription backfill and sharded recovery deltas.
#[derive(Clone, Debug)]
pub struct ShardOwnUpdate {
    /// The write's global per-process sequence number.
    pub seq: u32,
    /// Location (determines the shard).
    pub loc: Loc,
    /// Overwrite or increment.
    pub payload: UpdatePayload,
    /// Sparse cross-shard dependency triples attached at write time.
    pub deps: Vec<(u32, ProcId, u32)>,
}

/// A buffered sharded update or chain that is not yet ready.
#[derive(Clone, Debug)]
enum PendingShard {
    Single {
        writer: WriteId,
        loc: Loc,
        payload: UpdatePayload,
        prev: u32,
        deps: Vec<(u32, ProcId, u32)>,
    },
    Chain {
        proc: ProcId,
        shard: u32,
        prev: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        /// Leading members already applied before buffering (recovery
        /// and backfill overlap) — skipped without copying the shared
        /// entry buffer.
        skip: usize,
        deps: Vec<(u32, ProcId, u32)>,
    },
}

/// A suffix of one process's per-shard write chain: `(prev, upto,
/// one-entry-per-write, dependency triples of the last member)`.
pub type ShardChain = (u32, u32, Vec<BatchEntry>, Vec<(u32, ProcId, u32)>);

/// One own write re-shipped for a recovery delta or a subscription
/// backfill: `(writer, loc, payload, chain link, dependency triples)` —
/// the fields of a [`ShardUpdate`](crate::Msg::ShardUpdate).
pub type ShardPush = (WriteId, Loc, UpdatePayload, u32, Vec<(u32, ProcId, u32)>);

/// Per-shard replication state. The address space is partitioned by
/// `loc.index() % nshards`; a replica receives only the shards it
/// subscribes to, and clocks are kept per shard so knowledge width is
/// proportional to the replica's interest set, not the cluster.
///
/// Sequence numbers stay *global* per process (the same counter that
/// mints [`WriteId`]s), so a write's identity is mode-independent; each
/// shard's per-writer FIFO is a chain of global sequence numbers linked
/// by `prev` (the writer's previous own seq in that shard). Cross-shard
/// causality travels as sparse `(shard, proc, seq)` triples; a receiver
/// checks only triples for shards it subscribes to — any process that
/// can *observe* both sides of a causal edge necessarily subscribes to
/// both shards, so observable causality is preserved.
#[derive(Clone, Debug)]
pub struct ShardState {
    nshards: usize,
    /// `applied[s][q]` = global sequence number of `q`'s last write
    /// applied locally in shard `s` (own writes included).
    applied: Vec<VClock>,
    /// `own_prev[s]` = this process's last own global seq in shard `s`.
    own_prev: Vec<u32>,
    /// Own write chains per shard (subscription backfill + recovery).
    own_log: Vec<Vec<ShardOwnUpdate>>,
    /// Shards this replica is currently subscribed to (sorted).
    subs: Vec<usize>,
    /// Buffered not-yet-ready sharded updates and chains.
    pending: Vec<PendingShard>,
}

impl ShardState {
    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The shard of `loc`.
    pub fn shard_of(&self, loc: Loc) -> usize {
        loc.index() % self.nshards
    }

    /// Whether this replica currently subscribes to `shard`.
    pub fn subscribed(&self, shard: usize) -> bool {
        self.subs.binary_search(&shard).is_ok()
    }

    /// The current subscription set (sorted).
    pub fn subs(&self) -> &[usize] {
        &self.subs
    }

    /// The per-shard applied clock (global seqs).
    pub fn applied(&self, shard: usize) -> &VClock {
        &self.applied[shard]
    }

    /// Number of buffered (not yet ready) sharded updates and chains.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Summary of everything applied in the *subscribed* shards, as
    /// `(shard, proc, seq)` triples — the payload of a sharded recovery
    /// request. Zero entries are kept: the shard ids present double as
    /// the subscription set, so a peer answering the request learns
    /// which shards the reborn replica needs without a separate
    /// membership exchange.
    pub fn applied_summary(&self) -> Vec<(u32, ProcId, u32)> {
        let mut out = Vec::new();
        for &s in &self.subs {
            for (q, c) in self.applied[s].iter() {
                out.push((s as u32, q, c));
            }
        }
        out
    }
}

/// One process's local copy of the shared memory plus its consistency
/// gates.
#[derive(Debug)]
pub struct Replica {
    /// The owning process.
    pub proc: ProcId,
    nprocs: usize,
    store: Vec<Value>,
    last_writer: Vec<Option<WriteId>>,
    /// `applied[j]` = number of `p_j`'s updates applied locally
    /// (`applied[self]` counts own writes).
    pub applied: VClock,
    /// Causal-application buffer (causal/mixed modes).
    pending: Vec<PendingUpdate>,
    /// Causal-application buffer for whole batches.
    pending_batches: Vec<PendingBatch>,
    /// Causal-read gate.
    pub must_see: VClock,
    /// PRAM-read gate.
    pub pram_wait: VClock,
    /// Demand-driven per-location gates: read of `loc` waits until
    /// `applied[p] >= seq`.
    pub invalid: HashMap<Loc, (ProcId, u32)>,
    /// Updates applied per counter location (locations that ever received
    /// an `Add`), for await synchronization sources.
    counter_updates: HashMap<Loc, Vec<WriteId>>,
    /// Demand-driven bookkeeping: every own write (loc, seq) in order.
    pub write_log: Vec<(Loc, u32)>,
    /// Per-lock watermark into `write_log` (entries before it were already
    /// shipped on an earlier release of that lock).
    pub lock_watermarks: HashMap<mc_model::LockId, usize>,
    /// Full own-write history with dependency vectors, retained only
    /// when the configuration enables durability: it is what lets this
    /// replica answer a reborn peer with exactly the suffix it misses,
    /// even past log compaction.
    own_updates: Vec<OwnUpdate>,
    /// Replica incarnation: bumped (and persisted) on every
    /// crash-recover so stale session state is recognizably stale.
    pub incarnation: u32,
    /// Last-writer-wins application for plain writes: set when this
    /// process's lattice point demands per-location coherence. All
    /// coherent replicas then install `Set`s in one total tag order, so
    /// every observer agrees on the write order per location.
    coherent: bool,
    /// The tag of the currently installed write per location (coherent
    /// replicas only): `(causal sum of deps, writer, seq)`, compared
    /// lexicographically — a total order consistent with causality and
    /// every writer's program order.
    coh_tags: HashMap<Loc, (u64, u32, u32)>,
    /// Sharded interest-based mode, when enabled.
    shards: Option<ShardState>,
}

impl Replica {
    /// Creates the replica of process `proc` in a system of `nprocs`.
    pub fn new(proc: ProcId, nprocs: usize) -> Self {
        Replica {
            proc,
            nprocs,
            store: Vec::new(),
            last_writer: Vec::new(),
            applied: VClock::new(nprocs),
            pending: Vec::new(),
            pending_batches: Vec::new(),
            must_see: VClock::new(nprocs),
            pram_wait: VClock::new(nprocs),
            invalid: HashMap::new(),
            counter_updates: HashMap::new(),
            write_log: Vec::new(),
            lock_watermarks: HashMap::new(),
            own_updates: Vec::new(),
            incarnation: 0,
            coherent: false,
            coh_tags: HashMap::new(),
            shards: None,
        }
    }

    /// Switches this replica into sharded interest-based mode with
    /// `nshards` shards, initially subscribed to `subs`.
    pub fn with_sharding(mut self, nshards: usize, mut subs: Vec<usize>) -> Self {
        subs.sort_unstable();
        subs.dedup();
        self.shards = Some(ShardState {
            nshards,
            applied: vec![VClock::new(self.nprocs); nshards],
            own_prev: vec![0; nshards],
            own_log: vec![Vec::new(); nshards],
            subs,
            pending: Vec::new(),
        });
        self
    }

    /// Enables last-writer-wins coherent application (see
    /// [`mc_model::ModelSpec::PROCESSOR`]): `Set`s with a tag older than
    /// the installed one are dropped instead of regressing the store.
    /// Requires a vector-carrying mode — tags are built from dependency
    /// vectors.
    pub fn with_coherent(mut self, coherent: bool) -> Self {
        self.coherent = coherent;
        self
    }

    /// Pre-sizes the store to `locations`, so the hot read path never
    /// pays a growth check — reads against a pre-sized store are plain
    /// bounds-checked indexing with no mutation. Writes beyond the hint
    /// still grow the store on demand.
    pub fn with_store_capacity(mut self, locations: usize) -> Self {
        if locations > self.store.len() {
            self.store.resize(locations, Value::INITIAL);
            self.last_writer.resize(locations, None);
        }
        self
    }

    fn ensure_loc(&mut self, loc: Loc) {
        if loc.index() >= self.store.len() {
            self.store.resize(loc.index() + 1, Value::INITIAL);
            self.last_writer.resize(loc.index() + 1, None);
        }
    }

    /// The current local value of `loc`. Never-written locations (in
    /// particular anything beyond the pre-sized store) read as
    /// [`Value::INITIAL`].
    pub fn value(&self, loc: Loc) -> Value {
        self.store.get(loc.index()).copied().unwrap_or(Value::INITIAL)
    }

    /// The current local value of `loc` (alias of [`Replica::value`],
    /// kept for inspection of a finished run).
    pub fn peek(&self, loc: Loc) -> Value {
        self.value(loc)
    }

    /// The write that produced the current local value (None = initial).
    pub fn writer_of(&self, loc: Loc) -> Option<WriteId> {
        self.last_writer.get(loc.index()).copied().flatten()
    }

    /// The synchronization sources an await observing `loc` records: all
    /// applied updates for counter locations, the last writer otherwise.
    pub fn await_writers(&self, loc: Loc) -> Vec<WriteId> {
        if let Some(ups) = self.counter_updates.get(&loc) {
            return ups.clone();
        }
        self.writer_of(loc).into_iter().collect()
    }

    /// This process's own-write count.
    pub fn own_count(&self) -> u32 {
        self.applied[self.proc]
    }

    /// The process's knowledge vector: everything applied locally plus
    /// everything it has been told to see. Tags outgoing writes and
    /// releases.
    pub fn knowledge(&self) -> VClock {
        let mut k = self.applied.clone();
        k.merge(&self.must_see);
        k
    }

    /// Performs a local write or update and returns the minted
    /// [`WriteId`] plus the dependency vector to attach in vector modes.
    pub fn local_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        cfg: &DsmConfig,
    ) -> (WriteId, Option<VClock>) {
        let deps = if cfg.mode.carries_vectors() {
            let mut k = self.knowledge();
            k.tick(self.proc);
            Some(k)
        } else {
            None
        };
        self.applied.tick(self.proc);
        let id = WriteId::new(self.proc, self.own_count());
        self.apply_to_store(id, loc, &payload, deps.as_ref());
        self.write_log.push((loc, id.seq));
        if cfg.durability.is_some() {
            self.own_updates.push(OwnUpdate { seq: id.seq, loc, payload, deps: deps.clone() });
        }
        (id, deps)
    }

    fn apply_to_store(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: &UpdatePayload,
        deps: Option<&VClock>,
    ) {
        self.ensure_loc(loc);
        match payload {
            UpdatePayload::Set(v) => {
                if self.admit_set(loc, writer, deps) {
                    self.store[loc.index()] = *v;
                    self.last_writer[loc.index()] = Some(writer);
                }
            }
            UpdatePayload::Add(d) => {
                let cur = self.store[loc.index()];
                self.store[loc.index()] = cur.checked_add(*d).unwrap_or_else(|| {
                    panic!("update delta kind mismatch at {loc} ({cur:?} += {d:?})")
                });
                self.counter_updates.entry(loc).or_default().push(writer);
                self.last_writer[loc.index()] = Some(writer);
            }
        }
    }

    /// Last-writer-wins admission: on a coherent replica a `Set` is
    /// installed only when its tag beats the installed one. Commutative
    /// `Add`s and non-coherent replicas always admit. Own writes always
    /// win locally: their dependency vector covers everything applied,
    /// so their tag is strictly larger than any installed one.
    fn admit_set(&mut self, loc: Loc, writer: WriteId, deps: Option<&VClock>) -> bool {
        if !self.coherent {
            return true;
        }
        let deps = deps.expect("coherent replicas run a vector-carrying mode");
        self.admit_tag(loc, (deps.sum(), writer.proc.0, writer.seq))
    }

    /// Lexicographic last-writer-wins admission on a precomputed tag.
    fn admit_tag(&mut self, loc: Loc, tag: (u64, u32, u32)) -> bool {
        match self.coh_tags.get(&loc) {
            Some(cur) if tag < *cur => false,
            _ => {
                self.coh_tags.insert(loc, tag);
                true
            }
        }
    }

    /// Ingests a remote update. In PRAM mode it applies immediately; in
    /// causal/mixed mode it applies only when causally ready, buffering
    /// otherwise (and draining the buffer to a fixpoint). Returns `true`
    /// if at least one update was applied.
    pub fn ingest(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: UpdatePayload,
        deps: Option<VClock>,
        mode: Mode,
    ) -> bool {
        if !mode.carries_vectors() {
            // PRAM: apply on receipt. FIFO links deliver per-sender
            // in-order; with fault injection they may not, and the
            // resulting store regressions are exactly what the checkers
            // must detect.
            let seen = self.applied.get(writer.proc).max(writer.seq);
            self.applied.set(writer.proc, seen);
            self.apply_to_store(writer, loc, &payload, None);
            return true;
        }
        let deps = deps.expect("vector modes attach deps");
        self.pending.push(PendingUpdate { writer, loc, payload, deps });
        self.drain_pending()
    }

    /// Ingests a remote update batch covering the sender's own writes
    /// `first_seq..=upto`. In PRAM mode the batch applies on receipt; in
    /// causal/mixed mode it applies atomically once the sender sequence
    /// is contiguous and the last member's cross-process dependencies
    /// are met, buffering otherwise. Atomic application over a FIFO
    /// link is indistinguishable from the member updates delivered back
    /// to back, which is why batching preserves Definitions 2–4.
    /// Returns `true` if anything was applied.
    pub fn ingest_batch(
        &mut self,
        proc: ProcId,
        first_seq: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: Option<VClock>,
        mode: Mode,
    ) -> bool {
        if !mode.carries_vectors() {
            let seen = self.applied.get(proc).max(upto);
            for e in entries.iter() {
                self.apply_batch_entry(proc, e, None);
            }
            self.applied.set(proc, seen);
            return true;
        }
        let deps = deps.expect("vector modes attach deps");
        self.pending_batches.push(PendingBatch { proc, first_seq, upto, entries, deps });
        self.drain_pending()
    }

    /// Applies every causally ready buffered update or batch (each can
    /// unblock the other); returns `true` if any applied.
    fn drain_pending(&mut self) -> bool {
        self.prune_ghosts();
        let mut any = false;
        loop {
            if let Some(idx) = self.pending.iter().position(|u| self.causally_ready(u)) {
                let u = self.pending.swap_remove(idx);
                self.applied.tick(u.writer.proc);
                debug_assert_eq!(self.applied[u.writer.proc], u.writer.seq);
                self.apply_to_store(u.writer, u.loc, &u.payload, Some(&u.deps));
                any = true;
                continue;
            }
            if let Some(idx) = self.pending_batches.iter().position(|b| self.batch_ready(b)) {
                let b = self.pending_batches.swap_remove(idx);
                for e in b.entries.iter() {
                    // The batch vector covers every member's deps, and
                    // anyone who observed a member applied the whole
                    // batch first — so tagging each entry with the batch
                    // vector keeps the tag order consistent with
                    // causality. An already-applied prefix (recovery
                    // overlapping an in-flight pre-crash copy) is a set
                    // of ghosts — skip, apply only the genuine suffix.
                    if e.writer.seq > self.applied[b.proc] {
                        self.apply_batch_entry(b.proc, e, Some(&b.deps));
                    }
                }
                self.applied.set(b.proc, b.upto);
                any = true;
                continue;
            }
            // An entry this drain itself covered (a recovery chunk
            // overtaking a buffered batch) is a ghost now too.
            self.prune_ghosts();
            return any;
        }
    }

    /// Drops buffered updates and batches fully covered by the applied
    /// watermark (recovery re-delivered them): they can never become
    /// ready and would otherwise sit buffered forever.
    fn prune_ghosts(&mut self) {
        self.pending.retain(|u| u.writer.seq > self.applied[u.writer.proc]);
        self.pending_batches.retain(|b| b.upto > self.applied[b.proc]);
    }

    /// Applies one coalesced batch entry: `Set` installs the surviving
    /// value, `Add` applies the summed delta and credits every member
    /// write identity to the counter.
    fn apply_batch_entry(&mut self, proc: ProcId, e: &BatchEntry, deps: Option<&VClock>) {
        self.ensure_loc(e.loc);
        match &e.payload {
            UpdatePayload::Set(v) => {
                if self.admit_set(e.loc, e.writer, deps) {
                    self.store[e.loc.index()] = *v;
                    self.last_writer[e.loc.index()] = Some(e.writer);
                }
            }
            UpdatePayload::Add(d) => {
                let cur = self.store[e.loc.index()];
                self.store[e.loc.index()] = cur.checked_add(*d).unwrap_or_else(|| {
                    panic!("update delta kind mismatch at {} ({cur:?} += {d:?})", e.loc)
                });
                let ups = self.counter_updates.entry(e.loc).or_default();
                ups.extend(e.adds.iter().map(|&s| WriteId::new(proc, s)));
                self.last_writer[e.loc.index()] = Some(e.writer);
            }
        }
    }

    fn causally_ready(&self, u: &PendingUpdate) -> bool {
        if self.applied[u.writer.proc] + 1 != u.writer.seq {
            return false;
        }
        u.deps.iter().all(|(p, c)| p == u.writer.proc || self.applied[p] >= c)
    }

    fn batch_ready(&self, b: &PendingBatch) -> bool {
        // Ready when the next expected sequence falls inside the batch:
        // `first_seq` may sit below the watermark when recovery overlaps
        // an in-flight pre-crash copy (the covered prefix is skipped at
        // application time).
        if self.applied[b.proc] + 1 < b.first_seq || self.applied[b.proc] >= b.upto {
            return false;
        }
        b.deps.iter().all(|(p, c)| p == b.proc || self.applied[p] >= c)
    }

    /// Number of buffered (not yet applied) updates and batches.
    pub fn pending_len(&self) -> usize {
        self.pending.len() + self.pending_batches.len()
    }

    /// Gate for causal reads: the causal cut must be applied locally
    /// (Section 6: "a causal read can return a value only if all
    /// preceding operations ... have been performed locally").
    pub fn causal_ready(&self, loc: Loc) -> bool {
        self.applied.dominates(&self.must_see) && self.demand_ready(loc)
    }

    /// Gate for PRAM reads: only direct synchronization predecessors are
    /// awaited.
    pub fn pram_ready(&self, loc: Loc) -> bool {
        self.applied.dominates(&self.pram_wait) && self.demand_ready(loc)
    }

    fn demand_ready(&self, loc: Loc) -> bool {
        match self.invalid.get(&loc) {
            Some(&(p, seq)) => self.applied[p] >= seq,
            None => true,
        }
    }

    /// Merges synchronization knowledge received from a lock grant or
    /// barrier release into the read gates.
    pub fn absorb_sync(&mut self, knowledge: &VClock, preds: &[(ProcId, u32)]) {
        if !knowledge.is_empty() {
            self.must_see.merge(knowledge);
        }
        for &(p, c) in preds {
            if self.pram_wait[p] < c {
                self.pram_wait.set(p, c);
            }
        }
    }

    /// Installs demand-driven invalidations from a lock grant.
    pub fn absorb_demand(&mut self, demand: &[(Loc, ProcId, u32)]) {
        for &(loc, p, seq) in demand {
            let e = self.invalid.entry(loc).or_insert((p, seq));
            // Keep the strongest requirement per location.
            if (e.0, e.1) != (p, seq) {
                let cur_ok = self.applied[e.0] >= e.1;
                let new_ok = self.applied[p] >= seq;
                if cur_ok || !new_ok {
                    *e = (p, seq);
                }
            }
        }
    }

    /// Drains the demand-driven dirty set accumulated since the last
    /// release of `lock`: the latest own write per location.
    pub fn take_dirty(&mut self, lock: mc_model::LockId) -> Vec<(Loc, u32)> {
        let wm = self.lock_watermarks.get(&lock).copied().unwrap_or(0);
        let mut latest: HashMap<Loc, u32> = HashMap::new();
        for &(loc, seq) in &self.write_log[wm..] {
            let e = latest.entry(loc).or_insert(seq);
            *e = (*e).max(seq);
        }
        self.lock_watermarks.insert(lock, self.write_log.len());
        let mut out: Vec<(Loc, u32)> = latest.into_iter().collect();
        out.sort_unstable_by_key(|&(l, _)| l);
        out
    }

    /// The number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    // -- sharding -----------------------------------------------------------

    /// The sharded-mode state, when sharding is enabled.
    pub fn shards(&self) -> Option<&ShardState> {
        self.shards.as_ref()
    }

    /// Whether sharded interest-based mode is enabled.
    pub fn is_sharded(&self) -> bool {
        self.shards.is_some()
    }

    /// Subscribes to `shard` (dynamic first-touch fallback). Returns
    /// `true` when the subscription is new.
    pub fn shard_subscribe(&mut self, shard: usize) -> bool {
        let st = self.shards.as_mut().expect("sharding enabled");
        match st.subs.binary_search(&shard) {
            Ok(_) => false,
            Err(i) => {
                st.subs.insert(i, shard);
                true
            }
        }
    }

    /// Performs a local write in sharded mode. The minted [`WriteId`]
    /// keeps the global per-process sequence; the returned chain link
    /// `prev` is this process's previous own seq in the target shard,
    /// and the dependency triples are the writer's full current
    /// per-shard knowledge (its own target-shard entry excluded —
    /// `prev` already carries it).
    pub fn sharded_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        cfg: &DsmConfig,
    ) -> (WriteId, u32, Vec<(u32, ProcId, u32)>) {
        self.applied.tick(self.proc);
        let id = WriteId::new(self.proc, self.own_count());
        let st = self.shards.as_mut().expect("sharded_write requires sharding");
        let s = st.shard_of(loc);
        let prev = st.own_prev[s];
        let mut deps = Vec::new();
        if cfg.mode.carries_vectors() {
            for (ds, clock) in st.applied.iter().enumerate() {
                for (q, c) in clock.iter() {
                    if c > 0 && !(ds == s && q == self.proc) {
                        deps.push((ds as u32, q, c));
                    }
                }
            }
        }
        st.own_prev[s] = id.seq;
        st.applied[s].set(self.proc, id.seq);
        st.own_log[s].push(ShardOwnUpdate {
            seq: id.seq,
            loc,
            payload: payload.clone(),
            deps: deps.clone(),
        });
        let sum = st.applied[s].sum();
        self.apply_sharded(id, loc, &payload, sum, &[id.seq]);
        self.write_log.push((loc, id.seq));
        (id, prev, deps)
    }

    /// Installs one sharded write into the store. `sum` is the write's
    /// shard-local knowledge total (the writer's post-write shard clock
    /// summed), which orders coherent `Set`s: if `w1` causally precedes
    /// `w2` in the same shard, `w2`'s post-write clock strictly
    /// dominates `w1`'s component-wise, so its sum is strictly larger —
    /// the `(sum, proc, seq)` tag is a total order consistent with
    /// per-shard causality. `adds` are the member seqs credited to a
    /// counter location.
    fn apply_sharded(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: &UpdatePayload,
        sum: u64,
        adds: &[u32],
    ) {
        self.ensure_loc(loc);
        match payload {
            UpdatePayload::Set(v) => {
                let admit = !self.coherent || self.admit_tag(loc, (sum, writer.proc.0, writer.seq));
                if admit {
                    self.store[loc.index()] = *v;
                    self.last_writer[loc.index()] = Some(writer);
                }
            }
            UpdatePayload::Add(d) => {
                let cur = self.store[loc.index()];
                self.store[loc.index()] = cur.checked_add(*d).unwrap_or_else(|| {
                    panic!("update delta kind mismatch at {loc} ({cur:?} += {d:?})")
                });
                let ups = self.counter_updates.entry(loc).or_default();
                ups.extend(adds.iter().map(|&s| WriteId::new(writer.proc, s)));
                self.last_writer[loc.index()] = Some(writer);
            }
        }
    }

    /// Ingests one remote sharded update. Non-vector modes apply on
    /// receipt (mirroring the unsharded PRAM path); vector modes buffer
    /// until the shard chain link matches and every dependency triple
    /// for a *subscribed* shard is dominated. Stale duplicates (already
    /// at or past the writer's seq in this shard) are discarded.
    /// Returns `true` if anything was applied.
    pub fn ingest_sharded(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: UpdatePayload,
        prev: u32,
        deps: Vec<(u32, ProcId, u32)>,
        mode: Mode,
    ) -> bool {
        let st = self.shards.as_mut().expect("sharding enabled");
        let s = st.shard_of(loc);
        if !mode.carries_vectors() {
            let seen = st.applied[s].get(writer.proc).max(writer.seq);
            st.applied[s].set(writer.proc, seen);
            let global = self.applied.get(writer.proc).max(writer.seq);
            self.applied.set(writer.proc, global);
            let sum = self.shards.as_ref().unwrap().applied[s].sum();
            self.apply_sharded(writer, loc, &payload, sum, &[writer.seq]);
            return true;
        }
        if st.applied[s].get(writer.proc) >= writer.seq {
            return false;
        }
        st.pending.push(PendingShard::Single { writer, loc, payload, prev, deps });
        self.drain_shard_pending()
    }

    /// Ingests a sharded chain (a coalesced per-shard batch, a recovery
    /// delta, or a subscription backfill) covering the sender's own
    /// writes in `shard` from chain link `prev` up to `upto`. When
    /// `trim` is set the entries are one-per-write (uncoalesced), and
    /// any prefix this replica already has is discarded with `prev`
    /// re-anchored — recovery and backfill pushes may overlap what the
    /// receiver already applied. Returns `true` if anything applied.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest_shard_chain(
        &mut self,
        proc: ProcId,
        shard: u32,
        mut prev: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: Vec<(u32, ProcId, u32)>,
        mode: Mode,
        trim: bool,
    ) -> bool {
        let st = self.shards.as_mut().expect("sharding enabled");
        let have = st.applied[shard as usize].get(proc);
        if have >= upto {
            return false;
        }
        // The entry buffer is shared with every other recipient of the
        // chain, so an already-applied prefix is skipped by index (the
        // chain re-anchors at the last skipped member) instead of
        // popping from an owned vector.
        let mut skip = 0;
        if trim {
            while entries.get(skip).is_some_and(|e| e.writer.seq <= have) {
                prev = entries[skip].writer.seq;
                skip += 1;
            }
        }
        if !mode.carries_vectors() {
            let seen = have.max(upto);
            st.applied[shard as usize].set(proc, seen);
            let global = self.applied.get(proc).max(upto);
            self.applied.set(proc, global);
            for e in entries[skip..].iter() {
                let sum = self.shards.as_ref().unwrap().applied[shard as usize].sum();
                self.apply_sharded(e.writer, e.loc, &e.payload, sum, &e.adds);
            }
            return true;
        }
        st.pending.push(PendingShard::Chain { proc, shard, prev, upto, entries, skip, deps });
        self.drain_shard_pending()
    }

    /// Applies every ready buffered sharded update or chain (each can
    /// unblock the other); returns `true` if any applied.
    fn drain_shard_pending(&mut self) -> bool {
        let mut any = false;
        loop {
            let st = self.shards.as_ref().expect("sharding enabled");
            let idx = st.pending.iter().position(|p| Self::shard_ready(st, p));
            let Some(idx) = idx else { return any };
            let p = self.shards.as_mut().unwrap().pending.swap_remove(idx);
            any = true;
            match p {
                PendingShard::Single { writer, loc, payload, prev: _, deps } => {
                    let st = self.shards.as_mut().unwrap();
                    let s = st.shard_of(loc);
                    st.applied[s].set(writer.proc, writer.seq);
                    let global = self.applied.get(writer.proc).max(writer.seq);
                    self.applied.set(writer.proc, global);
                    let sum = Self::dep_sum(&deps, s) + writer.seq as u64;
                    self.apply_sharded(writer, loc, &payload, sum, &[writer.seq]);
                }
                PendingShard::Chain { proc, shard, prev: _, upto, entries, skip, deps } => {
                    let st = self.shards.as_mut().unwrap();
                    st.applied[shard as usize].set(proc, upto);
                    let global = self.applied.get(proc).max(upto);
                    self.applied.set(proc, global);
                    for e in entries[skip..].iter() {
                        // The chain triples cover every member's deps
                        // (monotone in chain order), so tagging each
                        // entry with them keeps coherent tag order
                        // consistent with per-shard causality.
                        let sum = Self::dep_sum(&deps, shard as usize) + e.writer.seq as u64;
                        self.apply_sharded(e.writer, e.loc, &e.payload, sum, &e.adds);
                    }
                }
            }
        }
    }

    /// Sum of the dependency triples that land in `shard` — the
    /// sender's pre-existing knowledge of the write's own shard.
    fn dep_sum(deps: &[(u32, ProcId, u32)], shard: usize) -> u64 {
        deps.iter().filter(|&&(ds, _, _)| ds as usize == shard).map(|&(_, _, c)| c as u64).sum()
    }

    /// Readiness of one buffered sharded item: the chain link must
    /// match exactly, and every dependency triple for a shard this
    /// replica subscribes to must be dominated. Triples for shards it
    /// does not subscribe to are skipped — it can never observe those
    /// writes, so they are outside its causal past's visible image.
    fn shard_ready(st: &ShardState, p: &PendingShard) -> bool {
        let (sender, shard, prev, deps) = match p {
            PendingShard::Single { writer, loc, prev, deps, .. } => {
                (writer.proc, st.shard_of(*loc), *prev, deps)
            }
            PendingShard::Chain { proc, shard, prev, deps, .. } => {
                (*proc, *shard as usize, *prev, deps)
            }
        };
        if st.applied[shard].get(sender) != prev {
            return false;
        }
        deps.iter().all(|&(ds, q, c)| {
            let ds = ds as usize;
            (ds == shard && q == sender) || !st.subscribed(ds) || st.applied[ds].get(q) >= c
        })
    }

    /// The suffix of this replica's own chain in `shard` after global
    /// seq `after`, as uncoalesced one-per-write entries: `(prev, upto,
    /// entries, deps-of-last-member)`. `None` when the peer already has
    /// everything.
    ///
    /// A chain applies *atomically* at the receiver, so this shape is
    /// only safe when at most one chain can be in flight per causal
    /// cut (live batches guarantee it by flushing other shards first).
    /// Recovery and backfill answer with [`Self::shard_updates_after`]
    /// instead: two atomic chains whose last-member triples point into
    /// each other's shards deadlock a receiver that lacks both.
    pub fn shard_chain_after(&self, shard: usize, after: u32) -> Option<ShardChain> {
        let st = self.shards.as_ref()?;
        let missing: Vec<&ShardOwnUpdate> =
            st.own_log[shard].iter().filter(|u| u.seq > after).collect();
        let last = missing.last()?;
        let (upto, deps) = (last.seq, last.deps.clone());
        let entries = missing
            .iter()
            .map(|u| BatchEntry {
                loc: u.loc,
                payload: u.payload.clone(),
                writer: WriteId::new(self.proc, u.seq),
                adds: match u.payload {
                    UpdatePayload::Add(_) => vec![u.seq],
                    UpdatePayload::Set(_) => vec![],
                },
            })
            .collect();
        Some((after, upto, entries, deps))
    }

    /// This replica's own writes after each `(shard, after)` watermark,
    /// re-shipped one [`ShardUpdate`](crate::Msg::ShardUpdate) at a
    /// time with their original chain links and write-time dependency
    /// triples, interleaved across shards in global sequence order.
    ///
    /// Recovery deltas and subscription backfills use this per-write
    /// form rather than one atomic chain per shard: a shard-A chain may
    /// carry a triple into shard B while B's chain carries one back
    /// into A, and since chains apply atomically a receiver that lacks
    /// both parks each on the other forever. Individual writes follow
    /// the (acyclic) causal order, so in-sequence delivery always
    /// drains — exactly like live traffic.
    pub fn shard_updates_after(&self, wants: &[(u32, u32)]) -> Vec<ShardPush> {
        let Some(st) = self.shards.as_ref() else { return Vec::new() };
        let mut out = Vec::new();
        for &(shard, after) in wants {
            let mut prev = 0;
            for u in &st.own_log[shard as usize] {
                if u.seq > after {
                    out.push((
                        WriteId::new(self.proc, u.seq),
                        u.loc,
                        u.payload.clone(),
                        prev,
                        u.deps.clone(),
                    ));
                }
                prev = u.seq;
            }
        }
        out.sort_unstable_by_key(|&(w, ..)| w.seq);
        out
    }

    // -- durability ---------------------------------------------------------

    /// Captures the replica as a compacted [`Snapshot`] (everything that
    /// `snapshot + empty log` must reproduce). `watermarks` are the
    /// session receiver watermarks to persist alongside.
    pub fn to_snapshot(&self, watermarks: Vec<(ProcId, u64)>) -> Snapshot {
        let mut store = Vec::new();
        for i in 0..self.store.len() {
            let v = self.store[i];
            let w = self.last_writer[i];
            if v != Value::INITIAL || w.is_some() {
                store.push((Loc(i as u32), v, w));
            }
        }
        let mut counter_updates: Vec<(Loc, Vec<WriteId>)> =
            self.counter_updates.iter().map(|(&l, ws)| (l, ws.clone())).collect();
        counter_updates.sort_unstable_by_key(|&(l, _)| l);
        Snapshot {
            incarnation: self.incarnation,
            applied: self.applied.clone(),
            store,
            counter_updates,
            write_log: self.write_log.clone(),
            own_updates: self.own_updates.clone(),
            pending: self
                .pending
                .iter()
                .map(|u| SnapPending {
                    writer: u.writer,
                    loc: u.loc,
                    payload: u.payload.clone(),
                    deps: u.deps.clone(),
                })
                .collect(),
            pending_batches: self
                .pending_batches
                .iter()
                .map(|b| SnapBatch {
                    proc: b.proc,
                    first_seq: b.first_seq,
                    upto: b.upto,
                    entries: b.entries.to_vec(),
                    deps: b.deps.clone(),
                })
                .collect(),
            watermarks,
        }
    }

    /// Rebuilds a replica from a decoded [`Snapshot`]. The read gates
    /// (`must_see`, `pram_wait`, `invalid`) and lock watermarks are
    /// *not* part of the snapshot: in the simulator they survive the
    /// crash with the client program, and a restarted live process
    /// starts its program afresh.
    pub fn from_snapshot(proc: ProcId, nprocs: usize, snap: &Snapshot) -> Replica {
        let mut r = Replica::new(proc, nprocs);
        r.incarnation = snap.incarnation;
        r.applied = snap.applied.clone();
        for &(loc, v, w) in &snap.store {
            r.ensure_loc(loc);
            r.store[loc.index()] = v;
            r.last_writer[loc.index()] = w;
        }
        r.counter_updates = snap.counter_updates.iter().cloned().collect();
        r.write_log = snap.write_log.clone();
        r.own_updates = snap.own_updates.clone();
        r.pending = snap
            .pending
            .iter()
            .map(|u| PendingUpdate {
                writer: u.writer,
                loc: u.loc,
                payload: u.payload.clone(),
                deps: u.deps.clone(),
            })
            .collect();
        r.pending_batches = snap
            .pending_batches
            .iter()
            .map(|b| PendingBatch {
                proc: b.proc,
                first_seq: b.first_seq,
                upto: b.upto,
                entries: b.entries.clone().into(),
                deps: b.deps.clone(),
            })
            .collect();
        r
    }

    /// Replays one write-ahead-log record through the normal ingest
    /// machinery (recovery path). Own writes re-mint their original
    /// identities because replay preserves order; remote records re-run
    /// ingest, so causally premature updates land back in the pending
    /// buffers exactly as they were.
    pub fn replay_record(&mut self, rec: WalRecord, mode: Mode) {
        match rec {
            WalRecord::OwnWrite { loc, payload, deps } => {
                self.applied.tick(self.proc);
                let id = WriteId::new(self.proc, self.own_count());
                self.apply_to_store(id, loc, &payload, deps.as_ref());
                self.write_log.push((loc, id.seq));
                self.own_updates.push(OwnUpdate { seq: id.seq, loc, payload, deps });
            }
            WalRecord::Ingest { writer, loc, payload, deps } => {
                self.ingest(writer, loc, payload, deps, mode);
            }
            WalRecord::IngestBatch { proc, first_seq, upto, entries, deps } => {
                self.ingest_batch(proc, first_seq, upto, entries.into(), deps, mode);
            }
            WalRecord::Incarnation { incarnation } => {
                self.incarnation = self.incarnation.max(incarnation);
            }
            WalRecord::OwnWriteSharded { loc, payload, deps } => {
                self.applied.tick(self.proc);
                let id = WriteId::new(self.proc, self.own_count());
                let st = self.shards.as_mut().expect("sharded WAL record on a sharded replica");
                let s = st.shard_of(loc);
                st.own_prev[s] = id.seq;
                st.applied[s].set(self.proc, id.seq);
                st.own_log[s].push(ShardOwnUpdate {
                    seq: id.seq,
                    loc,
                    payload: payload.clone(),
                    deps,
                });
                let sum = st.applied[s].sum();
                self.apply_sharded(id, loc, &payload, sum, &[id.seq]);
                self.write_log.push((loc, id.seq));
            }
            WalRecord::IngestSharded { writer, loc, payload, prev, deps } => {
                self.ingest_sharded(writer, loc, payload, prev, deps, mode);
            }
            WalRecord::IngestShardChain { proc, shard, prev, upto, entries, deps, trim } => {
                self.ingest_shard_chain(proc, shard, prev, upto, entries.into(), deps, mode, trim);
            }
            WalRecord::Subscribe { shard } => {
                self.shard_subscribe(shard as usize);
            }
        }
    }

    /// The suffix of this replica's own writes after sequence `after`,
    /// as batch entries for a [`RecoverResp`](crate::Msg::RecoverResp)
    /// (or the reborn side's push-back batch): `(first_seq, upto,
    /// entries, deps-of-last-member)`. `None` when the peer already has
    /// everything.
    pub fn delta_entries(&self, after: u32) -> Option<(u32, u32, Vec<BatchEntry>, Option<VClock>)> {
        let missing: Vec<&OwnUpdate> = self.own_updates.iter().filter(|u| u.seq > after).collect();
        let last = missing.last()?;
        let (upto, deps) = (last.seq, last.deps.clone());
        let entries = missing
            .iter()
            .map(|u| BatchEntry {
                loc: u.loc,
                payload: u.payload.clone(),
                writer: WriteId::new(self.proc, u.seq),
                adds: match u.payload {
                    UpdatePayload::Add(_) => vec![u.seq],
                    UpdatePayload::Set(_) => vec![],
                },
            })
            .collect();
        Some((after + 1, upto, entries, deps))
    }

    /// [`Replica::delta_entries`] split at dependency boundaries: one
    /// batch per maximal run of own writes whose *cross-process*
    /// dependencies are identical (the own coordinate grows within a
    /// run but never gates).
    ///
    /// A single batch gated on the deps of its last member deadlocks
    /// when two peers' recovery deltas cross-reference each other's
    /// recent writes: neither batch is ever ready at the recovering
    /// node, even though the underlying per-write causal order is
    /// acyclic and an interleaved application order exists. Runs with
    /// unchanged external deps have no incoming dependency except at
    /// their head, so contracting each run to one atomic batch
    /// preserves acyclicity — chunked deltas always admit a topological
    /// application order, which `drain_pending`'s fixpoint finds.
    pub fn delta_chunks(&self, after: u32) -> Vec<(u32, u32, Vec<BatchEntry>, Option<VClock>)> {
        let missing: Vec<&OwnUpdate> = self.own_updates.iter().filter(|u| u.seq > after).collect();
        let external_eq = |a: &Option<VClock>, b: &Option<VClock>| match (a, b) {
            (Some(a), Some(b)) => {
                a.iter().all(|(p, c)| p == self.proc || b[p] == c)
                    && b.iter().all(|(p, c)| p == self.proc || a[p] == c)
            }
            (None, None) => true,
            _ => false,
        };
        let mut chunks: Vec<(u32, u32, Vec<BatchEntry>, Option<VClock>)> = Vec::new();
        for u in missing {
            let entry = BatchEntry {
                loc: u.loc,
                payload: u.payload.clone(),
                writer: WriteId::new(self.proc, u.seq),
                adds: match u.payload {
                    UpdatePayload::Add(_) => vec![u.seq],
                    UpdatePayload::Set(_) => vec![],
                },
            };
            match chunks.last_mut() {
                Some((_, upto, entries, deps)) if external_eq(deps, &u.deps) => {
                    *upto = u.seq;
                    // The run's shared vector is its last member's: the
                    // external coordinates are identical across the run
                    // and the own coordinate is maximal, matching what a
                    // single-batch delta would carry.
                    *deps = u.deps.clone();
                    entries.push(entry);
                }
                _ => chunks.push((u.seq, u.seq, vec![entry], u.deps.clone())),
            }
        }
        chunks
    }

    /// Number of own writes retained for recovery push-back.
    pub fn own_updates_len(&self) -> usize {
        self.own_updates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockPropagation;
    use mc_model::LockId;

    fn cfg(mode: Mode) -> DsmConfig {
        DsmConfig { lock_propagation: LockPropagation::Lazy, ..DsmConfig::new(3, mode) }
    }

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn local_write_and_read() {
        let mut r = Replica::new(p(0), 3);
        let (id, deps) =
            r.local_write(Loc(5), UpdatePayload::Set(Value::Int(9)), &cfg(Mode::Mixed));
        assert_eq!(id, WriteId::new(p(0), 1));
        assert_eq!(deps.as_ref().unwrap()[p(0)], 1);
        assert_eq!(r.value(Loc(5)), Value::Int(9));
        assert_eq!(r.writer_of(Loc(5)), Some(id));
        assert_eq!(r.value(Loc(99)), Value::INITIAL);
        assert_eq!(r.writer_of(Loc(99)), None);
        assert_eq!(r.own_count(), 1);
    }

    #[test]
    fn pram_mode_attaches_no_deps() {
        let mut r = Replica::new(p(0), 3);
        let (_, deps) = r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert!(deps.is_none());
    }

    #[test]
    fn pram_ingest_applies_immediately() {
        let mut r = Replica::new(p(1), 2);
        let applied = r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(7)),
            None,
            Mode::Pram,
        );
        assert!(applied);
        assert_eq!(r.value(Loc(0)), Value::Int(7));
        assert_eq!(r.applied[p(0)], 1);
    }

    #[test]
    fn causal_ingest_buffers_out_of_order() {
        let mut r = Replica::new(p(1), 2);
        // Writer p0's second write arrives first.
        let mut deps2: VClock = VClock::new(2);
        deps2.set(p(0), 2);
        let applied = r.ingest(
            WriteId::new(p(0), 2),
            Loc(0),
            UpdatePayload::Set(Value::Int(2)),
            Some(deps2),
            Mode::Causal,
        );
        assert!(!applied);
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.value(Loc(0)), Value::INITIAL);

        // Now the first write arrives: both drain, in order.
        let mut deps1 = VClock::new(2);
        deps1.set(p(0), 1);
        let applied = r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(deps1),
            Mode::Causal,
        );
        assert!(applied);
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.value(Loc(0)), Value::Int(2), "final value is the later write");
        assert_eq!(r.applied[p(0)], 2);
    }

    #[test]
    fn causal_ingest_waits_for_cross_deps() {
        // p2's write depends on p0's write (p2 read it before writing).
        let mut r = Replica::new(p(1), 3);
        let mut deps = VClock::new(3);
        deps.set(p(2), 1);
        deps.set(p(0), 1); // cross dependency
        assert!(!r.ingest(
            WriteId::new(p(2), 1),
            Loc(1),
            UpdatePayload::Set(Value::Int(5)),
            Some(deps),
            Mode::Mixed,
        ));
        // p0's write arrives; both apply.
        let mut deps0 = VClock::new(3);
        deps0.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(4)),
            Some(deps0),
            Mode::Mixed,
        ));
        assert_eq!(r.value(Loc(1)), Value::Int(5));
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Replica::new(p(1), 2);
        r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Add(Value::Int(-1)),
            None,
            Mode::Pram,
        );
        let (id, _) = r.local_write(Loc(0), UpdatePayload::Add(Value::Int(-1)), &cfg(Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(-2));
        let writers = r.await_writers(Loc(0));
        assert_eq!(writers.len(), 2);
        assert!(writers.contains(&id));
    }

    #[test]
    #[should_panic(expected = "delta kind mismatch")]
    fn update_kind_mismatch_panics() {
        let mut r = Replica::new(p(0), 1);
        r.local_write(Loc(0), UpdatePayload::Set(Value::F64(1.0)), &cfg(Mode::Pram));
        r.local_write(Loc(0), UpdatePayload::Add(Value::Int(1)), &cfg(Mode::Pram));
    }

    #[test]
    fn float_counters_accumulate() {
        let mut r = Replica::new(p(0), 1);
        r.local_write(Loc(0), UpdatePayload::Set(Value::F64(1.0)), &cfg(Mode::Pram));
        r.local_write(Loc(0), UpdatePayload::Add(Value::F64(-0.25)), &cfg(Mode::Pram));
        assert_eq!(r.peek(Loc(0)), Value::F64(0.75));
    }

    #[test]
    fn gates() {
        let mut r = Replica::new(p(1), 2);
        assert!(r.causal_ready(Loc(0)));
        assert!(r.pram_ready(Loc(0)));

        // A grant tells us to see p0's first write.
        let mut k = VClock::new(2);
        k.set(p(0), 1);
        r.absorb_sync(&k, &[(p(0), 1)]);
        assert!(!r.causal_ready(Loc(0)));
        assert!(!r.pram_ready(Loc(0)));

        r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(k.clone()),
            Mode::Mixed,
        );
        assert!(r.causal_ready(Loc(0)));
        assert!(r.pram_ready(Loc(0)));
    }

    #[test]
    fn demand_gate_blocks_only_named_locations() {
        let mut r = Replica::new(p(1), 2);
        r.absorb_demand(&[(Loc(3), p(0), 2)]);
        assert!(r.causal_ready(Loc(0)), "other locations unaffected");
        assert!(!r.pram_ready(Loc(3)));
        // Apply p0's two writes.
        for s in 1..=2 {
            r.ingest(
                WriteId::new(p(0), s),
                Loc(3),
                UpdatePayload::Set(Value::Int(s as i64)),
                None,
                Mode::Pram,
            );
        }
        assert!(r.pram_ready(Loc(3)));
    }

    #[test]
    fn dirty_set_is_per_lock_delta() {
        let l = LockId(0);
        let mut r = Replica::new(p(0), 1);
        let c = cfg(Mode::Pram);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        r.local_write(Loc(1), UpdatePayload::Set(Value::Int(2)), &c);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(3)), &c);
        let d1 = r.take_dirty(l);
        assert_eq!(d1, vec![(Loc(0), 3), (Loc(1), 2)]);
        // Nothing new since.
        assert!(r.take_dirty(l).is_empty());
        r.local_write(Loc(1), UpdatePayload::Set(Value::Int(4)), &c);
        assert_eq!(r.take_dirty(l), vec![(Loc(1), 4)]);
        // A different lock ships everything.
        assert_eq!(r.take_dirty(LockId(1)).len(), 2);
    }

    #[test]
    fn presized_store_reads_without_growth() {
        let r = Replica::new(p(0), 2).with_store_capacity(16);
        assert_eq!(r.value(Loc(15)), Value::INITIAL);
        assert_eq!(r.writer_of(Loc(15)), None);
        // Beyond the hint still answers (initial), and writing there grows.
        assert_eq!(r.value(Loc(40)), Value::INITIAL);
        let mut r = r;
        r.local_write(Loc(40), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert_eq!(r.value(Loc(40)), Value::Int(1));
    }

    #[test]
    fn pram_batch_applies_immediately() {
        let mut r = Replica::new(p(1), 2);
        let e = |loc: u32, v: i64, seq: u32| BatchEntry {
            loc: Loc(loc),
            payload: UpdatePayload::Set(Value::Int(v)),
            writer: WriteId::new(p(0), seq),
            adds: vec![],
        };
        assert!(r.ingest_batch(p(0), 1, 3, vec![e(0, 7, 2), e(1, 9, 3)].into(), None, Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(7));
        assert_eq!(r.value(Loc(1)), Value::Int(9));
        assert_eq!(r.applied[p(0)], 3);
        assert_eq!(r.writer_of(Loc(1)), Some(WriteId::new(p(0), 3)));
    }

    #[test]
    fn causal_batch_waits_for_sequence_and_deps() {
        let mut r = Replica::new(p(2), 3);
        // Batch covering p0's writes 2..=3 arrives before write 1: buffered.
        let mut deps = VClock::new(3);
        deps.set(p(0), 3);
        let e = BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(3)),
            writer: WriteId::new(p(0), 3),
            adds: vec![],
        };
        assert!(!r.ingest_batch(p(0), 2, 3, vec![e].into(), Some(deps), Mode::Causal));
        assert_eq!(r.pending_len(), 1);
        // Write 1 (as a singleton) unblocks the batch atomically.
        let mut d1 = VClock::new(3);
        d1.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(d1),
            Mode::Causal,
        ));
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.applied[p(0)], 3);
        assert_eq!(r.value(Loc(0)), Value::Int(3));
    }

    #[test]
    fn recovery_chunk_covering_a_buffered_batch_leaves_no_ghost() {
        let mut r = Replica::new(p(2), 3);
        let set = |seq: u32, v: i64| BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(v)),
            writer: WriteId::new(p(0), seq),
            adds: vec![],
        };
        let deps = |c: u32| {
            let mut d = VClock::new(3);
            d.set(p(0), c);
            d
        };
        // A pre-crash batch of p0's writes 3..=4 arrives early: buffered.
        assert!(!r.ingest_batch(p(0), 3, 4, vec![set(4, 4)].into(), Some(deps(4)), Mode::Causal));
        assert_eq!(r.pending_len(), 1);
        // A recovery chunk covering 1..=4 applies in the same drain that
        // turns the buffered batch into a ghost.
        assert!(r.ingest_batch(p(0), 1, 4, vec![set(4, 4)].into(), Some(deps(4)), Mode::Causal));
        assert_eq!(r.applied[p(0)], 4);
        assert_eq!(r.value(Loc(0)), Value::Int(4));
        assert_eq!(r.pending_len(), 0, "a covered batch must not stay buffered");
    }

    #[test]
    fn causal_batch_waits_for_cross_deps() {
        let mut r = Replica::new(p(2), 3);
        // p1's batch depends on p0's first write.
        let mut deps = VClock::new(3);
        deps.set(p(1), 1);
        deps.set(p(0), 1);
        let e = BatchEntry {
            loc: Loc(1),
            payload: UpdatePayload::Set(Value::Int(5)),
            writer: WriteId::new(p(1), 1),
            adds: vec![],
        };
        assert!(!r.ingest_batch(p(1), 1, 1, vec![e].into(), Some(deps), Mode::Mixed));
        let mut d0 = VClock::new(3);
        d0.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(4)),
            Some(d0),
            Mode::Mixed,
        ));
        assert_eq!(r.value(Loc(1)), Value::Int(5));
    }

    #[test]
    fn batch_add_entry_credits_every_member() {
        let mut r = Replica::new(p(1), 2);
        // Three coalesced Adds from p0 (seqs 1..=3) summed into one entry.
        let e = BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Add(Value::Int(3)),
            writer: WriteId::new(p(0), 3),
            adds: vec![1, 2, 3],
        };
        assert!(r.ingest_batch(p(0), 1, 3, vec![e].into(), None, Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(3));
        let writers = r.await_writers(Loc(0));
        assert_eq!(writers.len(), 3);
        assert!(writers.contains(&WriteId::new(p(0), 2)));
    }

    fn durable_cfg(mode: Mode) -> DsmConfig {
        DsmConfig { durability: Some(crate::durability::DurabilityPolicy::default()), ..cfg(mode) }
    }

    #[test]
    fn snapshot_roundtrip_reconstructs_replica() {
        let c = durable_cfg(Mode::Mixed);
        let mut r = Replica::new(p(0), 3);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(5)), &c);
        r.local_write(Loc(1), UpdatePayload::Add(Value::Int(2)), &c);
        // A causally premature remote write lands in pending.
        let mut deps = VClock::new(3);
        deps.set(p(1), 2);
        r.ingest(
            WriteId::new(p(1), 2),
            Loc(2),
            UpdatePayload::Set(Value::Int(9)),
            Some(deps),
            Mode::Mixed,
        );
        assert_eq!(r.pending_len(), 1);
        r.incarnation = 3;

        let bytes = r.to_snapshot(vec![(p(1), 7)]).encode();
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap.watermarks, vec![(p(1), 7)]);
        let mut back = Replica::from_snapshot(p(0), 3, &snap);
        assert_eq!(back.incarnation, 3);
        assert_eq!(back.value(Loc(0)), Value::Int(5));
        assert_eq!(back.value(Loc(1)), Value::Int(2));
        assert_eq!(back.own_count(), 2);
        assert_eq!(back.write_log, r.write_log);
        assert_eq!(back.pending_len(), 1);
        assert_eq!(back.await_writers(Loc(1)), r.await_writers(Loc(1)));
        // The buffered write still drains once its predecessor arrives.
        let mut d1 = VClock::new(3);
        d1.set(p(1), 1);
        assert!(back.ingest(
            WriteId::new(p(1), 1),
            Loc(2),
            UpdatePayload::Set(Value::Int(8)),
            Some(d1),
            Mode::Mixed,
        ));
        assert_eq!(back.value(Loc(2)), Value::Int(9));
    }

    #[test]
    fn replay_reminits_own_write_identities() {
        let c = durable_cfg(Mode::Mixed);
        let mut live = Replica::new(p(0), 2);
        let (id1, deps1) = live.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        let (id2, deps2) = live.local_write(Loc(1), UpdatePayload::Add(Value::Int(4)), &c);

        let mut reborn = Replica::new(p(0), 2);
        reborn.replay_record(
            WalRecord::OwnWrite {
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(1)),
                deps: deps1,
            },
            Mode::Mixed,
        );
        reborn.replay_record(
            WalRecord::OwnWrite {
                loc: Loc(1),
                payload: UpdatePayload::Add(Value::Int(4)),
                deps: deps2,
            },
            Mode::Mixed,
        );
        reborn.replay_record(WalRecord::Incarnation { incarnation: 2 }, Mode::Mixed);
        assert_eq!(reborn.own_count(), 2);
        assert_eq!(reborn.writer_of(Loc(0)), Some(id1));
        assert_eq!(reborn.writer_of(Loc(1)), Some(id2));
        assert_eq!(reborn.incarnation, 2);
        assert_eq!(reborn.value(Loc(1)), Value::Int(4));
        assert_eq!(reborn.write_log, live.write_log);
    }

    #[test]
    fn replay_ingests_reenter_pending_buffers() {
        let mut r = Replica::new(p(1), 2);
        let mut deps = VClock::new(2);
        deps.set(p(0), 2);
        // A logged ingest whose predecessor never made it to disk: it
        // must wait in pending again, not apply out of order.
        r.replay_record(
            WalRecord::Ingest {
                writer: WriteId::new(p(0), 2),
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(2)),
                deps: Some(deps),
            },
            Mode::Causal,
        );
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.value(Loc(0)), Value::INITIAL);
    }

    #[test]
    fn delta_entries_cover_exactly_the_missing_suffix() {
        let c = durable_cfg(Mode::Pram);
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        r.local_write(Loc(1), UpdatePayload::Add(Value::Int(2)), &c);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(3)), &c);
        assert!(r.delta_entries(3).is_none(), "peer already has everything");
        let (first, upto, entries, deps) = r.delta_entries(1).unwrap();
        assert_eq!((first, upto), (2, 3));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].adds, vec![2], "Add entries credit their member");
        assert_eq!(entries[1].adds, Vec::<u32>::new());
        assert!(deps.is_none(), "PRAM carries no vectors");
        // Applying the suffix at a peer that has the prefix converges it.
        let mut peer = Replica::new(p(1), 2);
        peer.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            None,
            Mode::Pram,
        );
        peer.ingest_batch(p(0), first, upto, entries.into(), deps, Mode::Pram);
        assert_eq!(peer.value(Loc(0)), Value::Int(3));
        assert_eq!(peer.value(Loc(1)), Value::Int(2));
        assert_eq!(peer.applied[p(0)], 3);
    }

    /// Regression: whole-suffix recovery batches deadlock when two
    /// survivors' deltas cross-reference each other's recent writes —
    /// each batch is gated on the deps of its *last* member, so neither
    /// can go first at a fresh reborn node even though the per-write
    /// causal order is acyclic. `delta_chunks` splits the suffix at
    /// external-dependency boundaries and always drains.
    #[test]
    fn chunked_deltas_break_cross_gated_recovery_deadlock() {
        let c = durable_cfg(Mode::Causal);
        let mut a = Replica::new(p(0), 3);
        let mut b = Replica::new(p(2), 3);
        // Interleaved exchange: each survivor's second write causally
        // depends on the other's first.
        let (id, deps) = a.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        b.ingest(id, Loc(0), UpdatePayload::Set(Value::Int(1)), deps, Mode::Causal);
        let (id, deps) = b.local_write(Loc(2), UpdatePayload::Set(Value::Int(1)), &c);
        a.ingest(id, Loc(2), UpdatePayload::Set(Value::Int(1)), deps, Mode::Causal);
        let (id, deps) = a.local_write(Loc(0), UpdatePayload::Set(Value::Int(2)), &c);
        b.ingest(id, Loc(0), UpdatePayload::Set(Value::Int(2)), deps, Mode::Causal);
        b.local_write(Loc(2), UpdatePayload::Set(Value::Int(2)), &c);

        // Single-batch deltas: a's batch carries {p0:2, p2:1}, b's
        // {p0:2, p2:2} — each waits on the other, forever.
        let mut fresh = Replica::new(p(1), 3);
        let (f, u, e, d) = a.delta_entries(0).unwrap();
        fresh.ingest_batch(p(0), f, u, e.into(), d, Mode::Causal);
        let (f, u, e, d) = b.delta_entries(0).unwrap();
        fresh.ingest_batch(p(2), f, u, e.into(), d, Mode::Causal);
        assert_eq!(fresh.applied[p(0)], 0, "cross-gated batches must deadlock");
        assert_eq!(fresh.applied[p(2)], 0);
        assert_eq!(fresh.pending_len(), 2);

        // Chunked deltas split where the external deps change; the
        // fixpoint interleaves the runs and converges.
        assert_eq!(a.delta_chunks(0).len(), 2, "one chunk per external-deps run");
        let mut fresh = Replica::new(p(1), 3);
        for (proc, r) in [(p(0), &a), (p(2), &b)] {
            for (f, u, e, d) in r.delta_chunks(0) {
                fresh.ingest_batch(proc, f, u, e.into(), d, Mode::Causal);
            }
        }
        assert_eq!(fresh.applied[p(0)], 2);
        assert_eq!(fresh.applied[p(2)], 2);
        assert_eq!(fresh.value(Loc(0)), Value::Int(2));
        assert_eq!(fresh.value(Loc(2)), Value::Int(2));
        assert_eq!(fresh.pending_len(), 0);
    }

    #[test]
    fn own_history_is_kept_only_under_durability() {
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert_eq!(r.own_updates_len(), 0, "no durability, no history");
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &durable_cfg(Mode::Pram));
        assert_eq!(r.own_updates_len(), 1);
    }

    #[test]
    fn knowledge_merges_must_see() {
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Mixed));
        let mut k = VClock::new(2);
        k.set(p(1), 5);
        r.absorb_sync(&k, &[]);
        let know = r.knowledge();
        assert_eq!(know[p(0)], 1);
        assert_eq!(know[p(1)], 5);
    }

    /// Regression: recovery and backfill must re-ship own suffixes one
    /// write at a time. A writer that alternates shards mints chains
    /// whose last members carry triples into each other's shards; a
    /// receiver that lacks both (fresh disk) parks each atomic chain on
    /// the other forever, while the per-write form drains in sequence
    /// order.
    #[test]
    fn per_write_recovery_pushes_avoid_cross_shard_chain_cycle() {
        let c = cfg(Mode::Causal);
        let mut w = Replica::new(p(0), 2).with_sharding(2, vec![0, 1]);
        w.sharded_write(Loc(0), UpdatePayload::Set(Value::Int(42)), &c); // shard 0, seq 1
        w.sharded_write(Loc(1), UpdatePayload::Set(Value::Int(1)), &c); // shard 1, seq 2
        w.sharded_write(Loc(2), UpdatePayload::Set(Value::Int(7)), &c); // shard 0, seq 3

        // Whole-chain shipment: shard 0's chain {1,3} depends on
        // (1,p0,2) and shard 1's chain {2} on (0,p0,1) — both park.
        let mut fresh = Replica::new(p(1), 2).with_sharding(2, vec![0, 1]);
        for shard in [0u32, 1] {
            let (prev, upto, entries, deps) = w.shard_chain_after(shard as usize, 0).unwrap();
            fresh.ingest_shard_chain(
                p(0),
                shard,
                prev,
                upto,
                entries.into(),
                deps,
                Mode::Causal,
                true,
            );
        }
        assert_eq!(fresh.shards().unwrap().pending_len(), 2, "atomic chains deadlock");
        assert_eq!(fresh.value(Loc(0)), Value::INITIAL);

        // Per-write shipment in global sequence order always drains.
        let mut fresh = Replica::new(p(1), 2).with_sharding(2, vec![0, 1]);
        let pushes = w.shard_updates_after(&[(0, 0), (1, 0)]);
        assert_eq!(pushes.len(), 3);
        assert!(pushes.windows(2).all(|ab| ab[0].0.seq < ab[1].0.seq), "seq order");
        for (writer, loc, payload, prev, deps) in pushes {
            fresh.ingest_sharded(writer, loc, payload, prev, deps, Mode::Causal);
        }
        assert_eq!(fresh.shards().unwrap().pending_len(), 0);
        assert_eq!(fresh.value(Loc(0)), Value::Int(42));
        assert_eq!(fresh.value(Loc(1)), Value::Int(1));
        assert_eq!(fresh.value(Loc(2)), Value::Int(7));
        assert_eq!(fresh.shards().unwrap().applied(0).get(p(0)), 3);
        assert_eq!(fresh.shards().unwrap().applied(1).get(p(0)), 2);

        // A partial watermark re-anchors the chain link past the
        // already-held prefix instead of restarting from zero.
        let tail = w.shard_updates_after(&[(0, 1)]);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].0.seq, 3);
        assert_eq!(tail[0].3, 1, "chain link anchored at the held prefix");
    }
}
