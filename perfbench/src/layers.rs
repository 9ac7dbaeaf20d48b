//! Per-layer micro-measurements for the traced run. Each calls one
//! layer's public functions directly, in a loop, under one span per
//! batch (a span per nanosecond-scale call would time the clock, not
//! the call). The update traffic they replay has stream's measured
//! shape ([`Traffic`]).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver};
use mc_live::{Transport, Wire};
use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, VClock, Value};
use mc_net::{spawn_listener, Inbound, TcpTransportBuilder};
use mc_proto::msg::GrantInfo;
use mc_proto::{
    decode_frame, decode_wal, encode_frame, BatchEntry, DsmConfig, FileDisk, LinkReceiver,
    LinkSender, Manager, Mode, Msg, Replica, SessionConfig, UpdatePayload, WalRecord,
};

use crate::prog::{key, Rng, RANGE};
use crate::spans::span;
use crate::workloads::Traffic;

/// One measured number.
pub type Row = (&'static str, f64);

fn per_call(name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let _s = span(name, n as u64);
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Median of `reps` batch timings, in ns per call.
fn median_per_call(name: &'static str, reps: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| per_call(name, n, &mut f)).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A batch of stream's mean shape: process 0's first writes in stream's
/// seeded key order, as many as a batch carries on average, coalesced
/// by location (last write wins) as the batcher does.
fn stream_batch(t: &Traffic, seed: u64) -> Msg {
    let n = t.batch_writes.round().max(1.0) as u32;
    let mut rng = Rng::new(seed, 0);
    let mut entries: Vec<BatchEntry> = Vec::new();
    for s in 1..=n {
        let loc = key(0, rng.below(RANGE));
        entries.retain(|e| e.loc != loc);
        entries.push(BatchEntry {
            loc,
            payload: UpdatePayload::Set(Value::Int(i64::from(s))),
            writer: mc_model::WriteId::new(ProcId(0), s),
            adds: Vec::new(),
        });
    }
    Msg::UpdateBatch {
        proc: ProcId(0),
        first_seq: 1,
        upto: n,
        entries: entries.into(),
        delta: Some(vec![(ProcId(0), n)]),
        ack: None,
    }
}

fn lock_grant() -> Msg {
    let mut knowledge = VClock::new(2);
    knowledge.set(ProcId(0), 40);
    knowledge.set(ProcId(1), 37);
    Msg::LockGrant {
        lock: LockId(0),
        grant: GrantInfo { knowledge, preds: vec![(ProcId(1), 37)], demand: Vec::new() },
    }
}

pub fn wire(t: &Traffic, seed: u64) -> Vec<Row> {
    let batch = stream_batch(t, seed);
    let grant = lock_grant();
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut row = |msg: &Msg, enc: &'static str, dec: &'static str| {
        let encode_ns = median_per_call(enc, 5, 20_000, |_| {
            encode_frame(&mut buf, msg);
            let len = buf.len();
            std::hint::black_box(buf.split_to(len));
        });
        encode_frame(&mut buf, msg);
        let len = buf.len();
        let frame = buf.split_to(len);
        // The frame body follows the length prefix.
        let body = &frame[mc_proto::FRAME_HEADER..];
        decode_frame(body).expect("an encoded frame decodes");
        let decode_ns = median_per_call(dec, 5, 20_000, |_| {
            std::hint::black_box(decode_frame(std::hint::black_box(body)).is_ok());
        });
        (encode_ns, decode_ns, len as f64)
    };
    let (be, bd, bytes) = row(&batch, "wire.encode_batch", "wire.decode_batch");
    let (ge, gd, _) = row(&grant, "wire.encode_grant", "wire.decode_grant");
    vec![
        ("wire.encode_ns", be),
        ("wire.decode_ns", bd),
        ("wire.bytes_per_frame", bytes),
        ("wire.grant_encode_ns", ge),
        ("wire.grant_decode_ns", gd),
    ]
}

/// One link's session layer carrying stream's batches with stream's
/// window in flight: a sliding window of `in_flight` unacknowledged
/// frames, advanced a block at a time (wrap a block, deliver the block's
/// oldest frames, ack each of them), so every ack finds between
/// `in_flight` and `in_flight + BLOCK` frames outstanding (the sender's
/// cost per ack grows with them).
pub fn session(t: &Traffic, seed: u64) -> Vec<Row> {
    const BLOCK: usize = 64;
    const BLOCKS: usize = 300;
    let window = t.in_flight.round().clamp(1.0, 20_000.0) as usize;
    let cfg = SessionConfig::default();
    let batch = stream_batch(t, seed);
    let (mut wrap, mut data, mut ack) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut tx = LinkSender::new(&cfg, 1);
        let mut rx = LinkReceiver::new();
        let mut flight: VecDeque<Msg> = (0..window).map(|_| tx.wrap(batch.clone())).collect();
        let (mut tw, mut td, mut ta) = (0.0, 0.0, 0.0);
        for _ in 0..BLOCKS {
            let mut fresh = vec![batch.clone(); BLOCK].into_iter();
            tw += per_call("session.wrap", BLOCK, |_| {
                flight.push_back(tx.wrap(fresh.next().expect("one message per call")))
            });
            let mut acks = Vec::with_capacity(BLOCK);
            td += per_call("session.on_data", BLOCK, |_| {
                if let Some(Msg::SessData { seq, epoch, inner }) = flight.pop_front() {
                    let (ready, upto) = rx.on_data(seq, epoch, *inner);
                    std::hint::black_box(ready);
                    acks.push((upto, epoch));
                }
            });
            let mut acks = acks.into_iter();
            ta += per_call("session.on_ack", BLOCK, |_| {
                let (upto, epoch) = acks.next().expect("one ack per call");
                tx.on_ack(upto, epoch, &cfg);
            });
        }
        assert_eq!(tx.unacked_len(), window, "the window stays put");
        let b = BLOCKS as f64;
        wrap.push(tw / b);
        data.push(td / b);
        ack.push(ta / b);
    }
    vec![
        ("session.wrap_ns", median(wrap)),
        ("session.on_data_ns", median(data)),
        ("session.on_ack_ns", median(ack)),
    ]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Process 0's writes applied at process 1 in batches of stream's mean
/// size.
pub fn replica(t: &Traffic) -> Vec<Row> {
    const BATCHES: usize = 2_000;
    let cfg = DsmConfig::new(2, Mode::Mixed);
    let per = t.batch_writes.round().max(1.0) as usize;
    let (mut write, mut ingest, mut ready) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut a = Replica::new(ProcId(0), 2);
        let mut b = Replica::new(ProcId(1), 2);
        let mut writes = Vec::with_capacity(BATCHES * per);
        write.push(per_call("replica.local_write", BATCHES * per, |i| {
            let loc = Loc((i * 37 % 1024) as u32);
            let (id, deps) = a.local_write(loc, UpdatePayload::Set(Value::Int(i as i64)), &cfg);
            writes.push((loc, id, deps));
        }));
        let batches: Vec<_> = writes
            .chunks(per)
            .map(|c| {
                let entries: Vec<BatchEntry> = c
                    .iter()
                    .map(|(loc, id, _)| BatchEntry {
                        loc: *loc,
                        payload: UpdatePayload::Set(Value::Int(i64::from(id.seq))),
                        writer: *id,
                        adds: Vec::new(),
                    })
                    .collect();
                let (first, last) = (c[0].1.seq, c[c.len() - 1].1.seq);
                (first, last, entries, c[c.len() - 1].2.clone())
            })
            .collect();
        let mut it = batches.into_iter();
        let ns = per_call("replica.ingest_batch", BATCHES, |_| {
            let (first, upto, entries, deps) = it.next().expect("one batch per call");
            b.ingest_batch(ProcId(0), first, upto, entries.into(), deps, Mode::Mixed);
        });
        ingest.push(ns / per as f64);
        ready.push(per_call("replica.causal_ready", BATCHES * per, |i| {
            std::hint::black_box(b.causal_ready(Loc((i % 1024) as u32)));
        }));
    }
    vec![
        ("replica.local_write_ns", median(write)),
        ("replica.ingest_batch_ns_per_entry", median(ingest)),
        ("replica.causal_ready_ns", median(ready)),
    ]
}

pub fn manager() -> Vec<Row> {
    const N: usize = 20_000;
    let cfg = DsmConfig::new(2, Mode::Mixed);
    let (p0, p1, l) = (ProcId(0), ProcId(1), LockId(0));
    let (mut lock, mut bar) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut m = Manager::new(2);
        let k = VClock::new(2);
        lock.push(per_call("manager.lock_cycle", N, |_| {
            std::hint::black_box(m.lock_request(p0, l, LockMode::Write, &cfg));
            std::hint::black_box(m.lock_request(p1, l, LockMode::Write, &cfg));
            std::hint::black_box(m.lock_release(p0, l, k.clone(), 0, Vec::new(), &cfg));
            std::hint::black_box(m.lock_release(p1, l, k.clone(), 0, Vec::new(), &cfg));
        }));
        bar.push(
            per_call("manager.barrier_arrive", N, |i| {
                let round = i as u32 + 1;
                std::hint::black_box(m.barrier_arrive(p0, BarrierId(0), round, k.clone(), &cfg));
                std::hint::black_box(m.barrier_arrive(p1, BarrierId(0), round, k.clone(), &cfg));
            }) / 2.0,
        );
    }
    vec![("manager.lock_cycle_ns", median(lock)), ("manager.barrier_arrive_ns", median(bar))]
}

/// FileDisk append (no sync), append+sync, and snapshot install, in a
/// scratch directory. The log is reloaded and decoded to check that no
/// record was lost.
pub fn wal(tmp: &Path) -> std::io::Result<Vec<Row>> {
    const N: usize = 2_000;
    const SYNCED: usize = 200;
    let dir = tmp.join(format!("wal-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut disk = FileDisk::open(&dir)?;
    let rec = WalRecord::OwnWrite {
        loc: Loc(7),
        payload: UpdatePayload::Set(Value::Int(42)),
        deps: Some(VClock::new(2)),
    }
    .encode();
    let mut err = None;
    let append = per_call("wal.append", N, |_| {
        if let Err(e) = disk.append(&rec) {
            err = Some(e);
        }
    }) / 1e3;
    let sync = per_call("wal.sync", SYNCED, |_| {
        if let Err(e) = disk.append(&rec).and_then(|()| disk.sync().map(drop)) {
            err = Some(e);
        }
    }) / 1e3;
    let (snap, log) = FileDisk::load(&dir)?;
    let (records, _) = decode_wal(&log);
    if records.len() != N + SYNCED || snap.is_some() {
        err = Some(std::io::Error::other("reloaded log lost records"));
    }
    let mut replica = Replica::new(ProcId(0), 2);
    let cfg = DsmConfig::new(2, Mode::Mixed);
    for i in 0..1024 {
        replica.local_write(Loc(i), UpdatePayload::Set(Value::Int(i64::from(i))), &cfg);
    }
    let image = replica.to_snapshot(Vec::new()).encode();
    let install = per_call("wal.snapshot_install", 50, |_| {
        if let Err(e) = disk.install_snapshot(&image) {
            err = Some(e);
        }
    }) / 1e3;
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = err {
        return Err(e);
    }
    Ok(vec![("wal.append_us", append), ("wal.sync_us", sync), ("wal.snapshot_install_us", install)])
}

/// Ping-pong of a lock-request frame between two transport endpoints
/// (no protocol nodes), then one link saturated with stream's batches.
pub fn net(t: &Traffic, seed: u64) -> Vec<Row> {
    const PINGS: usize = 2_000;
    const FRAMES: usize = 20_000;
    let rt = tokio::runtime::Runtime::new().expect("runtime starts");
    let handle = rt.handle().clone();
    let delivered = Arc::new(AtomicU64::new(0));
    let (ev_tx, _ev_rx) = unbounded();
    let mut inboxes: Vec<Receiver<Wire>> = Vec::new();
    let mut b = TcpTransportBuilder::new(2);
    let mut addrs = Vec::new();
    let mut senders = Vec::new();
    for _ in 0..2 {
        let (tx, rx) = unbounded();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        addrs.push(listener.local_addr().expect("listener address"));
        let inbound =
            Inbound { inbox: tx.clone(), events: ev_tx.clone(), delivered: delivered.clone() };
        spawn_listener(listener, inbound, &handle);
        inboxes.push(rx);
        senders.push(tx);
    }
    b.link(0, 1, addrs[1], &handle);
    b.link(1, 0, addrs[0], &handle);
    for (node, tx) in senders.into_iter().enumerate() {
        b.local(node, tx);
    }
    let transport = Arc::new(b.build());
    let req = Msg::LockReq { proc: ProcId(0), lock: LockId(0), mode: LockMode::Write };
    let rx1 = inboxes.pop().expect("node 1 inbox");
    let rx0 = inboxes.pop().expect("node 0 inbox");

    // Node 1 echoes every frame back until told to stop.
    let echo = {
        let t = transport.clone();
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Ok(Wire::Proto { msg, .. }) = rx1.recv() {
                if matches!(msg, Msg::LockReq { .. }) {
                    t.deliver(1, 0, msg);
                } else {
                    n += 1;
                    if n == FRAMES as u64 {
                        t.deliver(1, 0, Msg::FlushAck);
                    }
                }
            }
        })
    };
    let mut rtt = Vec::with_capacity(PINGS);
    for i in 0..PINGS + 200 {
        let _s = span("net.frame_rtt", i as u64);
        let t = Instant::now();
        transport.deliver(0, 1, req.clone());
        rx0.recv().expect("the echo answers");
        if i >= 200 {
            rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    rtt.sort_by(f64::total_cmp);
    let batch = stream_batch(t, seed);
    let t = Instant::now();
    {
        let _s = span("net.batch_stream", FRAMES as u64);
        for _ in 0..FRAMES {
            transport.deliver(0, 1, batch.clone());
        }
        rx0.recv().expect("the receiver counts every frame");
    }
    let frames_per_s = FRAMES as f64 / t.elapsed().as_secs_f64();
    transport.shutdown(1);
    echo.join().expect("echo thread exits cleanly");
    drop(transport);
    drop(rt);
    vec![
        ("net.frame_rtt_us_p50", crate::pct(&rtt, 0.50)),
        ("net.frame_rtt_us_p99", crate::pct(&rtt, 0.99)),
        ("net.batch_frames_per_s", frames_per_s),
    ]
}
