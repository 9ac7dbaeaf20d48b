//! # mc-live — the mixed-consistency protocols on real threads
//!
//! The deterministic simulator (`mc-sim`) is the primary test vehicle; this
//! crate is the *deployment-shaped* executor: every process is an OS
//! thread, every link a crossbeam channel (FIFO per sender — the paper's
//! channel assumption), and the manager shards are threads of their own.
//! [`LiveSystem::lossy`] revokes the reliability half of that assumption
//! (seeded, deterministic per-message drops) and [`LiveSystem::reliable`]
//! earns it back with the same `mc_proto::session` layer the simulator
//! uses — retransmission driven by wall-clock ticks instead of virtual
//! timers.
//! **The protocol state machines are the exact same types** —
//! [`mc_proto::ProcNode`] and [`mc_proto::Manager`], the code the
//! simulator and its model checker run — so a green run here
//! demonstrates the protocols survive genuine concurrency, not just
//! simulated interleavings. This crate only drives them: inboxes,
//! transports, wall-clock ticks, files and the history recorder.
//!
//! Executions still record checkable histories: the recorder's mutex
//! order is consistent with the message causality (a lock is recorded
//! after its grant arrives, which is after the previous holder recorded
//! its unlock), so the derived lock epochs and barrier rounds are valid
//! and the `mc-model` checkers apply unchanged — on real-thread runs.
//!
//! ```
//! use mc_model::{check, Loc, Value};
//! use mc_live::LiveSystem;
//! use mc_proto::Mode;
//!
//! let mut sys = LiveSystem::new(2, Mode::Mixed).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);
//!     ctx.write(Loc(1), 1);
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), Value::Int(1));
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//! let outcome = sys.run()?;
//! check::check_mixed(&outcome.history.unwrap()).expect("real threads, still mixed consistent");
//! # Ok::<(), mc_live::LiveError>(())
//! ```

#![warn(missing_docs)]

mod system;

pub use system::{
    run_manager_node, run_proc_node, ChannelTransport, LiveCtx, LiveError, LiveOutcome, LiveSystem,
    Net, NodeConfig, NodeId, Transport, WalCounters, Wire,
};
