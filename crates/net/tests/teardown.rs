//! A finished `NetSystem` run releases every socket it opened.
//!
//! Dropping the run's async runtime must drop every transport task it
//! spawned, parked ones included: the listener, the writer tasks parked
//! on their frame queues and the reader tasks parked on their
//! connections. Each owns a socket, so a task left behind shows up as an
//! open fd. Fd counts are process-global, which is why this is a binary
//! with a single test.

use std::time::{Duration, Instant};

use mc_model::{Loc, Value};
use mc_net::NetSystem;
use mc_proto::Mode;

const RUNS: usize = 20;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs is mounted").count()
}

/// A two-process handshake: each writes its flag and awaits the other's.
fn run_once() {
    let mut sys = NetSystem::new(2, Mode::Causal);
    for p in 0..2u32 {
        sys.spawn(move |ctx| {
            ctx.write(Loc(p), 1);
            ctx.await_eq(Loc(1 - p), Value::Int(1));
        });
    }
    sys.run().expect("cluster runs");
}

#[test]
fn net_runs_release_every_socket() {
    // The first run creates the process-lifetime fds (the reactor's epoll
    // instance); the baseline is taken after it.
    run_once();
    let before = open_fds();
    for _ in 0..RUNS {
        run_once();
    }
    // Connects still in flight on their blocking threads at teardown
    // close their sockets when they return.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = open_fds();
        if now <= before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{now} fds open after {RUNS} runs, {before} before them: teardown leaks sockets"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
