//! Vendored offline subset of the `tokio` runtime API: a multi-threaded
//! task executor, an epoll readiness reactor, async TCP, bounded mpsc
//! channels, and sleeps — just enough to run `mc-net`'s transport tasks
//! without registry access.
//!
//! Differences from upstream (deliberate, to keep the subset small):
//!
//! - Linux only. Socket readiness comes from one process-wide epoll
//!   instance (raw `extern "C"` calls; `std` already links libc) and one
//!   reactor thread blocked in `epoll_wait`. An I/O future that hits
//!   `WouldBlock` parks its waker on the fd and re-arms level-triggered
//!   one-shot interest; the reactor wakes it when the kernel reports the
//!   fd ready, hung up or in error.
//! - `TcpStream` exposes inherent `async fn read`/`write_all` methods
//!   instead of the `AsyncRead`/`AsyncWrite` traits.
//! - The timer thread serves only `time::sleep`. It and the reactor are
//!   process-wide singletons that park when idle; neither shuts down.
//! - Dropping a `Runtime` joins its workers, then drops every task that
//!   has not completed, parked or queued, which closes the sockets those
//!   tasks own.

#[cfg(not(target_os = "linux"))]
compile_error!("this tokio subset drives socket readiness with epoll and builds only on Linux");

pub use task::{spawn, spawn_blocking, JoinError, JoinHandle};

mod exec {
    use std::collections::{HashMap, VecDeque};
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
    use std::task::{Context, Poll, Wake, Waker};

    type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

    pub(crate) struct ExecShared {
        queue: Mutex<VecDeque<Arc<Task>>>,
        cv: Condvar,
        shutdown: AtomicBool,
        /// Every spawned task that has not completed, by id — parked or
        /// queued. Shutdown drops what is left here: a parked task's
        /// waker may never fire again, and the task's own `Handle`
        /// clone would otherwise keep it and its sockets alive.
        live: Mutex<HashMap<u64, Arc<Task>>>,
        next_id: AtomicU64,
    }

    pub(crate) struct Task {
        id: u64,
        exec: Weak<ExecShared>,
        /// `Some` while the task is live; polled under the lock, so a
        /// concurrent wake enqueues a re-poll rather than racing.
        fut: Mutex<Option<BoxFuture>>,
    }

    impl Wake for Task {
        fn wake(self: Arc<Self>) {
            if let Some(exec) = self.exec.upgrade() {
                exec.push(self);
            }
        }
    }

    impl ExecShared {
        pub(crate) fn new() -> Arc<ExecShared> {
            Arc::new(ExecShared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                live: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
            })
        }

        /// Queues `task` for a poll; after shutdown the wake is dropped
        /// (outside the lock, since dropping a task can wake others).
        fn push(&self, task: Arc<Task>) {
            let mut q = self.queue.lock().expect("executor queue healthy");
            if self.shutdown.load(Ordering::SeqCst) {
                drop(q);
                drop(task);
                return;
            }
            q.push_back(task);
            self.cv.notify_one();
        }

        pub(crate) fn spawn_task(self: &Arc<Self>, fut: BoxFuture) {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let task =
                Arc::new(Task { id, exec: Arc::downgrade(self), fut: Mutex::new(Some(fut)) });
            let mut live = self.live.lock().expect("task registry healthy");
            if self.shutdown.load(Ordering::SeqCst) {
                // Too late to run: drop the task outside the lock.
                drop(live);
                return;
            }
            live.insert(id, task.clone());
            drop(live);
            self.push(task);
        }

        pub(crate) fn worker_loop(self: Arc<Self>) {
            loop {
                let task = {
                    let mut q = self.queue.lock().expect("executor queue healthy");
                    loop {
                        if self.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        if let Some(t) = q.pop_front() {
                            break t;
                        }
                        q = self.cv.wait(q).expect("executor queue healthy");
                    }
                };
                let waker = Waker::from(task.clone());
                let mut cx = Context::from_waker(&waker);
                let mut slot = task.fut.lock().expect("task slot healthy");
                if let Some(fut) = slot.as_mut() {
                    if fut.as_mut().poll(&mut cx).is_ready() {
                        *slot = None;
                        drop(slot);
                        self.live.lock().expect("task registry healthy").remove(&task.id);
                    }
                }
            }
        }

        /// Stops the workers and drops every queued wake. Queued tasks
        /// stay registered until [`ExecShared::release_tasks`].
        pub(crate) fn begin_shutdown(&self) {
            let queued = {
                let mut q = self.queue.lock().expect("executor queue healthy");
                self.shutdown.store(true, Ordering::SeqCst);
                std::mem::take(&mut *q)
            };
            self.cv.notify_all();
            drop(queued);
        }

        /// Drops the future of every task that never completed, once the
        /// workers are joined. Their sockets close (deregistering from
        /// the reactor on the way) and their `Handle` clones go, which
        /// breaks the task → handle → executor cycle. Runs from
        /// `Runtime::drop`, so a poisoned lock is recovered rather than
        /// panicked on: every update under these locks is a single
        /// insert, remove or take.
        pub(crate) fn release_tasks(&self) {
            let live =
                std::mem::take(&mut *self.live.lock().unwrap_or_else(PoisonError::into_inner));
            for task in live.into_values() {
                let fut = task.fut.lock().unwrap_or_else(PoisonError::into_inner).take();
                drop(fut);
            }
        }
    }

    /// Parks the calling thread until its waker fires — the `block_on`
    /// root waker.
    pub(crate) struct Parker {
        woken: Mutex<bool>,
        cv: Condvar,
    }

    impl Parker {
        pub(crate) fn new() -> Arc<Parker> {
            Arc::new(Parker { woken: Mutex::new(false), cv: Condvar::new() })
        }

        pub(crate) fn park(&self) {
            let mut woken = self.woken.lock().expect("parker healthy");
            while !*woken {
                woken = self.cv.wait(woken).expect("parker healthy");
            }
            *woken = false;
        }
    }

    impl Wake for Parker {
        fn wake(self: Arc<Self>) {
            *self.woken.lock().expect("parker healthy") = true;
            self.cv.notify_one();
        }
    }

    pub(crate) fn poll_once<F: Future>(fut: Pin<&mut F>, waker: &Waker) -> Poll<F::Output> {
        let mut cx = Context::from_waker(waker);
        fut.poll(&mut cx)
    }
}

mod timer {
    //! The process-wide timer wheel behind `time::sleep`: wakes
    //! registered wakers at (or just after) their deadline.

    use std::sync::{Condvar, Mutex, OnceLock};
    use std::task::Waker;
    use std::time::{Duration, Instant};

    struct TimerShared {
        entries: Mutex<Vec<(Instant, Waker)>>,
        cv: Condvar,
    }

    static TIMER: OnceLock<&'static TimerShared> = OnceLock::new();

    fn shared() -> &'static TimerShared {
        TIMER.get_or_init(|| {
            let shared: &'static TimerShared = Box::leak(Box::new(TimerShared {
                entries: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            }));
            std::thread::Builder::new()
                .name("tokio-compat-timer".into())
                .spawn(move || timer_loop(shared))
                .expect("spawn timer thread");
            shared
        })
    }

    fn timer_loop(shared: &'static TimerShared) {
        let mut entries = shared.entries.lock().expect("timer healthy");
        loop {
            let now = Instant::now();
            let mut due = Vec::new();
            entries.retain(|(t, w)| {
                if *t <= now {
                    due.push(w.clone());
                    false
                } else {
                    true
                }
            });
            let next = entries.iter().map(|(t, _)| *t).min();
            if !due.is_empty() {
                drop(entries);
                for w in due {
                    w.wake();
                }
                entries = shared.entries.lock().expect("timer healthy");
                continue;
            }
            entries = match next {
                Some(t) => {
                    let wait = t.saturating_duration_since(now);
                    shared.cv.wait_timeout(entries, wait).expect("timer healthy").0
                }
                None => shared.cv.wait(entries).expect("timer healthy"),
            };
        }
    }

    /// Arranges for `waker` to fire once `delay` has elapsed.
    pub(crate) fn wake_after(delay: Duration, waker: Waker) {
        let shared = shared();
        let mut entries = shared.entries.lock().expect("timer healthy");
        entries.push((Instant::now() + delay, waker));
        shared.cv.notify_one();
    }
}

mod reactor {
    //! The process-wide readiness reactor: one epoll instance and one
    //! thread blocked in `epoll_wait`, waking the task parked on each fd
    //! the kernel reports ready.
    //!
    //! A socket future that hits `WouldBlock` calls [`arm`]: it parks
    //! its waker in the fd's slot and re-arms the fd with level-triggered
    //! one-shot interest. Arming *after* the failed syscall cannot miss a
    //! wakeup: readiness that arrived in between is still level-true, so
    //! the arm fires at once. One slot per fd is enough, because `read`
    //! and `write_all` take `&mut self` and `accept` is the listener's
    //! only wait. `EPOLLERR` and `EPOLLHUP` are always reported, so an
    //! error or hang-up wakes the waiter too.

    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::task::Waker;

    /// `struct epoll_event`, which the kernel packs on x86_64.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Minimal FFI: libc is not a workspace dependency, but std links it.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2_000_000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLONESHOT: u32 = 1 << 30;
    const ENOENT: i32 = 2;
    /// Events taken per `epoll_wait`.
    const BATCH: usize = 64;

    /// The readiness a parked future waits for.
    #[derive(Clone, Copy)]
    pub(crate) enum Interest {
        Read,
        Write,
    }

    struct Reactor {
        epfd: RawFd,
        /// One entry per fd in the epoll set, holding the waker parked on
        /// it, if any. The lock is held across `epoll_ctl`, so the map and
        /// the kernel's interest list change together.
        slots: Mutex<HashMap<RawFd, Option<Waker>>>,
    }

    static REACTOR: OnceLock<&'static Reactor> = OnceLock::new();

    fn reactor() -> &'static Reactor {
        REACTOR.get_or_init(|| {
            // SAFETY: no pointer arguments; the result is checked.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            assert!(epfd >= 0, "epoll_create1: {}", io::Error::last_os_error());
            let reactor: &'static Reactor =
                Box::leak(Box::new(Reactor { epfd, slots: Mutex::new(HashMap::new()) }));
            std::thread::Builder::new()
                .name("tokio-compat-reactor".into())
                .spawn(move || reactor.run())
                .expect("spawn reactor thread");
            reactor
        })
    }

    fn ctl(epfd: RawFd, op: i32, fd: RawFd, event: &mut EpollEvent) -> io::Result<()> {
        // SAFETY: `event` is a live, writable `epoll_event` for the call's
        // duration; a bad fd or op is reported through the return value.
        if unsafe { epoll_ctl(epfd, op, fd, event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    impl Reactor {
        /// The reactor thread. Steady state allocates nothing: the event
        /// array and the vector of wakers to wake are reused.
        fn run(&self) {
            let mut events = [EpollEvent { events: 0, data: 0 }; BATCH];
            let mut ready: Vec<Waker> = Vec::with_capacity(BATCH);
            loop {
                // SAFETY: `events` is a live buffer of `BATCH` entries.
                let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), BATCH as i32, -1) };
                let Ok(n) = usize::try_from(n) else {
                    let e = io::Error::last_os_error();
                    assert_eq!(e.kind(), io::ErrorKind::Interrupted, "epoll_wait: {e}");
                    continue;
                };
                {
                    let mut slots = self.slots.lock().expect("reactor slots healthy");
                    for ev in &events[..n] {
                        let fd = ev.data as RawFd;
                        if let Some(w) = slots.get_mut(&fd).and_then(Option::take) {
                            ready.push(w);
                        }
                    }
                }
                for w in ready.drain(..) {
                    w.wake();
                }
            }
        }
    }

    /// Parks `waker` on `fd` until it is ready for `interest` (or in
    /// error, or hung up). Call only after the operation hit
    /// `WouldBlock`.
    pub(crate) fn arm(fd: RawFd, interest: Interest, waker: &Waker) -> io::Result<()> {
        let r = reactor();
        let mut slots = r.slots.lock().expect("reactor slots healthy");
        let slot = slots.entry(fd).or_insert(None);
        if !slot.as_ref().is_some_and(|w| w.will_wake(waker)) {
            *slot = Some(waker.clone());
        }
        let events = EPOLLONESHOT
            | match interest {
                Interest::Read => EPOLLIN,
                Interest::Write => EPOLLOUT,
            };
        let mut event = EpollEvent { events, data: fd as u64 };
        let armed = match ctl(r.epfd, EPOLL_CTL_MOD, fd, &mut event) {
            Err(e) if e.raw_os_error() == Some(ENOENT) => {
                ctl(r.epfd, EPOLL_CTL_ADD, fd, &mut event)
            }
            res => res,
        };
        if armed.is_err() {
            slots.remove(&fd);
        }
        armed
    }

    /// Removes `fd` from the epoll set and drops its parked waker. Called
    /// before the fd closes, so a reused fd number cannot inherit a stale
    /// waker. Runs from `Drop`: a poisoned lock is recovered (every update
    /// under it is a single insert, take or remove) and errors are
    /// ignored.
    pub(crate) fn deregister(fd: RawFd) {
        let Some(r) = REACTOR.get() else { return };
        let mut slots = r.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.remove(&fd).is_some() {
            let _ = ctl(r.epfd, EPOLL_CTL_DEL, fd, &mut EpollEvent { events: 0, data: 0 });
        }
    }

    /// Fds currently in the epoll set.
    #[cfg(test)]
    pub(crate) fn registrations() -> usize {
        REACTOR.get().map_or(0, |r| r.slots.lock().expect("reactor slots healthy").len())
    }
}

pub mod runtime {
    //! The multi-threaded runtime: worker threads draining a shared
    //! task queue, plus `block_on` on the caller's thread.

    use std::future::Future;
    use std::sync::Arc;
    use std::task::{Poll, Waker};

    use crate::exec::{poll_once, ExecShared, Parker};

    std::thread_local! {
        static CURRENT: std::cell::RefCell<Option<Handle>> = const { std::cell::RefCell::new(None) };
    }

    /// A cloneable handle to a runtime's task queue.
    #[derive(Clone)]
    pub struct Handle {
        pub(crate) shared: Arc<ExecShared>,
    }

    impl Handle {
        /// The handle of the runtime driving the current thread.
        ///
        /// # Panics
        ///
        /// Panics outside a runtime context.
        pub fn current() -> Handle {
            CURRENT.with(|c| c.borrow().clone()).expect("not inside a tokio runtime context")
        }

        /// Spawns a future onto this runtime.
        pub fn spawn<F>(&self, fut: F) -> crate::task::JoinHandle<F::Output>
        where
            F: Future + Send + 'static,
            F::Output: Send + 'static,
        {
            crate::task::spawn_on(self, fut)
        }

        /// Runs `fut` to completion on the calling thread, with this
        /// runtime's workers driving any spawned tasks.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
            let parker = Parker::new();
            let waker = Waker::from(parker.clone());
            let mut fut = std::pin::pin!(fut);
            let out = loop {
                match poll_once(fut.as_mut(), &waker) {
                    Poll::Ready(v) => break v,
                    Poll::Pending => parker.park(),
                }
            };
            CURRENT.with(|c| *c.borrow_mut() = prev);
            out
        }
    }

    /// A running runtime: worker threads live as long as this value, and
    /// dropping it drops every task it spawned that has not completed.
    pub struct Runtime {
        handle: Handle,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl Runtime {
        /// A runtime with a small default worker pool.
        ///
        /// # Errors
        ///
        /// Infallible in this subset; `Result` keeps upstream's
        /// signature.
        pub fn new() -> std::io::Result<Runtime> {
            let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
            Ok(Runtime::with_workers(workers))
        }

        /// A runtime with exactly `workers` worker threads.
        pub fn with_workers(workers: usize) -> Runtime {
            let shared = ExecShared::new();
            let handle = Handle { shared: shared.clone() };
            let workers = (0..workers.max(1))
                .map(|i| {
                    let shared = shared.clone();
                    let handle = handle.clone();
                    std::thread::Builder::new()
                        .name(format!("tokio-compat-worker-{i}"))
                        .spawn(move || {
                            CURRENT.with(|c| *c.borrow_mut() = Some(handle));
                            shared.worker_loop();
                        })
                        .expect("spawn runtime worker")
                })
                .collect();
            Runtime { handle, workers }
        }

        pub fn handle(&self) -> &Handle {
            &self.handle
        }

        /// Runs `fut` to completion on the calling thread.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            self.handle.block_on(fut)
        }
    }

    impl Drop for Runtime {
        fn drop(&mut self) {
            self.handle.shared.begin_shutdown();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
            self.handle.shared.release_tasks();
        }
    }
}

pub mod task {
    //! Task spawning and join handles.

    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    use crate::runtime::Handle;

    /// The spawned task panicked or was abandoned by a shut-down
    /// runtime.
    #[derive(Debug)]
    pub struct JoinError;

    impl std::fmt::Display for JoinError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "task failed or was abandoned")
        }
    }

    impl std::error::Error for JoinError {}

    struct JoinState<T> {
        value: Option<T>,
        done: bool,
        waker: Option<Waker>,
    }

    /// Awaitable handle to a spawned task's output.
    pub struct JoinHandle<T> {
        state: Arc<Mutex<JoinState<T>>>,
    }

    struct Completer<T> {
        state: Arc<Mutex<JoinState<T>>>,
    }

    impl<T> Completer<T> {
        fn complete(&self, value: Option<T>) {
            let mut st = self.state.lock().expect("join state healthy");
            st.value = value;
            st.done = true;
            if let Some(w) = st.waker.take() {
                drop(st);
                w.wake();
            }
        }
    }

    impl<T> Drop for Completer<T> {
        fn drop(&mut self) {
            let mut st = self.state.lock().expect("join state healthy");
            if !st.done {
                // Future dropped without completing (runtime shutdown or
                // panic inside poll): surface as JoinError.
                st.done = true;
                if let Some(w) = st.waker.take() {
                    drop(st);
                    w.wake();
                }
            }
        }
    }

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut st = self.state.lock().expect("join state healthy");
            if st.done {
                return Poll::Ready(st.value.take().ok_or(JoinError));
            }
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    fn new_join<T>() -> (JoinHandle<T>, Completer<T>) {
        let state = Arc::new(Mutex::new(JoinState { value: None, done: false, waker: None }));
        (JoinHandle { state: state.clone() }, Completer { state })
    }

    pub(crate) fn spawn_on<F>(handle: &Handle, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (join, completer) = new_join();
        handle.shared.spawn_task(Box::pin(async move {
            let out = fut.await;
            completer.complete(Some(out));
        }));
        join
    }

    /// Spawns a future onto the current runtime.
    ///
    /// # Panics
    ///
    /// Panics outside a runtime context.
    pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        spawn_on(&Handle::current(), fut)
    }

    /// Runs a blocking closure on a dedicated thread, awaitable from
    /// async context.
    pub fn spawn_blocking<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (join, completer) = new_join();
        std::thread::Builder::new()
            .name("tokio-compat-blocking".into())
            .spawn(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                completer.complete(out.ok());
            })
            .expect("spawn blocking thread");
        join
    }
}

pub mod time {
    //! Timer futures.

    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};
    use std::time::{Duration, Instant};

    /// Future returned by [`sleep`].
    pub struct Sleep {
        deadline: Instant,
    }

    impl Future for Sleep {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let now = Instant::now();
            if now >= self.deadline {
                return Poll::Ready(());
            }
            crate::timer::wake_after(self.deadline - now, cx.waker().clone());
            Poll::Pending
        }
    }

    /// Completes once `dur` has elapsed.
    pub fn sleep(dur: Duration) -> Sleep {
        Sleep { deadline: Instant::now() + dur }
    }
}

pub mod net {
    //! Async TCP over nonblocking std sockets, woken by the epoll
    //! reactor (see the crate docs).

    use std::future::poll_fn;
    use std::io::{self, Read, Write};
    use std::net::SocketAddr;
    use std::os::fd::AsRawFd;
    use std::task::{Context, Poll};

    use crate::reactor::{self, Interest};

    /// Parks the task on `fd` after `WouldBlock`; an arm failure is the
    /// operation's error.
    fn park<T>(fd: &impl AsRawFd, interest: Interest, cx: &Context<'_>) -> Poll<io::Result<T>> {
        match reactor::arm(fd.as_raw_fd(), interest, cx.waker()) {
            Ok(()) => Poll::Pending,
            Err(e) => Poll::Ready(Err(e)),
        }
    }

    /// A listening TCP socket.
    pub struct TcpListener {
        inner: std::net::TcpListener,
    }

    impl TcpListener {
        /// Binds to `addr` (synchronous under the hood; `async` keeps
        /// upstream's signature).
        ///
        /// # Errors
        ///
        /// Propagates the bind error.
        pub async fn bind(addr: SocketAddr) -> io::Result<TcpListener> {
            let inner = std::net::TcpListener::bind(addr)?;
            inner.set_nonblocking(true)?;
            Ok(TcpListener { inner })
        }

        /// Wraps an already-bound std listener.
        ///
        /// # Errors
        ///
        /// Propagates the `set_nonblocking` error.
        pub fn from_std(inner: std::net::TcpListener) -> io::Result<TcpListener> {
            inner.set_nonblocking(true)?;
            Ok(TcpListener { inner })
        }

        /// # Errors
        ///
        /// Propagates the underlying `local_addr` error.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }

        /// Accepts the next inbound connection.
        ///
        /// # Errors
        ///
        /// Propagates fatal accept errors (`WouldBlock` waits for
        /// readiness).
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            poll_fn(|cx| match self.inner.accept() {
                Ok((stream, addr)) => match TcpStream::from_std(stream) {
                    Ok(s) => Poll::Ready(Ok((s, addr))),
                    Err(e) => Poll::Ready(Err(e)),
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    park(&self.inner, Interest::Read, cx)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
                Err(e) => Poll::Ready(Err(e)),
            })
            .await
        }
    }

    impl Drop for TcpListener {
        fn drop(&mut self) {
            reactor::deregister(self.inner.as_raw_fd());
        }
    }

    /// A connected TCP socket.
    pub struct TcpStream {
        inner: std::net::TcpStream,
    }

    impl TcpStream {
        /// Connects to `addr`. The blocking connect runs on a dedicated
        /// thread so runtime workers stay free.
        ///
        /// # Errors
        ///
        /// Propagates the connect error.
        pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
            let stream = crate::task::spawn_blocking(move || std::net::TcpStream::connect(addr))
                .await
                .map_err(|_| io::Error::other("connect task failed"))??;
            TcpStream::from_std(stream)
        }

        /// Wraps an already-connected std stream.
        ///
        /// # Errors
        ///
        /// Propagates the `set_nonblocking` error.
        pub fn from_std(inner: std::net::TcpStream) -> io::Result<TcpStream> {
            inner.set_nonblocking(true)?;
            Ok(TcpStream { inner })
        }

        /// # Errors
        ///
        /// Propagates the underlying setsockopt error.
        pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
            self.inner.set_nodelay(nodelay)
        }

        /// Reads into `buf`, resolving with the number of bytes read
        /// (0 = EOF).
        ///
        /// # Errors
        ///
        /// Propagates fatal read errors (`WouldBlock` waits for
        /// readiness).
        pub async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            poll_fn(|cx| match (&self.inner).read(buf) {
                Ok(n) => Poll::Ready(Ok(n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    park(&self.inner, Interest::Read, cx)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
                Err(e) => Poll::Ready(Err(e)),
            })
            .await
        }

        /// Writes all of `buf`.
        ///
        /// # Errors
        ///
        /// Propagates fatal write errors; a closed peer surfaces as
        /// `WriteZero` or a broken pipe.
        pub async fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            let mut written = 0usize;
            poll_fn(|cx| {
                while written < buf.len() {
                    match (&self.inner).write(&buf[written..]) {
                        Ok(0) => {
                            return Poll::Ready(Err(io::Error::new(
                                io::ErrorKind::WriteZero,
                                "peer closed",
                            )))
                        }
                        Ok(n) => written += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return park(&self.inner, Interest::Write, cx);
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Poll::Ready(Err(e)),
                    }
                }
                Poll::Ready(Ok(()))
            })
            .await
        }
    }

    impl Drop for TcpStream {
        fn drop(&mut self) {
            reactor::deregister(self.inner.as_raw_fd());
        }
    }
}

pub mod sync {
    //! Synchronisation primitives.

    pub mod mpsc {
        //! A bounded multi-producer single-consumer channel with both
        //! async and blocking endpoints — the bridge between synchronous
        //! protocol threads and async transport tasks.

        use std::collections::VecDeque;
        use std::future::poll_fn;
        use std::sync::{Arc, Condvar, Mutex};
        use std::task::{Poll, Waker};

        struct Chan<T> {
            queue: VecDeque<T>,
            cap: usize,
            senders: usize,
            rx_alive: bool,
            rx_waker: Option<Waker>,
        }

        struct Shared<T> {
            chan: Mutex<Chan<T>>,
            /// Blocked senders wait here for space (or receiver death).
            space: Condvar,
        }

        /// Sending endpoint (cloneable).
        pub struct Sender<T> {
            shared: Arc<Shared<T>>,
        }

        /// Receiving endpoint.
        pub struct Receiver<T> {
            shared: Arc<Shared<T>>,
        }

        /// The receiver was dropped; the value comes back.
        #[derive(Debug)]
        pub struct SendError<T>(pub T);

        impl<T> std::fmt::Display for SendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "channel closed")
            }
        }

        /// A bounded channel of capacity `cap`.
        ///
        /// # Panics
        ///
        /// Panics if `cap` is zero.
        pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
            assert!(cap > 0, "mpsc channel capacity must be positive");
            let shared = Arc::new(Shared {
                chan: Mutex::new(Chan {
                    queue: VecDeque::with_capacity(cap),
                    cap,
                    senders: 1,
                    rx_alive: true,
                    rx_waker: None,
                }),
                space: Condvar::new(),
            });
            (Sender { shared: shared.clone() }, Receiver { shared })
        }

        impl<T> Sender<T> {
            /// Blocks the calling (non-async) thread until there is
            /// space, then enqueues — the transport's backpressure
            /// point.
            ///
            /// # Errors
            ///
            /// Returns the value if the receiver is gone.
            pub fn blocking_send(&self, value: T) -> Result<(), SendError<T>> {
                let mut chan = self.shared.chan.lock().expect("channel healthy");
                while chan.rx_alive && chan.queue.len() >= chan.cap {
                    chan = self.shared.space.wait(chan).expect("channel healthy");
                }
                if !chan.rx_alive {
                    return Err(SendError(value));
                }
                chan.queue.push_back(value);
                let waker = chan.rx_waker.take();
                drop(chan);
                if let Some(w) = waker {
                    w.wake();
                }
                Ok(())
            }

            /// Slots currently free in the channel — `max_capacity`
            /// when the queue is drained.
            pub fn capacity(&self) -> usize {
                let chan = self.shared.chan.lock().expect("channel healthy");
                chan.cap - chan.queue.len()
            }

            /// The capacity the channel was created with.
            pub fn max_capacity(&self) -> usize {
                self.shared.chan.lock().expect("channel healthy").cap
            }
        }

        impl<T> Clone for Sender<T> {
            fn clone(&self) -> Sender<T> {
                self.shared.chan.lock().expect("channel healthy").senders += 1;
                Sender { shared: self.shared.clone() }
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let mut chan = self.shared.chan.lock().expect("channel healthy");
                chan.senders -= 1;
                if chan.senders == 0 {
                    let waker = chan.rx_waker.take();
                    drop(chan);
                    if let Some(w) = waker {
                        w.wake();
                    }
                }
            }
        }

        impl<T> Receiver<T> {
            /// Receives the next value; `None` once every sender is
            /// gone and the queue is drained.
            pub async fn recv(&mut self) -> Option<T> {
                poll_fn(|cx| {
                    let mut chan = self.shared.chan.lock().expect("channel healthy");
                    if let Some(v) = chan.queue.pop_front() {
                        // Space opened up: release one blocked sender.
                        self.shared.space.notify_one();
                        return Poll::Ready(Some(v));
                    }
                    if chan.senders == 0 {
                        return Poll::Ready(None);
                    }
                    chan.rx_waker = Some(cx.waker().clone());
                    Poll::Pending
                })
                .await
            }
        }

        impl<T> Drop for Receiver<T> {
            fn drop(&mut self) {
                let mut chan = self.shared.chan.lock().expect("channel healthy");
                chan.rx_alive = false;
                chan.queue.clear();
                self.shared.space.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    use crate::reactor::registrations;
    use crate::runtime::Runtime;

    /// The reactor is process-wide: socket tests run one at a time so
    /// each can count its own registrations. Poison is ignored so one
    /// failure does not fail the rest.
    fn net_serial() -> MutexGuard<'static, ()> {
        static NET: Mutex<()> = Mutex::new(());
        NET.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Polls `cond` until it holds, failing after 5 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connected loopback pair of blocking std streams.
    fn loopback_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn block_on_plain_future() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawned_tasks_run_on_workers() {
        let rt = Runtime::with_workers(2);
        let counter = Arc::new(AtomicUsize::new(0));
        rt.block_on(async {
            let mut joins = Vec::new();
            for _ in 0..16 {
                let counter = counter.clone();
                joins.push(crate::spawn(async move {
                    counter.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for j in joins {
                j.await.expect("task completes");
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn sleep_waits_roughly_long_enough() {
        let rt = Runtime::with_workers(1);
        let start = Instant::now();
        rt.block_on(crate::time::sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn spawn_blocking_roundtrip() {
        let rt = Runtime::with_workers(1);
        let out = rt.block_on(async { crate::spawn_blocking(|| 7 * 6).await.expect("runs") });
        assert_eq!(out, 42);
    }

    #[test]
    fn mpsc_bridges_sync_and_async() {
        let rt = Runtime::with_workers(2);
        let (tx, mut rx) = crate::sync::mpsc::channel::<u32>(4);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.blocking_send(i).expect("receiver alive");
            }
        });
        let sum = rt.block_on(async move {
            let mut sum = 0u32;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            sum
        });
        producer.join().expect("producer exits");
        assert_eq!(sum, (0..100).sum());
    }

    #[test]
    fn tcp_echo_over_loopback() {
        let _serial = net_serial();
        let rt = Runtime::with_workers(2);
        rt.block_on(async {
            let listener = crate::net::TcpListener::bind("127.0.0.1:0".parse().expect("addr"))
                .await
                .expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = crate::spawn(async move {
                let (mut conn, _) = listener.accept().await.expect("accept");
                let mut buf = [0u8; 64];
                let mut got = Vec::new();
                loop {
                    let n = conn.read(&mut buf).await.expect("read");
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                    conn.write_all(&buf[..n]).await.expect("write");
                }
                got
            });
            let mut client = crate::net::TcpStream::connect(addr).await.expect("connect");
            client.write_all(b"ping pong").await.expect("write");
            let mut echo = vec![0u8; 9];
            let mut read = 0;
            while read < echo.len() {
                let n = client.read(&mut echo[read..]).await.expect("read");
                assert!(n > 0, "server closed early");
                read += n;
            }
            drop(client);
            assert_eq!(&echo, b"ping pong");
            assert_eq!(server.await.expect("server task"), b"ping pong");
        });
    }

    /// A `write_all` larger than both socket buffers parks on write
    /// readiness while the peer does not read, and completes once the
    /// peer drains the connection.
    #[test]
    fn write_all_waits_for_the_peer_to_drain() {
        const LEN: usize = 64 << 20;
        let _serial = net_serial();
        let base = registrations();
        let rt = Runtime::with_workers(2);
        let (client, mut peer) = loopback_pair();
        let (done_tx, done_rx) = mpsc::channel();
        rt.handle().spawn(async move {
            let mut s = crate::net::TcpStream::from_std(client).expect("nonblocking");
            let res = s.write_all(&vec![7u8; LEN]).await;
            done_tx.send(res.is_ok()).expect("test alive");
        });
        wait_until("the writer to park", || registrations() == base + 1);
        assert!(done_rx.try_recv().is_err(), "write completed before the peer read anything");
        let mut buf = vec![0u8; 64 << 10];
        let mut drained = 0;
        while drained < LEN {
            let n = peer.read(&mut buf).expect("drain");
            assert!(n > 0, "writer closed early");
            assert!(buf[..n].iter().all(|&b| b == 7));
            drained += n;
        }
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok(true));
        drop(rt);
        assert_eq!(registrations(), base);
    }

    /// A read parked across an idle gap is woken by the data that
    /// arrives, then parks again and is woken by EOF.
    #[test]
    fn parked_read_wakes_on_data_then_eof() {
        let _serial = net_serial();
        let base = registrations();
        let rt = Runtime::with_workers(2);
        let (mut client, server) = loopback_pair();
        let (got_tx, got_rx) = mpsc::channel();
        rt.handle().spawn(async move {
            let mut s = crate::net::TcpStream::from_std(server).expect("nonblocking");
            let mut buf = [0u8; 16];
            loop {
                let n = s.read(&mut buf).await.expect("read");
                got_tx.send(buf[..n].to_vec()).expect("test alive");
                if n == 0 {
                    return;
                }
            }
        });
        wait_until("the reader to park", || registrations() == base + 1);
        std::thread::sleep(Duration::from_millis(100));
        assert!(got_rx.try_recv().is_err(), "read resolved with nothing sent");
        client.write_all(b"late").expect("write");
        assert_eq!(got_rx.recv_timeout(Duration::from_secs(5)).expect("data wakes"), b"late");
        drop(client);
        assert_eq!(got_rx.recv_timeout(Duration::from_secs(5)).expect("EOF wakes"), b"");
        drop(rt);
        assert_eq!(registrations(), base);
    }

    /// Dropping the runtime drops a task parked in `read`; the stream
    /// leaves the reactor and its socket closes.
    #[test]
    fn dropping_a_parked_stream_deregisters_it() {
        let _serial = net_serial();
        let base = registrations();
        let rt = Runtime::with_workers(1);
        let (mut client, server) = loopback_pair();
        rt.handle().spawn(async move {
            let mut s = crate::net::TcpStream::from_std(server).expect("nonblocking");
            let _ = s.read(&mut [0u8; 1]).await;
            unreachable!("nothing is ever sent");
        });
        wait_until("the reader to park", || registrations() == base + 1);
        drop(rt);
        assert_eq!(registrations(), base);
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        assert_eq!(client.read(&mut [0u8; 1]).expect("EOF, not a timeout"), 0);
    }
}
