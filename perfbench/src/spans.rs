//! Benchmark-side tracing: spans recorded around the calls the benchmark
//! makes into each layer's public functions. Nothing here reaches into
//! the program; a span only brackets a call from the outside.
//!
//! Each thread appends to its own in-memory buffer (no shared lock on
//! the hot path) and hands the buffer over with [`flush`] when its work
//! ends. A span's parent is the span open on the same thread when it
//! began, so a layer's self time is its duration minus its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static DONE: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded call: `start`/`end` in ns since the process epoch,
/// `parent` an index into the same thread's buffer, `op` the caller's
/// operation id (process-tagged for memory calls).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u64,
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static BUF: RefCell<Buf> = RefCell::new(Buf::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span named `name` for operation `op`; a no-op guard when
/// tracing is off.
pub fn span(name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let start = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.open.last().copied().unwrap_or(ROOT);
        let idx = b.spans.len() as u32;
        b.spans.push(Span { name, start, end: start, parent, op });
        b.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.spans[idx as usize].end = end;
            b.open.pop();
        });
    }
}

/// Hands this thread's finished spans to the run-wide collection.
pub fn flush() {
    let spans = BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans));
    if !spans.is_empty() {
        DONE.lock().expect("span collection healthy").push(spans);
    }
}

/// Takes every flushed buffer (one per thread-run).
pub fn take() -> Vec<Vec<Span>> {
    flush();
    std::mem::take(&mut *DONE.lock().expect("span collection healthy"))
}

/// Durations kept per name: beyond this the sample is thinned to every
/// other entry (and the stride doubled), keeping it uniform over the run.
const KEEP: usize = 1 << 17;

/// Per-name totals and a uniform sample of durations.
#[derive(Default, Debug)]
pub struct Agg {
    pub durs: Vec<u64>,
    stride: u64,
    seen: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    fn push(&mut self, d: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += d;
        self.self_ns += self_ns;
        let stride = self.stride.max(1);
        if self.seen.is_multiple_of(stride) {
            self.durs.push(d);
            if self.durs.len() == 2 * KEEP {
                let mut i = 0;
                self.durs.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride = stride * 2;
            }
        }
        self.seen += 1;
    }
}

/// Adds spans to per-name aggregates; self time subtracts each span's
/// direct children (children nest inside their parent on the same
/// thread).
pub fn aggregate(out: &mut BTreeMap<&'static str, Agg>, bufs: &[Vec<Span>]) {
    for spans in bufs {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let d = s.end - s.start;
            out.entry(s.name).or_default().push(d, d.saturating_sub(c));
        }
    }
}

/// Writes at most `cap` spans as tab-separated lines (buffer, index,
/// name, start, end, parent, op) for offline inspection.
pub fn write_tsv(path: &Path, bufs: &[Vec<Span>], cap: usize) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "buf\tidx\tname\tstart_ns\tend_ns\tparent\top")?;
    let mut n = 0;
    'all: for (b, spans) in bufs.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if n == cap {
                break 'all;
            }
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(f, "{b}\t{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.op)?;
            n += 1;
        }
    }
    f.flush()
}
