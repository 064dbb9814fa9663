//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions; the program itself is not instrumented.
//! Each thread appends to its own buffer (no locking on the hot path) and
//! hands the buffer over with [`flush`] when its work ends. A span's
//! parent is the span open on the same thread when it started, so a
//! layer's self time is its duration minus its children's durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static FLUSHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// One timed call. `parent` indexes the same thread's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Job, kernel or request id.
    pub unit: u64,
    pub thread: u32,
}

struct Local {
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span. Without [`enable`] this is one branch.
pub fn span<T>(name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.get_or_insert_with(|| Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            spans: Vec::with_capacity(1 << 12),
            open: Vec::new(),
        });
        let idx = local.spans.len() as u32;
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: local.open.last().copied(),
            unit,
            thread: local.thread,
        };
        local.spans.push(span);
        local.open.push(idx);
        idx
    });
    let out = f();
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.as_mut().expect("span opened on this thread");
        local.open.pop();
        local.spans[idx as usize].end_ns = now_ns();
    });
    out
}

/// Hand this thread's finished spans to the collector. Every thread that
/// records spans calls it before it ends.
pub fn flush() {
    let Some(local) = LOCAL.with(|cell| cell.borrow_mut().take()) else {
        return;
    };
    assert!(local.open.is_empty(), "flush with a span still open");
    FLUSHED
        .lock()
        .expect("no thread panics while holding the span collector")
        .push(local.spans);
}

/// Aggregate every span recorded so far (flushing this thread first).
pub fn aggregate_all() -> BTreeMap<&'static str, Layer> {
    flush();
    aggregate(&FLUSHED.lock().expect("span collector lock"))
}

/// Write every span recorded so far as TSV: thread, id, parent, name,
/// unit, start_ns, end_ns.
pub fn write_tsv(path: &std::path::Path) -> std::io::Result<()> {
    flush();
    let buffers = FLUSHED.lock().expect("span collector lock");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\tname\tunit\tstart_ns\tend_ns")?;
    for spans in buffers.iter() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.thread, s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

/// Per-name aggregate over all spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn self_mean_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    /// Nearest-rank percentile of the span durations, in µs.
    pub fn pct_us(&mut self, p: f64) -> f64 {
        self.durations_ns.sort_unstable();
        crate::util::percentile_u64(&self.durations_ns, p) as f64 / 1e3
    }
}

/// Aggregate spans by name, with self time = duration − children.
fn aggregate(buffers: &[Vec<Span>]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for spans in buffers {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(children);
            layer.durations_ns.push(dur);
        }
    }
    out
}
