//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are opened only by the benchmark's own code, around calls into
//! one layer's public functions, and are named `<layer>.<call>`; the
//! benchmark's own loop runs inside a `bench.*` root span per thread.
//! With tracing off, [`span`] returns an inert guard and records nothing,
//! so the end-to-end run pays one relaxed load per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The layers self time is reported for; `core` runs inside the ISS and
/// has no call boundary of its own, so it is measured by ratio instead.
pub const LAYERS: [&str; 7] = ["rv32", "soc", "obs", "serve", "faults", "fleet", "other"];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One closed span. `parent` is 0 for a thread's root span; `ctx` names
/// the session, guest run or campaign the span belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub ctx: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: the name up to the first dot when
    /// that is one of [`LAYERS`], else `other` (the benchmark's own spans,
    /// and calls into crates that are not a measured layer).
    pub fn layer(&self) -> &'static str {
        let prefix = self.name.split('.').next().unwrap_or(self.name);
        LAYERS.iter().copied().find(|&l| l == prefix).unwrap_or("other")
    }
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct Guard(Option<(u64, u64, &'static str, u64, u64)>);

/// Opens a span named `name` for context `ctx`, nested under whatever
/// span this thread has open.
pub fn span(name: &'static str, ctx: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard(Some((id, parent, name, ctx, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, ctx, start_ns)) = self.0.take() else { return };
        let end_ns = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let thread = THREAD.with(|t| *t);
        let span = Span { id, parent, name, ctx, thread, start_ns, end_ns };
        SPANS.lock().expect("a thread panicked while recording a span").push(span);
    }
}

/// Runs `f` inside span `name` and returns its result with its wall time
/// (timed whether or not tracing is on).
pub fn timed<T>(name: &'static str, ctx: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = span(name, ctx);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("a thread panicked while recording a span"))
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part its child spans cover. Root spans are thread-level, so the values
/// sum to the total root-span time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// The spans whose root span is named `root`.
pub fn under_root(spans: &[Span], root: &str) -> Vec<Span> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_name = |s: &Span| {
        let mut s = s;
        while let Some(&parent) = by_id.get(&s.parent) {
            s = parent;
        }
        s.name
    };
    spans.iter().filter(|s| root_name(s) == root).cloned().collect()
}

/// Total duration of the root spans (one per thread and phase).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum()
}

/// Renders the spans as one JSON object per line.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"ctx\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.ctx, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}
