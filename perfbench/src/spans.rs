//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the workspace crates' public functions from the
//! benchmark side; nothing inside the program is instrumented. Spans and
//! counts are kept in memory on the calling thread and summarised when
//! the run ends. With recording off, [`span`] is a plain call, so the
//! untraced run measures the program alone and the difference between
//! the two runs is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on or off for this thread and drops what was kept.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            enabled,
            ..Recorder::default()
        }
    });
}

/// Runs `f` inside a span called `name` (a plain call when recording is
/// off). Spans opened inside `f` become its children.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let now = Instant::now();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end = Instant::now();
            r.open.pop();
        });
    }
    out
}

/// Adds `n` to the count called `name` (ignored when recording is off).
pub fn count(name: &'static str, n: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            *r.counts.entry(name).or_insert(0.0) += n;
        }
    });
}

/// What a traced run recorded: per span name, the summed self time (its
/// duration minus the part its child spans cover), plus the counts.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Counts recorded with [`count`].
    pub counts: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Self time of `name` in seconds (0 when it never ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.self_time.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// The count called `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Summarises and clears this thread's spans and counts; recording stays
/// as it was.
pub fn take() -> Summary {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let spans = std::mem::take(&mut r.spans);
        let counts = std::mem::take(&mut r.counts);
        r.open.clear();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut summary = Summary {
            counts,
            ..Summary::default()
        };
        for (s, children) in spans.iter().zip(child_time) {
            let own = (s.end - s.start).saturating_sub(children);
            *summary.self_time.entry(s.name).or_default() += own;
        }
        summary
    })
}
