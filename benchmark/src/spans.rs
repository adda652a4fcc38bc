//! The benchmark's own spans: one around every call it makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! Timing always happens (the end-to-end metrics are built from it);
//! *recording* only while the recorder is enabled, i.e. during the traced
//! part of a `--trace 1` run. Spans inside the crates are a later issue;
//! the crates' virtual-time tracer (`hpcsim::trace`) supplies the counts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// Index of a span in the recorder.
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// What was called (`client.activate`, `daemon.spawn`, ...).
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span this call was made from.
    pub parent: Option<SpanId>,
    /// The pipeline iteration the call belongs to.
    pub iteration: Option<u64>,
    /// Virtual nanoseconds the call took on the calling simulated process
    /// (0 when made from a plain thread).
    pub virt_ns: u64,
}

/// Host and virtual duration of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall nanoseconds around the call.
    pub host_ns: u64,
    /// `hpcsim::current().now()` delta across the call.
    pub virt_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

fn virt_now() -> u64 {
    hpcsim::process::try_current().map_or(0, |c| c.now())
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording (timing is unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// The innermost open span of the calling thread, to hand to another
    /// thread that works on its behalf.
    pub fn current(&self) -> Option<SpanId> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Times `f`; records a span nested under this thread's open span.
    pub fn time<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        iteration: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Timing) {
        self.time_under(self.current(), name, layer, iteration, f)
    }

    /// [`Recorder::time`] with an explicit parent (cross-thread work).
    pub fn time_under<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: &'static str,
        iteration: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Timing) {
        let id = self.enabled.load(Ordering::SeqCst).then(|| {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                layer,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                iteration,
                virt_ns: 0,
            });
            let id = spans.len() - 1;
            OPEN.with(|o| o.borrow_mut().push(id));
            id
        });
        let v0 = virt_now();
        let t0 = Instant::now();
        let out = f();
        let timing = Timing {
            host_ns: t0.elapsed().as_nanos() as u64,
            virt_ns: virt_now().saturating_sub(v0),
        };
        if let Some(id) = id {
            OPEN.with(|o| o.borrow_mut().pop());
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans[id].end_ns = spans[id].start_ns + timing.host_ns;
            spans[id].virt_ns = timing.virt_ns;
        }
        (out, timing)
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals of one `(layer, name)` group of spans.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of host durations.
    pub host_ns: u64,
    /// Sum of host self times.
    pub self_ns: u64,
    /// Sum of virtual durations.
    pub virt_ns: u64,
}

/// Per-`layer/name` totals, the layer view of a traced run.
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(format!("{}/{}", s.layer, s.name)).or_default();
        t.count += 1;
        t.host_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.virt_ns += s.virt_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns: start,
            end_ns: end,
            parent,
            iteration: None,
            virt_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (30 + 20
        // covered), a third 90..120 is clipped to the parent's end.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let rec = Recorder::new();
        let (out, t) = rec.time("x", "l", None, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(t.host_ns >= 2_000_000);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.time("outer", "a", Some(3), || {
            rec.time("inner", "b", Some(3), || ());
        });
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        assert_eq!(t["a/outer"].count, 1);
        assert!(t["a/outer"].self_ns <= t["a/outer"].host_ns);
    }
}
