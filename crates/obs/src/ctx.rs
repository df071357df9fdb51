//! The per-thread tracing context: hierarchical span paths, lock-cheap
//! aggregation and pool propagation.
//!
//! A request installs a [`Tracer`] with [`with_request`]; everything
//! underneath may then open named [`span`]s (timed + counted) and
//! extend the path with structural [`frame`]s / [`item`]s (pool fan-out
//! indices). When no tracer is installed every entry point is a single
//! thread-local check — the pipeline pays (almost) nothing for the
//! instrumentation it isn't using.
//!
//! **Structural vs timing separation.** A span path and its count are
//! pure functions of the input data: paths embed pool *item indices*
//! (never thread ids). The nanosecond side lives next to them but is
//! only ever read by the trace dump and histograms.
//!
//! **Pool propagation.** `hypdb-exec`'s scoped pool [`capture`]s the
//! submitting thread's context before spawning and [`install`]s it in
//! each worker, so spans recorded inside a fan-out land under the
//! submitter's path plus a deterministic `#index` frame.

use crate::clock::Tick;
use crate::json;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One path segment: a static span/frame name or a fan-out item index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Name(&'static str),
    Item(usize),
}

/// Aggregated measurements of one span path.
#[derive(Debug, Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    nanos: u64,
}

/// The shared accumulation target behind one [`Tracer`].
#[derive(Default)]
struct TraceShared {
    spans: Mutex<BTreeMap<String, SpanAgg>>,
}

/// A per-request trace collector. Install with [`with_request`], then
/// read the result with [`Tracer::finish`].
pub struct Tracer {
    shared: Arc<TraceShared>,
}

impl Tracer {
    /// A tracer collecting spans only.
    pub fn new() -> Tracer {
        Tracer {
            shared: Arc::new(TraceShared::default()),
        }
    }

    /// The same as [`Tracer::new`]; kept for callers that still use
    /// the old name.
    #[doc(hidden)]
    pub fn with_explain() -> Tracer {
        Tracer::new()
    }

    /// The merged span report (structure + timings), sorted by path.
    pub fn finish(&self) -> TraceReport {
        let spans = self.shared.spans.lock();
        TraceReport {
            spans: spans
                .iter()
                .map(|(path, agg)| SpanReport {
                    path: path.clone(),
                    count: agg.count,
                    nanos: agg.nanos,
                })
                .collect(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// One aggregated span in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// `/`-joined span path.
    pub path: String,
    /// Number of times the span ran.
    pub count: u64,
    /// Total nanoseconds across runs (timing side — trace dumps and
    /// histograms only, never report bytes).
    pub nanos: u64,
}

/// The merged spans of one request, sorted by path.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Aggregated spans, path-sorted.
    pub spans: Vec<SpanReport>,
}

impl TraceReport {
    /// Renders the span tree as JSON (`{"name","count","ms","children"}`),
    /// nesting paths on `/`. This is the `HYPDB_TRACE` dump body.
    pub fn to_json_tree(&self) -> String {
        #[derive(Default)]
        struct Node {
            count: u64,
            nanos: u64,
            children: BTreeMap<String, Node>,
        }
        let mut root = Node::default();
        for s in &self.spans {
            let mut node = &mut root;
            for seg in s.path.split('/') {
                node = node.children.entry(seg.to_string()).or_default();
            }
            node.count += s.count;
            node.nanos += s.nanos;
        }
        fn write_children(out: &mut String, node: &Node) {
            out.push('[');
            for (i, (name, child)) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json::push_string(out, name);
                let _ = write!(
                    out,
                    ",\"count\":{},\"ms\":{:.3},\"children\":",
                    child.count,
                    child.nanos as f64 / 1e6
                );
                write_children(out, child);
                out.push('}');
            }
            out.push(']');
        }
        let mut out = String::new();
        write_children(&mut out, &root);
        out
    }
}

/// The thread's installed context: the shared sink plus this thread's
/// current path. Cloned on [`capture`]; cheap (an `Arc` + small `Vec`).
#[derive(Clone)]
struct Ctx {
    shared: Arc<TraceShared>,
    path: Vec<Seg>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// True when a tracer is installed on this thread.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Runs `f` with `tracer` installed as this thread's context, rooted at
/// the `request` span (timed like any other span). The previous context
/// (if any) is restored afterwards.
pub fn with_request<R>(tracer: &Tracer, f: impl FnOnce() -> R) -> R {
    let ctx = Ctx {
        shared: Arc::clone(&tracer.shared),
        path: Vec::new(),
    };
    let prev = CTX.with(|c| c.replace(Some(ctx)));
    let out = span("request", f);
    CTX.with(|c| *c.borrow_mut() = prev);
    out
}

fn joined_path(path: &[Seg]) -> String {
    let mut out = String::new();
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        match seg {
            Seg::Name(n) => out.push_str(n),
            Seg::Item(i) => {
                let _ = write!(out, "#{i}");
            }
        }
    }
    out
}

fn push_seg(seg: Seg) -> bool {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.path.push(seg);
            true
        } else {
            false
        }
    })
}

fn pop_seg() {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.path.pop();
        }
    });
}

fn record_span(nanos: u64) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let path = joined_path(&ctx.path);
            let mut spans = ctx.shared.spans.lock();
            let agg = spans.entry(path).or_default();
            agg.count += 1;
            agg.nanos += nanos;
        }
    });
}

/// Runs `f` inside a named, timed span. A no-op wrapper when no tracer
/// is installed.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !push_seg(Seg::Name(name)) {
        return f();
    }
    let t = Tick::now();
    let out = f();
    record_span(t.elapsed_nanos());
    pop_seg();
    out
}

/// Runs `f` inside a structural path frame: extends the span path
/// without recording a timing of its own (children record under it).
pub fn frame<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !push_seg(Seg::Name(name)) {
        return f();
    }
    let out = f();
    pop_seg();
    out
}

/// Runs `f` inside a fan-out item frame (`#index`). Index-based, never
/// thread-based, so paths are identical at any worker count. This is
/// the pool's per-item hook; it is structural only and allocation-free
/// on the push.
pub fn item<R>(index: usize, f: impl FnOnce() -> R) -> R {
    if !push_seg(Seg::Item(index)) {
        return f();
    }
    let out = f();
    pop_seg();
    out
}

/// A captured context, ready to [`install`] on another thread. Captures
/// on a thread without a context produce a handle that installs
/// nothing (workers then run untraced, exactly like their submitter).
#[derive(Clone)]
pub struct CtxHandle(Option<Ctx>);

/// Snapshots this thread's context (shared sink + current path).
pub fn capture() -> CtxHandle {
    CtxHandle(CTX.with(|c| c.borrow().clone()))
}

/// Runs `f` with a captured context installed, restoring the thread's
/// previous context afterwards.
pub fn install<R>(handle: &CtxHandle, f: impl FnOnce() -> R) -> R {
    let Some(ctx) = &handle.0 else {
        return f();
    };
    let prev = CTX.with(|c| c.replace(Some(ctx.clone())));
    let out = f();
    CTX.with(|c| *c.borrow_mut() = prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_context_is_passthrough() {
        assert!(!active());
        assert_eq!(span("x", || 7), 7);
        assert_eq!(frame("y", || 8), 8);
        assert_eq!(item(3, || 9), 9);
    }

    #[test]
    fn spans_aggregate_by_path() {
        let tracer = Tracer::new();
        with_request(&tracer, || {
            span("detect", || {
                span("round", || {});
                span("round", || {});
            });
        });
        let report = tracer.finish();
        let paths: Vec<(&str, u64)> = report
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("request", 1),
                ("request/detect", 1),
                ("request/detect/round", 2),
            ]
        );
        let tree = report.to_json_tree();
        assert!(tree.contains("\"name\":\"request\""));
        assert!(tree.contains("\"children\":[{\"name\":\"detect\""));
    }

    #[test]
    fn capture_install_carries_the_path() {
        let tracer = Tracer::new();
        with_request(&tracer, || {
            frame("phase", || {
                let handle = capture();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        install(&handle, || {
                            item(2, || span("work", || {}));
                        });
                    });
                });
            });
        });
        let report = tracer.finish();
        assert!(report
            .spans
            .iter()
            .any(|s| s.path == "request/phase/#2/work" && s.count == 1));
    }
}
