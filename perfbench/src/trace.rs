//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public API: its
//! name is `layer.call`, it carries the span that was open when it started
//! (its parent) and a request id (the fleet-day or planned day it served).
//! Spans stay in memory and are written out once, at exit. With tracing
//! off the recorder reads no clock and stores nothing, so the untraced run
//! that yields the end-to-end metrics pays nothing for it.

use std::fmt::Write as _;

use jarvis_stdkit::bench::monotonic_ns;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Calls the span covers: 1 for a single call, more for a component
    /// replay that loops over one public function.
    pub calls: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. `enter`/`exit` bracket a span; `Open` is the handle.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: monotonic_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            calls: 1,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_calls(open, 1);
    }

    /// Close a span that covered `calls` calls of one function.
    pub fn exit_calls(&mut self, open: Open, calls: u64) {
        let Open(Some(idx)) = open else { return };
        let now = monotonic_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.calls = calls;
        if self.open.last() == Some(&idx) {
            self.open.pop();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds inside spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Total seconds inside spans called `name` that run under a span
    /// called `root`.
    pub fn seconds_under(&self, name: &str, root: &str) -> f64 {
        let under = |mut idx: usize| loop {
            match self.spans[idx].parent {
                Some(p) if self.spans[p].name == root => return true,
                Some(p) => idx = p,
                None => return false,
            }
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && under(*i))
            .map(|(_, s)| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Calls covered by spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Nanoseconds per call inside spans called `name` (0 when none ran).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let calls = self.calls(name);
        if calls == 0 {
            return 0.0;
        }
        self.seconds(name) * 1e9 / calls as f64
    }

    /// Self time of the spans called `name`: their duration minus the part
    /// their children cover. Spans on one thread nest without overlap, so
    /// the covered part is the children's summed duration.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut total = 0i128;
        for (idx, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(idx))
                .map(Span::duration_ns)
                .sum();
            total += i128::from(span.duration_ns()) - i128::from(children);
        }
        total as f64 / 1e9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 0);
        t.span("child", 0, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        t.exit(root);
        let (whole, child) = (t.seconds("root"), t.seconds("child"));
        assert!(child <= whole);
        assert!((t.self_seconds("root") - (whole - child)).abs() < 1e-12);
        assert_eq!(t.calls("child"), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("root", 0);
        t.exit(open);
        assert_eq!(t.len(), 0);
    }
}
