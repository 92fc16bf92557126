//! The benchmark's own span recorder: wraps each call into a layer from
//! outside the crates (name, start, end, parent, run id), keeps spans in
//! memory, and derives per-layer self time (span minus children).

use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The pipeline iteration the span belongs to.
    pub run: u32,
}

/// An open span handle; pass it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Per-(run, name) totals derived from the span tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    /// Σ (span − children), seconds.
    pub self_s: f64,
    /// Σ span, seconds.
    pub total_s: f64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off for the iteration `run`.
    pub fn start_run(&mut self, run: u32, on: bool) {
        assert!(self.stack.is_empty(), "spans left open across iterations");
        self.run = run;
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            run: self.run,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Records `f` as one leaf call into layer `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Self time and call count per span name, per run.
    pub fn totals(&self) -> BTreeMap<u32, BTreeMap<&'static str, LayerTotal>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, LayerTotal>> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.run).or_default().entry(s.name).or_default();
            t.calls += 1;
            t.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            t.self_s += (s.end_ns - s.start_ns).saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// The spans of one run as a JSON array body (ids are positions in
    /// the array; `parent` is `null` for the root).
    pub fn run_json(&self, run: u32) -> String {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].run == run)
            .collect();
        let first = ids.first().copied().unwrap_or(0);
        let mut out = String::with_capacity(ids.len() * 96);
        for (k, &i) in ids.iter().enumerate() {
            let s = &self.spans[i];
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                // Spans of one run are contiguous, so ids rebase by offset.
                (s.parent as usize - first).to_string()
            };
            if k > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                i - first,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.run
            ));
        }
        out
    }
}
