//! Causal per-request trace trees with deterministic span identity.
//!
//! A [`TraceTree`] is an arena of spans (closed intervals on the
//! *simulated* clock) plus instant marks, linked parent→child into a
//! tree per request. Everything about a trace is a pure function of the
//! run's inputs:
//!
//! * **Span ids** derive from `(seed, request, attempt)` through a
//!   SplitMix64 finalizer ([`span_id`]) — no global counter, no wall
//!   clock — so the same request produces the same ids across reruns.
//! * **Timestamps** are sim-clock `f64` seconds supplied by the caller
//!   (the drivers in `qcpa-sim` are sequential event loops), so two
//!   replays of the same run disagree on nothing.
//! * **Sampling** is head-based and deterministic: [`Sampler`] admits a
//!   request iff a hash of `(seed, request)` falls under the
//!   `QCPA_TRACE_SAMPLE` rate. The decision is made once at admission
//!   and never consults a random stream shared with the workload, so
//!   tracing cannot perturb the simulation.
//!
//! The exporters in [`crate::perfetto`] render a tree as Chrome
//! trace-event JSON (Perfetto-loadable) or folded stacks.

use std::collections::BTreeMap;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. The same
/// construction as `qcpa_par::stream_seed` / the resilience engine's
/// retry jitter — `qcpa-obs` is a leaf crate, so it carries its own
/// copy rather than depending on `qcpa-par`.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic span identity: a hash of `(seed, request, attempt)`.
/// Never returns 0 (0 is reserved as "no id" in exports).
#[inline]
#[must_use]
pub fn span_id(seed: u64, request: u64, attempt: u64) -> u64 {
    let id = mix64(mix64(mix64(seed).wrapping_add(request)).wrapping_add(attempt));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Deterministic head-based trace sampler.
///
/// A request is admitted iff `mix64(mix64(seed) + request)` falls below
/// `rate * 2^64`. The decision depends only on `(seed, request)`: it is
/// identical across reruns and independent of which requests came
/// before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    seed: u64,
    /// Admission threshold in `[0, 2^64]` — `u128` so that rate 1.0
    /// (admit everything) is representable exactly.
    threshold: u128,
}

impl Sampler {
    /// A sampler admitting a `rate` fraction of requests (clamped to
    /// `[0, 1]`; NaN means off).
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        let threshold = if rate >= 1.0 {
            1u128 << 64
        } else {
            // rate * 2^64, computed in f64 then truncated: exact at the
            // endpoints, monotone in between — all a sampler needs.
            (rate * (u64::MAX as f64 + 1.0)) as u128
        };
        Sampler { seed, threshold }
    }

    /// A sampler that admits nothing (the disabled fast path).
    #[must_use]
    pub fn off(seed: u64) -> Self {
        Sampler { seed, threshold: 0 }
    }

    /// Reads the sampling rate from `QCPA_TRACE_SAMPLE` (a float in
    /// `[0, 1]`; absent or unparsable means 0 — tracing off).
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "QCPA_TRACE_SAMPLE is the documented sampling knob"
    )]
    pub fn from_env(seed: u64) -> Self {
        let rate = std::env::var("QCPA_TRACE_SAMPLE")
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        Sampler::new(seed, rate)
    }

    /// True if any request could be admitted.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// The deterministic admission decision for `request`.
    #[inline]
    #[must_use]
    pub fn admit(&self, request: u64) -> bool {
        // One branch when disabled: this is the per-request cost of
        // "compiled in but sample=0".
        if self.threshold == 0 {
            return false;
        }
        u128::from(span_id(self.seed, request, u64::MAX)) < self.threshold
    }

    /// The seed this sampler (and its span ids) derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A handle to a span inside its [`TraceTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRef(usize);

impl SpanRef {
    pub(crate) fn from_index(i: usize) -> SpanRef {
        SpanRef(i)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A span or mark argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Static string (the common case: phase/outcome names).
    Str(&'static str),
    /// Owned string (table names, backend labels).
    Owned(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Owned(v)
    }
}

/// One closed interval on the sim clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Deterministic identity ([`span_id`]).
    pub id: u64,
    /// Parent span in the same tree, if any.
    pub parent: Option<SpanRef>,
    /// Category (export "cat"): `request`, `attempt`, `service`, ...
    pub cat: &'static str,
    /// Span name (export "name").
    pub name: &'static str,
    /// Export track (Perfetto `tid`): a backend id or a logical lane.
    pub track: u32,
    /// Start time, sim-clock seconds.
    pub start: f64,
    /// End time, sim-clock seconds (`== start` until [`TraceTree::end`]).
    pub end: f64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A zero-duration instant event (breaker flips, sheds, crashes).
#[derive(Debug, Clone, PartialEq)]
pub struct Mark {
    /// Deterministic identity ([`span_id`]).
    pub id: u64,
    /// Parent span, if the mark belongs to a request tree.
    pub parent: Option<SpanRef>,
    /// Category (export "cat").
    pub cat: &'static str,
    /// Mark name.
    pub name: &'static str,
    /// Export track.
    pub track: u32,
    /// Timestamp, sim-clock seconds.
    pub ts: f64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An arena of [`Span`]s and [`Mark`]s recorded in creation order.
///
/// The recording drivers are sequential, so creation order — and with
/// it the whole structure — is deterministic. `PartialEq` compares
/// every field; the cheaper [`TraceTree::fingerprint`] folds the same
/// information into one `u64` for conformance tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceTree {
    /// Spans in creation order.
    pub spans: Vec<Span>,
    /// Marks in creation order.
    pub marks: Vec<Mark>,
    /// Optional human names for export tracks (Perfetto thread names).
    pub track_names: BTreeMap<u32, String>,
}

impl TraceTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Labels an export track (rendered as a Perfetto thread name).
    pub fn name_track(&mut self, track: u32, name: impl Into<String>) {
        self.track_names.insert(track, name.into());
    }

    /// Opens a span at `start`; close it with [`TraceTree::end`].
    pub fn begin(
        &mut self,
        id: u64,
        parent: Option<SpanRef>,
        cat: &'static str,
        name: &'static str,
        track: u32,
        start: f64,
    ) -> SpanRef {
        self.spans.push(Span {
            id,
            parent,
            cat,
            name,
            track,
            start,
            end: start,
            args: Vec::new(),
        });
        SpanRef(self.spans.len() - 1)
    }

    /// Closes `span` at time `t` (clamped to its start).
    pub fn end(&mut self, span: SpanRef, t: f64) {
        let s = &mut self.spans[span.0];
        s.end = if t > s.start { t } else { s.start };
    }

    /// Attaches an argument to an open or closed span.
    pub fn arg(&mut self, span: SpanRef, key: &'static str, value: impl Into<ArgValue>) {
        self.spans[span.0].args.push((key, value.into()));
    }

    /// Records an instant mark.
    #[expect(
        clippy::too_many_arguments,
        reason = "a mark is one span record: ids, parent, names, track, time"
    )]
    pub fn mark(
        &mut self,
        id: u64,
        parent: Option<SpanRef>,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.marks.push(Mark {
            id,
            parent,
            cat,
            name,
            track,
            ts,
            args,
        });
    }

    /// Total recorded elements (spans + marks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len() + self.marks.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.marks.is_empty()
    }

    /// The name path from the root to `span` (for folded stacks).
    #[must_use]
    pub fn path(&self, span: SpanRef) -> Vec<&'static str> {
        let mut names = Vec::new();
        let mut cur = Some(span);
        while let Some(SpanRef(i)) = cur {
            names.push(self.spans[i].name);
            cur = self.spans[i].parent;
        }
        names.reverse();
        names
    }

    /// A 64-bit digest of every field (float bits included): equal
    /// trees have equal fingerprints, and the conformance harness pins
    /// fingerprints across reruns.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn fold(acc: &mut u64, x: u64) {
            *acc = mix64(*acc ^ x);
        }
        fn fold_str(acc: &mut u64, s: &str) {
            for b in s.as_bytes() {
                *acc = (*acc ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            *acc = mix64(*acc);
        }
        fn fold_args(acc: &mut u64, args: &[(&'static str, ArgValue)]) {
            for (k, v) in args {
                fold_str(acc, k);
                match v {
                    ArgValue::U64(n) => fold(acc, *n),
                    ArgValue::I64(n) => fold(acc, *n as u64),
                    ArgValue::F64(x) => fold(acc, x.to_bits()),
                    ArgValue::Str(s) => fold_str(acc, s),
                    ArgValue::Owned(s) => fold_str(acc, s),
                }
            }
        }
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.spans {
            fold(&mut acc, s.id);
            fold(&mut acc, s.parent.map_or(u64::MAX, |p| p.0 as u64));
            fold_str(&mut acc, s.cat);
            fold_str(&mut acc, s.name);
            fold(&mut acc, u64::from(s.track));
            fold(&mut acc, s.start.to_bits());
            fold(&mut acc, s.end.to_bits());
            fold_args(&mut acc, &s.args);
        }
        for m in &self.marks {
            fold(&mut acc, m.id);
            fold(&mut acc, m.parent.map_or(u64::MAX, |p| p.0 as u64));
            fold_str(&mut acc, m.cat);
            fold_str(&mut acc, m.name);
            fold(&mut acc, u64::from(m.track));
            fold(&mut acc, m.ts.to_bits());
            fold_args(&mut acc, &m.args);
        }
        acc
    }
}

/// The user-facing tracing handle: a [`Sampler`] plus the [`TraceTree`]
/// it populates. Drivers take `Option<&mut Tracer>`; `None` compiles to
/// nothing, `Some` with rate 0 costs one branch per request.
#[derive(Debug, Clone, PartialEq)]
pub struct Tracer {
    /// The recorded tree.
    pub tree: TraceTree,
    sampler: Sampler,
}

impl Tracer {
    /// A tracer sampling a `rate` fraction of requests.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        Tracer {
            tree: TraceTree::new(),
            sampler: Sampler::new(seed, rate),
        }
    }

    /// A tracer whose rate comes from `QCPA_TRACE_SAMPLE` (default 0).
    #[must_use]
    pub fn from_env(seed: u64) -> Self {
        Tracer {
            tree: TraceTree::new(),
            sampler: Sampler::from_env(seed),
        }
    }

    /// The sampler's admission decision for `request`.
    #[inline]
    #[must_use]
    pub fn admit(&self, request: u64) -> bool {
        self.sampler.admit(request)
    }

    /// True if the sampling rate is nonzero.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sampler.enabled()
    }

    /// Span id for `(request, attempt)` under this tracer's seed.
    #[inline]
    #[must_use]
    pub fn span_id(&self, request: u64, attempt: u64) -> u64 {
        span_id(self.sampler.seed(), request, attempt)
    }

    /// Opens the root span for `request` if the sampler admits it.
    pub fn begin_request(
        &mut self,
        request: u64,
        cat: &'static str,
        name: &'static str,
        track: u32,
        start: f64,
    ) -> Option<SpanRef> {
        if !self.admit(request) {
            return None;
        }
        let id = self.span_id(request, 0);
        Some(self.tree.begin(id, None, cat, name, track, start))
    }

    /// Consumes the tracer, returning the recorded tree.
    #[must_use]
    pub fn into_tree(self) -> TraceTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_stable_and_distinct() {
        let a = span_id(7, 1, 0);
        assert_eq!(a, span_id(7, 1, 0));
        assert_ne!(a, span_id(7, 2, 0));
        assert_ne!(a, span_id(7, 1, 1));
        assert_ne!(a, span_id(8, 1, 0));
        assert_ne!(a, 0);
    }

    #[test]
    fn sampler_rates_are_deterministic_and_monotone() {
        let off = Sampler::new(42, 0.0);
        let half = Sampler::new(42, 0.5);
        let all = Sampler::new(42, 1.0);
        let mut admitted = 0u32;
        for req in 0..1000 {
            assert!(!off.admit(req));
            assert!(all.admit(req));
            // Head sampling is nested: anything the half sampler
            // admits, the full sampler admits too.
            if half.admit(req) {
                admitted += 1;
            }
            assert_eq!(half.admit(req), half.admit(req));
        }
        assert!(
            (300..700).contains(&admitted),
            "half-rate admitted {admitted}/1000"
        );
    }

    #[test]
    fn sampler_handles_out_of_range_rates() {
        assert!(!Sampler::new(1, f64::NAN).enabled());
        assert!(!Sampler::new(1, -3.0).enabled());
        assert!(Sampler::new(1, 7.5).admit(123), "rate clamps to 1.0");
    }

    #[test]
    fn tree_records_structure_and_fingerprint_is_sensitive() {
        let build = |extra: bool| {
            let mut t = TraceTree::new();
            t.name_track(0, "backend 0");
            let root = t.begin(span_id(1, 1, 0), None, "request", "read", 0, 1.0);
            let child = t.begin(span_id(1, 1, 1), Some(root), "attempt", "service", 0, 1.5);
            t.arg(child, "backend", 3u64);
            t.end(child, 2.0);
            t.end(root, 2.5);
            if extra {
                t.mark(span_id(1, 9, 0), None, "fault", "crash", 9, 2.2, vec![]);
            }
            t
        };
        let t1 = build(false);
        let t2 = build(false);
        assert_eq!(t1, t2);
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        let t3 = build(true);
        assert_ne!(t1.fingerprint(), t3.fingerprint());
        assert_eq!(t3.path(SpanRef(1)), vec!["read", "service"]);
        assert_eq!(t3.len(), 3);
    }

    #[test]
    fn end_clamps_to_start() {
        let mut t = TraceTree::new();
        let s = t.begin(1, None, "c", "n", 0, 5.0);
        t.end(s, 4.0);
        assert_eq!(t.spans[0].end, 5.0);
    }
}
