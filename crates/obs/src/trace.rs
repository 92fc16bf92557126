//! Spans and structured events behind a `QCPA_LOG`-style filter.
//!
//! The hot-path contract: when a `(level, target)` pair is filtered
//! out, [`enabled`] is one relaxed atomic load plus (only when some
//! filter is active at all) a scan of a small target table — and the
//! [`event!`](crate::event!) macro evaluates **none** of its field expressions and
//! allocates nothing. Captured events go to a bounded in-memory ring
//! buffer drained with [`drain_events`].
//!
//! The filter is initialized lazily from the `QCPA_LOG` environment
//! variable (`off`, a bare level like `debug`, or a comma list of
//! `target=level` entries with an optional bare default level) and can
//! be replaced programmatically with [`set_filter`].

#![expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means another thread panicked mid-update"
)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Event severity; lower is louder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or invariant-violating conditions.
    Error = 1,
    /// Suspicious but tolerated conditions.
    Warn = 2,
    /// High-level lifecycle events (a reallocation, a scaling decision).
    Info = 3,
    /// Per-phase detail (per-generation, per-window).
    Debug = 4,
    /// Per-item detail (per-request, per-move).
    Trace = 5,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// Name as it appears in exported events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Text (allocated only when the event is actually captured).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// A captured structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Time since process start.
    pub ts: Duration,
    /// Severity.
    pub level: Level,
    /// Subsystem, e.g. `"sim"`, `"controller"`, `"memetic"`.
    pub target: &'static str,
    /// Event name, e.g. `"reallocate"`.
    pub name: &'static str,
    /// Key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

// ---- filter ----------------------------------------------------------

/// `MAX_LEVEL` is the loudest level any target lets through; 0 = all
/// off (the single-load fast path). `u8::MAX` marks "uninitialized:
/// read QCPA_LOG on first use".
static MAX_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

struct Filter {
    /// Default level for targets not listed (0 = off).
    default_level: u8,
    /// Per-target overrides.
    targets: Vec<(String, u8)>,
}

impl Filter {
    fn off() -> Filter {
        Filter {
            default_level: 0,
            targets: Vec::new(),
        }
    }

    /// Parses `off` | `<level>` | comma list of `target=level` / bare
    /// `<level>` default entries. Unknown pieces are ignored.
    fn parse(spec: &str) -> Filter {
        let mut filter = Filter::off();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() || part.eq_ignore_ascii_case("off") {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(l) = Level::parse(level) {
                        filter.targets.push((target.trim().to_string(), l as u8));
                    }
                }
                None => {
                    if let Some(l) = Level::parse(part) {
                        filter.default_level = filter.default_level.max(l as u8);
                    }
                }
            }
        }
        filter
    }

    fn max_level(&self) -> u8 {
        self.targets
            .iter()
            .map(|&(_, l)| l)
            .fold(self.default_level, u8::max)
    }

    fn level_for(&self, target: &str) -> u8 {
        self.targets
            .iter()
            .find(|(t, _)| t == target)
            .map(|&(_, l)| l)
            .unwrap_or(self.default_level)
    }
}

fn filter_slot() -> &'static Mutex<Filter> {
    static FILTER: OnceLock<Mutex<Filter>> = OnceLock::new();
    FILTER.get_or_init(|| Mutex::new(Filter::off()))
}

#[expect(
    clippy::disallowed_methods,
    reason = "QCPA_LOG is the documented event-filter knob"
)]
fn init_from_env() -> u8 {
    let filter = match std::env::var("QCPA_LOG") {
        Ok(spec) => Filter::parse(&spec),
        Err(_) => Filter::off(),
    };
    let max = filter.max_level();
    *filter_slot().lock().unwrap() = filter;
    MAX_LEVEL.store(max, Ordering::Release);
    max
}

/// Replaces the filter programmatically (overriding `QCPA_LOG`).
/// Accepts the same syntax as the environment variable.
pub fn set_filter(spec: &str) {
    let filter = Filter::parse(spec);
    let max = filter.max_level();
    *filter_slot().lock().unwrap() = filter;
    MAX_LEVEL.store(max, Ordering::Release);
}

/// True if an event at `level` for `target` would be captured.
///
/// The disabled fast path is a single relaxed load and a compare.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    let mut max = MAX_LEVEL.load(Ordering::Relaxed);
    if max == u8::MAX {
        max = init_from_env();
    }
    if (level as u8) > max {
        return false;
    }
    (level as u8) <= filter_slot().lock().unwrap().level_for(target)
}

// ---- event buffer ----------------------------------------------------

/// Capacity of the in-memory event ring; older events are dropped (and
/// counted) once it fills.
pub const EVENT_BUFFER_CAP: usize = 65_536;

static DROPPED: AtomicUsize = AtomicUsize::new(0);

fn event_buffer() -> &'static Mutex<VecDeque<Event>> {
    static BUF: OnceLock<Mutex<VecDeque<Event>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(VecDeque::new()))
}

#[expect(
    clippy::disallowed_methods,
    reason = "the obs clock measures host time; simulated time never reads it"
)]
fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Time since process start (first use of the obs clock).
pub fn now() -> Duration {
    start_instant().elapsed()
}

/// Appends a pre-built event to the buffer. Use the [`event!`](crate::event!) macro
/// instead so fields are only built when the filter passes.
pub fn emit(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let event = Event {
        ts: now(),
        level,
        target,
        name,
        fields,
    };
    let mut buf = event_buffer().lock().unwrap();
    if buf.len() >= EVENT_BUFFER_CAP {
        buf.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    buf.push_back(event);
}

/// Takes every buffered event, leaving the buffer empty.
pub fn drain_events() -> Vec<Event> {
    std::mem::take(&mut *event_buffer().lock().unwrap()).into()
}

/// How many events were evicted from the full buffer so far.
pub fn dropped_events() -> usize {
    DROPPED.load(Ordering::Relaxed)
}

/// Emits a structured event if `(level, target)` passes the filter.
///
/// ```ignore
/// qcpa_obs::event!(Level::Info, "controller", "reallocate", {
///     "moved_bytes" => moved,
///     "backends" => n,
/// });
/// ```
///
/// Field expressions are **not** evaluated when the event is filtered
/// out.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $name:expr) => {
        $crate::event!($level, $target, $name, {})
    };
    ($level:expr, $target:expr, $name:expr, { $($key:literal => $value:expr),* $(,)? }) => {
        if $crate::trace::enabled($level, $target) {
            $crate::trace::emit(
                $level,
                $target,
                $name,
                vec![$(($key, $crate::trace::FieldValue::from($value))),*],
            );
        }
    };
}

// ---- spans -----------------------------------------------------------

/// Times a scope; on drop, records the elapsed seconds into the global
/// registry's `span.<target>.<name>` histogram and, if the filter lets
/// `Level::Debug` through for the target, emits a `span` event.
pub struct SpanGuard {
    target: &'static str,
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        crate::metrics::global().observe(&format!("span.{}.{}", self.target, self.name), secs);
        crate::event!(Level::Debug, self.target, self.name, {
            "span_secs" => secs,
        });
    }
}

/// Starts a span over the enclosing scope.
#[expect(
    clippy::disallowed_methods,
    reason = "spans time host work; simulated time never reads them"
)]
pub fn span(target: &'static str, name: &'static str) -> SpanGuard {
    SpanGuard {
        target,
        name,
        start: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The filter and buffer are process-global, so exercise everything
    // from one test to avoid cross-test interference under the parallel
    // test runner.
    #[test]
    fn filter_events_and_spans_end_to_end() {
        // Parsing.
        let f = Filter::parse("sim=debug,controller=trace,info");
        assert_eq!(f.level_for("sim"), Level::Debug as u8);
        assert_eq!(f.level_for("controller"), Level::Trace as u8);
        assert_eq!(f.level_for("elsewhere"), Level::Info as u8);
        assert_eq!(f.max_level(), Level::Trace as u8);
        assert_eq!(Filter::parse("off").max_level(), 0);
        assert_eq!(Filter::parse("junk=nope,alsojunk").max_level(), 0);

        // Disabled: nothing is captured and fields are not evaluated.
        set_filter("off");
        drain_events();
        let mut evaluated = false;
        crate::event!(Level::Error, "sim", "boom", {
            "x" => { evaluated = true; 1u64 },
        });
        assert!(!evaluated, "field evaluated while filtered out");
        assert!(drain_events().is_empty());

        // Target-scoped enablement.
        set_filter("sim=debug");
        assert!(enabled(Level::Debug, "sim"));
        assert!(!enabled(Level::Trace, "sim"));
        assert!(!enabled(Level::Error, "controller"));
        crate::event!(Level::Debug, "sim", "queue", { "depth" => 3usize });
        crate::event!(Level::Trace, "sim", "too_quiet", { "n" => 1u64 });
        crate::event!(Level::Info, "controller", "filtered_target", {});
        let events = drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "queue");
        assert_eq!(events[0].target, "sim");
        assert_eq!(events[0].fields, vec![("depth", FieldValue::U64(3))]);

        // Spans: always feed the registry, regardless of the filter.
        set_filter("off");
        {
            let _g = span("test", "timed_scope");
            std::hint::black_box(0u64);
        }
        let snap = crate::metrics::global().snapshot();
        let s = &snap.histograms["span.test.timed_scope"];
        assert_eq!(s.count, 1);
        assert!(s.max >= 0.0);

        set_filter("off");
    }
}
