//! Metrics: counters, gauges, log-scale histograms, and series, kept in
//! a [`Registry`] that snapshots deterministically.
//!
//! Counters and gauges are lock-free atomics shared via [`std::sync::Arc`]
//! handles. Histograms are designed for hot loops: record into a local
//! (non-atomic) [`Histogram`] while running, then merge it into the
//! registry once at the end of the run with
//! [`Registry::merge_histogram`]. Series are append-only `f64` traces
//! for convergence curves (per-generation fitness, per-window backend
//! counts) where the *order* of observations matters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` metric.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// ---- log-scale histogram ---------------------------------------------

/// Sub-buckets per power of two: 8, giving a relative bucket width of
/// `2^(1/8) - 1 ≈ 9%` and a worst-case quantile error of about half
/// that when reporting the bucket's geometric midpoint.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Smallest distinguishable exponent: values below `2^MIN_EXP` clamp
/// into the first bucket. `2^-40 ≈ 9e-13` — far below any duration or
/// cost this workspace measures.
const MIN_EXP: i32 = -40;
/// Largest distinguishable exponent: values at or above `2^MAX_EXP`
/// clamp into the last bucket. `2^40 ≈ 1.1e12`.
const MAX_EXP: i32 = 40;
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB;

/// A log-scale histogram of positive `f64` observations.
///
/// Recording is an exponent/mantissa bit extraction plus one array
/// increment — no allocation, no branching on magnitude — so it can sit
/// inside the simulator's per-request loop. Non-positive observations
/// clamp into the lowest bucket.
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Maps a value to its bucket index.
    #[inline]
    fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || v.is_nan() {
            return 0;
        }
        let bits = v.to_bits();
        // IEEE-754 exponent (unbiased) and the top SUB_BITS mantissa
        // bits select a geometric bucket.
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        let idx = (exp - MIN_EXP) as isize * SUB as isize + sub as isize;
        idx.clamp(0, BUCKETS as isize - 1) as usize
    }

    /// The geometric midpoint of bucket `i`, used when reconstructing
    /// quantiles from counts.
    fn bucket_mid(i: usize) -> f64 {
        let exp = MIN_EXP + (i / SUB) as i32;
        let sub = (i % SUB) as f64;
        // Bucket spans [2^exp * (1 + sub/SUB), 2^exp * (1 + (sub+1)/SUB)).
        let lo = (1.0 + sub / SUB as f64) * (exp as f64).exp2();
        let hi = (1.0 + (sub + 1.0) / SUB as f64) * (exp as f64).exp2();
        (lo * hi).sqrt()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `[0, 1]`, reconstructed from the
    /// bucket counts. Exact at the rank extremes: a rank that lands on
    /// the first or last observation returns the tracked minimum or
    /// maximum rather than a bucket midpoint — which also makes counts
    /// 0 and 1 exact (`None` and the single observation), and any
    /// quantile with `q > 1 - 1/count` (e.g. p999 below 1000 samples)
    /// exact. Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // Rank of the target observation, 1-based ceil like the
        // nearest-rank definition.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return Some(self.max);
        }
        if rank == 1 {
            return Some(self.min);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the representative into the observed range so
                // bucket-edge effects never report beyond min/max.
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Condenses the histogram into its summary statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            p999: self.quantile(0.999).unwrap_or(0.0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Summary statistics of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation (exact).
    pub max: f64,
    /// Median (bucket-approximate).
    pub p50: f64,
    /// 95th percentile (bucket-approximate).
    pub p95: f64,
    /// 99th percentile (bucket-approximate).
    pub p99: f64,
    /// 99.9th percentile (bucket-approximate). Sim tail latencies at
    /// 256 backends clip at p99; this is the next decade out.
    pub p999: f64,
}

// ---- registry --------------------------------------------------------

/// A named collection of metrics with deterministic snapshots.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    series: Mutex<BTreeMap<String, Vec<f64>>>,
}

#[expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means another thread panicked mid-update"
)]
impl Registry {
    /// An empty registry (the process-wide one is [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if needed) the counter `name`. Hold the handle
    /// in hot paths; lookups take a lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns (creating if needed) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Records a single observation into histogram `name`. For
    /// per-request rates prefer a local [`Histogram`] merged once via
    /// [`Registry::merge_histogram`].
    pub fn observe(&self, name: &str, v: f64) {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().record(v);
    }

    /// Merges a locally recorded histogram into histogram `name`.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().merge(h);
    }

    /// Appends one point to series `name` (convergence traces).
    pub fn push_series(&self, name: &str, v: f64) {
        let mut map = self.series.lock().unwrap();
        map.entry(name.to_string()).or_default().push(v);
    }

    /// A deterministic point-in-time view of every metric: identical
    /// metric states yield identical snapshots (names are sorted, no
    /// iteration-order dependence).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            series: self.series.lock().unwrap().clone(),
        }
    }

    /// Clears every metric (counters and gauges are detached, so stale
    /// handles keep working but no longer appear in snapshots).
    pub fn reset(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
        self.series.lock().unwrap().clear();
    }
}

/// A deterministic snapshot of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Series traces by name.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl Snapshot {
    /// True if the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = Registry::new();
        let c = reg.counter("requests");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("requests").get(), 5);
        let g = reg.gauge("util");
        g.set(0.75);
        assert_eq!(reg.gauge("util").get(), 0.75);
    }

    #[test]
    fn histogram_max_is_exact_and_quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000.0);
        assert_eq!(s.min, 1.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert!((s.p50 - 500.0).abs() / 500.0 < 0.10, "p50={}", s.p50);
        assert!((s.p95 - 950.0).abs() / 950.0 < 0.10, "p95={}", s.p95);
        assert!((s.p99 - 990.0).abs() / 990.0 < 0.10, "p99={}", s.p99);
        assert!((s.p999 - 999.0).abs() / 999.0 < 0.10, "p999={}", s.p999);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 4);
        assert_eq!(h.summary().max, 1e300);
        assert!(h.quantile(0.1).is_some());
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 1..200 {
            let v = (i as f64) * 0.37;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), both.summary());
    }

    /// Table-driven pin of the nearest-rank edge cases: the first and
    /// last ranks are exact (tracked min/max), including the degenerate
    /// counts 0 and 1 and any `q` whose rank saturates at `count`
    /// (p999 under 1000 samples).
    #[test]
    fn quantile_rank_extremes_are_exact() {
        // (observations, q, expected)
        let cases: &[(&[f64], f64, Option<f64>)] = &[
            (&[], 0.5, None),
            (&[], 0.999, None),
            // A single observation is every quantile, exactly — even
            // when it sits mid-bucket, far from the bucket midpoint.
            (&[3.7], 0.0, Some(3.7)),
            (&[3.7], 0.5, Some(3.7)),
            (&[3.7], 0.95, Some(3.7)),
            (&[3.7], 0.999, Some(3.7)),
            (&[3.7], 1.0, Some(3.7)),
            // Two observations: rank 1 → min, rank 2 → max, exactly.
            (&[1.3, 9.1], 0.25, Some(1.3)),
            (&[1.3, 9.1], 0.5, Some(1.3)),
            (&[1.3, 9.1], 0.75, Some(9.1)),
            (&[1.3, 9.1], 0.999, Some(9.1)),
            // Ten observations: p999 rank saturates at count → max.
            (
                &[0.11, 0.22, 0.33, 0.44, 0.55, 0.66, 0.77, 0.88, 0.99, 1.23],
                0.999,
                Some(1.23),
            ),
            // ...and p05 lands on rank 1 → min.
            (
                &[0.11, 0.22, 0.33, 0.44, 0.55, 0.66, 0.77, 0.88, 0.99, 1.23],
                0.05,
                Some(0.11),
            ),
        ];
        for &(obs, q, want) in cases {
            let mut h = Histogram::new();
            for &v in obs {
                h.record(v);
            }
            assert_eq!(h.quantile(q), want, "obs={obs:?} q={q}");
        }
        // Below 1000 samples p999's rank saturates at the count: exact
        // max (at exactly 1000, rank 999 is a genuine interior rank).
        let mut h = Histogram::new();
        for i in 1..=999 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.999), Some(999.0));
        assert_eq!(h.quantile(0.0005), Some(1.0));
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let build = || {
            let reg = Registry::new();
            reg.counter("z").add(1);
            reg.counter("a").add(2);
            reg.push_series("fit", 1.0);
            reg.push_series("fit", 0.5);
            reg.observe("lat", 0.25);
            reg.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        let keys: Vec<&str> = s1.counters.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "z"]);
        assert_eq!(s1.series["fit"], vec![1.0, 0.5]);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.observe("h", 1.0);
        reg.push_series("s", 1.0);
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }
}
