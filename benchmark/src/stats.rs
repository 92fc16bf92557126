//! Order statistics and the metric table.

use std::collections::BTreeMap;

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by interpolation between the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, p)
}

/// One named metric: a unit and the samples taken over the run's
/// iterations. Its reported value is the median.
#[derive(Debug, Clone)]
pub struct Metric {
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    pub fn quartiles(&self) -> (f64, f64) {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.25), quantile(&v, 0.75))
    }
}

/// Every metric of a run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    pub by_name: BTreeMap<String, Metric>,
    /// While set, `push` drops its sample: warm-up iterations and, in a
    /// traced run, the interleaved untraced iterations do not feed the
    /// per-layer numbers.
    pub muted: bool,
}

impl Metrics {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        if self.muted {
            return;
        }
        self.by_name
            .entry(name.to_string())
            .or_insert_with(|| Metric {
                unit,
                samples: Vec::new(),
            })
            .samples
            .push(value);
    }

    /// Pushes one sample of each named count.
    pub fn push_counts(&mut self, counts: &[(&str, usize)]) {
        for &(name, n) in counts {
            self.push(name, "count", n as f64);
        }
    }
}
