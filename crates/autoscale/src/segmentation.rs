//! Workload segmentation for periodically changing workloads
//! (Section 5, Figure 6).
//!
//! Instead of reallocating as the daily pattern shifts, the paper
//! segments the query history with a one-hour sliding window comparing
//! class-mix variances, computes an allocation per segment, and merges
//! them (Hungarian-aligned) into one combined allocation that is robust
//! to the changes — their example day yields 4 segments.

use qcpa_core::allocation::Allocation;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::greedy;
use qcpa_matching::merge::{merge_allocations, MergedAllocation};
use qcpa_workloads::trace::TraceWorkload;

/// One workload segment, in seconds-of-day. Segments may wrap around
/// midnight (then `end < start`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Inclusive start.
    pub start: f64,
    /// Exclusive end.
    pub end: f64,
}

impl Segment {
    /// Segment duration, handling midnight wrap.
    pub fn duration(&self) -> f64 {
        if self.end >= self.start {
            self.end - self.start
        } else {
            86_400.0 - self.start + self.end
        }
    }
}

/// Segments the day by sliding a one-hour window over the class mix and
/// cutting wherever the mix drifts more than `threshold` (L1 distance
/// of the class-share vectors) from the running segment's mean.
pub fn segment_day(trace: &TraceWorkload, threshold: f64) -> Vec<Segment> {
    let step = 1_800.0; // half-hour resolution, one-hour window
    let n_steps = (86_400.0 / step) as usize;
    let mix_at = |i: usize| {
        // One-hour window centred on the step.
        let t = i as f64 * step;
        let a = trace.mix_at(t);
        let b = trace.mix_at(t + 1_800.0);
        let mut m = [0.0f64; 5];
        for k in 0..5 {
            m[k] = (a[k] + b[k]) / 2.0;
        }
        m
    };

    let mut cuts: Vec<usize> = Vec::new();
    let mut seg_mean = mix_at(0);
    let mut seg_len = 1.0;
    for i in 1..n_steps {
        let m = mix_at(i);
        let dist: f64 = m.iter().zip(&seg_mean).map(|(a, b)| (a - b).abs()).sum();
        if dist > threshold {
            cuts.push(i);
            seg_mean = m;
            seg_len = 1.0;
        } else {
            for k in 0..5 {
                seg_mean[k] = (seg_mean[k] * seg_len + m[k]) / (seg_len + 1.0);
            }
            seg_len += 1.0;
        }
    }

    if cuts.is_empty() {
        return vec![Segment {
            start: 0.0,
            end: 86_400.0,
        }];
    }
    // Segments between cuts; the first and last join across midnight.
    let mut segments = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        segments.push(Segment {
            start: w[0] as f64 * step,
            end: w[1] as f64 * step,
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "`cuts` is non-empty past the early return"
    )]
    segments.push(Segment {
        start: *cuts.last().expect("non-empty") as f64 * step,
        end: cuts[0] as f64 * step, // wraps past midnight
    });
    segments
}

/// Computes one allocation per segment and merges them into a combined
/// allocation robust to the daily pattern. Returns the merged placement
/// together with the segments (aligned by index).
pub fn segmented_allocation(
    trace: &TraceWorkload,
    cluster: &ClusterSpec,
    threshold: f64,
) -> (Vec<Segment>, MergedAllocation) {
    let segments = segment_day(trace, threshold);
    let allocations: Vec<Allocation> = segments
        .iter()
        .map(|s| {
            let (a, b) = if s.end >= s.start {
                (s.start, s.end)
            } else {
                (s.start, 86_400.0) // classify on the pre-midnight part
            };
            let cls = trace.classification_for_window(a, b);
            greedy::allocate(&cls, &trace.catalog, cluster)
        })
        .collect();
    let merged = merge_allocations(&allocations, &trace.catalog);
    (segments, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_workloads::trace::diurnal;

    #[test]
    fn day_splits_into_a_few_segments() {
        let trace = diurnal(40.0);
        let segments = segment_day(&trace, 0.35);
        // The paper's day yields 4 segments; the synthetic profile has
        // the same structure — expect a small handful.
        assert!(
            (2..=6).contains(&segments.len()),
            "{} segments",
            segments.len()
        );
        let total: f64 = segments.iter().map(|s| s.duration()).sum();
        assert!((total - 86_400.0).abs() < 1.0, "cover the day: {total}");
    }

    #[test]
    fn night_segment_exists() {
        let trace = diurnal(40.0);
        let segments = segment_day(&trace, 0.35);
        // Some segment covers 5 am (class B's reign).
        let five_am = 5.0 * 3600.0;
        assert!(segments.iter().any(|s| {
            if s.end >= s.start {
                s.start <= five_am && five_am < s.end
            } else {
                five_am >= s.start || five_am < s.end
            }
        }));
    }

    #[test]
    fn merged_allocation_serves_every_segment() {
        let trace = diurnal(40.0);
        let cluster = ClusterSpec::homogeneous(4);
        let (segments, merged) = segmented_allocation(&trace, &cluster, 0.35);
        for (i, s) in segments.iter().enumerate() {
            let (a, b) = if s.end >= s.start {
                (s.start, s.end)
            } else {
                (s.start, 86_400.0)
            };
            let cls = trace.classification_for_window(a, b);
            let alloc = merged.for_segment(i, &cls);
            alloc.validate(&cls, &cluster).unwrap();
            // Each segment stays well balanced on the shared placement.
            assert!(
                alloc.speedup(&cluster) > 3.0,
                "segment {i} speedup {}",
                alloc.speedup(&cluster)
            );
        }
    }

    #[test]
    fn merged_is_cheaper_than_full_replication() {
        let trace = diurnal(40.0);
        let cluster = ClusterSpec::homogeneous(4);
        let (_, merged) = segmented_allocation(&trace, &cluster, 0.35);
        let cls = trace.classification_for_window(0.0, 86_400.0);
        let full = Allocation::full_replication(&cls, &cluster);
        assert!(merged.total_bytes(&trace.catalog) <= full.total_bytes(&trace.catalog));
    }
}
