//! A synthetic diurnal web trace (Section 5).
//!
//! The paper's elasticity experiments replay the backend database
//! accesses of a Web-based e-learning tool over one day (October 20,
//! 2009), scaled up ×40 to a peak of 250 queries/second. Privacy
//! restrictions limited the authors to statistics, not actual queries —
//! so a synthetic reconstruction with the same structure is exactly
//! what they themselves evaluated:
//!
//! * a request-rate profile with a quiet night (3 am – 8 am), a morning
//!   ramp, and afternoon/evening peaks around 4,500 requests/10 min
//!   before scaling;
//! * five query classes A–E whose mix shifts through the day — class B
//!   dominates at night and nearly vanishes during the day (Figure 6).

use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::fragment::{Catalog, FragmentId};
use qcpa_core::journal::{Journal, Query, QueryKind};
use qcpa_sim::request::{Request, RequestStream};
use rand_chacha::ChaCha8Rng;

/// Hourly request counts per 10 minutes (unscaled), hours 0–23.
const HOURLY_RATE_PER_10MIN: [f64; 24] = [
    1200.0, 800.0, 500.0, 300.0, 250.0, 300.0, 500.0, 1500.0, 2500.0, 3200.0, 3500.0, 3800.0,
    4000.0, 3700.0, 3500.0, 3600.0, 3800.0, 4200.0, 4500.0, 4300.0, 3800.0, 3000.0, 2200.0, 1600.0,
];

/// Class names for reporting.
pub const CLASS_NAMES: [&str; 5] = ["A", "B", "C", "D", "E"];

/// The diurnal trace workload.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// Fragment catalog of the e-learning schema (5 table groups).
    pub catalog: Catalog,
    /// Fragments referenced by each of the 5 classes.
    pub class_fragments: Vec<Vec<FragmentId>>,
    /// Mean service seconds per class on the reference backend.
    pub service: [f64; 5],
    /// Workload scale factor (the paper uses 40).
    pub scale: f64,
}

/// Builds the diurnal workload at the given scaling factor
/// (`40.0` reproduces the paper's setup with a ≈ 250 q/s peak).
pub fn diurnal(scale: f64) -> TraceWorkload {
    let mut catalog = Catalog::new();
    // E-learning backend: sessions, content, forum, quiz, users.
    let sessions = catalog.add_table("sessions", 40_000_000);
    let content = catalog.add_table("content", 400_000_000);
    let forum = catalog.add_table("forum", 120_000_000);
    let quiz = catalog.add_table("quiz", 80_000_000);
    let users = catalog.add_table("users", 30_000_000);
    let class_fragments = vec![
        vec![content, users],    // A: content browsing
        vec![sessions, content], // B: background sync / crawler (night)
        vec![forum, users],      // C: forum
        vec![quiz, users],       // D: quizzes
        vec![sessions, users],   // E: login / session management
    ];
    TraceWorkload {
        catalog,
        class_fragments,
        service: [0.012, 0.006, 0.010, 0.015, 0.004],
        scale,
    }
}

impl TraceWorkload {
    /// Scaled request rate (requests/second) at second-of-day `t`,
    /// linearly interpolated between hourly control points.
    pub fn rate_at(&self, t_secs: f64) -> f64 {
        let t = t_secs.rem_euclid(86_400.0);
        let h = t / 3600.0;
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = h - h.floor();
        let per10 = HOURLY_RATE_PER_10MIN[i] * (1.0 - frac) + HOURLY_RATE_PER_10MIN[j] * frac;
        per10 / 600.0 * self.scale
    }

    /// Class mix (fractions summing to 1) at second-of-day `t`: class B
    /// dominates 3 am – 8 am, classes A/C/D carry the day.
    pub fn mix_at(&self, t_secs: f64) -> [f64; 5] {
        let t = t_secs.rem_euclid(86_400.0);
        let h = t / 3600.0;
        // Night window for class B (3:00–8:00) with soft edges.
        let b_share = if (3.0..8.0).contains(&h) {
            0.60
        } else if (2.0..3.0).contains(&h) {
            0.20 + 0.40 * (h - 2.0)
        } else if (8.0..9.0).contains(&h) {
            0.60 - 0.50 * (h - 8.0)
        } else {
            0.10
        };
        let rest = 1.0 - b_share;
        // Daytime mix of the other classes (relative shares).
        [0.38 * rest, b_share, 0.26 * rest, 0.16 * rest, 0.20 * rest]
    }

    /// Journal for the window `[start, end)` seconds-of-day, suitable
    /// for classification: one entry per class weighted by the
    /// accumulated requests (sampled per 10-minute bucket).
    pub fn journal_for_window(&self, start: f64, end: f64) -> Journal {
        let mut counts = [0.0f64; 5];
        let mut t = start;
        while t < end {
            let step = 600.0f64.min(end - t);
            let reqs = self.rate_at(t) * step;
            let mix = self.mix_at(t);
            for (c, m) in counts.iter_mut().zip(mix) {
                *c += reqs * m;
            }
            t += step;
        }
        let mut j = Journal::new();
        for (k, &count) in counts.iter().enumerate() {
            let q = Query::read(
                format!("class-{}", CLASS_NAMES[k]),
                self.class_fragments[k].iter().copied(),
                self.service[k],
            );
            j.record_many(q, (count.round() as u64).max(1));
        }
        j
    }

    /// Classification of the window's workload (table granularity —
    /// the trace has no column information, as in the paper).
    #[expect(
        clippy::expect_used,
        reason = "a window journal records every class at least once"
    )]
    pub fn classification_for_window(&self, start: f64, end: f64) -> Classification {
        Classification::from_journal(
            &self.journal_for_window(start, end),
            &self.catalog,
            Granularity::Table,
        )
        .expect("trace windows are non-empty")
    }

    /// Maps each class of `cls` (which must come from
    /// [`Self::classification_for_window`]) back to its trace class
    /// index 0–4 (A–E). Classifications sort classes by fragment set,
    /// so the order differs from the trace's A–E order — requests must
    /// carry the *classification's* class ids to be routed correctly.
    #[expect(
        clippy::expect_used,
        reason = "documented precondition: `cls` comes from this trace"
    )]
    pub fn class_order(&self, cls: &Classification) -> Vec<usize> {
        cls.classes
            .iter()
            .map(|c| {
                self.class_fragments
                    .iter()
                    .position(|f| {
                        let set: std::collections::BTreeSet<_> = f.iter().copied().collect();
                        set == c.fragments
                    })
                    .expect("classification classes come from this trace")
            })
            .collect()
    }

    /// Samples the Poisson arrivals of the window `[start, end)` with
    /// the time-varying rate and mix, labelled with `cls`'s class ids.
    /// Arrival times are absolute seconds-of-day.
    pub fn sample_window(
        &self,
        cls: &Classification,
        start: f64,
        end: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Request> {
        let order = self.class_order(cls);
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let step = 60.0f64.min(end - t);
            let rate = self.rate_at(t);
            if rate > 0.0 {
                let stream = self.stream_at_for(&order, t);
                let mut reqs = stream.sample_poisson(rate, step, 0.05, rng);
                for r in reqs.iter_mut() {
                    r.arrival += t;
                }
                out.append(&mut reqs);
            }
            t += step;
        }
        out
    }

    /// The instantaneous request stream at second-of-day `t`, with
    /// classes permuted into classification order (`order` from
    /// [`Self::class_order`]).
    pub fn stream_at_for(&self, order: &[usize], t_secs: f64) -> RequestStream {
        let mix = self.mix_at(t_secs);
        RequestStream::new(
            order.iter().map(|&k| mix[k]).collect(),
            vec![QueryKind::Read; order.len()],
            order.iter().map(|&k| self.service[k]).collect(),
        )
    }

    /// The instantaneous request stream at second-of-day `t` in trace
    /// order A–E (for reporting, e.g. the Figure 6 class-distribution
    /// plot — not for feeding the simulator).
    pub fn stream_at(&self, t_secs: f64) -> RequestStream {
        let mix = self.mix_at(t_secs);
        RequestStream::new(
            mix.to_vec(),
            vec![QueryKind::Read; 5],
            self.service.to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn peak_rate_is_250_qps_at_scale_40() {
        let w = diurnal(40.0);
        let peak = (0..1440)
            .map(|m| w.rate_at(m as f64 * 60.0))
            .fold(0.0f64, f64::max);
        assert!((peak - 300.0).abs() < 60.0, "peak {peak} q/s");
        // The 18:00 control point: 4500/10min × 40 / 600 = 300 q/s.
        assert!(w.rate_at(18.0 * 3600.0) > 250.0);
    }

    #[test]
    fn night_is_quiet() {
        let w = diurnal(40.0);
        assert!(w.rate_at(4.0 * 3600.0) < 0.1 * w.rate_at(18.0 * 3600.0));
    }

    #[test]
    fn class_b_dominates_at_night_only() {
        let w = diurnal(40.0);
        let night = w.mix_at(5.0 * 3600.0);
        let day = w.mix_at(14.0 * 3600.0);
        assert!(night[1] > 0.5, "B at night: {}", night[1]);
        assert!(day[1] <= 0.11, "B by day: {}", day[1]);
        for t in [0.0, 3.5, 7.9, 12.0, 23.9] {
            let m = w.mix_at(t * 3600.0);
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "mix at {t}h sums to {sum}");
        }
    }

    #[test]
    fn window_classification_tracks_the_mix() {
        let w = diurnal(40.0);
        let night = w.classification_for_window(3.0 * 3600.0, 8.0 * 3600.0);
        let day = w.classification_for_window(10.0 * 3600.0, 16.0 * 3600.0);
        // Class B references {sessions, content}; find its weight.
        let b_frags: std::collections::BTreeSet<_> = w.class_fragments[1].iter().copied().collect();
        let weight_of = |cls: &Classification| {
            cls.classes
                .iter()
                .find(|c| c.fragments == b_frags)
                .map(|c| c.weight)
                .unwrap_or(0.0)
        };
        assert!(weight_of(&night) > 2.0 * weight_of(&day));
    }

    #[test]
    fn sampling_rates_follow_profile() {
        let w = diurnal(40.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let cls = w.classification_for_window(0.0, 3600.0);
        let quiet = w.sample_window(&cls, 4.0 * 3600.0, 4.5 * 3600.0, &mut rng);
        let busy = w.sample_window(&cls, 18.0 * 3600.0, 18.5 * 3600.0, &mut rng);
        assert!(busy.len() > 5 * quiet.len());
        assert!(quiet.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }
}
