//! Property-based tests on the core invariants: random workloads and
//! clusters must always yield valid allocations obeying the paper's
//! bounds.

use proptest::prelude::*;
use qcpa::core::allocation::Allocation;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::{greedy, ksafety, memetic, robust};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{materialize, workload_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The greedy allocator always produces a valid allocation whose
    /// speedup respects Eq. 17 and whose degree of replication never
    /// exceeds full replication's.
    #[test]
    fn greedy_is_always_valid_and_bounded(w in workload_strategy(), n in 1usize..6) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        prop_assert!(alloc.scale(&cluster) >= 1.0 - 1e-9);
        prop_assert!(alloc.speedup(&cluster) <= cls.max_speedup() + 1e-6);
        prop_assert!(alloc.speedup(&cluster) <= n as f64 + 1e-9);
        let full = Allocation::full_replication(&cls, &cluster);
        prop_assert!(alloc.total_bytes(&catalog) <= full.total_bytes(&catalog));
    }

    /// Heterogeneous clusters: validity holds for arbitrary performance
    /// vectors.
    #[test]
    fn greedy_handles_heterogeneous_clusters(
        w in workload_strategy(),
        perf in proptest::collection::vec(0.1f64..10.0, 2..6),
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::heterogeneous(&perf);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        prop_assert!(alloc.speedup(&cluster) <= cluster.len() as f64 + 1e-9);
    }

    /// The memetic optimizer never returns something worse than its
    /// greedy seed under the lexicographic (scale, bytes) cost.
    #[test]
    fn memetic_never_worse_than_greedy(w in workload_strategy(), n in 2usize..5, seed in 0u64..50) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let g = greedy::allocate(&cls, &catalog, &cluster);
        let m = memetic::optimize(
            g.clone(),
            &cls,
            &catalog,
            &cluster,
            &memetic::MemeticConfig { iterations: 6, population: 6, seed, ..Default::default() },
        );
        m.validate(&cls, &cluster).unwrap();
        let gc = g.cost(&cluster, &catalog);
        let mc = m.cost(&cluster, &catalog);
        prop_assert!(!gc.better_than(&mc), "memetic {mc:?} worse than greedy {gc:?}");
    }

    /// k-safety: every class processable by min(k+1, n) backends, and
    /// any k-subset of failures is survivable.
    #[test]
    fn ksafety_guarantee_holds(w in workload_strategy(), n in 2usize..5, k in 0usize..3) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = ksafety::allocate(&cls, &catalog, &cluster, k);
        alloc.validate(&cls, &cluster).unwrap();
        let target = (k + 1).min(n);
        prop_assert!(ksafety::class_safety(&alloc, &cls) + 1 >= target);
        if k >= 1 && n >= 2 {
            for b in cluster.ids() {
                prop_assert!(
                    ksafety::fail_backends(&alloc, &cls, &cluster, &[b]).is_some(),
                    "single failure of {b} must be survivable at k={k}"
                );
            }
        }
    }

    /// `normalize` is idempotent and always restores validity after an
    /// arbitrary reshuffle of the read assignments.
    #[test]
    fn normalize_is_idempotent_and_repairs(w in workload_strategy(), n in 1usize..5, seed in 0u64..100) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let _ = catalog;
        let mut alloc = Allocation::empty(cls.len(), n);
        // Scatter read weights arbitrarily.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        for &r in cls.read_ids() {
            let b = rng.gen_range(0..n);
            alloc.assign[r.idx()][b] = cls.weight(r);
        }
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        let once = alloc.clone();
        alloc.normalize(&cls, &cluster);
        prop_assert_eq!(once, alloc);
    }

    /// The memetic engine is a pure function of its configuration:
    /// every offspring draws from its own `(seed, generation, index)`
    /// stream, so a rerun returns the same allocation bit for bit.
    #[test]
    fn memetic_reruns_bit_identically(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..50,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let cfg = memetic::MemeticConfig {
            iterations: 4,
            population: 6,
            seed,
            ..Default::default()
        };
        let first = memetic::allocate(&cls, &catalog, &cluster, &cfg);
        let again = memetic::allocate(&cls, &catalog, &cluster, &cfg);
        prop_assert_eq!(&first, &again, "memetic rerun diverged (seed {})", seed);
    }

    /// `DeltaCost` transfer/undo round-trip oracle: a random sequence
    /// of share transfers keeps the tracker's cost bit-identical to a
    /// full normalize + recompute, and undoing the sequence in reverse
    /// restores the exact starting allocation and cost.
    #[test]
    fn delta_cost_transfer_undo_roundtrip(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..100,
    ) {
        use qcpa::core::allocation::DeltaCost;
        use qcpa::core::BackendId;
        use rand::Rng;

        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        if cls.read_ids().is_empty() { return Ok(()); }
        let cluster = ClusterSpec::homogeneous(n);
        let mut alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.normalize(&cls, &cluster);
        let start = alloc.clone();
        let mut tracker = DeltaCost::new(&alloc, &cls, &catalog);
        let start_cost = tracker.cost(&cluster);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tokens = Vec::new();
        for _ in 0..12 {
            let r = cls.read_ids()[rng.gen_range(0..cls.read_ids().len())];
            let from = rng.gen_range(0..n);
            let to = rng.gen_range(0..n);
            let share = alloc.assign[r.idx()][from];
            if share <= 0.0 { continue; }
            let amount = share * rng.gen_range(0.25..1.0);
            tokens.push(tracker.transfer(
                &mut alloc, &cls, &cluster, &catalog,
                r, BackendId(from as u32), BackendId(to as u32), amount,
            ));
            // The tracker must mirror a full recompute exactly.
            let mut reference = alloc.clone();
            reference.normalize(&cls, &cluster);
            prop_assert_eq!(&reference, &alloc, "transfer left alloc unnormalized");
            prop_assert_eq!(
                tracker.cost(&cluster),
                alloc.cost(&cluster, &catalog),
                "tracked cost diverged from full recompute"
            );
        }
        for token in tokens.into_iter().rev() {
            tracker.undo(&mut alloc, &cls, token);
        }
        prop_assert_eq!(&start, &alloc, "undo did not restore the allocation");
        prop_assert_eq!(start_cost, tracker.cost(&cluster), "undo did not restore the cost");
    }

    /// `ksafety::repair` is idempotent and never lowers `class_safety`:
    /// replicas are only added, a second run with the same `k` is a
    /// reported no-op, and the min(k+1, n) processability target holds
    /// afterwards (the contract its rustdoc pins).
    #[test]
    fn repair_is_idempotent_and_never_lowers_safety(
        w in workload_strategy(),
        n in 2usize..6,
        k in 0usize..3,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let mut alloc = greedy::allocate(&cls, &catalog, &cluster);
        let safety_before = ksafety::class_safety(&alloc, &cls);
        let report = ksafety::repair_report(&mut alloc, &cls, &cluster, k);
        alloc.validate(&cls, &cluster).unwrap();
        let safety_after = ksafety::class_safety(&alloc, &cls);
        prop_assert!(
            safety_after >= safety_before,
            "repair lowered class_safety: {safety_before} -> {safety_after}"
        );
        prop_assert!(safety_after + 1 >= (k + 1).min(n), "target not reached");
        // The report prices exactly the added fragments.
        prop_assert_eq!(report.moved_bytes(&catalog) == 0, report.is_noop());
        // Idempotent: a second run changes nothing and reports a no-op.
        let once = alloc.clone();
        let again = ksafety::repair_report(&mut alloc, &cls, &cluster, k);
        prop_assert!(again.is_noop(), "second repair was not a no-op");
        prop_assert_eq!(once, alloc);
    }

    /// Weight changes (Section 5): decreasing any class's weight never
    /// lowers the predicted speedup.
    #[test]
    fn weight_decrease_never_hurts(w in workload_strategy(), n in 2usize..5) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let before = alloc.speedup(&cluster);
        if let Some(&c) = cls.read_ids().first() {
            let after = robust::speedup_after_weight_change(
                &alloc, &cls, &cluster, c, cls.weight(c) * 0.5,
            );
            prop_assert!(after >= before - 1e-6, "{after} < {before}");
        }
    }
}
