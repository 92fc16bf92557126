//! Partition-aware routing lockdown (DESIGN.md §15.1).
//!
//! A network partition makes the cut backends *unreachable*, not dead:
//! the router must send every read to a replica inside the requester's
//! partition side, and healing the partition must restore the
//! pre-partition routing table bit for bit. Three oracles pin this:
//!
//! 1. **Routed iff reachable** — under `Scheduler::for_partition`, a
//!    read class's capable targets are exactly its pre-partition
//!    capable targets intersected with the reachable set (so a read is
//!    routed iff a replica is on the requester's side), and every
//!    emitted target is reachable;
//! 2. **Heal roundtrip** — `for_partition` with every backend
//!    reachable reproduces `Scheduler::new`'s table exactly, per class
//!    and per target;
//! 3. **Engine level** — a partition healed before the first arrival
//!    leaves the fault engine's responses bit-identical to the
//!    empty-plan run, and a whole-run partition keeps the cut backends
//!    idle while losing nothing.

use proptest::prelude::*;
use qcpa::core::classify::Classification;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::greedy;
use qcpa::core::journal::QueryKind;
use qcpa::sim::fault::{run_open_faults, FaultConfig, FaultEvent, FaultPlan};
use qcpa::sim::{Request, RequestStream, Scheduler, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{materialize, workload_strategy};

fn requests(cls: &Classification, n: usize, seed: u64) -> Vec<Request> {
    let freq: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let stream = RequestStream::new(freq, kinds, vec![0.02; cls.len()]);
    let rate = 0.8 * n as f64 / 0.02;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    stream.sample_poisson(rate, 1.5, 0.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oracles 1 and 2: reads route iff a replica is reachable, and a
    /// heal restores the routing table exactly.
    #[test]
    fn reads_route_iff_replica_reachable_and_heal_restores(
        w in workload_strategy(),
        n in 2usize..7,
        mask in 1u32..127,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let full = Scheduler::new(&alloc, &cls);

        // Heal roundtrip: every backend reachable ≡ the pristine table.
        let all: Vec<usize> = (0..n).collect();
        let healed = Scheduler::for_partition(&alloc, &cls, &cluster, &all)
            .expect("all-reachable partition routes everything");
        for c in &cls.classes {
            prop_assert_eq!(
                healed.read_targets(c.id), full.read_targets(c.id),
                "healed read targets diverge"
            );
            prop_assert_eq!(
                healed.capable_read_targets(c.id), full.capable_read_targets(c.id),
                "healed capable targets diverge"
            );
            prop_assert_eq!(
                healed.route_update(c.id), full.route_update(c.id),
                "healed update targets diverge"
            );
        }

        // A random non-empty reachable subset from the mask bits.
        let reachable: Vec<usize> = (0..n).filter(|b| mask & (1 << b) != 0).collect();
        if reachable.is_empty() {
            return Ok(());
        }
        let Some(part) = Scheduler::for_partition(&alloc, &cls, &cluster, &reachable) else {
            // Unroutable partition: some weighted class has no replica
            // on this side — verify that is actually the case.
            let orphaned = cls.classes.iter().any(|c| {
                c.weight > 0.0
                    && !full
                        .capable_read_targets(c.id)
                        .iter()
                        .chain(full.route_update(c.id))
                        .any(|b| reachable.contains(b))
            });
            prop_assert!(orphaned, "router refused a servable partition side");
            return Ok(());
        };
        for c in &cls.classes {
            // Every emitted target is on the reachable side.
            for &b in part.read_targets(c.id) {
                prop_assert!(reachable.contains(&b), "read routed across the cut");
            }
            for &b in part.route_update(c.id) {
                prop_assert!(reachable.contains(&b), "update routed across the cut");
            }
            // Routed iff a replica is reachable: the partitioned capable
            // set is exactly the pre-partition one ∩ reachable.
            let expect: Vec<usize> = full
                .capable_read_targets(c.id)
                .iter()
                .copied()
                .filter(|b| reachable.contains(b))
                .collect();
            prop_assert_eq!(
                part.capable_read_targets(c.id),
                expect.as_slice(),
                "capable set is not the reachable intersection"
            );
        }
    }

    /// Oracle 3: healing before the first arrival is invisible, and a
    /// whole-run partition keeps cut backends idle without losing
    /// requests.
    #[test]
    fn engine_partition_semantics(
        w in workload_strategy(),
        n in 2usize..6,
        seed in 0u64..500,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let reqs = requests(&cls, n, seed);
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = SimConfig::default();
        let fcfg = FaultConfig::default();
        // Shift arrivals after the heal so the episode happens on an
        // idle cluster.
        let shifted: Vec<Request> = reqs
            .iter()
            .map(|r| Request { arrival: r.arrival + 1.0, ..*r })
            .collect();

        let empty = FaultPlan::new(Vec::new(), n).expect("empty plan is valid");
        let baseline = run_open_faults(
            &alloc, &cls, &cluster, &catalog, &shifted, 0.0, &cfg, &empty, &fcfg,
        );

        let side = vec![n - 1];
        // A side that orphans a weighted class triggers an online
        // repair, which rightfully mutates the allocation — the heal
        // oracle only applies to servable sides.
        let reachable: Vec<usize> = (0..n - 1).collect();
        if Scheduler::for_partition(&alloc, &cls, &cluster, &reachable).is_none() {
            return Ok(());
        }
        let healed_early = FaultPlan::with_partitions(
            vec![
                FaultEvent::Partition { id: 0, at: 0.25 },
                FaultEvent::Heal { id: 0, at: 0.5 },
            ],
            n,
            vec![side.clone()],
        )
        .expect("partition plan is valid");
        let rep = run_open_faults(
            &alloc, &cls, &cluster, &catalog, &shifted, 0.0, &cfg, &healed_early, &fcfg,
        );
        prop_assert_eq!(rep.responses.len(), baseline.responses.len());
        for (x, y) in rep.responses.iter().zip(&baseline.responses) {
            prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "pre-arrival heal perturbed the run");
        }

        // Whole-run partition of the last backend: it must stay idle,
        // and nothing may be lost as long as the side is servable.
        let forever = FaultPlan::with_partitions(
            vec![FaultEvent::Partition { id: 0, at: 1e-9 }],
            n,
            vec![side],
        )
        .expect("partition plan is valid");
        let rep = run_open_faults(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, &forever, &fcfg,
        );
        prop_assert_eq!(rep.lost, 0, "partition with servable side lost requests");
        prop_assert_eq!(
            rep.busy[n - 1].to_bits(),
            0f64.to_bits(),
            "cut backend performed work"
        );
    }
}
