//! Release-mode differential of `DeltaCost` against `Allocation::normalize`
//! on instances above the debug cross-check's size guard (more than 64
//! backends, or more than 256 classes), where debug builds check
//! nothing per transfer.
//!
//! A seeded walk of transfers — whole or half read shares to random
//! backends, a third of them undone — from the greedy allocation of a
//! clustered instance. After every step the allocation must be the
//! fixpoint of a cloned `normalize` (fragments and every `assign` cell,
//! bit for bit), the tracked cost must equal both allocations' full
//! cost, and an undo must restore the pre-transfer allocation exactly.

use qcpa::core::allocation::{Allocation, DeltaCost};
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::{greedy, BackendId, EPS};
use qcpa::workloads::scale::clustered;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bits(alloc: &Allocation) -> Vec<Vec<u64>> {
    alloc
        .assign
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn walk(fragments: usize, backends: usize, steps: usize) {
    let w = clustered(fragments, 2017);
    let (cls, catalog) = (&w.classification, &w.catalog);
    let cluster = ClusterSpec::homogeneous(backends);
    assert!(
        backends > 64 || cls.len() > 256,
        "the instance must be outside the debug guard"
    );
    let mut alloc = greedy::allocate(cls, catalog, &cluster);
    alloc.normalize(cls, &cluster);
    let mut tracker = DeltaCost::new(&alloc, cls, catalog);
    let mut rng = ChaCha8Rng::seed_from_u64(fragments as u64 ^ backends as u64);
    for step in 0..steps {
        let r = cls.read_ids()[rng.gen_range(0..cls.read_ids().len())];
        let holders: Vec<usize> = (0..backends)
            .filter(|&b| alloc.assign[r.idx()][b] > EPS)
            .collect();
        let Some(&from) = holders.get(rng.gen_range(0..holders.len().max(1))) else {
            continue;
        };
        let to = rng.gen_range(0..backends);
        let share = alloc.assign[r.idx()][from];
        let amount = if rng.gen_bool(0.5) {
            share
        } else {
            share / 2.0
        };
        let before = alloc.clone();
        let token = tracker.transfer(
            &mut alloc,
            cls,
            &cluster,
            catalog,
            r,
            BackendId(from as u32),
            BackendId(to as u32),
            amount,
        );
        let mut reference = alloc.clone();
        reference.normalize(cls, &cluster);
        assert_eq!(
            reference.fragments, alloc.fragments,
            "step {step}: fragments"
        );
        assert_eq!(bits(&reference), bits(&alloc), "step {step}: assign");
        let cost = alloc.cost(&cluster, catalog);
        assert_eq!(tracker.cost(&cluster), cost, "step {step}: tracked cost");
        assert_eq!(reference.cost(&cluster, catalog), cost, "step {step}: cost");
        if rng.gen_range(0..3) == 0 {
            tracker.undo(&mut alloc, cls, token);
            assert_eq!(alloc, before, "step {step}: undo");
            assert_eq!(bits(&alloc), bits(&before), "step {step}: undo bits");
            assert_eq!(
                tracker.cost(&cluster),
                before.cost(&cluster, catalog),
                "step {step}: undone cost"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "thousands of full normalizes at multilevel scale: release only"
)]
fn transfers_above_the_backend_guard_match_normalize() {
    walk(256, 96, 3000);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "thousands of full normalizes at multilevel scale: release only"
)]
fn transfers_above_the_class_guard_match_normalize() {
    walk(1024, 12, 3000);
}
