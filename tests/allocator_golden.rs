//! Golden fingerprints of the allocator stack, recorded at the commit
//! *before* `DeltaCost` moved from `BTreeSet` re-derivation to fragment
//! bitsets: the memetic optimizer, its k-safe variant, the local search
//! alone and the multilevel pipeline must keep producing the same
//! allocation bit for bit — same probe order, RNG draws, `EPS`
//! comparisons and tie-breaks — at any `QCPA_THREADS` (the configs
//! below leave `threads: None`, so the environment decides;
//! `scripts/check.sh` runs this file at 1 and 4).
//!
//! A fingerprint is FNV-1a over every `assign` cell's bits, every
//! backend's fragment ids in order, and the `(scale, bytes)` cost.
//!
//! The small instances run in the debug tier, where every transfer is
//! also cross-checked against `Allocation::normalize`. The benchmark's
//! own `scale_alloc` instance (64 backends × 160 classes) sits inside
//! that cross-check's size guard — ≈ 76 k full normalizes in a debug
//! build — so it is release-only.

use qcpa::core::allocation::{AllocCost, Allocation, DeltaCost};
use qcpa::core::classify::{Classification, Granularity};
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::coarsen::{allocate_multilevel, CoarsenConfig};
use qcpa::core::fragment::Catalog;
use qcpa::core::memetic::{self, MemeticConfig};
use qcpa::core::{greedy, localsearch, BackendId, EPS};
use qcpa::workloads::scale::clustered;
use qcpa::workloads::tpcapp::tpcapp;
use qcpa::workloads::tpch::tpch;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_cost(&mut self, cost: AllocCost) {
        self.eat(cost.scale.to_bits());
        self.eat(cost.bytes);
    }
}

fn fingerprint(alloc: &Allocation, cluster: &ClusterSpec, catalog: &Catalog) -> u64 {
    let mut h = Fnv::new();
    for row in &alloc.assign {
        for v in row {
            h.eat(v.to_bits());
        }
    }
    for set in &alloc.fragments {
        h.eat(set.len() as u64);
        for f in set {
            h.eat(u64::from(f.0));
        }
    }
    h.eat_cost(alloc.cost(cluster, catalog));
    h.0
}

/// Compares every `(name, expected, actual)` at once, so a re-record
/// after an intended change is one run.
fn assert_golden(cases: &[(&str, u64, u64)]) {
    let report: Vec<String> = cases
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name}: recorded {want:#018x}, now {got:#018x}"))
        .collect();
    assert!(
        report.is_empty(),
        "allocator output moved:\n{}",
        report.join("\n")
    );
}

fn tpcapp_columns() -> (Catalog, Classification) {
    let w = tpcapp(300);
    let cls = Classification::from_journal(&w.journal(100_000), &w.catalog, Granularity::Fragment)
        .expect("TPC-App journal classifies");
    (w.catalog, cls)
}

fn tpch_columns() -> (Catalog, Classification) {
    let w = tpch(1.0);
    let cls = Classification::from_journal(&w.journal(100), &w.catalog, Granularity::Fragment)
        .expect("TPC-H journal classifies");
    (w.catalog, cls)
}

/// Small enough that the debug build's per-transfer cross-check keeps
/// the file inside the tier-1 budget.
fn small_config() -> MemeticConfig {
    MemeticConfig {
        population: 9,
        iterations: 30,
        mutations_per_offspring: 2,
        ..Default::default()
    }
}

/// Fingerprints of `memetic::optimize` from greedy and of
/// `localsearch::improve` alone on the same greedy seed.
fn memetic_and_local(catalog: &Catalog, cls: &Classification, backends: usize) -> (u64, u64) {
    let cluster = ClusterSpec::homogeneous(backends);
    let seed = greedy::allocate(cls, catalog, &cluster);
    let refined = memetic::optimize(seed.clone(), cls, catalog, &cluster, &small_config());
    refined.validate(cls, &cluster).expect("memetic is valid");
    let mut local = seed;
    localsearch::improve(&mut local, cls, catalog, &cluster);
    local
        .validate(cls, &cluster)
        .expect("local search is valid");
    (
        fingerprint(&refined, &cluster, catalog),
        fingerprint(&local, &cluster, catalog),
    )
}

/// A seeded walk of 400 transfers straight through the tracker from the
/// greedy allocation — whole or half shares to random backends, a third
/// of them undone — eating the tracked cost after every step, then the
/// final allocation. Pins `transfer` / `undo` themselves where the
/// optimizers above accept no move (TPC-H is read-only: greedy is
/// already their fixed point).
fn transfer_walk(catalog: &Catalog, cls: &Classification, backends: usize) -> u64 {
    let cluster = ClusterSpec::homogeneous(backends);
    let mut alloc = greedy::allocate(cls, catalog, &cluster);
    alloc.normalize(cls, &cluster);
    let mut tracker = DeltaCost::new(&alloc, cls, catalog);
    let mut rng = ChaCha8Rng::seed_from_u64(2017);
    let mut h = Fnv::new();
    for _ in 0..400 {
        let r = cls.read_ids()[rng.gen_range(0..cls.read_ids().len())];
        let holders: Vec<usize> = (0..backends)
            .filter(|&b| alloc.assign[r.idx()][b] > EPS)
            .collect();
        let from = holders[rng.gen_range(0..holders.len())];
        let to = rng.gen_range(0..backends);
        let share = alloc.assign[r.idx()][from];
        let amount = if rng.gen_range(0..2) == 0 {
            share
        } else {
            share / 2.0
        };
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
        h.eat_cost(tracker.cost(&cluster));
        if rng.gen_range(0..3) == 0 {
            tracker.undo(&mut alloc, cls, token);
            h.eat_cost(tracker.cost(&cluster));
        }
    }
    h.eat(fingerprint(&alloc, &cluster, catalog));
    h.0
}

#[test]
fn memetic_and_localsearch_on_tpc_column_classes() {
    let (catalog, cls) = tpcapp_columns();
    let (app_memetic, app_local) = memetic_and_local(&catalog, &cls, 10);
    let (catalog, cls) = tpch_columns();
    let (h_memetic, h_local) = memetic_and_local(&catalog, &cls, 6);
    assert_golden(&[
        ("tpcapp x10 memetic", 0xa727_2f6e_7308_f7dc, app_memetic),
        ("tpcapp x10 localsearch", 0xee39_f843_1704_36b8, app_local),
        ("tpch x6 memetic", 0xb0fd_7cca_334b_0559, h_memetic),
        ("tpch x6 localsearch", 0xb0fd_7cca_334b_0559, h_local),
    ]);
}

#[test]
fn transfer_walks_on_tpc_column_classes() {
    let (catalog, cls) = tpcapp_columns();
    let app = transfer_walk(&catalog, &cls, 10);
    let (catalog, cls) = tpch_columns();
    let h = transfer_walk(&catalog, &cls, 6);
    assert_golden(&[
        ("tpcapp x10 transfer walk", 0x69ce_c9cd_105d_311a, app),
        ("tpch x6 transfer walk", 0x8864_ce78_9900_2430, h),
    ]);
}

#[test]
fn ksafe_memetic_on_tpcapp_column_classes() {
    let (catalog, cls) = tpcapp_columns();
    let cluster = ClusterSpec::homogeneous(8);
    let seed = greedy::allocate_ksafe(&cls, &catalog, &cluster, 1);
    let out = memetic::optimize_ksafe(seed, &cls, &catalog, &cluster, &small_config(), 1);
    out.validate(&cls, &cluster)
        .expect("k-safe memetic is valid");
    assert_golden(&[(
        "tpcapp x8 memetic k=1",
        0xee91_3457_7a69_8c36,
        fingerprint(&out, &cluster, &catalog),
    )]);
}

#[test]
fn multilevel_on_clustered_64() {
    let w = clustered(64, 2017);
    let cluster = ClusterSpec::homogeneous(8);
    let ccfg = CoarsenConfig {
        target_fragments: 24,
        ..Default::default()
    };
    let out = allocate_multilevel(
        &w.classification,
        &w.catalog,
        &cluster,
        &small_config(),
        &ccfg,
    );
    assert!(out.levels > 0, "the instance must actually coarsen");
    assert_golden(&[(
        "clustered(64) x8 multilevel",
        0xfe23_faf5_d6ef_63fa,
        fingerprint(&out.alloc, &cluster, &w.catalog),
    )]);
}

/// The benchmark's `scale_alloc` instance under the benchmark's
/// optimizer configuration, at its canonical seed and one other.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "76 k cross-checked transfers: release only"
)]
fn multilevel_on_the_benchmark_instance() {
    let w = clustered(512, 2017);
    let cluster = ClusterSpec::homogeneous(64);
    let mut cases = Vec::new();
    for (name, seed, want) in [
        (
            "clustered(512) x64 seed 0xC0FFEE",
            0xC0FFEEu64,
            0xf82c_f498_b0d0_c96du64,
        ),
        (
            "clustered(512) x64 seed 0xBEEF",
            0xBEEF,
            0xe92a_a029_8ef4_2b6d,
        ),
    ] {
        let mcfg = MemeticConfig {
            population: 9,
            iterations: 30,
            mutations_per_offspring: 2,
            seed,
            threads: None,
        };
        let out = allocate_multilevel(
            &w.classification,
            &w.catalog,
            &cluster,
            &mcfg,
            &CoarsenConfig::default(),
        );
        out.alloc
            .validate(&w.classification, &cluster)
            .expect("multilevel is valid");
        cases.push((name, want, fingerprint(&out.alloc, &cluster, &w.catalog)));
    }
    assert_golden(&cases);
}
