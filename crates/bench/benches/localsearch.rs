//! Criterion bench of the local-search fixpoint: the preserved
//! pre-optimization engine ([`qcpa_bench::baseline`], clone + full
//! `normalize` per candidate) against the current one, which probes
//! candidates through the [`qcpa_core::allocation::DeltaCost`] tracker.
//! The heap-allocation audit that used to ride along here runs as a
//! test: `tests/alloc_audit.rs`.
//!
//! Run with `cargo bench -p qcpa-bench --bench localsearch`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcpa_core::allocation::Allocation;
use qcpa_core::classify::{Classification, QueryClass};
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::{greedy, localsearch};

/// The allocators.rs synthetic workload: `k` classes over `k`
/// fragments, class `i` on `{i, (i+1) % k}`, every third an update.
fn synthetic(k: usize) -> (Catalog, Classification) {
    let mut catalog = Catalog::new();
    let frags: Vec<_> = (0..k)
        .map(|i| catalog.add_table(format!("T{i}"), 100 + (i as u64 * 37) % 400))
        .collect();
    let raw: Vec<f64> = (0..k).map(|i| 1.0 + (i % 5) as f64).collect();
    let total: f64 = raw.iter().sum();
    let classes = (0..k)
        .map(|i| {
            let fs = [frags[i], frags[(i + 1) % k]];
            if i % 3 == 2 {
                QueryClass::update(i as u32, fs, raw[i] / total)
            } else {
                QueryClass::read(i as u32, fs, raw[i] / total)
            }
        })
        .collect();
    (
        catalog,
        Classification::from_classes(classes).expect("valid"),
    )
}

fn seed_for(cls: &Classification, catalog: &Catalog, cluster: &ClusterSpec) -> Allocation {
    greedy::allocate(cls, catalog, cluster)
}

fn bench_improve(c: &mut Criterion) {
    let mut group = c.benchmark_group("localsearch/improve");
    for &(k, n) in &[(24usize, 8usize), (60, 16)] {
        let (catalog, cls) = synthetic(k);
        let cluster = ClusterSpec::homogeneous(n);
        let seed = seed_for(&cls, &catalog, &cluster);
        group.bench_with_input(
            BenchmarkId::new("baseline", format!("k{k}_n{n}")),
            &seed,
            |b, seed| {
                b.iter_with_setup(
                    || seed.clone(),
                    |mut a| {
                        qcpa_bench::baseline::improve(&mut a, &cls, &catalog, &cluster);
                        a
                    },
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("delta", format!("k{k}_n{n}")),
            &seed,
            |b, seed| {
                b.iter_with_setup(
                    || seed.clone(),
                    |mut a| {
                        localsearch::improve(&mut a, &cls, &catalog, &cluster);
                        a
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_improve);
criterion_main!(benches);
