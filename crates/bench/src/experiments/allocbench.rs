//! Allocator wall-clock benchmark: the preserved pre-optimization
//! engine ([`crate::baseline`]) versus the incremental delta-cost
//! engine, then the instance-size ladder.
//!
//! The workload is the paper's TPC-App mix (the Figure 4(f)–(i)
//! family) column-classified on a 16-backend cluster — the update-heavy
//! case where `normalize`'s update-closure work dominates and the
//! incremental tracker pays off. (TPC-H column classification is
//! read-only, so its memetic runs converge in milliseconds and measure
//! nothing.) Two engines optimize the same greedy seed with the same
//! `MemeticConfig`:
//!
//! 1. `baseline` — shared-RNG loop, full normalize+cost per candidate,
//!    clone-per-probe local search (the engine before the tracker);
//! 2. `delta` — the delta-cost incremental engine.
//!
//! A third, *profiled* run ([`memetic::optimize_profiled`]) decomposes
//! the delta engine's wall time into phases (`driver.*` tile the loop,
//! `task.*` break the offspring loop down) — the bench asserts the
//! driver phases attribute ≥ 95% of the optimize wall. That run doubles
//! its generations until its wall reaches 100 ms (25 ms quick). The
//! profile exports as folded stacks to `results/bench_allocator.folded`.
//!
//! After the engine comparison, the bench runs the **instance-size
//! ladder**: paper-scale (TPC-App, 16 backends, direct memetic), 10×
//! (512 clustered fragments × 64 backends, multilevel) and 100× (4096
//! fragments × 256 backends, multilevel, plus the 1-safe `100x_k1`
//! cell). Every cell must `validate`; the k-safe cell must also be
//! 1-safe. Quick mode runs only the paper-scale cell.
//!
//! Output: the usual `results/bench_allocator.csv` +
//! `results/bench_allocator.metrics.json` sidecar, plus an entry
//! appended to the `BENCH_allocator.json` history (schema v2, see
//! [`crate::history`]) at the repository root, stating the host's core
//! count and CPU model. Entries carry `config.series = "serial"`, so
//! they never compare with earlier entries, which timed other engines.
//! `QCPA_BENCH_QUICK=1` shrinks the run for smoke-testing
//! (scripts/check.sh uses it) and skips the history append so smoke
//! runs never dilute the trajectory.

use std::path::Path;
use std::time::Instant;

use qcpa_core::cluster::ClusterSpec;
use qcpa_core::coarsen::{self, CoarsenConfig};
use qcpa_core::greedy;
use qcpa_core::ksafety;
use qcpa_core::memetic::{self, MemeticConfig};
use qcpa_workloads::tpcapp::tpcapp;
use serde::Value;

use crate::baseline;
use crate::harness::{best_of, f2, quick, Csv};
use crate::{history, Strategy};

/// The host's CPU model from `/proc/cpuinfo` (`"unknown"` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs both engines and the ladder, and writes the CSV, sidecar, and
/// `BENCH_allocator.json`.
#[expect(
    clippy::disallowed_methods,
    reason = "the allocator bench measures host time by design"
)]
#[expect(
    clippy::panic,
    reason = "an invalid allocation is an allocator bug the bench must surface"
)]
pub fn run() -> std::io::Result<()> {
    let quick = quick();
    println!("== Allocator engine wall-clock speedup (TPC-App, 16 backends) ==");

    let w = tpcapp(100);
    let journal = w.journal(100);
    let cw = Strategy::ColumnBased.classify(&journal, &w.catalog, 0.2);
    let cluster = ClusterSpec::homogeneous(16);
    let seed_alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);

    let (iterations, population, repeats) = if quick { (6, 6, 1) } else { (30, 9, 3) };
    let base_cfg = MemeticConfig {
        population,
        iterations,
        mutations_per_offspring: 2,
        seed: 7,
        ..MemeticConfig::default()
    };
    let hw = qcpa_par::hardware_parallelism();
    let cpu = cpu_model();

    let mut csv = Csv::create("bench_allocator", &["engine", "secs", "scale", "bytes"])?;
    csv.meta("classes", cw.classification.len());
    csv.meta("backends", cluster.len());
    csv.meta("iterations", iterations);
    csv.meta("population", population);
    csv.meta("repeats", repeats);
    csv.meta("hardware_parallelism", hw);
    csv.meta("cpu", &cpu);

    let (t_base, a_base) = best_of(repeats, || {
        baseline::optimize(
            seed_alloc.clone(),
            &cw.classification,
            &w.catalog,
            &cluster,
            &base_cfg,
        )
    });
    let (t_delta, a_delta) = best_of(repeats, || {
        memetic::optimize(
            seed_alloc.clone(),
            &cw.classification,
            &w.catalog,
            &cluster,
            &base_cfg,
        )
    });

    println!(
        "{:>10} {:>10} {:>8} {:>12}",
        "engine", "secs", "scale", "speedup"
    );
    for (name, secs, alloc) in [("baseline", t_base, &a_base), ("delta", t_delta, &a_delta)] {
        println!(
            "{:>10} {:>10.3} {:>8.3} {:>11.2}x",
            name,
            secs,
            alloc.scale(&cluster),
            t_base / secs
        );
        csv.row(&[
            name.to_string(),
            format!("{secs:.4}"),
            f2(alloc.scale(&cluster)),
            alloc.total_bytes(&w.catalog).to_string(),
        ])?;
    }
    // Profiled run: where does the wall time go? The attribution floor
    // compares once-per-call costs outside the driver phases with the
    // optimize wall, so the profiled run doubles its generations until
    // that wall clears a floor, however fast the engine got.
    let wall_floor = if quick { 0.025 } else { 0.100 };
    let mut prof_cfg = base_cfg.clone();
    let (a_prof, profile, t_prof) = loop {
        let t0 = Instant::now();
        let (a, profile) = memetic::optimize_profiled(
            seed_alloc.clone(),
            &cw.classification,
            &w.catalog,
            &cluster,
            &prof_cfg,
        );
        let secs = t0.elapsed().as_secs_f64();
        if secs >= wall_floor {
            break (a, profile, secs);
        }
        prof_cfg.iterations *= 2;
    };
    let a_unprofiled = memetic::optimize(
        seed_alloc.clone(),
        &cw.classification,
        &w.catalog,
        &cluster,
        &prof_cfg,
    );
    assert_eq!(a_prof, a_unprofiled, "profiling must not change the result");
    csv.meta("profiled_iterations", prof_cfg.iterations);
    let attribution = profile.attributed_secs() / t_prof;
    assert!(
        attribution >= 0.95,
        "phase profiler attributed only {:.1}% of the optimize wall",
        attribution * 100.0
    );
    println!("\nphase profile of delta:");
    print!("{}", profile.render());
    println!(
        "attribution {:.1}% of {:.3}s wall",
        attribution * 100.0,
        t_prof
    );
    std::fs::create_dir_all("results")?;
    std::fs::write(
        "results/bench_allocator.folded",
        qcpa_obs::perfetto::profile_to_folded(&profile, "optimize"),
    )?;

    let reg = qcpa_obs::global();
    reg.gauge("bench.allocator.baseline_secs").set(t_base);
    reg.gauge("bench.allocator.delta_secs").set(t_delta);
    reg.gauge("bench.allocator.speedup_delta")
        .set(t_base / t_delta);
    reg.gauge("bench.allocator.profile_attribution")
        .set(attribution);

    // --- instance-size ladder ----------------------------------------
    // paper-scale (direct memetic) and, in full runs, 10× and 100×
    // clustered instances through the multilevel pipeline.
    let scale_cfg = MemeticConfig {
        population: 5,
        iterations: 6,
        mutations_per_offspring: 2,
        seed: 7,
        ..MemeticConfig::default()
    };
    let ccfg = CoarsenConfig::default();

    struct Instance {
        name: &'static str,
        catalog: qcpa_core::fragment::Catalog,
        cls: qcpa_core::classify::Classification,
        cluster: ClusterSpec,
        multilevel: bool,
        ksafe: bool,
    }
    let mut instances = vec![Instance {
        name: "paper",
        catalog: w.catalog.clone(),
        cls: cw.classification.clone(),
        cluster: ClusterSpec::homogeneous(16),
        multilevel: false,
        ksafe: false,
    }];
    if !quick {
        let s10 = qcpa_workloads::scale::clustered(512, 42);
        instances.push(Instance {
            name: "10x",
            catalog: s10.catalog,
            cls: s10.classification,
            cluster: ClusterSpec::homogeneous(64),
            multilevel: true,
            ksafe: false,
        });
        let s100 = qcpa_workloads::scale::clustered(4096, 42);
        instances.push(Instance {
            name: "100x",
            catalog: s100.catalog,
            cls: s100.classification,
            cluster: ClusterSpec::homogeneous(256),
            multilevel: true,
            ksafe: true,
        });
    }

    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };

    println!("\n== instance-size ladder ==");
    println!(
        "{:>10} {:>10} {:>9} {:>10} {:>7} {:>8}",
        "instance", "fragments", "backends", "secs", "levels", "scale"
    );
    let mut matrix_rows: Vec<Value> = Vec::new();
    for inst in &instances {
        // The plain cell, then (100× only) the 1-safe cell.
        let cells: &[(bool, &str)] = if inst.ksafe {
            &[(false, ""), (true, "_k1")]
        } else {
            &[(false, "")]
        };
        for &(ksafe, suffix) in cells {
            let mcfg = if inst.multilevel {
                &scale_cfg
            } else {
                &base_cfg
            };
            let t0 = Instant::now();
            let (alloc, levels, coarsest) = match (inst.multilevel, ksafe) {
                (true, false) => {
                    let out = coarsen::allocate_multilevel(
                        &inst.cls,
                        &inst.catalog,
                        &inst.cluster,
                        mcfg,
                        &ccfg,
                    );
                    (out.alloc, out.levels, out.coarsest_fragments)
                }
                (true, true) => {
                    let out = coarsen::allocate_multilevel_ksafe(
                        &inst.cls,
                        &inst.catalog,
                        &inst.cluster,
                        mcfg,
                        &ccfg,
                        1,
                    );
                    (out.alloc, out.levels, out.coarsest_fragments)
                }
                (false, _) => {
                    let seed = greedy::allocate(&inst.cls, &inst.catalog, &inst.cluster);
                    let a = memetic::optimize(seed, &inst.cls, &inst.catalog, &inst.cluster, mcfg);
                    (a, 0, inst.catalog.len())
                }
            };
            let secs = t0.elapsed().as_secs_f64();
            let name = format!("{}{suffix}", inst.name);
            if let Err(e) = alloc.validate(&inst.cls, &inst.cluster) {
                panic!("ladder cell {name} produced an invalid allocation: {e:?}");
            }
            assert!(
                !ksafe || ksafety::is_k_safe(&alloc, &inst.cls, 1),
                "ladder cell {name} lost 1-safety"
            );
            println!(
                "{:>10} {:>10} {:>9} {:>10.3} {:>7} {:>8.3}",
                name,
                inst.catalog.len(),
                inst.cluster.len(),
                secs,
                levels,
                alloc.scale(&inst.cluster)
            );
            csv.row(&[
                format!("matrix_{name}"),
                format!("{secs:.4}"),
                f2(alloc.scale(&inst.cluster)),
                alloc.total_bytes(&inst.catalog).to_string(),
            ])?;
            matrix_rows.push(obj(vec![
                ("instance", Value::Str(name)),
                ("fragments", Value::U64(inst.catalog.len() as u64)),
                ("backends", Value::U64(inst.cluster.len() as u64)),
                ("secs", Value::F64(secs)),
                ("levels", Value::U64(levels as u64)),
                ("coarsest_fragments", Value::U64(coarsest as u64)),
                ("scale", Value::F64(alloc.scale(&inst.cluster))),
            ]));
        }
    }

    // Repo-root summary: the headline numbers without digging through
    // the sidecar.
    let summary = obj(vec![
        (
            "workload",
            Value::Str("tpcapp column-based, 16 backends (fig4f-i family)".into()),
        ),
        (
            "config",
            obj(vec![
                ("population", Value::U64(population as u64)),
                ("iterations", Value::U64(iterations as u64)),
                ("seed", Value::U64(base_cfg.seed)),
                ("repeats", Value::U64(repeats as u64)),
                ("quick", Value::Bool(quick)),
                ("series", Value::Str("serial".into())),
            ]),
        ),
        (
            "host",
            obj(vec![
                ("hardware_parallelism", Value::U64(hw as u64)),
                ("cpu", Value::Str(cpu)),
            ]),
        ),
        (
            "timings_secs",
            obj(vec![
                ("baseline", Value::F64(t_base)),
                ("delta", Value::F64(t_delta)),
            ]),
        ),
        (
            "speedups",
            obj(vec![("delta_vs_baseline", Value::F64(t_base / t_delta))]),
        ),
        (
            "result_quality",
            obj(vec![
                ("baseline_scale", Value::F64(a_base.scale(&cluster))),
                ("delta_scale", Value::F64(a_delta.scale(&cluster))),
            ]),
        ),
        (
            "profile",
            obj(vec![
                ("iterations", Value::U64(prof_cfg.iterations as u64)),
                ("wall_secs", Value::F64(t_prof)),
                ("attribution_fraction", Value::F64(attribution)),
                ("task_secs", Value::F64(profile.secs_with_prefix("task."))),
            ]),
        ),
        ("matrix", Value::Array(matrix_rows)),
    ]);
    if quick {
        // Smoke runs (scripts/check.sh) must not dilute the full-size
        // trajectory.
        println!(
            "delta-cost speedup {:.2}x (quick mode; BENCH_allocator.json untouched)",
            t_base / t_delta
        );
    } else {
        let entries = history::append_entry(
            Path::new("BENCH_allocator.json"),
            "bench_allocator",
            summary,
        )?;
        println!(
            "delta-cost speedup {:.2}x -> BENCH_allocator.json (history entry {entries})",
            t_base / t_delta
        );
    }
    println!("-> {}\n", csv.path().display());
    Ok(())
}
