//! TPC-H experiments: Figures 4(a)–4(e).

use qcpa_core::allocation::Allocation;
use qcpa_core::cluster::ClusterSpec;
use qcpa_lp::model::{optimal_allocation, OptimalConfig};
use qcpa_lp::MipStatus;
use qcpa_matching::physical::{transfer_plan, EtlCostModel};
use qcpa_sim::engine::{run_batch, BatchReport, SimConfig};
use qcpa_sim::service::LocalityModel;
use qcpa_storage::engine::BackendStore;
use qcpa_storage::fragmentation::extract_vertical;
use qcpa_workloads::tpch::{tpch, TpchWorkload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::harness::{f2, f4, jitter_journal, Csv, SeedStats, Strategy};

/// Journal cost unit → seconds (≈ 1.1 queries/second on one backend at
/// SF 1, in the paper's measured range).
const UNIT: f64 = 0.2;
/// Queries per run, as in Section 4.1.
const REQUESTS: usize = 10_000;
/// Largest backend count of Figure 4(c) that still runs the exact
/// branch-and-bound optimum alongside the heuristics.
const FIG4C_OPT_MAX: usize = 5;
/// Figure 4(c)'s branch-and-bound time budget per point, in seconds.
const FIG4C_OPT_SECS: u64 = 30;

/// TPC-H runs model the Section 4.1 caching effect.
fn sim_cfg() -> SimConfig {
    SimConfig {
        locality: Some(LocalityModel { floor: 0.7 }),
        ..Default::default()
    }
}

/// One measured point: allocate with `strategy` on `n` backends and
/// push the batch through the simulator.
fn measure(w: &TpchWorkload, strategy: Strategy, n: usize, seed: u64) -> (BatchReport, Allocation) {
    let journal = w.journal(100);
    let journal = jitter_journal(&journal, 0.05, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xA5));
    let cw = strategy.classify(&journal, &w.catalog, UNIT);
    let cluster = ClusterSpec::homogeneous(n);
    let alloc = strategy.allocate(&cw, &w.catalog, &cluster, seed);
    alloc
        .validate(&cw.classification, &cluster)
        .expect("strategies produce valid allocations");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reqs = cw.stream.sample_batch(REQUESTS, 0.05, &mut rng);
    let report = run_batch(
        &alloc,
        &cw.classification,
        &cluster,
        &w.catalog,
        &reqs,
        &sim_cfg(),
    );
    (report, alloc)
}

/// Figure 4(a): TPC-H throughput (and speedup) for full replication,
/// table-based, column-based and random allocation on 1–10 backends.
pub fn fig4a() -> std::io::Result<()> {
    println!("== Figure 4(a): TPC-H throughput (queries/sec) and speedup, SF 1 ==");
    let w = tpch(1.0);
    let strategies = [
        Strategy::FullReplication,
        Strategy::TableBased,
        Strategy::ColumnBased,
        Strategy::RandomColumn,
    ];
    let seeds: Vec<u64> = (0..5).collect();
    let mut csv = Csv::create(
        "fig4a_tpch_throughput",
        &["backends", "strategy", "throughput_qps", "speedup"],
    )?;
    csv.meta("seeds", "0..5");
    csv.meta("workload", "tpch sf1");
    csv.meta("strategies", strategies.map(|s| s.label()).join(" | "));

    // Baseline: single backend, full replication.
    let base: f64 = seeds
        .iter()
        .map(|&s| measure(&w, Strategy::FullReplication, 1, s).0.throughput)
        .sum::<f64>()
        / seeds.len() as f64;

    println!(
        "{:>8} {:>18} {:>18} {:>18} {:>18}",
        "backends", "Full Repl", "Table Based", "Column Based", "Random"
    );
    for n in 1..=10usize {
        let mut row = format!("{n:>8}");
        for s in strategies {
            let tp: f64 = seeds
                .iter()
                .map(|&seed| measure(&w, s, n, seed).0.throughput)
                .sum::<f64>()
                / seeds.len() as f64;
            let speedup = tp / base;
            row += &format!(" {:>8.2} ({:>5.2}x)", tp, speedup);
            csv.row(&[n.to_string(), s.label().into(), f2(tp), f2(speedup)])?;
        }
        println!("{row}");
    }
    println!("-> {}\n", csv.path().display());
    Ok(())
}

/// Figure 4(b): min/avg/max column-based throughput over 10 runs.
pub fn fig4b() -> std::io::Result<()> {
    println!("== Figure 4(b): TPC-H column-based throughput deviation (10 runs) ==");
    let w = tpch(1.0);
    let mut csv = Csv::create(
        "fig4b_tpch_deviation",
        &["backends", "min_qps", "avg_qps", "max_qps", "rel_deviation"],
    )?;
    csv.meta("seeds", "0..10");
    csv.meta("strategy", Strategy::ColumnBased.label());
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12}",
        "backends", "min", "avg", "max", "deviation"
    );
    for n in 1..=10usize {
        let samples: Vec<f64> = (0..10)
            .map(|seed| measure(&w, Strategy::ColumnBased, n, seed).0.throughput)
            .collect();
        let s = SeedStats::of(&samples);
        let dev = (s.max - s.min) / s.avg;
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>11.1}%",
            n,
            s.min,
            s.avg,
            s.max,
            dev * 100.0
        );
        csv.row(&[n.to_string(), f2(s.min), f2(s.avg), f2(s.max), f4(dev)])?;
    }
    println!("(the paper reports deviations never above 6 %)");
    println!("-> {}\n", csv.path().display());
    Ok(())
}

/// Figure 4(c): degree of replication (Eq. 28) for full replication,
/// table-based, column-based, and the LP-optimal column-based
/// allocation (computed up to `FIG4C_OPT_MAX` backends, with
/// `FIG4C_OPT_SECS` seconds of branch & bound per point).
pub fn fig4c() -> std::io::Result<()> {
    println!("== Figure 4(c): TPC-H degree of replication ==");
    let w = tpch(1.0);
    let journal = w.journal(100);
    let mut csv = Csv::create(
        "fig4c_tpch_replication",
        &[
            "backends",
            "full",
            "table",
            "column",
            "optimal_column",
            "optimal_status",
        ],
    )?;
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>16} {:>16}",
        "backends", "full", "table", "column", "optimal column", "status"
    );
    for n in 1..=10usize {
        let cluster = ClusterSpec::homogeneous(n);
        let table_cw = Strategy::TableBased.classify(&journal, &w.catalog, UNIT);
        let col_cw = Strategy::ColumnBased.classify(&journal, &w.catalog, UNIT);
        let table_alloc = Strategy::TableBased.allocate(&table_cw, &w.catalog, &cluster, 1);
        let col_alloc = Strategy::ColumnBased.allocate(&col_cw, &w.catalog, &cluster, 1);
        let r_table = table_alloc.degree_of_replication(&table_cw.classification, &w.catalog);
        let r_col = col_alloc.degree_of_replication(&col_cw.classification, &w.catalog);

        let (r_opt, status) = if n <= FIG4C_OPT_MAX {
            let incumbent = (col_alloc.scale(&cluster), col_alloc.total_bytes(&w.catalog));
            let out = optimal_allocation(
                &col_cw.classification,
                &w.catalog,
                &cluster,
                &OptimalConfig {
                    max_nodes: 200_000,
                    time_limit: std::time::Duration::from_secs(FIG4C_OPT_SECS),
                    incumbent: Some(incumbent),
                },
            );
            let best = out
                .allocation
                .as_ref()
                .map(|a| a.degree_of_replication(&col_cw.classification, &w.catalog))
                .unwrap_or(r_col); // incumbent pruned everything: heuristic was optimal-or-tied
            let status = match out.storage_status {
                MipStatus::Optimal => "proven",
                MipStatus::BudgetExhausted => "best-found",
                MipStatus::Infeasible => "infeasible",
            };
            (Some(best.min(r_col)), status)
        } else {
            (None, "skipped")
        };

        println!(
            "{:>8} {:>8.2} {:>8.2} {:>8.2} {:>16} {:>16}",
            n,
            n as f64,
            r_table,
            r_col,
            r_opt
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            status
        );
        csv.row(&[
            n.to_string(),
            f2(n as f64),
            f2(r_table),
            f2(r_col),
            r_opt.map(f2).unwrap_or_default(),
            status.into(),
        ])?;
    }
    println!("-> {}\n", csv.path().display());
    Ok(())
}

/// Figure 4(d): duration of the allocation procedure (fragment
/// preparation + transfer + bulk load) for full replication vs
/// column-based allocation, plus an end-to-end physical run of the
/// extraction/load pipeline on generated data.
pub fn fig4d() -> std::io::Result<()> {
    println!("== Figure 4(d): TPC-H duration of the allocation (minutes) ==");
    let w = tpch(1.0);
    let journal = w.journal(100);
    let model = EtlCostModel::default();
    let mut csv = Csv::create(
        "fig4d_tpch_alloc_time",
        &[
            "backends",
            "full_minutes",
            "column_minutes",
            "full_bytes",
            "column_bytes",
        ],
    )?;
    println!(
        "{:>8} {:>14} {:>14}",
        "backends", "full (min)", "column (min)"
    );
    for n in 1..=7usize {
        let cluster = ClusterSpec::homogeneous(n);
        let col_cw = Strategy::ColumnBased.classify(&journal, &w.catalog, UNIT);
        let col_alloc = Strategy::ColumnBased.allocate(&col_cw, &w.catalog, &cluster, 1);
        let full_alloc = Allocation::full_replication(&col_cw.classification, &cluster);
        let empty = Allocation::empty(col_cw.classification.len(), n);
        let plan_full = transfer_plan(&empty, &full_alloc, &w.catalog, &model);
        let plan_col = transfer_plan(&empty, &col_alloc, &w.catalog, &model);
        println!(
            "{:>8} {:>14.2} {:>14.2}",
            n,
            plan_full.duration_secs / 60.0,
            plan_col.duration_secs / 60.0
        );
        csv.row(&[
            n.to_string(),
            f2(plan_full.duration_secs / 60.0),
            f2(plan_col.duration_secs / 60.0),
            plan_full.moved_bytes.to_string(),
            plan_col.moved_bytes.to_string(),
        ])?;
    }

    // End-to-end physical check on capped data: extract the vertical
    // fragments a 3-backend column allocation needs and bulk load them.
    let tables = w.generate_tables(5_000);
    let mut store = BackendStore::new();
    let mut loaded = 0u64;
    for t in &tables {
        let cols: Vec<&str> = t
            .def
            .columns
            .iter()
            .skip(1)
            .map(|c| c.name.as_str())
            .collect();
        for chunk in cols.chunks(3) {
            loaded += store.bulk_load(extract_vertical(t, chunk));
        }
    }
    println!(
        "(physical pipeline check: {} vertical fragments, {:.1} MB bulk-loaded)",
        store.fragment_names().count(),
        loaded as f64 / 1e6
    );
    println!("-> {}\n", csv.path().display());
    Ok(())
}

/// Figure 4(e): scaling behaviour at SF 1 and SF 10 — relative
/// throughput of 1/5/10 backends versus a single node with the same
/// data set.
pub fn fig4e() -> std::io::Result<()> {
    println!("== Figure 4(e): TPC-H scaling, relative throughput (baseline = 1 node, same SF) ==");
    let mut csv = Csv::create(
        "fig4e_tpch_scaling",
        &[
            "scale_factor",
            "backends",
            "strategy",
            "relative_throughput",
        ],
    )?;
    let strategies = [
        Strategy::FullReplication,
        Strategy::TableBased,
        Strategy::ColumnBased,
    ];
    for sf in [1.0, 10.0] {
        let w = tpch(sf);
        let seeds = [0u64, 1];
        let base: f64 = seeds
            .iter()
            .map(|&s| measure(&w, Strategy::FullReplication, 1, s).0.throughput)
            .sum::<f64>()
            / seeds.len() as f64;
        for s in strategies {
            print!("SF{sf:<3} {:<26}", s.label());
            for n in [1usize, 5, 10] {
                let tp: f64 = seeds
                    .iter()
                    .map(|&seed| measure(&w, s, n, seed).0.throughput)
                    .sum::<f64>()
                    / seeds.len() as f64;
                let rel = tp / base;
                print!(" n={n}: {rel:>5.2}");
                csv.row(&[format!("{sf}"), n.to_string(), s.label().into(), f2(rel)])?;
            }
            println!();
        }
    }
    println!("-> {}\n", csv.path().display());
    Ok(())
}
