//! Checks and per-layer probes that run once, after the warm-up pass and
//! outside the timed pipeline: the end-state comparison against a
//! reference store, and direct measurements of single layers that a span
//! around `Cdbs::execute` cannot see from outside.

use std::collections::BTreeSet;
use std::time::Instant;

use qcpa_controller::{layout_from_allocation, referenced_columns, Request, WriteKind};
use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::greedy;
use qcpa_core::memetic;
use qcpa_lp::model::{optimal_allocation, OptimalConfig};
use qcpa_sim::{run_open, run_open_traced, SimConfig};
use qcpa_storage::engine::BackendStore;
use qcpa_storage::fragmentation::{extract_full, extract_vertical};

use crate::gen;
use crate::pipeline::{canonical_optimizer_seed, memetic_config, Config, Ctx, Inputs};
use crate::stats::median;

/// Reads probed through the controller and directly against storage.
const SCAN_PROBES: usize = 400;

/// Replays the run's writes against a single store holding every table
/// in full and compares every representative read with the cluster's
/// answer: ROWA fan-out, ledger replay and reallocation must not have
/// lost or duplicated a write. The replay doubles as the direct
/// measurement of the storage write path. Returns the reference store.
pub fn verify_end_state(ctx: &mut Ctx, inp: &mut Inputs) -> BackendStore {
    let mut store = BackendStore::new();
    for t in &inp.data.tables {
        store.bulk_load(extract_full(t));
    }
    let (mut insert_s, mut update_us) = (0.0f64, Vec::new());
    let mut inserts = 0u64;
    for r in inp.observe.iter().chain(&inp.degraded).chain(&inp.serve) {
        let Request::Write(w) = r else { continue };
        let start = Instant::now();
        let ok = match &w.kind {
            WriteKind::Insert(row) => store.insert(&w.table, row.clone()).is_ok(),
            WriteKind::Update {
                predicate,
                column,
                value,
            } => store
                .update(&w.table, predicate.as_ref(), column, value.clone())
                .is_ok(),
        };
        let secs = start.elapsed().as_secs_f64();
        match w.kind {
            WriteKind::Insert(_) => {
                inserts += 1;
                insert_s += secs;
            }
            WriteKind::Update { .. } => update_us.push(secs * 1e6),
        }
        ctx.check(ok, "reference store rejected a write");
    }
    let mut differing = 0u64;
    for q in &inp.representatives {
        let Request::Read(scan) = q else { continue };
        let cluster = inp.cdbs.execute(q).ok().and_then(|o| o.result);
        differing += u64::from(cluster != store.execute(scan).ok());
    }
    ctx.tally(
        inp.representatives.len() as u64,
        differing,
        "cluster answer differs from the fully replicated reference",
    );
    if inserts > 0 {
        ctx.metrics.push("storage.insert.busy_s", "s", insert_s);
    }
    if !update_us.is_empty() {
        let m = &mut ctx.metrics;
        m.push(
            "storage.update.busy_s",
            "s",
            update_us.iter().sum::<f64>() / 1e6,
        );
        m.push("storage.update.p50_us", "us", median(&update_us));
    }
    store
}

/// Direct per-layer measurements (traced run only).
pub fn layers(ctx: &mut Ctx, cfg: &Config, inp: &mut Inputs, reference: &BackendStore) {
    storage_scan(ctx, inp, reference);
    trace_off_overhead(ctx, inp);
    if cfg.oracle {
        parallel_speedup(ctx);
        optimum_gap(ctx);
    }
}

/// The same reads through `Cdbs::execute` and straight against a store
/// loaded with the fragment the serving backend holds: the difference of
/// the medians is what the controller adds per request.
fn storage_scan(ctx: &mut Ctx, inp: &mut Inputs, reference: &BackendStore) {
    let Some(deployed) = inp.deployed.as_ref() else {
        return;
    };
    let schema = &inp.data.schema;
    let catalog = qcpa_storage::catalog::build_catalog(schema, &inp.data.row_counts());
    let layouts = layout_from_allocation(deployed, &catalog, schema);
    let mut store = BackendStore::new();
    let mut loaded = BTreeSet::new();
    let (mut extract_s, mut load_s, mut load_bytes) = (0.0f64, 0.0f64, 0u64);
    let (mut direct_us, mut routed_us) = (Vec::new(), Vec::new());
    for r in inp
        .serve
        .iter()
        .filter(|r| matches!(r, Request::Read(_)))
        .take(SCAN_PROBES)
    {
        let Request::Read(scan) = r else { continue };
        let Some(def) = schema.table(&scan.table) else {
            continue;
        };
        let needed = referenced_columns(r, def);
        let Some(layout) = layouts.iter().find(|l| l.covers(&scan.table, &needed)) else {
            ctx.check(false, "no deployed backend covers a served read");
            continue;
        };
        let fragment = layout
            .fragment_name(schema, &scan.table)
            .expect("covering layout stores the table");
        if loaded.insert(fragment.clone()) {
            let master = reference
                .table(&scan.table)
                .expect("reference holds every table");
            let stored: Vec<&str> = layout.columns[&scan.table]
                .iter()
                .map(String::as_str)
                .collect();
            let start = Instant::now();
            let data = if stored.len() == def.columns.len() {
                extract_full(master)
            } else {
                extract_vertical(master, &stored)
            };
            extract_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            load_bytes += store.bulk_load(data);
            load_s += start.elapsed().as_secs_f64();
        }
        let mut direct = scan.clone();
        direct.table = fragment;
        let start = Instant::now();
        let a = store.execute(&direct).ok();
        direct_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        let b = inp.cdbs.execute(r).ok().and_then(|o| o.result);
        routed_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        ctx.check(a == b, "direct scan and controller answer differ");
    }
    if direct_us.is_empty() {
        return;
    }
    let m = &mut ctx.metrics;
    m.push("storage.scan.calls", "count", direct_us.len() as f64);
    m.push(
        "storage.scan.busy_s",
        "s",
        direct_us.iter().sum::<f64>() / 1e6,
    );
    m.push("storage.scan.p50_us", "us", median(&direct_us));
    m.push(
        "controller.overhead_us",
        "us",
        median(&routed_us) - median(&direct_us),
    );
    m.push(
        "storage.scan.share_of_execute",
        "ratio",
        median(&direct_us) / median(&routed_us),
    );
    m.push("storage.extract.busy_s", "s", extract_s);
    m.push("storage.bulk_load.busy_s", "s", load_s);
    m.push("storage.bulk_load.bytes", "bytes", load_bytes as f64);
}

/// `run_open_traced` with a tracer attached but sampling off against
/// plain `run_open`, interleaved: the cost of carrying the hooks.
fn trace_off_overhead(ctx: &mut Ctx, inp: &Inputs) {
    let Some((cls, alloc)) = inp.planned.as_ref() else {
        return;
    };
    let (catalog, cluster) = (&inp.plan.catalog, &inp.cluster);
    let requests = gen::at_rate(&inp.open_unit, inp.calibrated_rate);
    let sim = SimConfig::default();
    let (mut plain, mut hooked) = (Vec::new(), Vec::new());
    // Whichever variant runs second finds the first one's freed buffers
    // warm, so the order alternates.
    for rep in 0..8 {
        let mut reports = [None, None];
        for variant in [rep % 2, 1 - rep % 2] {
            let mut tracer = qcpa_obs::Tracer::new(0, 0.0);
            let start = Instant::now();
            let report = if variant == 0 {
                run_open(alloc, cls, cluster, catalog, &requests, 0.0, &sim)
            } else {
                let hooks = Some(&mut tracer);
                run_open_traced(alloc, cls, cluster, catalog, &requests, 0.0, &sim, hooks)
            };
            let secs = start.elapsed().as_secs_f64();
            if variant == 0 {
                &mut plain
            } else {
                &mut hooked
            }
            .push(secs);
            ctx.check(tracer.tree.is_empty(), "sample-0 tracing recorded spans");
            reports[variant] = Some(report.responses);
        }
        ctx.check(
            reports[0] == reports[1],
            "sample-0 tracing perturbed the run",
        );
    }
    ctx.metrics.push(
        "obs.trace_off_overhead_pct",
        "%",
        (median(&hooked) / median(&plain) - 1.0) * 100.0,
    );
}

/// Memetic, TPC-App column classes on 16 backends, one thread against
/// all hardware threads; the allocations must be bit-identical.
fn parallel_speedup(ctx: &mut Ctx) {
    let input = gen::tpcapp_journal(100_000);
    let cls = Classification::from_journal(&input.journal, &input.catalog, Granularity::Fragment)
        .expect("generated journals classify");
    let cluster = ClusterSpec::homogeneous(16);
    let threads = qcpa_par::hardware_parallelism();
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut cfg = memetic_config(canonical_optimizer_seed());
        let start = Instant::now();
        let a = memetic::allocate(&cls, &input.catalog, &cluster, &cfg);
        serial.push(start.elapsed().as_secs_f64());
        cfg.threads = Some(threads);
        let start = Instant::now();
        let b = memetic::allocate(&cls, &input.catalog, &cluster, &cfg);
        parallel.push(start.elapsed().as_secs_f64());
        ctx.check(a == b, "memetic result depends on the thread count");
    }
    let m = &mut ctx.metrics;
    m.push("par.threads", "count", threads as f64);
    m.push(
        "par.memetic.speedup_2t",
        "ratio",
        median(&serial) / median(&parallel),
    );
}

/// The exact optimum as an oracle: TPC-App table classes on 4 backends
/// under a node budget (no wall-clock budget, so node counts repeat).
fn optimum_gap(ctx: &mut Ctx) {
    let input = gen::tpcapp_journal(100_000);
    let cls = Classification::from_journal(&input.journal, &input.catalog, Granularity::Table)
        .expect("generated journals classify");
    let cluster = ClusterSpec::homogeneous(4);
    let heuristic = memetic::optimize(
        greedy::allocate(&cls, &input.catalog, &cluster),
        &cls,
        &input.catalog,
        &cluster,
        &memetic_config(canonical_optimizer_seed()),
    );
    let budget = OptimalConfig {
        max_nodes: 2_000,
        time_limit: std::time::Duration::from_secs(3_600),
        incumbent: None,
    };
    let start = Instant::now();
    let optimum = optimal_allocation(&cls, &input.catalog, &cluster, &budget);
    let secs = start.elapsed().as_secs_f64();
    if let Some(a) = &optimum.allocation {
        ctx.check(
            a.validate(&cls, &cluster).is_ok(),
            "LP allocation fails validate",
        );
    }
    let m = &mut ctx.metrics;
    m.push("lp.optimal.busy_s", "s", secs);
    m.push("lp.optimal.nodes", "count", optimum.nodes as f64);
    m.push("lp.gap", "ratio", heuristic.scale(&cluster) / optimum.scale);
}
