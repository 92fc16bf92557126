//! `qcpa-benchmark`: the journal-to-response pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Prints the metric table on stderr and, as the last line of stdout,
//! one JSON object `{correct, attempted, failed, metrics}` holding the
//! metrics `BENCHMARK.json` declares: the end-to-end ones for the
//! untraced run, the per-layer ones for the traced run.

mod gen;
mod pipeline;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use pipeline::{Config, Ctx, Simulated, Timings};

/// Iterations timed at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` is
                // the driver's form.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 0.5 } else { 12.0 });
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workloads::all().iter().map(|c| c.name).collect();
            eprintln!("error: {e}\nusage: --workload <{}> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]", names.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(cfg) = workloads::all()
        .into_iter()
        .find(|c| c.name == args.workload)
    else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let cfg = if args.smoke { cfg.smoke() } else { cfg };

    // Knobs come from the command line only: an inherited QCPA_* setting
    // (threads, shards, queue kind, resilience) must not change the run.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QCPA_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }

    let mut ctx = Ctx::new();
    let outcome = measure(&mut ctx, &cfg, &args);
    match report::finish(&mut ctx, &cfg, &args, outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run hands to the report.
pub struct Outcome {
    pub iterations: usize,
    pub traced_iterations: usize,
    pub simulated: Simulated,
    /// Last traced iteration, for the trace file.
    pub last_traced_run: Option<u32>,
}

/// Warm once, then repeat `setup` + `run` until `--seconds` have been
/// measured. With `--trace`, iterations alternate untraced/traced so the
/// two are compared inside one process.
fn measure(ctx: &mut Ctx, cfg: &Config, args: &Args) -> Outcome {
    // Warm-up: pages faulted in, allocator grown, lazy statics built.
    // It also runs the end-state check against the reference store.
    ctx.rec.start_run(0, false);
    ctx.metrics.muted = true;
    let mut inputs = pipeline::setup(ctx, cfg, args.seed);
    let (_, canonical) = pipeline::run(ctx, cfg, &mut inputs, args.seed, 0);
    ctx.metrics.muted = !args.trace;
    let reference = probes::verify_end_state(ctx, &mut inputs);
    if args.trace {
        probes::layers(ctx, cfg, &mut inputs, &reference);
    }
    drop((inputs, reference));

    let started = Instant::now();
    let mut latencies: Vec<(bool, f64)> = Vec::new();
    let (mut iterations, mut traced_iterations) = (0usize, 0usize);
    let mut last_traced_run = None;
    let (mut plain_pipeline, mut traced_pipeline) = (Vec::new(), Vec::new());
    let enough = |n: usize, traced: usize| {
        let n = if args.trace { traced } else { n };
        n >= MIN_ITERATIONS && started.elapsed().as_secs_f64() >= args.seconds
    };
    while !enough(iterations, traced_iterations) {
        iterations += 1;
        let run_id = iterations as u32;
        let traced = args.trace && iterations % 2 == 0;
        ctx.rec.start_run(run_id, traced);
        // Per-layer numbers come from traced iterations only.
        ctx.metrics.muted = args.trace && !traced;

        let open = ctx.rec.begin("bench.setup");
        let setup_started = Instant::now();
        let mut inputs = pipeline::setup(ctx, cfg, args.seed);
        let setup_s = setup_started.elapsed().as_secs_f64();
        ctx.rec.end(open);

        let (t, simulated) = pipeline::run(ctx, cfg, &mut inputs, args.seed, run_id);
        ctx.check(
            simulated == canonical,
            "simulated metrics differ between iterations (or traced vs untraced)",
        );
        drop(inputs);

        if traced {
            traced_iterations += 1;
            last_traced_run = Some(run_id);
            traced_pipeline.push(t.pipeline_s());
        } else {
            // End-to-end timings come from untraced iterations only.
            plain_pipeline.push(t.pipeline_s());
            record_timings(ctx, setup_s, &t);
            latencies.extend_from_slice(&t.latencies);
        }
    }
    ctx.metrics.muted = false;
    report::latency_metrics(ctx, &latencies);
    if args.trace {
        report::layer_metrics(ctx, &plain_pipeline, &traced_pipeline);
    }
    Outcome {
        iterations,
        traced_iterations,
        simulated: canonical,
        last_traced_run,
    }
}

fn record_timings(ctx: &mut Ctx, setup_s: f64, t: &Timings) {
    let m = &mut ctx.metrics;
    m.muted = false;
    m.push("setup_s", "s", setup_s);
    m.push("pipeline_s", "s", t.pipeline_s());
    m.push("plan_s", "s", t.plan_s);
    m.push("observe_s", "s", t.observe_s);
    m.push("deploy_s", "s", t.deploy_s);
    m.push("serve_s", "s", t.serve_s);
    m.push("simulate_s", "s", t.sim_s);
    m.push("serve_rps", "1/s", t.latencies.len() as f64 / t.serve_s);
    m.push(
        "sim_events_per_s",
        "1/s",
        t.sim_events as f64 / t.sim_engine_s,
    );
}
