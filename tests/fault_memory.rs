//! Peak-heap budget of the fault-aware open loop: one `run_open_faults`
//! call on a fully replicated, update-heavy 16-backend cluster, where
//! every update fans out to 16 ROWA legs and one crash voids the legs
//! in flight on its backend mid-run. The loop keeps per-request state
//! and the legs still in flight; nothing it holds may grow with the
//! number of legs a run has dispatched (≈ 11.5 per request here).
//!
//! Its own test binary so the counting `#[global_allocator]` is private
//! to it, and a single test so no other thread allocates while it
//! counts.

use qcpa::core::allocation::Allocation;
use qcpa::core::classify::{Classification, QueryClass};
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::fragment::Catalog;
use qcpa::core::journal::QueryKind;
use qcpa::sim::fault::{run_open_faults, FaultConfig, FaultEvent, FaultPlan};
use qcpa::sim::{RequestStream, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Budget on the peak live heap of the call per offered request: the
/// 73 B measured when it was set (48 B of request state plus the 16 B
/// response pair and its 8 B sorted copy the report is built from),
/// plus 10 %.
const PEAK_BYTES_PER_REQUEST: u64 = 80;

mod peak_alloc;

#[global_allocator]
static GLOBAL: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

#[test]
fn fault_loop_peak_heap_stays_per_request() {
    let mut cat = Catalog::new();
    let a = cat.add_table("A", 4_000);
    let b = cat.add_table("B", 4_000);
    let cls = Classification::from_classes(vec![
        QueryClass::read(0, [a], 0.2),
        QueryClass::read(1, [b], 0.1),
        QueryClass::update(2, [a], 0.4),
        QueryClass::update(3, [b], 0.3),
    ])
    .expect("classes are valid");
    let cluster = ClusterSpec::homogeneous(16);
    let alloc = Allocation::full_replication(&cls, &cluster);
    // Update legs alone keep every replica 70 % busy.
    let stream = RequestStream::new(
        vec![20.0, 10.0, 40.0, 30.0],
        vec![
            QueryKind::Read,
            QueryKind::Read,
            QueryKind::Update,
            QueryKind::Update,
        ],
        vec![0.001; 4],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA17);
    let reqs = stream.sample_poisson(1_000.0, 20.0, 0.0, &mut rng);
    let plan = FaultPlan::new(
        vec![
            FaultEvent::Crash {
                backend: 3,
                at: 8.0,
            },
            FaultEvent::Recover {
                backend: 3,
                at: 12.0,
                catchup_cost: 0.01,
            },
        ],
        16,
    )
    .expect("plan is valid");
    let cfg = SimConfig::default();
    let fcfg = FaultConfig::default();

    let before = peak_alloc::reset_peak();
    let rep = run_open_faults(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg);
    let peak = peak_alloc::peak() - before;

    assert_eq!(rep.completed, reqs.len(), "every request completes");
    assert_eq!(rep.crashes, 1);
    let per_request = peak / reqs.len() as u64;
    println!(
        "run_open_faults 16-way ROWA: {} requests, peak {:.2} MB live, {per_request} B per request",
        reqs.len(),
        peak as f64 / 1e6
    );
    assert!(
        per_request <= PEAK_BYTES_PER_REQUEST,
        "{per_request} B of peak heap per request (budget {PEAK_BYTES_PER_REQUEST})"
    );
}
