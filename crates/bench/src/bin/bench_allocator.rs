//! Allocator engine wall-clock speedup: baseline vs delta-cost, plus the
//! instance-size ladder.
fn main() -> std::io::Result<()> {
    qcpa_bench::experiments::allocbench::run()
}
