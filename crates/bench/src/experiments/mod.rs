//! One module per experiment family; every `run()` prints the paper's
//! rows and writes `results/<id>.csv`.

#![expect(
    clippy::expect_used,
    reason = "an experiment stops on an invalid allocation: the allocators promise valid ones"
)]

pub mod ablations;
pub mod allocbench;
pub mod autoscale;
pub mod balance;
pub mod chaos;
pub mod faults;
pub mod resilience;
pub mod simbench;
pub mod tables;
pub mod tpcapp;
pub mod tpch;
