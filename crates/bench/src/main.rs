//! `qcpa-bench <name>`: runs one row of [`qcpa_bench::COMMANDS`]. With
//! no name, or an unknown one, prints the table and exits nonzero.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        return usage();
    };
    let Some((_, _, run)) = qcpa_bench::command(name) else {
        eprintln!("unknown command `{name}`");
        return usage();
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("Error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run --release -p qcpa-bench -- <name>\n\n{}",
        qcpa_bench::listing()
    );
    ExitCode::FAILURE
}
