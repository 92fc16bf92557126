//! The `qcpa-audit` binary: run the static-analysis pass over the
//! workspace and gate on unsuppressed findings.
//!
//! ```text
//! qcpa-audit [--root DIR] [--json PATH] [--quiet]
//! ```
//!
//! * `--root DIR`  — audit the workspace at DIR (default: discovered by
//!   walking up from the current directory to a `[workspace]` manifest).
//! * `--json PATH` — additionally write the machine-readable report.
//! * `--quiet`     — suppress the human report when the audit passes.
//!
//! Exit status: 0 when every finding is annotated or inside the
//! panic-hygiene baseline, 1 on any unsuppressed finding, 2 on usage
//! or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--quiet" => quiet = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match qcpa_audit::discover_root(&cwd) {
                Some(r) => r,
                None => return usage("no [workspace] Cargo.toml above the current directory"),
            }
        }
    };

    let report = match qcpa_audit::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qcpa-audit: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("qcpa-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.unsuppressed > 0 {
        eprint!("{}", report.human());
        ExitCode::from(1)
    } else {
        if !quiet {
            print!("{}", report.human());
        }
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("qcpa-audit: {err}");
    eprintln!("usage: qcpa-audit [--root DIR] [--json PATH] [--quiet]");
    ExitCode::from(2)
}
