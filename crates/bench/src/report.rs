//! The one tail every bench main ends through: where a result file is
//! written, a scenario's shape gate is evaluated and the exit status is
//! decided — the only `process::exit` sites of the crate, so
//! `run_experiments.sh` (under `set -e`) stops at the first main whose
//! run panicked or whose gate named a violation.

use crate::Args;

/// Starts a main: parses the arguments and makes a panic on *any* thread
/// end the process with a failing status. Without this a panic inside a
/// simulated server only kills that handler thread, and the main thread
/// waits forever on a reply that will never come.
pub fn begin() -> Args {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
    Args::parse()
}

/// Reports a usage error and exits with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Writes `value` as one line of JSON to `--out` (default `default_path`),
/// creating the parent directory first. A bench whose result cannot be
/// recorded has failed: this panics rather than report success without an
/// output file.
pub fn write_out<T: serde::Serialize + ?Sized>(args: &Args, default_path: &str, value: &T) {
    let path = args.get_str("out", default_path);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let body = serde_json::to_string(value).expect("serialize bench output");
    std::fs::write(&path, body + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Ends an ungated main.
pub fn finish() -> ! {
    std::process::exit(0)
}

/// Ends a main that has a shape gate. When `flag` (`assert`,
/// `check-shape`) was passed, the scenario's pure `check` over this run's
/// rows decides the exit status: every violation it names on stderr and
/// status 1, or the `holds` line and status 0.
pub fn finish_gated(
    args: &Args,
    flag: &str,
    holds: &str,
    check: impl FnOnce() -> Vec<String>,
) -> ! {
    if args.has(flag) {
        let violations = check();
        if !violations.is_empty() {
            eprintln!("--{flag} FAILED:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        println!("--{flag}: {holds} (OK)");
    }
    finish()
}
