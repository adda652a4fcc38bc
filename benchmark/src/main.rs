//! The repo benchmark: four closed-loop iteration workloads measured end to
//! end and layer by layer. `BENCHMARK.json` at the repository root names
//! this binary's command, workloads and metrics; `README.md` next to this
//! package explains them.
//!
//! ```text
//! colza-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! colza-benchmark --smoke            every workload and driver at toy scale
//!                                    (with --workload: that one, as a plain run)
//! colza-benchmark --suite            3 dark repetitions + 1 traced, per workload
//! colza-benchmark --aa               the dark suite twice, compared to the bounds
//! ```

mod drivers;
mod harness;
mod meter;
mod report;
mod spans;
mod spec;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use harness::{Ops, RunReport, Segment};
use meter::median;
use report::Values;
use spans::{Recorder, Span, SpanTotals};
use spec::{RunResult, Spec};
use workloads::{Plan, Workload};

/// Share of a traced run's measuring time spent dark, as the baseline the
/// tracing overhead is computed against.
const DARK_SHARE: f64 = 0.3;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measuring time per run: `run_seconds` unless given, 0 (one cycle)
    /// in `--smoke`.
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    Smoke,
    Suite,
    Aa,
}

fn usage() -> ! {
    eprintln!(
        "usage: colza-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n\
         \x20      colza-benchmark --smoke | --suite | --aa [--seed N] [--seconds S] [--out-dir DIR]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args(spec: &Spec) -> Args {
    let mut seconds = None;
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--smoke" => args.mode = Mode::Smoke,
            "--suite" => args.mode = Mode::Suite,
            "--aa" => args.mode = Mode::Aa,
            _ => usage(),
        }
    }
    args.seconds = seconds.unwrap_or(match args.mode {
        Mode::Smoke => 0.0,
        _ => spec.run_seconds as f64,
    });
    args
}

/// What a traced run writes to `trace-<workload>.json`.
#[derive(Serialize)]
struct TraceFile {
    workload: &'static str,
    seed: u64,
    /// Host time, self time and virtual time per `layer/call`.
    totals: BTreeMap<String, SpanTotals>,
    spans: Vec<Span>,
}

/// Set-ups per dark run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One dark run: set-up [`SETUPS`] times, then measure on the last one.
/// `setup_s` is the median set-up. The first one of a process is cold and
/// always the slowest; of the rest the median repeated better between two
/// sets of ten processes than the fastest did (README, "Noise"). No more
/// than five, because the system does not give everything back when a
/// staging area is torn down (a stopped daemon leaves six threads behind,
/// and from the fourth repetition on a `gs_stage_delta` set-up takes half
/// as long again): leftovers of many rehearsals would weigh on the
/// measured iterations.
fn dark_run(plan: &Plan, seed: u64, seconds: f64, out_dir: &Path, ops: &Arc<Ops>) -> Values {
    let rec = Arc::new(Recorder::new());
    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| harness::run(plan, seed, &[], out_dir, ops, &rec).setup_s)
        .collect();
    let segment = Segment {
        seconds,
        traced: false,
    };
    let run = harness::run(plan, seed, &[segment], out_dir, ops, &rec);
    setups.push(run.setup_s);
    report::end_to_end(&run.segments[0], median(&setups))
}

/// One traced run: a dark baseline, the traced segment, then every driver.
fn traced_run(plan: &Plan, seed: u64, seconds: f64, out_dir: &Path, ops: &Arc<Ops>) -> Values {
    let rec = Arc::new(Recorder::new());
    let segments = [
        Segment {
            seconds: seconds * DARK_SHARE,
            traced: false,
        },
        Segment {
            seconds: seconds * (1.0 - DARK_SHARE),
            traced: true,
        },
    ];
    let run: RunReport = harness::run(plan, seed, &segments, out_dir, ops, &rec);
    let (dark, traced) = (&run.segments[0], &run.segments[1]);

    // The workload's layer view is taken from its own spans, before any
    // driver adds to the recorder.
    let mut values = report::traced_layers(traced, dark, &rec.snapshot());

    // Driver calls are recorded as spans too.
    rec.set_enabled(true);
    let cx = drivers::Ctx {
        seed,
        smoke: plan.smoke,
        reps: if plan.smoke { 3 } else { 30 },
        out_dir: out_dir.to_path_buf(),
    };
    values.extend(if plan.workload == Workload::ElasticChurn {
        report::resize_layers(traced)
    } else {
        drivers::resize(&cx, &rec, ops)
    });
    values.extend(drivers::run_all(&cx, &rec));
    rec.set_enabled(false);

    let spans = rec.snapshot();
    values.insert("hpcsim.peak_rss_mb", run.peak_rss_mib);
    values.insert("hpcsim.host_threads", run.host_threads as f64);
    let file = TraceFile {
        workload: plan.workload.name(),
        seed,
        totals: spans::totals(&spans),
        spans,
    };
    let path = out_dir.join(format!("trace-{}.json", plan.workload.name()));
    std::fs::write(
        &path,
        serde_json::to_string(&file).expect("trace serializes"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    values
}

/// One run as the contract defines it.
fn run_once(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> RunResult {
    let ops = Arc::new(Ops::default());
    let metrics = if trace {
        let values = traced_run(plan, seed, seconds, out_dir, &ops);
        spec::with_units(
            &values,
            spec.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        )
    } else {
        let values = dark_run(plan, seed, seconds, out_dir, &ops);
        spec::with_units(
            &values,
            spec.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        )
    };
    let (attempted, failed) = ops.totals();
    for message in ops.messages() {
        eprintln!("failed: {message}");
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn print_json<T: Serialize>(value: &T) {
    println!(
        "{}",
        serde_json::to_string(value).expect("result serializes")
    );
}

/// A [`RunResult`] labeled with the run it came from.
#[derive(Serialize)]
struct Labeled {
    workload: &'static str,
    trace: u8,
    result: RunResult,
}

/// `--smoke`: every workload, dark and traced, and every driver, at toy
/// scale; one labeled result line per run. With `--workload` it is a
/// single toy run printing the plain result (what the tests drive).
fn smoke(spec: &Spec, args: &Args) -> bool {
    let seconds = args.seconds;
    if let Some(name) = &args.workload {
        let Some(w) = Workload::parse(name) else {
            usage()
        };
        let result = run_once(
            spec,
            &Plan::of(w, true),
            args.seed,
            seconds,
            args.trace,
            &args.out_dir,
        );
        print_json(&result);
        return result.correct;
    }
    let mut ok = true;
    for w in Workload::ALL {
        let plan = Plan::of(w, true);
        for trace in [false, true] {
            let result = run_once(spec, &plan, args.seed, seconds, trace, &args.out_dir);
            ok &= result.correct;
            print_json(&Labeled {
                workload: w.name(),
                trace: trace as u8,
                result,
            });
        }
    }
    ok
}

#[derive(Serialize)]
struct Stat {
    median: f64,
    min: f64,
    max: f64,
    unit: String,
}

/// One contract-style run in a fresh process, the way the benchmark
/// driver makes them: repetitions inside one process are not independent,
/// because a torn-down staging area leaves threads and memory behind.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> RunResult {
    let exe = std::env::current_exe().expect("path of this binary");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{} run printed no result ({e}); exit status {}",
            workload.name(),
            out.status
        )
    })
}

/// Three dark repetitions of every workload: per workload and end-to-end
/// metric, the three values.
fn dark_suite(args: &Args, ok: &mut bool) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out = BTreeMap::new();
    for w in Workload::ALL {
        let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in 0..3 {
            let r = run_child(w, args.seed, args.seconds, false, &args.out_dir);
            *ok &= r.correct;
            eprintln!(
                "{} dark repetition {rep}: {} ops, {} failed",
                w.name(),
                r.attempted,
                r.failed
            );
            for (name, m) in r.metrics {
                per_metric.entry(name).or_default().push(m.value);
            }
        }
        out.insert(w.name().to_string(), per_metric);
    }
    out
}

#[derive(Serialize)]
struct SuiteRow {
    workload: &'static str,
    end_to_end: BTreeMap<String, Stat>,
    per_layer: BTreeMap<String, spec::MetricValue>,
}

/// `--suite`: the ISSUE's full protocol — per workload three dark
/// repetitions (median, min, max) and one traced repetition.
fn suite(spec: &Spec, args: &Args) -> bool {
    let mut ok = true;
    let dark = dark_suite(args, &mut ok);
    for w in Workload::ALL {
        let traced = run_child(w, args.seed, args.seconds, true, &args.out_dir);
        ok &= traced.correct;
        let end_to_end = spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = &dark[w.name()][&m.name];
                let stat = Stat {
                    median: median(v),
                    min: v.iter().copied().fold(f64::INFINITY, f64::min),
                    max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    unit: m.unit.clone(),
                };
                (m.name.clone(), stat)
            })
            .collect();
        print_json(&SuiteRow {
            workload: w.name(),
            end_to_end,
            per_layer: traced.metrics,
        });
    }
    ok
}

#[derive(Serialize)]
struct AaRow {
    workload: &'static str,
    metric: String,
    first_median: f64,
    second_median: f64,
    /// `(second - first) / first`, signed so that positive means worse.
    worse_by: f64,
    /// `|second - first|` as a share of the smaller of the two; this is
    /// what is held against the bound.
    apart: f64,
    bound: f64,
    within_bound: bool,
}

/// `--aa`: the dark suite twice on the same code; every workload ×
/// end-to-end metric must agree within its own bound.
fn aa(spec: &Spec, args: &Args) -> bool {
    let mut ok = true;
    let first = dark_suite(args, &mut ok);
    let second = dark_suite(args, &mut ok);
    for w in Workload::ALL {
        for m in &spec.end_to_end {
            let a = median(&first[w.name()][&m.name]);
            let b = median(&second[w.name()][&m.name]);
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse_by = sign * (b - a) / a;
            // Two sets of runs of one commit: neither is "the parent", so
            // the second being much better is as much a disagreement as it
            // being much worse. Measured against the smaller median, which
            // is what the bound would be a share of had that set come first.
            let apart = (b - a).abs() / a.min(b);
            let within_bound = a > 0.0 && b > 0.0 && apart <= m.bound;
            ok &= within_bound;
            print_json(&AaRow {
                workload: w.name(),
                metric: m.name.clone(),
                first_median: a,
                second_median: b,
                worse_by,
                apart,
                bound: m.bound,
                within_bound,
            });
        }
    }
    ok
}

fn main() {
    let spec = Spec::embedded();
    assert!(
        spec.workloads
            .iter()
            .map(|w| w.name.as_str())
            .eq(Workload::ALL.map(Workload::name)),
        "BENCHMARK.json lists the workloads this binary runs"
    );
    let args = parse_args(&spec);
    let ok = match args.mode {
        Mode::Smoke => smoke(&spec, &args),
        Mode::Suite => suite(&spec, &args),
        Mode::Aa => aa(&spec, &args),
        Mode::Run => {
            let Some(workload) = args.workload.as_deref().and_then(Workload::parse) else {
                usage()
            };
            // A run that has not finished by now never will (a daemon
            // that cannot leave, a collective that lost a peer): fail
            // loudly inside the driver's per-run limit instead of hanging.
            std::thread::spawn(|| {
                std::thread::sleep(Duration::from_secs(170));
                eprintln!("colza-benchmark: run exceeded 170 s, aborting");
                std::process::exit(3);
            });
            let plan = Plan::of(workload, false);
            let result = run_once(
                &spec,
                &plan,
                args.seed,
                args.seconds,
                args.trace,
                &args.out_dir,
            );
            print_json(&result);
            result.correct
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
