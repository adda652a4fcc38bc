//! # colza-bench — experiment harnesses for every table and figure
//!
//! Each binary in `src/bin/` regenerates one of the paper's results (the
//! mapping lives in DESIGN.md §5). This library holds everything the
//! mains share, each thing once: argument parsing, the full client/server
//! pipeline-experiment runner, the three workloads' block generators
//! ([`workloads`]), every gated scenario with its pure shape check
//! ([`scenarios`]), table formatting, and the tail every main ends
//! through ([`report`]).
//!
//! All timings are **virtual nanoseconds** from the `hpcsim` platform
//! model — scale-faithful on any host (see DESIGN.md §2). Paper scales
//! (512 clients, 128 servers) exceed a small host's thread budget, so
//! every harness takes `--scale`-style flags and prints the configuration
//! it actually ran.

pub mod args;
pub mod experiment;
pub mod report;
pub mod scenarios;
pub mod table;
pub mod trace_out;
pub mod workloads;

pub use args::Args;
pub use experiment::{run_pipeline_experiment, IterationTimes, MakeBlocks, PipelineExperiment};
