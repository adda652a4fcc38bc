//! Reactive triggers on the Deep Water Impact growing-complexity curve
//! (DESIGN.md §15): the same simulation staged through the same staging
//! area, once with the always-on script and once with the triggered
//! script (`max(v02) > 3.2 || iter % 4 == 1`), which renders the cadence
//! heartbeat plus every jet iteration and skips the quiet early splash —
//! plus a rerun of the triggered sweep under the same seed to document
//! that the decision trace replays identically.

use colza::CommMode;
use sims::dwi::DwiSeries;

use crate::{run_pipeline_experiment, workloads, IterationTimes, PipelineExperiment};

/// What [`check`] verifies.
pub const HOLDS: &str =
    "skips cost ~zero, save >= 5% of always-on steady execute, same-seed decision trace replays";

/// One sweep's configuration.
pub struct Params {
    pub servers: usize,
    pub clients: usize,
    pub blocks: usize,
    pub iters: u64,
    pub seed: u64,
    /// Rendered image size.
    pub image: (usize, usize),
}

/// Rank 0's per-iteration timings of the three runs.
pub struct Outcome {
    pub always: Vec<IterationTimes>,
    pub triggered: Vec<IterationTimes>,
    /// The triggered run again, under the same seed.
    pub rerun: Vec<IterationTimes>,
}

#[derive(serde::Serialize)]
pub struct Row {
    pub mode: &'static str,
    pub iteration: u64,
    pub servers: usize,
    pub execute_ns: u64,
    pub iteration_ns: u64,
    pub skipped: bool,
}

/// Runs always-on, triggered, and the triggered rerun.
pub fn run(p: &Params) -> Outcome {
    let (w, h) = p.image;
    let mode = |script: catalyst::PipelineScript| {
        let series = DwiSeries {
            total_blocks: p.blocks,
            scale: 1.0 / 1024.0,
            iterations: p.iters,
        };
        let mut exp =
            PipelineExperiment::new(p.servers, p.clients, CommMode::Mona, script, p.iters);
        exp.seed = p.seed;
        run_pipeline_experiment(exp, workloads::dwi(series, 0))
    };
    Outcome {
        always: mode(catalyst::PipelineScript::deep_water_impact(w, h)),
        triggered: mode(catalyst::PipelineScript::deep_water_impact_triggered(w, h)),
        rerun: mode(catalyst::PipelineScript::deep_water_impact_triggered(w, h)),
    }
}

impl Outcome {
    /// The per-iteration JSON rows of the two published modes.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for (mode, times) in [("always-on", &self.always), ("triggered", &self.triggered)] {
            rows.extend(times.iter().map(|t| Row {
                mode,
                iteration: t.iteration,
                servers: t.servers,
                execute_ns: t.execute_ns,
                iteration_ns: t.activate_ns + t.stage_ns + t.execute_ns + t.deactivate_ns,
                skipped: t.skipped,
            }));
        }
        rows
    }

    /// Always-on execute time saved on the triggered run's skipped
    /// iterations — the savings triggers guarantee: there the always-on
    /// run paid a full render while the triggered run paid only the fused
    /// stats allreduce. (Host-measured render times carry scheduling
    /// noise, so the gate is on the skipped iterations themselves, not on
    /// end-to-end totals.) Always-on's first executed iteration is left
    /// out: it carries the one-time init, which a skip merely defers.
    pub fn saved_ns(&self) -> u64 {
        let always_first_ran = self.always.iter().position(|t| !t.skipped);
        self.triggered
            .iter()
            .zip(&self.always)
            .enumerate()
            .filter(|&(i, (t, _))| t.skipped && Some(i) != always_first_ran)
            .map(|(_, (t, a))| a.execute_ns.saturating_sub(t.execute_ns))
            .sum()
    }

    /// The most expensive skipped iteration of the triggered run.
    pub fn skip_cost_max_ns(&self) -> u64 {
        let skipped = self.triggered.iter().filter(|t| t.skipped);
        skipped.map(|t| t.execute_ns).max().unwrap_or(0)
    }
}

/// Total execute span excluding the first executed (non-skipped)
/// iteration, which pays the pipeline's one-time initialization.
pub fn steady_execute_ns(times: &[IterationTimes]) -> u64 {
    let first_ran = times.iter().position(|t| !t.skipped);
    times
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != first_ran)
        .map(|(_, t)| t.execute_ns)
        .sum()
}

/// The canonical per-iteration decision string ("R" ran, "s" skipped):
/// the trace the same-seed determinism gate compares byte-for-byte.
pub fn decision_trace(times: &[IterationTimes]) -> String {
    times
        .iter()
        .map(|t| if t.skipped { 's' } else { 'R' })
        .collect()
}

/// Names every way the sweep fails to show that triggers pay off.
pub fn check(o: &Outcome) -> Vec<String> {
    let mut violations = Vec::new();
    if !o.triggered.iter().any(|t| t.skipped) {
        violations.push("the triggered run never skipped an iteration".to_string());
    }
    // Skips must charge ~zero virtual time...
    let skip_cost_max = o.skip_cost_max_ns();
    if skip_cost_max >= 2_000_000 {
        violations.push(format!(
            "a skipped iteration cost {:.3} ms (not ~zero)",
            skip_cost_max as f64 / 1e6
        ));
    }
    // ...and the savings must be a measurable share of the always-on
    // steady-state execute budget.
    let (saved, exec_always) = (o.saved_ns(), steady_execute_ns(&o.always));
    if (saved as f64) < 0.05 * exec_always as f64 {
        violations.push(format!(
            "skipping saved only {:.2} ms of {:.2} ms always-on execute (< 5%)",
            saved as f64 / 1e6,
            exec_always as f64 / 1e6
        ));
    }
    let (schedule, rerun) = (decision_trace(&o.triggered), decision_trace(&o.rerun));
    if schedule != rerun {
        violations.push(format!(
            "same-seed decision traces diverged: {schedule} vs {rerun}"
        ));
    }
    if o.always.iter().any(|t| t.skipped) {
        violations.push("the always-on script skipped an iteration".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run from its decision string: renders cost 10 ms, skips 0.1 ms.
    fn times(trace: &str) -> Vec<IterationTimes> {
        let of = |c| IterationTimes {
            execute_ns: if c == 's' { 100_000 } else { 10_000_000 },
            skipped: c == 's',
            ..Default::default()
        };
        trace.chars().map(of).collect()
    }

    #[test]
    fn a_diverging_rerun_schedule_is_named() {
        let good = Outcome {
            always: times("RRRRRR"),
            triggered: times("sRssRR"),
            rerun: times("sRssRR"),
        };
        assert!(check(&good).is_empty(), "{:?}", check(&good));
        let v = check(&Outcome {
            rerun: times("sRsRRR"),
            ..good
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("diverged") && v[0].contains("sRssRR vs sRsRRR"),
            "{v:?}"
        );
    }
}
