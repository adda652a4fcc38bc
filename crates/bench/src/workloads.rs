//! The paper's three workloads as [`MakeBlocks`] generators — the single
//! definition every figure main, scenario and smoke test stages from —
//! and the warm-up-skipping mean the scaling figures report.

use std::sync::Arc;

use parking_lot::Mutex;
use sims::dwi::DwiSeries;
use sims::gray_scott::{GrayScott, GrayScottParams};
use sims::mandelbulb::Mandelbulb;
use vizkit::DataSet;

use crate::{run_pipeline_experiment, MakeBlocks, PipelineExperiment};

/// Mandelbulb: every client generates `blocks_per_client` z-slabs of a
/// `grid × grid × 4·total_blocks` volume, so the data volume grows with
/// the client count (the weak-scaling protocol of Figs. 5, 8 and 9).
pub fn mandelbulb(grid: usize, blocks_per_client: usize) -> MakeBlocks {
    Arc::new(move |rank, _iter, clients| {
        let total_blocks = clients * blocks_per_client;
        let m = Mandelbulb {
            dims: [grid, grid, 4 * total_blocks],
            ..Default::default()
        };
        (0..blocks_per_client)
            .map(|b| {
                let id = rank * blocks_per_client + b;
                (id as u64, m.generate_block(id, total_blocks))
            })
            .collect()
    })
}

/// Deep Water Impact: the series' blocks dealt round-robin to the clients
/// (as the proxy distributes its VTU files); harness iteration 0 stages
/// series iteration `first`.
pub fn dwi(series: DwiSeries, first: u64) -> MakeBlocks {
    Arc::new(move |rank, iter, clients| {
        (0..series.total_blocks)
            .filter(|b| b % clients == rank)
            .map(|b| {
                (
                    b as u64,
                    DataSet::UGrid(series.generate_block(first + iter, b)),
                )
            })
            .collect()
    })
}

/// Gray–Scott: one slab of a fixed `grid`³ domain per client, advanced
/// `steps` solver steps per iteration (state persists across iterations).
pub fn gray_scott(grid: usize, steps: usize) -> MakeBlocks {
    let sims: Mutex<Vec<Option<GrayScott>>> = Mutex::new(Vec::new());
    Arc::new(move |rank, _iter, n_clients| {
        let mut sims = sims.lock();
        sims.resize_with(n_clients, || None);
        let sim = sims[rank].get_or_insert_with(|| {
            GrayScott::new(grid, rank, n_clients, GrayScottParams::default())
        });
        // Advance the simulation serially (the ghost planes wrap within
        // the slab; physics fidelity across slabs is not what the figure
        // measures - data volume and pipeline cost are).
        for _ in 0..steps {
            sim.exchange_ghosts(None).expect("ghosts");
            sim.step();
        }
        vec![(rank as u64, sim.to_dataset())]
    })
}

/// Mean of `times` without the first entry — the iteration that pays
/// library loading / interpreter start (the paper discards it too).
pub fn mean_after_warmup(times: &[u64]) -> u64 {
    let rest = &times[1.min(times.len().saturating_sub(1))..];
    (rest.iter().sum::<u64>() / rest.len().max(1) as u64).max(1)
}

/// Runs the experiment and returns its mean execute span after warm-up.
pub fn mean_execute(exp: PipelineExperiment, make: MakeBlocks) -> u64 {
    let times: Vec<u64> = run_pipeline_experiment(exp, make)
        .iter()
        .map(|t| t.execute_ns)
        .collect();
    mean_after_warmup(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_dropped_unless_it_is_all_there_is() {
        assert_eq!(mean_after_warmup(&[900, 10, 20]), 15);
        assert_eq!(mean_after_warmup(&[900]), 900);
        assert_eq!(mean_after_warmup(&[]), 1);
    }
}
