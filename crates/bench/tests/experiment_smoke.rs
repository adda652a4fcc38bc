//! Smoke tests for the shared experiment runner (static, static-MPI, and
//! elastic configurations at tiny scales).

use std::sync::Arc;

use colza::CommMode;
use colza_bench::{run_pipeline_experiment, PipelineExperiment};
use sims::mandelbulb::Mandelbulb;

type BlockGen = Arc<dyn Fn(usize, u64, usize) -> Vec<(u64, vizkit::DataSet)> + Send + Sync>;

fn mandelbulb_blocks(blocks_per_client: usize) -> BlockGen {
    Arc::new(move |rank, _iter, clients| {
        let total = clients * blocks_per_client;
        let m = Mandelbulb {
            dims: [12, 12, total.next_power_of_two().max(4) * 3],
            ..Default::default()
        };
        (0..blocks_per_client)
            .map(|b| {
                let id = rank * blocks_per_client + b;
                (id as u64, m.generate_block(id, total))
            })
            .collect()
    })
}

#[test]
fn static_mona_experiment_completes() {
    let exp = PipelineExperiment::new(
        2,
        2,
        CommMode::Mona,
        catalyst::PipelineScript::mandelbulb(24, 24),
        2,
    );
    let times = run_pipeline_experiment(exp, mandelbulb_blocks(2));
    assert_eq!(times.len(), 2);
    for t in &times {
        assert_eq!(t.servers, 2);
        assert!(t.execute_ns > 0);
        assert!(t.activate_ns > 0);
    }
    // The first iteration pays pipeline initialization.
    assert!(times[0].execute_ns > times[1].execute_ns);
}

#[test]
fn static_mpi_experiment_completes() {
    let exp = PipelineExperiment::new(
        2,
        2,
        CommMode::MpiStatic(minimpi::Profile::Vendor),
        catalyst::PipelineScript::mandelbulb(24, 24),
        2,
    );
    let times = run_pipeline_experiment(exp, mandelbulb_blocks(1));
    assert_eq!(times.len(), 2);
    assert!(times.iter().all(|t| t.execute_ns > 0));
}

#[test]
fn elastic_growth_changes_server_count() {
    let mut exp = PipelineExperiment::new(
        1,
        2,
        CommMode::Mona,
        catalyst::PipelineScript::mandelbulb(24, 24),
        4,
    );
    exp.grow_at = vec![(2, 1)];
    let times = run_pipeline_experiment(exp, mandelbulb_blocks(2));
    assert_eq!(times.len(), 4);
    assert_eq!(times[0].servers, 1);
    assert_eq!(times[1].servers, 1);
    assert_eq!(times[2].servers, 2, "growth before iteration 2");
    assert_eq!(times[3].servers, 2);
}
