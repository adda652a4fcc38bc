//! Smoke tests for the shared experiment runner (static, static-MPI, and
//! elastic configurations at tiny scales).

use colza::CommMode;
use colza_bench::{run_pipeline_experiment, workloads, PipelineExperiment};
use sims::dwi::DwiSeries;

#[test]
fn static_mona_experiment_completes() {
    let exp = PipelineExperiment::new(
        2,
        2,
        CommMode::Mona,
        catalyst::PipelineScript::mandelbulb(24, 24),
        2,
    );
    let times = run_pipeline_experiment(exp, workloads::mandelbulb(12, 2));
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
    let times = run_pipeline_experiment(exp, workloads::mandelbulb(12, 1));
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
    let times = run_pipeline_experiment(exp, workloads::mandelbulb(12, 2));
    assert_eq!(times.len(), 4);
    assert_eq!(times[0].servers, 1);
    assert_eq!(times[1].servers, 1);
    assert_eq!(times[2].servers, 2, "growth before iteration 2");
    assert_eq!(times[3].servers, 2);
}

/// More servers than blocks: a server the ring hands nothing renders a
/// transparent frame instead of resampling a field it does not have.
#[test]
fn dwi_with_more_servers_than_blocks_completes() {
    let exp = PipelineExperiment::new(
        4,
        2,
        CommMode::Mona,
        catalyst::PipelineScript::deep_water_impact(64, 48),
        2,
    );
    let times = run_pipeline_experiment(exp, workloads::dwi(DwiSeries::scaled_down(2), 1));
    assert_eq!(times.len(), 2);
    assert!(times.iter().all(|t| t.servers == 4 && t.execute_ns > 0));
}
