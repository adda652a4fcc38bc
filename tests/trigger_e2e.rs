//! End-to-end reactive triggers (DESIGN.md §15): a triggered DWI pipeline
//! skips quiet iterations and runs interesting ones, every server reaches
//! the same decision (the client's divergence check makes disagreement a
//! hard error), and the whole schedule is a pure function of the seed.

use colza::{BlockMeta, ExecOutcome, StagingArea};

/// Runs a DWI pipeline with the given script on two servers and returns
/// the per-iteration decisions and `execute` spans.
///
/// Gossip is harness-driven (serialized `tick_sync`, no daemon timer) so
/// SWIM's real-time rounds can't perturb the virtual clocks — the same
/// discipline the chaos suite uses for byte-identical replay.
fn dwi_run(seed: u64, script: String) -> (Vec<ExecOutcome>, Vec<u64>) {
    let mut area = StagingArea::harness_driven(hpcsim::ClusterConfig {
        seed,
        ..hpcsim::ClusterConfig::aries()
    });
    area.launch(2, 1);
    area.tick_rounds(60);
    assert!(
        area.daemons().iter().all(|d| d.view().len() == 2),
        "serialized gossip failed to converge"
    );
    let contact = area.contact();

    let out = area.session("sim", 8).run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "dwi", &script)
            .unwrap();
        let handle = s.client.distributed_handle(contact, "dwi").unwrap();
        let series = sims::dwi::DwiSeries {
            total_blocks: 4,
            scale: 1.0 / 2048.0,
            iterations: 10,
        };
        let ctx = &s.ctx;
        let mut outcomes = Vec::new();
        let mut execute_ns = Vec::new();
        for iteration in 0..10u64 {
            handle.activate(iteration).unwrap();
            for b in 0..4usize {
                let ds = vizkit::DataSet::UGrid(series.generate_block(iteration, b));
                let payload = colza::codec::dataset_to_bytes(&ds);
                handle
                    .stage(
                        BlockMeta::new("dwi", b as u64, iteration, payload.len()),
                        &payload,
                    )
                    .unwrap();
            }
            // `execute` errors out if the servers' trigger decisions ever
            // diverge, so a clean return doubles as the cross-rank
            // agreement assertion.
            let before = ctx.now();
            outcomes.push(handle.execute(iteration).unwrap());
            execute_ns.push(ctx.now() - before);
            handle.deactivate(iteration).unwrap();
        }
        (outcomes, execute_ns)
    });
    area.shutdown();
    out
}

fn triggered_script() -> String {
    catalyst::PipelineScript::deep_water_impact_triggered(64, 48).to_json()
}

/// The triggered script gates `run` on `max(v02) > 3.2 || iter % 4 == 1`:
/// the cadence keeps a heartbeat of renders before the jet shows up, the
/// velocity predicate takes over once it does, and everything else is
/// skipped. The same seed must reproduce the exact decision schedule.
/// (Exact virtual end times are only compared in the no-daemon
/// observability scenarios: multi-daemon runs break simultaneous-event
/// ties by host-thread arrival, as the chaos suite documents.)
#[test]
fn triggered_pipeline_skips_and_runs_deterministically() {
    let (outcomes_a, _spans_a) = dwi_run(42, triggered_script());

    assert_eq!(outcomes_a.len(), 10);
    assert_eq!(
        outcomes_a[1],
        ExecOutcome::Ran,
        "iteration 1 matches the `iter % 4 == 1` cadence: {outcomes_a:?}"
    );
    let ran = outcomes_a.iter().filter(|o| !o.is_skipped()).count();
    let skipped = outcomes_a.len() - ran;
    assert!(
        ran >= 2,
        "expected the cadence to fire at least twice: {outcomes_a:?}"
    );
    assert!(
        skipped >= 3,
        "quiet early iterations should be skipped: {outcomes_a:?}"
    );

    let (outcomes_b, _spans_b) = dwi_run(42, triggered_script());
    assert_eq!(outcomes_a, outcomes_b, "same seed, different skip schedule");
}

/// Skipping must actually save virtual time: on every skipped iteration
/// the triggered run pays only the fused stats allreduce (~µs) while
/// the always-run script pays a full render. The gate is per skipped
/// iteration, not on end-to-end totals — `charge_compute` measures real
/// host CPU, so whole-run virtual end times carry scheduling noise that
/// would swamp the margin at this test's small data scale (the same
/// reasoning as `bench_trigger`'s assert gates).
#[test]
fn skipped_iterations_cost_less_virtual_time() {
    let (outcomes, spans) = dwi_run(7, triggered_script());
    assert!(
        outcomes.iter().any(|o| o.is_skipped()),
        "no skips in {outcomes:?}"
    );

    let script = catalyst::PipelineScript::deep_water_impact(64, 48).to_json();
    let (baseline, base_spans) = dwi_run(7, script);
    assert!(
        baseline.iter().all(|o| !o.is_skipped()),
        "untriggered script must run every iteration: {baseline:?}"
    );
    for (i, ((o, &t_ns), &a_ns)) in
        outcomes.iter().zip(&spans).zip(&base_spans).enumerate()
    {
        if !o.is_skipped() {
            continue;
        }
        assert!(
            t_ns < 2_000_000,
            "skipped iteration {i} cost {t_ns} ns (expected ~zero)"
        );
        assert!(
            t_ns < a_ns,
            "skipped iteration {i} should cost less than the always-on \
             render there: {t_ns} vs {a_ns} ns"
        );
    }
}
