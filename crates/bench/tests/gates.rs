//! The bench gates, as tests: every shape `scripts/check.sh` used to
//! assert by running a `--smoke --assert` main is one `run` + `check` of
//! the scenario library here, at the same smoke parameters.
//!
//! Release only (`cargo test --release -p colza-bench --test gates`): the
//! trigger gate's skip-cost and savings thresholds were set on release
//! CPU spans, and the debug `--workspace` pass must not run each gate a
//! second time.
#![cfg(not(debug_assertions))]

use colza_bench::scenarios::{coll, heal, table2, tenant, trigger};

fn assert_holds(violations: Vec<String>) {
    assert!(
        violations.is_empty(),
        "gate violated:\n  - {}",
        violations.join("\n  - ")
    );
}

/// Self-healing (DESIGN.md §10): crash → healthy bounded with the
/// scrubber and the supervisor; persistent under-replication without.
#[test]
fn heal_gate() {
    assert_holds(heal::check(&heal::run(&[3], 4, 42), heal::DEFAULT_BOUND_NS));
}

/// Tenant isolation (§14): the noisy neighbors are refused and throttled
/// while the well-behaved tenant meets its latency bound.
#[test]
fn tenant_gate() {
    assert_holds(tenant::check(
        &tenant::run(&[2], 4, 42),
        tenant::DEFAULT_BOUND_NS,
    ));
}

/// Triggers (§15): skips cost ~zero, the savings are real, the same-seed
/// decision trace replays byte-for-byte.
#[test]
fn trigger_gate() {
    let outcome = trigger::run(&trigger::Params {
        servers: 2,
        clients: 2,
        blocks: 4,
        iters: 10,
        seed: 42,
        image: (64, 48),
    });
    assert_holds(trigger::check(&outcome));
}

/// Collective engine (§11): the size-adaptive algorithms beat the naive
/// whole-payload ones above the pipeline switchover.
#[test]
fn coll_gate() {
    assert_holds(coll::check(&coll::run(
        &[2 * 1024, 64 * 1024],
        &[16],
        Some(3),
    )));
}

/// Table II keeps the paper's shape: Cray fastest, OpenMPI collapse, MoNA
/// within a small factor of Cray.
#[test]
fn table2_shape_gate() {
    assert_holds(table2::check(&table2::run(64, 200, 16)));
}
