//! Multi-tenant QoS end-to-end tests (DESIGN.md §14): a noisy tenant
//! flooding the staging area past its staged-byte quota is throttled —
//! typed, retryable backpressure on `stage`, minimum-weight scheduling
//! on `execute` — while a well-behaved tenant sharing the same server
//! keeps its per-iteration latency within a configured bound.
//!
//! Built on the same exact-determinism harness as `observability_e2e`:
//! `compute_scale: 0.0`, one non-ticking server, one sequential client,
//! the inert `null` backend. Under those conditions every virtual
//! timestamp — including the quota-backoff sleeps and the execute gate's
//! modeled queueing — is a pure function of the protocol, so two runs
//! with the same seed must export byte-identical traces.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use colza::{
    BlockMeta, ColzaError, PriorityClass, StagingArea, TenancyConfig, TenantConfig, TenantUsage,
};

const ITERATIONS: u64 = 3;
/// Noisy-tenant block size (raw codec: encoded == plain).
const NOISY_BLOCK: usize = 1024;
/// Well-behaved-tenant block size.
const WB_BLOCK: usize = 2048;
/// Two noisy blocks fit, the third is refused.
const NOISY_QUOTA: u64 = 2 * NOISY_BLOCK as u64 + NOISY_BLOCK as u64 / 2;
/// Each noisy execute (cost = staged bytes, 2048 ns) blows this window.
const NOISY_EXEC_QUOTA_NS: u64 = 1_000;
/// The isolation bound: a full well-behaved iteration (activate, two
/// staged blocks, execute, deactivate) on a one-server area costs tens
/// of microseconds of virtual time under the aries wire model. 1 ms
/// leaves an order-of-magnitude margin yet is far below the noisy
/// tenant's 1 ms-and-up backoff sleeps — a well-behaved iteration that
/// got entangled with the neighbor's backpressure would blow it.
const WB_LATENCY_BOUND_NS: u64 = 1_000_000;
/// Virtual budget for the budget-expiry backpressure probe.
const BACKPRESSURE_BUDGET: Duration = Duration::from_millis(20);

/// The policy under test: the noisy tenant is quota-capped Bronze, the
/// well-behaved tenant unlimited Gold, enforcement on.
fn policy() -> TenancyConfig {
    TenancyConfig::enforcing()
        .with_tenant(
            "noisy",
            TenantConfig {
                staged_byte_quota: NOISY_QUOTA,
                execute_quota_ns: NOISY_EXEC_QUOTA_NS,
                priority: PriorityClass::Bronze,
            },
        )
        .with_tenant(
            "wb",
            TenantConfig {
                priority: PriorityClass::Gold,
                ..TenantConfig::default()
            },
        )
}

struct RunOutput {
    snapshot: hpcsim::TraceSnapshot,
    chrome: String,
    jsonl: String,
    /// Per-tenant holdings scraped mid-iteration 0, after the noisy
    /// tenant filled its quota and before anything released.
    usage_mid: Vec<TenantUsage>,
    /// Virtual ns per well-behaved iteration (activate → deactivate).
    wb_latencies: Vec<u64>,
    /// Virtual ns the budget-expiry backpressure probe spent backing off.
    backpressure_elapsed_ns: u64,
    client_end_ns: u64,
}

/// One deterministic two-tenant session against a single server: per
/// iteration the noisy tenant fills its quota and bounces off it, the
/// well-behaved tenant runs a timed full iteration, then the noisy
/// tenant executes (blowing its window quota) and releases. A final
/// epilogue probes `stage_with_backpressure` with no release coming
/// (budget expiry) and right after one (immediate success).
fn run_scenario(seed: u64) -> RunOutput {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    let contact = area.launch_bare();

    let (usage_mid, wb_latencies, backpressure_elapsed_ns, client_end_ns) = area
        .client("client", 1, move |s| {
            let (client, admin, ctx) = (&s.client, &s.admin, &s.ctx);
            let view = client.view_from(contact).unwrap();
            assert_eq!(view, vec![contact]);
            admin.create_pipeline(contact, "null", "wb", "").unwrap();
            admin.create_pipeline(contact, "null", "noisy", "").unwrap();
            admin.set_tenancy(contact, &policy()).unwrap();

            let mut wb = client.distributed_handle(contact, "wb").unwrap();
            wb.set_tenant("wb");
            let mut noisy = client.distributed_handle(contact, "noisy").unwrap();
            noisy.set_tenant("noisy");

            let noisy_payload = Bytes::from(vec![0xAAu8; NOISY_BLOCK]);
            let wb_payload = Bytes::from(vec![0x55u8; WB_BLOCK]);
            let mut usage_mid = Vec::new();
            let mut wb_latencies = Vec::new();

            for it in 0..ITERATIONS {
                // The noisy tenant fills its quota, then bounces off it.
                noisy.activate(it).unwrap();
                for b in 0..2u64 {
                    noisy
                        .stage(BlockMeta::new("f", b, it, NOISY_BLOCK), &noisy_payload)
                        .unwrap();
                }
                let refused = noisy
                    .stage(BlockMeta::new("f", 2, it, NOISY_BLOCK), &noisy_payload)
                    .unwrap_err();
                assert!(
                    matches!(refused, ColzaError::QuotaExceeded(_)),
                    "over-quota stage must be the typed refusal, got {refused:?}"
                );
                assert!(
                    refused.is_retryable(),
                    "quota backpressure must be retryable: {refused}"
                );
                if it == 0 {
                    usage_mid = admin.tenant_usage(contact).unwrap();
                }

                // The well-behaved tenant's full iteration, timed.
                let t0 = ctx.now();
                wb.activate(it).unwrap();
                for b in 0..2u64 {
                    wb.stage(BlockMeta::new("w", b, it, WB_BLOCK), &wb_payload)
                        .unwrap();
                }
                wb.execute(it).unwrap();
                wb.deactivate(it).unwrap();
                wb_latencies.push(ctx.now() - t0);

                // The noisy tenant's execute (2048 ns of hinted cost)
                // exceeds its 1000 ns window quota; deactivate releases
                // its staged bytes and resets the window.
                noisy.execute(it).unwrap();
                noisy.deactivate(it).unwrap();
            }

            // Budget expiry: quota full, nothing will release — the
            // backoff loop must give up with the typed error once the
            // virtual deadline passes.
            let it = ITERATIONS;
            noisy.activate(it).unwrap();
            for b in 0..2u64 {
                noisy
                    .stage(BlockMeta::new("f", b, it, NOISY_BLOCK), &noisy_payload)
                    .unwrap();
            }
            let t0 = ctx.now();
            let r = noisy.stage_with_backpressure(
                BlockMeta::new("f", 2, it, NOISY_BLOCK),
                &noisy_payload,
                BACKPRESSURE_BUDGET,
            );
            let backpressure_elapsed_ns = ctx.now() - t0;
            assert!(
                matches!(r, Err(ColzaError::QuotaExceeded(_))),
                "budget expiry must surface the typed refusal: {r:?}"
            );
            noisy.execute(it).unwrap();
            noisy.deactivate(it).unwrap();

            // After the release the same block stages on the first try.
            noisy.activate(it + 1).unwrap();
            noisy
                .stage_with_backpressure(
                    BlockMeta::new("f", 2, it + 1, NOISY_BLOCK),
                    &noisy_payload,
                    BACKPRESSURE_BUDGET,
                )
                .unwrap();
            noisy.execute(it + 1).unwrap();
            noisy.deactivate(it + 1).unwrap();

            (usage_mid, wb_latencies, backpressure_elapsed_ns, ctx.now())
        })
        .join();
    area.shutdown();

    let snapshot = area.shared().trace_snapshot();
    RunOutput {
        chrome: snapshot.to_chrome_json(),
        jsonl: snapshot.to_metrics_jsonl(),
        snapshot,
        usage_mid,
        wb_latencies,
        backpressure_elapsed_ns,
        client_end_ns,
    }
}

/// ISSUE acceptance: the noisy tenant is throttled (quota refusals on
/// stage, minimum-weight scheduling after blowing its execute window)
/// while the well-behaved tenant's per-iteration latency stays within
/// the configured bound on the same server.
#[test]
fn noisy_neighbor_is_throttled_while_well_behaved_meets_its_bound() {
    let out = run_scenario(7);
    let snap = &out.snapshot;

    // Isolation: every well-behaved iteration under the bound.
    assert_eq!(out.wb_latencies.len(), ITERATIONS as usize);
    for (it, &lat) in out.wb_latencies.iter().enumerate() {
        assert!(
            lat <= WB_LATENCY_BOUND_NS,
            "wb iteration {it} took {lat} ns > bound {WB_LATENCY_BOUND_NS} ns \
             — the noisy neighbor leaked into the well-behaved tenant"
        );
    }

    // The noisy tenant really was refused: once per loop iteration plus
    // every backoff retry of the budget-expiry probe.
    let refused = snap.counter_total("colza.qos.quota.refused");
    assert!(
        refused > ITERATIONS,
        "expected per-iteration refusals plus backoff retries, got {refused}"
    );
    assert_eq!(
        snap.counter_total("colza.tenant.noisy.quota.refused"),
        refused,
        "every refusal belongs to the noisy tenant"
    );
    assert_eq!(snap.counter_total("colza.tenant.wb.quota.refused"), 0);
    assert!(snap.counter_total("colza.stage.backpressure") >= 1);

    // The noisy tenant blew its execute window every iteration and was
    // marked throttled; the gate actually scheduled work.
    assert!(snap.counter_total("colza.qos.exec.throttled") >= ITERATIONS);
    assert!(snap.counter_total("colza.qos.exec.queued") > 0);
    assert!(snap.counter_total("colza.qos.exec.served_ns") > 0);

    // Per-tenant stage accounting: the well-behaved tenant staged two
    // blocks per iteration, all admitted.
    assert_eq!(
        snap.counter_total("colza.tenant.wb.stage.blocks"),
        ITERATIONS * 2
    );
    assert_eq!(
        snap.counter_total("colza.tenant.wb.stage.bytes"),
        ITERATIONS * 2 * WB_BLOCK as u64
    );

    // The mid-iteration scrape saw exactly the noisy tenant's quota-full
    // holdings (the well-behaved tenant had nothing staged yet).
    let noisy = out
        .usage_mid
        .iter()
        .find(|u| u.tenant == "noisy")
        .expect("noisy tenant in the usage scrape");
    assert_eq!(noisy.staged_bytes, 2 * NOISY_BLOCK as u64);
    assert_eq!(noisy.blocks, 2);
    assert!(
        !out.usage_mid.iter().any(|u| u.tenant == "wb"),
        "wb had nothing staged at the scrape point: {:?}",
        out.usage_mid
    );
}

/// The backoff loop runs on the virtual clock: with no release coming it
/// retries (1 ms, 2 ms, 4 ms, ... of virtual sleep) until the budget is
/// spent, then returns the typed error — having consumed at least the
/// budget and not wildly more.
#[test]
fn backpressure_budget_is_honored_in_virtual_time() {
    let out = run_scenario(13);
    let budget = BACKPRESSURE_BUDGET.as_nanos() as u64;
    assert!(
        out.backpressure_elapsed_ns >= budget,
        "gave up after {} ns, before the {budget} ns budget",
        out.backpressure_elapsed_ns
    );
    assert!(
        out.backpressure_elapsed_ns < 3 * budget,
        "backoff overshot the budget: {} ns vs {budget} ns",
        out.backpressure_elapsed_ns
    );
    // The doubling backoff fits only a handful of retries in the budget.
    let retries = out.snapshot.counter_total("colza.stage.backpressure");
    assert!(
        (2..=10).contains(&retries),
        "expected a few backoff retries within the budget, got {retries}"
    );
}

/// The whole two-tenant session — quota refusals, backoff sleeps, gate
/// queueing and all — is exactly reproducible: two same-seed runs export
/// byte-identical Chrome-trace and metrics files.
#[test]
fn same_seed_tenant_runs_export_byte_identical_traces() {
    let a = run_scenario(42);
    let b = run_scenario(42);
    assert_eq!(a.client_end_ns, b.client_end_ns, "virtual end times diverged");
    assert_eq!(a.wb_latencies, b.wb_latencies, "wb latencies diverged");
    assert_eq!(
        a.backpressure_elapsed_ns, b.backpressure_elapsed_ns,
        "backoff timings diverged"
    );
    assert_eq!(a.chrome, b.chrome, "Chrome trace exports diverged");
    assert_eq!(a.jsonl, b.jsonl, "metrics JSONL exports diverged");
}

/// Backpressure resolves, not just expires: a stage blocked on the quota
/// succeeds as soon as the tenant's earlier iteration releases. The
/// blocked stage runs on a helper thread sharing the client's simulated
/// process (the `istage` pattern) while the main thread deactivates.
#[test]
fn backpressure_succeeds_once_a_release_frees_quota() {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed: 99,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    let contact = area.launch_bare();

    area
        .client("client", 1, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            client.view_from(contact).unwrap();
            admin.create_pipeline(contact, "null", "noisy", "").unwrap();
            admin.set_tenancy(contact, &policy()).unwrap();

            let mut handle = client.distributed_handle(contact, "noisy").unwrap();
            handle.set_tenant("noisy");
            let handle = Arc::new(handle);
            let payload = Bytes::from(vec![0xAAu8; NOISY_BLOCK]);

            // Iteration 0 holds the whole quota.
            handle.activate(0).unwrap();
            for b in 0..2u64 {
                handle
                    .stage(BlockMeta::new("f", b, 0, NOISY_BLOCK), &payload)
                    .unwrap();
            }

            // A next-iteration block backs off on the full quota while
            // this thread finishes iteration 0; the release frees the
            // bytes and the blocked stage completes within its budget.
            let ctx = Arc::clone(&s.ctx);
            let h2 = Arc::clone(&handle);
            let p2 = payload.clone();
            let blocked = std::thread::Builder::new()
                .name("blocked-stage".to_string())
                .spawn(move || {
                    hpcsim::process::enter(ctx, move || {
                        h2.stage_with_backpressure(
                            BlockMeta::new("f", 0, 1, NOISY_BLOCK),
                            &p2,
                            Duration::from_secs(2),
                        )
                    })
                })
                .unwrap();
            // Give the blocked stage time to bounce at least once.
            std::thread::sleep(Duration::from_millis(5));
            handle.execute(0).unwrap();
            handle.deactivate(0).unwrap();
            blocked
                .join()
                .expect("blocked stage panicked")
                .expect("stage must succeed once the release freed quota");

            // The freed-and-reused quota is visible in the scrape.
            let usage = admin.tenant_usage(contact).unwrap();
            let noisy = usage.iter().find(|u| u.tenant == "noisy").unwrap();
            assert_eq!(noisy.staged_bytes, NOISY_BLOCK as u64);
            assert_eq!(noisy.blocks, 1);
        })
        .join();
    area.shutdown();
}
