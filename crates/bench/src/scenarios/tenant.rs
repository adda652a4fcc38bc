//! Multi-tenant QoS sweep — a well-behaved tenant sharing one staging
//! server with a pack of noisy tenants that flood past their staged-byte
//! quotas every iteration (DESIGN.md §14). Runs the same concurrent
//! workload twice — tenancy enforcement off, then on — and reports the
//! well-behaved tenant's per-iteration latency distribution next to the
//! refusal/throttle counters that show the QoS machinery actually
//! engaged.
//!
//! All timings are virtual nanoseconds (`compute_scale: 0.0`), so the
//! latencies measure protocol and modeled queueing, not host speed.

use std::sync::{Arc, Barrier};

use bytes::Bytes;

use colza::{BlockMeta, ColzaError, PriorityClass, StagingArea, TenancyConfig, TenantConfig};

/// Well-behaved tenant's block size and blocks per iteration.
const WB_BLOCK: usize = 16 * 1024;
const WB_BLOCKS: u64 = 4;
/// Noisy block size; each noisy tenant tries `FLOOD` of these per
/// iteration but its quota admits only two.
const NOISY_BLOCK: usize = 64 * 1024;
const FLOOD: u64 = 8;
const NOISY_QUOTA: u64 = 2 * NOISY_BLOCK as u64;
/// Execute-window quota far below a flood-sized render, so every noisy
/// execute trips the throttle.
const NOISY_EXEC_QUOTA_NS: u64 = 50_000;
/// Default bound on the well-behaved tenant's worst iteration with
/// enforcement on: generous against modeled queueing (one in-service
/// noisy execute may be ahead of the gate), tight against unthrottled
/// flooding.
pub const DEFAULT_BOUND_NS: u64 = 10_000_000;
/// What [`check`] verifies.
pub const HOLDS: &str = "quotas refused, executes throttled, well-behaved latency bounded";

#[derive(serde::Serialize, Default)]
pub struct Row {
    pub mode: &'static str,
    pub noisy_tenants: usize,
    pub iterations: u64,
    pub flood_blocks_per_iter: u64,
    pub wb_p50_ns: u64,
    pub wb_p99_ns: u64,
    pub wb_max_ns: u64,
    pub wb_latencies_ns: Vec<u64>,
    pub quota_refused: u64,
    pub exec_throttled: u64,
    pub staged_bytes_peak_noisy: u64,
}

fn policy(noisy_tenants: usize) -> TenancyConfig {
    let mut cfg = TenancyConfig::enforcing().with_tenant(
        "wb",
        TenantConfig {
            priority: PriorityClass::Gold,
            ..TenantConfig::default()
        },
    );
    for k in 0..noisy_tenants {
        cfg = cfg.with_tenant(
            format!("noisy{k}"),
            TenantConfig {
                staged_byte_quota: NOISY_QUOTA,
                execute_quota_ns: NOISY_EXEC_QUOTA_NS,
                priority: PriorityClass::Bronze,
            },
        );
    }
    cfg
}

/// One concurrent session on the bare single server of `tenant_e2e`
/// (node 0): the well-behaved client on node 1 and one flooding client
/// per noisy tenant on nodes 2+, all running their iterations at the
/// same time against the same staging server.
fn run_mode(enforce: bool, noisy_tenants: usize, iterations: u64, seed: u64) -> Row {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    let contact = area.launch_bare();

    // Setup pass: pipelines and (when enforcing) the tenancy policy.
    area.client("setup", 1, move |s| {
        let admin = &s.admin;
        admin.create_pipeline(contact, "null", "wb", "").unwrap();
        for k in 0..noisy_tenants {
            admin
                .create_pipeline(contact, "null", &format!("noisy{k}"), "")
                .unwrap();
        }
        if enforce {
            admin.set_tenancy(contact, &policy(noisy_tenants)).unwrap();
        }
    })
    .join();

    // All clients line up behind one barrier so the well-behaved
    // iterations really contend with the floods.
    let barrier = Arc::new(Barrier::new(1 + noisy_tenants));

    let noisy_handles: Vec<_> = (0..noisy_tenants)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            area.client(&format!("noisy{k}"), 2 + k, move |s| {
                let name = format!("noisy{k}");
                let mut handle = s.client.distributed_handle(contact, &name).unwrap();
                handle.set_tenant(&name);
                let payload = Bytes::from(vec![0xA0u8 | k as u8; NOISY_BLOCK]);
                barrier.wait();
                for it in 0..iterations {
                    handle.activate(it).unwrap();
                    for b in 0..FLOOD {
                        match handle.stage(BlockMeta::new("f", b, it, NOISY_BLOCK), &payload) {
                            Ok(()) => {}
                            Err(ColzaError::QuotaExceeded(_)) => {}
                            Err(e) => panic!("noisy{k} stage failed oddly: {e}"),
                        }
                    }
                    handle.execute(it).unwrap();
                    handle.deactivate(it).unwrap();
                }
            })
        })
        .collect();

    let b2 = Arc::clone(&barrier);
    let wb_latencies = area
        .client("wb", 1, move |s| {
            let ctx = &s.ctx;
            let mut handle = s.client.distributed_handle(contact, "wb").unwrap();
            handle.set_tenant("wb");
            let payload = Bytes::from(vec![0x55u8; WB_BLOCK]);
            let mut latencies = Vec::with_capacity(iterations as usize);
            b2.wait();
            for it in 0..iterations {
                let t0 = ctx.now();
                handle.activate(it).unwrap();
                for b in 0..WB_BLOCKS {
                    handle
                        .stage(BlockMeta::new("w", b, it, WB_BLOCK), &payload)
                        .unwrap();
                }
                handle.execute(it).unwrap();
                handle.deactivate(it).unwrap();
                latencies.push(ctx.now() - t0);
            }
            latencies
        })
        .join();
    for h in noisy_handles {
        h.join();
    }
    area.shutdown();

    let snap = area.shared().trace_snapshot();
    let mut sorted = wb_latencies.clone();
    sorted.sort_unstable();
    let staged_bytes_peak_noisy: u64 = (0..noisy_tenants)
        .map(|k| snap.counter_total(&format!("colza.tenant.noisy{k}.stage.bytes")))
        .max()
        .unwrap_or(0)
        / iterations.max(1);
    Row {
        mode: if enforce { "qos_on" } else { "qos_off" },
        noisy_tenants,
        iterations,
        flood_blocks_per_iter: FLOOD,
        wb_p50_ns: percentile(&sorted, 50.0),
        wb_p99_ns: percentile(&sorted, 99.0),
        wb_max_ns: *sorted.last().unwrap(),
        wb_latencies_ns: wb_latencies,
        quota_refused: snap.counter_total("colza.qos.quota.refused"),
        exec_throttled: snap.counter_total("colza.qos.exec.throttled"),
        staged_bytes_peak_noisy,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The sweep: a `qos_off` and a `qos_on` session per noisy-tenant count.
pub fn run(tenant_counts: &[usize], iterations: u64, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in tenant_counts {
        for enforce in [false, true] {
            rows.push(run_mode(enforce, n, iterations, seed));
        }
    }
    rows
}

/// Names every `qos_on` row in which enforcement did not engage or did
/// not protect the well-behaved tenant.
pub fn check(rows: &[Row], bound_ns: u64) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows.iter().filter(|r| r.mode == "qos_on") {
        let at = format!("qos_on noisy={}", row.noisy_tenants);
        if row.quota_refused == 0 {
            violations.push(format!(
                "{at}: no quota refusals — admission control never engaged"
            ));
        }
        if row.exec_throttled == 0 {
            violations.push(format!(
                "{at}: no execute throttling — the DRR gate never engaged"
            ));
        }
        if row.wb_max_ns > bound_ns {
            violations.push(format!(
                "{at}: well-behaved worst iteration {} ns > bound {bound_ns} ns",
                row.wb_max_ns
            ));
        }
        // Enforcement must bound what the noisy tenants can pin: with
        // QoS off a flood iteration stages FLOOD blocks, with it on at
        // most the quota's worth.
        if row.staged_bytes_peak_noisy > NOISY_QUOTA {
            violations.push(format!(
                "{at}: staged {} B/iter > quota {NOISY_QUOTA} B",
                row.staged_bytes_peak_noisy
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_refusals_are_named() {
        let qos_on = |quota_refused| Row {
            mode: "qos_on",
            noisy_tenants: 2,
            quota_refused,
            exec_throttled: 8,
            ..Default::default()
        };
        assert!(check(&[qos_on(48)], DEFAULT_BOUND_NS).is_empty());
        let v = check(&[qos_on(0)], DEFAULT_BOUND_NS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("noisy=2") && v[0].contains("no quota refusals"),
            "{v:?}"
        );
    }
}
