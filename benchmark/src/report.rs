//! Turns what a run measured into named metrics.
//!
//! Three currencies, never mixed under one name: `virt_*` is virtual time
//! of the simulated platform (modeled fabric and protocol costs plus
//! measured compute charged into the virtual clocks), `host_*` is what
//! running the simulator cost this machine, and counts are per-iteration
//! event totals from the crates' own tracer.

use std::collections::BTreeMap;

use hpcsim::TraceSnapshot;

use crate::harness::{IterRecord, SegmentReport};
use crate::meter::mean;
use crate::spans::{totals, Span};

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Caller-side span names of the SSG group's RPCs (the daemons' group is
/// named `colza`, and `ssg` registers `<group>.<verb>`).
const GOSSIP_RPCS: [&str; 4] = [
    "rpc:colza.ping",
    "rpc:colza.pingreq",
    "rpc:colza.join",
    "rpc:colza.leave",
];

/// The run-level value of a per-iteration quantity: for every cycle
/// position, the mean of the fastest tenth (at least one) of that
/// position's samples; then the mean over the positions that have samples
/// (`f` returns `None` for an iteration that has no value, e.g. one that
/// did not render).
///
/// Iterations at one cycle position stage the same inputs and do the same
/// work in every cycle, so they differ only by disturbance, and for
/// anything made of CPU time that is other tenants of the host: it only
/// ever *adds* time, in bursts of a tenth of a second to several seconds.
/// The fastest of many identical iterations are the least disturbed
/// estimate of what the code costs; a tenth of them rather than the single
/// fastest keeps one lucky sample from deciding the value, and working per
/// position rather than per cycle lets a two-second cycle that a burst
/// clipped still contribute its clean iterations. Run-to-run spreads of the
/// candidates are in the README ("The two statistics"). A regression in the
/// code slows every iteration and moves this value just the same; one that
/// slows only *some* cycles does not — the plain means over every traced
/// iteration (`core.*.host_us`, `core.*.virt_us`) are where that shows.
fn steady(iterations: &[IterRecord], f: impl Fn(&IterRecord) -> Option<f64>) -> f64 {
    let mut by_pos: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in iterations {
        if let Some(v) = f(r) {
            by_pos.entry(r.pos).or_default().push(v);
        }
    }
    assert!(!by_pos.is_empty(), "a measured segment has whole cycles");
    let floors: Vec<f64> = by_pos
        .values_mut()
        .map(|v| {
            v.sort_by(f64::total_cmp);
            mean(&v[..v.len().div_ceil(10)])
        })
        .collect();
    mean(&floors)
}

/// `execute`'s virtual span net of Catalyst's modeled one-time
/// initialisation. The model charges a constant 3 s to a server's first
/// `execute`; static workloads pay it in the warm-up iteration, and in
/// `elastic_churn` every freshly joined server pays it again, where it
/// would bury the 10 ms of real work under a constant 300 times larger.
fn execute_net_ns(r: &IterRecord) -> u64 {
    let init = if r.joined {
        catalyst::CatalystConfig::default().init_cost_ns
    } else {
        0
    };
    r.execute.virt_ns.saturating_sub(init)
}

/// The end-to-end metrics of a dark segment.
///
/// Whatever is made of measured CPU time — the host costs, and `execute`,
/// whose rendering is charged into virtual time as the CPU time it took —
/// is the [`steady`] value. The two purely modeled spans, stage and
/// `activate`, are plain means over every measured iteration: their noise
/// is not the host's (it is which of two racing RPCs a server took first,
/// and now and then a gossip clock leaking in), it is small, two-sided and
/// averages out over the hundreds of iterations of a run, whereas the
/// fastest samples of a modeled span are the one best-case interleaving and
/// would read the same to the last digit on every run.
pub fn end_to_end(seg: &SegmentReport, setup_s: f64) -> Values {
    let its = &seg.iterations;
    let floor =
        |f: &dyn Fn(&IterRecord) -> Option<u64>| steady(its, |r| f(r).map(|v| v as f64)) / MS;
    let plain = |f: &dyn Fn(&IterRecord) -> u64| {
        mean(&its.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) / MS
    };
    Values::from([
        (
            // What the simulation waited for the staging area per
            // iteration: the four calls, and the resize before them.
            "virt_iter_ms",
            floor(&|r| {
                Some(
                    r.resize_virt_ns
                        + r.activate.virt_ns
                        + r.stage.virt_ns
                        + execute_net_ns(r)
                        + r.deactivate.virt_ns,
                )
            }),
        ),
        (
            "virt_execute_ms",
            floor(&|r| (!r.skipped).then(|| execute_net_ns(r))),
        ),
        ("virt_stage_ms", plain(&|r| r.stage.virt_ns)),
        ("virt_activate_ms", plain(&|r| r.activate.virt_ns)),
        ("host_cpu_ms_per_iter", floor(&|r| Some(r.host_cpu_ns))),
        ("host_wall_ms_per_iter", floor(&|r| Some(r.host_wall_ns))),
        ("setup_s", setup_s),
    ])
}

/// Sum over processes of every counter named `<prefix>…<suffix>`.
fn counters_like(trace: &TraceSnapshot, prefix: &str, suffix: &str) -> u64 {
    trace
        .counters
        .iter()
        .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
        .map(|c| c.value)
        .sum()
}

/// Bytes the fabric carried: eager messages of every plane plus RDMA.
pub fn wire_bytes(trace: &TraceSnapshot) -> u64 {
    counters_like(trace, "na.plane.", ".bytes") + trace.counter_total("na.rdma.bytes")
}

/// Per-iteration maximum over servers of the `colza.srv.execute` span,
/// averaged over iterations: the server-side critical path of `execute`.
fn srv_execute_virt_us(trace: &TraceSnapshot) -> f64 {
    let mut slowest: BTreeMap<&str, u64> = BTreeMap::new();
    for s in trace.spans_named("colza.srv.execute") {
        let Some((_, iteration)) = s.args.iter().find(|(k, _)| *k == "iteration") else {
            continue;
        };
        let d = s.end_ns - s.start_ns;
        let slot = slowest.entry(iteration.as_str()).or_default();
        *slot = (*slot).max(d);
    }
    mean(&slowest.values().map(|&d| d as f64).collect::<Vec<_>>()) / US
}

/// The layer metrics a traced segment yields: client-call costs from the
/// benchmark's own spans, counts from the crates' tracer.
pub fn traced_layers(traced: &SegmentReport, dark: &SegmentReport, spans: &[Span]) -> Values {
    let trace = traced
        .trace
        .as_ref()
        .expect("a traced segment carries the tracer snapshot");
    let n = traced.iterations.len().max(1) as f64;
    let mut v = Values::new();
    let by_call = totals(spans);
    for (call, virt_name, host_name) in [
        (
            "core/client.activate",
            "core.activate.virt_us",
            "core.activate.host_us",
        ),
        (
            "core/client.stage",
            "core.stage.virt_us",
            "core.stage.host_us",
        ),
        (
            "core/client.execute",
            "core.execute.virt_us",
            "core.execute.host_us",
        ),
        (
            "core/client.deactivate",
            "core.deactivate.virt_us",
            "core.deactivate.host_us",
        ),
    ] {
        // Mean per call; a call the workload never makes reads 0.
        let (virt, host) = by_call.get(call).map_or((0.0, 0.0), |t| {
            let n = t.count.max(1) as f64;
            (t.virt_ns as f64 / n / US, t.host_ns as f64 / n / US)
        });
        v.insert(virt_name, virt);
        v.insert(host_name, host);
    }
    v.insert("core.srv_execute.virt_us", srv_execute_virt_us(trace));

    let counter = |name: &str| trace.counter_total(name) as f64;
    let span_count = |pred: &dyn Fn(&str) -> bool| -> f64 {
        trace.spans.iter().filter(|s| pred(&s.name)).count() as f64
    };
    let na_msgs = counters_like(trace, "na.plane.", ".msgs") as f64;
    v.insert("na.msgs_per_iter", na_msgs / n);
    v.insert("na.wire_bytes_per_iter", wire_bytes(trace) as f64 / n);
    v.insert("na.rdma_bytes_per_iter", counter("na.rdma.bytes") / n);
    // Client-protocol and store RPCs. SWIM gossip runs on wall-clock
    // timers and is counted under `ssg.pings_per_iter` instead, which
    // keeps this count an exact function of the workload.
    v.insert(
        "margo.rpcs_per_iter",
        span_count(&|name| name.starts_with("rpc:") && !GOSSIP_RPCS.contains(&name)) / n,
    );
    v.insert("margo.retries_per_iter", counter("rpc.retries") / n);
    v.insert(
        "mona.colls_per_iter",
        span_count(&|name| name.starts_with("mona.coll:")) / n,
    );
    v.insert(
        "mona.rounds_per_iter",
        span_count(&|name| name == "mona.coll.round") / n,
    );
    v.insert("ssg.pings_per_iter", counter("ssg.ping.sent") / n);
    v.insert(
        "store.pushes_per_iter",
        (counter("colza.store.moved.blocks") + counter("colza.store.drain.blocks")) / n,
    );
    v.insert(
        "store.push_bytes_per_iter",
        (counter("colza.store.moved.bytes") + counter("colza.store.drain.bytes")) / n,
    );
    v.insert(
        "hpcsim.msgs_per_host_s",
        na_msgs / (traced.host_cpu_ns.max(1) as f64 / 1e9),
    );
    let cpu = |s: &SegmentReport| steady(&s.iterations, |r| Some(r.host_cpu_ns as f64));
    v.insert(
        "hpcsim.trace_overhead_pct",
        (cpu(traced) / cpu(dark) - 1.0) * 100.0,
    );
    v
}

/// Grow/shrink/changed-view-activate costs of an `elastic_churn` segment.
pub fn resize_layers(seg: &SegmentReport) -> Values {
    let of = |grow: bool| {
        mean(
            &seg.resizes
                .iter()
                .filter(|r| r.grow == grow)
                .map(|r| r.timing.virt_ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    let changed: Vec<f64> = seg
        .iterations
        .iter()
        .filter(|r| r.changed_view)
        .map(|r| r.activate.virt_ns as f64)
        .collect();
    Values::from([
        ("core.grow.virt_ms", of(true) / MS),
        ("core.shrink.virt_ms", of(false) / MS),
        ("core.activate_changed.virt_us", mean(&changed) / US),
    ])
}
