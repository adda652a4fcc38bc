//! Observability end-to-end tests: a full stage → execute → deactivate
//! run against a manual (non-ticking) server, with the tracer enabled.
//!
//! The scenario is built for *exact* determinism: `compute_scale: 0.0`
//! (no measured host CPU time reaches the virtual clocks), no daemon
//! loops or SWIM ticks (real-time timers), one sequential client, and the
//! inert `null` pipeline backend. Under those conditions every virtual
//! timestamp is a pure function of the protocol, so two runs with the
//! same seed must export byte-identical timelines.

use bytes::Bytes;

use colza::{BlockMeta, MetricsReport, StagingArea};

const ITERATIONS: u64 = 3;
const BLOCKS: u64 = 4;

/// Per-block payload size: varied so byte totals are not accidentally
/// symmetric.
fn block_len(iteration: u64, block: u64) -> usize {
    1024 + 512 * block as usize + 96 * iteration as usize
}

struct RunOutput {
    snapshot: hpcsim::TraceSnapshot,
    chrome: String,
    jsonl: String,
    report: MetricsReport,
    client_end_ns: u64,
}

/// One deterministic client/server staging session. `trace` controls
/// whether the cluster tracer is enabled for the run.
fn run_scenario(seed: u64, trace: bool) -> RunOutput {
    run_scenario_with_codec(seed, trace, None)
}

/// Same scenario with an optional client-side codec config (DESIGN.md
/// §13); `None` stages raw, which must stay byte-identical to the
/// pre-codec traces.
fn run_scenario_with_codec(
    seed: u64,
    trace: bool,
    codec: Option<colza::CodecConfig>,
) -> RunOutput {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(trace);
    // A bare server that never ticks: SWIM rounds are real-time driven
    // and would perturb the virtual clocks nondeterministically.
    let contact = area.launch_bare();

    let (report, client_end_ns) = area
        .client("client", 1, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            let view = client.view_from(contact).unwrap();
            assert_eq!(view, vec![contact]);
            admin.create_pipeline(contact, "null", "p", "").unwrap();
            let mut handle = client.distributed_handle(contact, "p").unwrap();
            if let Some(cfg) = codec {
                handle.set_codec(cfg);
            }
            for iteration in 0..ITERATIONS {
                handle.activate(iteration).unwrap();
                for block in 0..BLOCKS {
                    let payload = Bytes::from(vec![block as u8; block_len(iteration, block)]);
                    handle
                        .stage(
                            BlockMeta::new("p", block, iteration, payload.len()),
                            &payload,
                        )
                        .unwrap();
                }
                handle.execute(iteration).unwrap();
                handle.deactivate(iteration).unwrap();
            }
            // End-of-workload timestamp, taken *before* the metrics scrape:
            // the scrape's reply size depends on how many counters exist, so
            // its wire time legitimately differs between traced and dark
            // runs and must not count against the zero-cost property.
            let now = s.ctx.now();
            let report = admin.metrics(contact).unwrap();
            (report, now)
        })
        .join();
    area.shutdown();

    let snapshot = area.shared().trace_snapshot();
    RunOutput {
        chrome: snapshot.to_chrome_json(),
        jsonl: snapshot.to_metrics_jsonl(),
        snapshot,
        report,
        client_end_ns,
    }
}

/// Every span is well-formed: non-empty names, end ≥ start, and per
/// (pid, lane) the spans obey stack discipline — properly nested or
/// disjoint, never partially overlapping — with monotone start times.
#[test]
fn full_run_produces_well_formed_nested_spans() {
    let out = run_scenario(7, true);
    let spans = &out.snapshot.spans;
    assert!(!spans.is_empty(), "traced run recorded no spans");

    let pids: std::collections::BTreeSet<u64> =
        out.snapshot.proc_names.iter().map(|&(p, _)| p).collect();
    for s in spans {
        assert!(!s.name.is_empty() && !s.cat.is_empty());
        assert!(s.end_ns >= s.start_ns, "span {} ends before it starts", s.name);
        assert!(
            pids.contains(&s.pid),
            "span {} belongs to unknown pid {} (orphan)",
            s.name,
            s.pid
        );
    }

    // Stack discipline per timeline lane.
    let mut lanes: std::collections::BTreeMap<(u64, u32), Vec<&hpcsim::trace::SpanRec>> =
        std::collections::BTreeMap::new();
    for s in spans {
        lanes.entry((s.pid, s.lane)).or_default().push(s);
    }
    for ((pid, lane), lane_spans) in lanes {
        let mut stack: Vec<&hpcsim::trace::SpanRec> = Vec::new();
        let mut prev_start = 0u64;
        for s in lane_spans {
            assert!(
                s.start_ns >= prev_start,
                "lane ({pid},{lane}) start times not monotone"
            );
            prev_start = s.start_ns;
            while let Some(top) = stack.last() {
                if top.end_ns <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                assert!(
                    s.end_ns <= top.end_ns,
                    "lane ({pid},{lane}): span {} [{}, {}] partially overlaps {} [{}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    top.name,
                    top.start_ns,
                    top.end_ns
                );
            }
            stack.push(s);
        }
    }

    // The protocol phases and the layers below them all appear.
    for name in [
        "colza.activate",
        "colza.2pc.prepare",
        "colza.2pc.commit",
        "colza.stage",
        "colza.srv.stage",
        "colza.execute",
        "colza.srv.execute",
        "colza.deactivate",
        "rpc:colza.stage",
        "rpc.handle:colza.execute",
        "na.rdma_get",
    ] {
        assert!(
            out.snapshot.spans_named(name).next().is_some(),
            "expected at least one {name:?} span"
        );
    }
    // One activate per iteration, one client stage span per block.
    assert_eq!(
        out.snapshot.spans_named("colza.activate").count(),
        ITERATIONS as usize
    );
    assert_eq!(
        out.snapshot.spans_named("colza.stage").count(),
        (ITERATIONS * BLOCKS) as usize
    );
    // A clean single-server run commits on the first 2PC attempt.
    assert_eq!(out.snapshot.counter_total("colza.2pc.aborts"), 0);
}

/// The same seed exports byte-identical Chrome-trace and metrics files
/// across two fresh clusters (the property PR 1 established for fault
/// traces, extended to the whole observability layer).
#[test]
fn same_seed_exports_byte_identical_traces() {
    let a = run_scenario(42, true);
    let b = run_scenario(42, true);
    assert_eq!(a.client_end_ns, b.client_end_ns, "virtual end times diverged");
    assert_eq!(a.chrome, b.chrome, "Chrome trace exports diverged");
    assert_eq!(a.jsonl, b.jsonl, "metrics JSONL exports diverged");
    assert!(a.chrome.contains("\"ph\":\"X\""));
    assert!(a.jsonl.contains("\"type\":\"counter\""));
}

/// Byte accounting reconciles across layers: what margo says it put on
/// the RPC plane equals what the NA layer counted there, per-link bytes
/// sum to the plane totals, and the server's RDMA pulls equal the staged
/// payload bytes exactly.
#[test]
fn counters_reconcile_across_layers() {
    let out = run_scenario(3, true);
    let snap = &out.snapshot;

    let plane_rpc = snap.counter_total("na.plane.rpc.bytes");
    let rpc_out = snap.counter_total("rpc.bytes.out");
    let rpc_reply = snap.counter_total("rpc.bytes.reply");
    assert!(plane_rpc > 0 && rpc_out > 0 && rpc_reply > 0);
    assert_eq!(
        plane_rpc,
        rpc_out + rpc_reply,
        "margo byte accounting disagrees with the NA plane counter"
    );

    // Message counts: every request the client sent plus every reply the
    // server sent is exactly what NA saw on the rpc plane.
    let sent = snap.counter_total("rpc.sent.msgs");
    let replies =
        snap.counter_total("rpc.handled.msgs") + snap.counter_total("rpc.dedup.replayed");
    assert_eq!(snap.counter_total("na.plane.rpc.msgs"), sent + replies);

    // Per-link bytes partition the total send volume across all planes.
    let all_planes = ["rpc", "mona", "mpi", "ssg", "raw"]
        .iter()
        .map(|p| snap.counter_total(&format!("na.plane.{p}.bytes")))
        .sum::<u64>();
    assert_eq!(snap.counter_prefix_total("na.link.bytes."), all_planes);

    // The server pulled every staged payload once, via RDMA.
    let staged: u64 = (0..ITERATIONS)
        .flat_map(|i| (0..BLOCKS).map(move |b| block_len(i, b) as u64))
        .sum();
    assert_eq!(snap.counter_total("na.rdma.bytes"), staged);

    // Clean wire: nothing dropped, nothing duplicated, no retries.
    assert_eq!(snap.counter_total("na.dropped.msgs"), 0);
    assert_eq!(snap.counter_total("rpc.retries"), 0);
}

/// The `colza.admin.metrics` RPC scrapes the server's own counters and
/// they agree with the cluster-level snapshot for that pid.
#[test]
fn metrics_rpc_scrapes_server_counters() {
    let out = run_scenario(11, true);
    assert!(out.report.enabled, "server reported tracing disabled");
    let get = |name: &str| -> u64 {
        out.report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert!(get("rpc.handled.msgs") > 0, "server handled no RPCs?");
    assert!(get("na.rdma.bytes") > 0, "server pulled no staged data?");
    // Names come back sorted (BTreeMap order) — the scrape is canonical.
    let names: Vec<&String> = out.report.counters.iter().map(|(n, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);

    // The scrape is a prefix of the final cluster truth: every scraped
    // value is ≤ the end-of-run value for the same (pid, counter).
    for (name, value) in &out.report.counters {
        let end = out
            .snapshot
            .counters
            .iter()
            .find(|c| c.pid == out.report.pid && &c.name == name)
            .map(|c| c.value)
            .unwrap_or(0);
        assert!(
            *value <= end,
            "scraped {name}={value} exceeds final value {end}"
        );
    }
}

/// With compression enabled, byte accounting still reconciles — but now
/// across the codec boundary: what the client's encoder emitted is
/// exactly what crossed the wire via RDMA, and what the server decoded
/// back is exactly the raw staged volume.
#[test]
fn codec_bytes_reconcile_on_the_wire() {
    let cfg = colza::CodecConfig::uniform(colza::CodecSpec::ShuffleLz);
    let out = run_scenario_with_codec(3, true, Some(cfg));
    let snap = &out.snapshot;

    let staged: u64 = (0..ITERATIONS)
        .flat_map(|i| (0..BLOCKS).map(move |b| block_len(i, b) as u64))
        .sum();
    let enc_in = snap.counter_total("colza.codec.encode.bytes_in");
    let enc_out = snap.counter_total("colza.codec.encode.bytes_out");
    let dec_in = snap.counter_total("colza.codec.decode.bytes_in");
    let dec_out = snap.counter_total("colza.codec.decode.bytes_out");

    // The encoder saw every staged byte exactly once (compress once).
    assert_eq!(enc_in, staged);
    // Wire truth: the RDMA plane moved exactly the encoded frames.
    assert_eq!(
        snap.counter_total("na.rdma.bytes"),
        enc_out,
        "bytes-on-wire != sum of encoded block sizes"
    );
    // The constant-byte payloads are highly compressible; the codec must
    // have actually shrunk the wire volume.
    assert!(
        enc_out < staged,
        "shuffle+lz did not compress ({enc_out} >= {staged})"
    );
    // The server decoded each frame once (to feed the backend) and got
    // the staged bytes back exactly.
    assert_eq!(dec_in, enc_out);
    assert_eq!(dec_out, staged, "decoded-size accounting != byte_size sum");

    // Frame counters name the codec that ran.
    assert_eq!(
        snap.counter_total("colza.codec.enc.shuffle_lz.frames"),
        ITERATIONS * BLOCKS
    );

    // Still a clean wire underneath.
    assert_eq!(snap.counter_total("na.dropped.msgs"), 0);
    assert_eq!(snap.counter_total("rpc.retries"), 0);
}

/// Codec-enabled runs are exactly as deterministic as raw runs: the
/// encode path charges modeled virtual time, so two same-seed runs export
/// byte-identical traces.
#[test]
fn codec_runs_export_byte_identical_traces() {
    let cfg = || colza::CodecConfig::uniform(colza::CodecSpec::ShuffleLz);
    let a = run_scenario_with_codec(42, true, Some(cfg()));
    let b = run_scenario_with_codec(42, true, Some(cfg()));
    assert_eq!(a.client_end_ns, b.client_end_ns, "virtual end times diverged");
    assert_eq!(a.chrome, b.chrome, "Chrome trace exports diverged");
    assert_eq!(a.jsonl, b.jsonl, "metrics JSONL exports diverged");
    // And enabling a codec genuinely changed the wire relative to raw.
    let raw = run_scenario(42, true);
    assert!(
        raw.snapshot.counter_total("na.rdma.bytes")
            > a.snapshot.counter_total("na.rdma.bytes")
    );
}

/// With the tracer disabled the run records nothing — and the virtual
/// time outcome is identical to the traced run, i.e. observing the system
/// does not change it.
#[test]
fn disabled_tracer_is_zero_cost_in_virtual_time() {
    let traced = run_scenario(5, true);
    let dark = run_scenario(5, false);
    assert!(dark.snapshot.spans.is_empty());
    assert!(dark.snapshot.counters.is_empty());
    assert!(dark.snapshot.hists.is_empty());
    assert_eq!(
        traced.client_end_ns, dark.client_end_ns,
        "tracing perturbed the virtual clock"
    );
    assert!(!dark.report.enabled);
    assert!(dark.report.counters.is_empty());
}

/// Per-tenant accounting reconciles across layers (DESIGN.md §14): a
/// mid-iteration scrape's `tenants` section agrees with the aggregate
/// staged/decoded gauges, with the per-tenant stage counters, and with
/// the codec layer's wire truth. A single-tenant run reports exactly one
/// implicit `"default"` entry equal to the totals — multi-tenancy
/// changes nothing about what a plain deployment observes.
#[test]
fn per_tenant_usage_reconciles_with_codec_and_store_counters() {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed: 17,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    // A bare server that never ticks: SWIM rounds are real-time driven
    // and would perturb the virtual clocks nondeterministically.
    let contact = area.launch_bare();

    let mid_report = area
        .client("client", 1, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            client.view_from(contact).unwrap();
            admin.create_pipeline(contact, "null", "p", "").unwrap();
            let mut handle = client.distributed_handle(contact, "p").unwrap();
            // Compressed staging: on-store bytes differ from plain bytes,
            // so the staged/decoded split in the usage report is real.
            handle.set_codec(colza::CodecConfig::uniform(colza::CodecSpec::ShuffleLz));
            handle.activate(0).unwrap();
            for block in 0..BLOCKS {
                let payload = Bytes::from(vec![block as u8; block_len(0, block)]);
                handle
                    .stage(BlockMeta::new("p", block, 0, payload.len()), &payload)
                    .unwrap();
            }
            // Scrape while the blocks are held (post-stage, pre-release).
            let report = admin.metrics(contact).unwrap();
            handle.execute(0).unwrap();
            handle.deactivate(0).unwrap();
            report
        })
        .join();
    area.shutdown();
    let snap = area.shared().trace_snapshot();

    // Exactly one tenant — the implicit default — holding every block.
    assert_eq!(mid_report.tenants.len(), 1, "{:?}", mid_report.tenants);
    let usage = &mid_report.tenants[0];
    assert_eq!(usage.tenant, "default");
    assert_eq!(usage.blocks, BLOCKS);

    // The per-tenant rows partition the aggregate staged-bytes gauge.
    let tenant_staged: u64 = mid_report.tenants.iter().map(|t| t.staged_bytes).sum();
    assert_eq!(
        tenant_staged, mid_report.staged_bytes,
        "per-tenant staged bytes must sum to the aggregate gauge"
    );

    // Decoded (plain) bytes are the raw staged volume; staged (encoded)
    // bytes are what actually crossed the wire and sit in the store.
    let plain: u64 = (0..BLOCKS).map(|b| block_len(0, b) as u64).sum();
    assert_eq!(usage.decoded_bytes, plain);
    assert!(
        usage.staged_bytes < plain,
        "shuffle+lz stored {} >= plain {plain}",
        usage.staged_bytes
    );

    // Wire truth: the encoded holdings are exactly the RDMA-pulled bytes
    // and exactly what the codec decoded on the server.
    assert_eq!(usage.staged_bytes, snap.counter_total("na.rdma.bytes"));
    assert_eq!(
        usage.staged_bytes,
        snap.counter_total("colza.codec.decode.bytes_in")
    );
    assert_eq!(
        usage.decoded_bytes,
        snap.counter_total("colza.codec.decode.bytes_out")
    );

    // The per-tenant stage counters saw every admission once. One
    // iteration, nothing released before the scrape: cumulative counters
    // equal the held usage exactly.
    assert_eq!(
        snap.counter_total("colza.tenant.default.stage.blocks"),
        usage.blocks
    );
    assert_eq!(
        snap.counter_total("colza.tenant.default.stage.bytes"),
        usage.staged_bytes
    );
    assert_eq!(
        snap.counter_total("colza.tenant.default.stage.decoded_bytes"),
        usage.decoded_bytes
    );
    // No tenancy policy installed: nothing was ever refused or queued.
    assert_eq!(snap.counter_total("colza.qos.quota.refused"), 0);
    assert_eq!(snap.counter_total("colza.qos.exec.queued"), 0);
}

/// After the iteration releases, the per-tenant section empties again —
/// usage is a live gauge of held bytes, not a history — so an end-of-run
/// scrape from a plain single-tenant deployment reports exactly what it
/// did before multi-tenancy existed.
#[test]
fn released_iterations_leave_no_tenant_residue() {
    let out = run_scenario(11, true);
    assert!(
        out.report.tenants.is_empty(),
        "post-release scrape must report no held tenant bytes: {:?}",
        out.report.tenants
    );
    assert_eq!(out.report.staged_bytes, 0);
}

/// Reactive-trigger observability (DESIGN.md §15): the trigger counters
/// reconcile with the decision schedule, and the *fused* stats collective
/// really is one allreduce per evaluated iteration — bounds, min/max and
/// sum/count all ride the same payload, so enabling triggers (and `mean`)
/// adds no extra collective.
#[test]
fn trigger_counters_and_fused_collective_reconcile() {
    use vizkit::data::{CellType, DataArray, UnstructuredGrid};

    const TRIG_ITERS: u64 = 6;

    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        seed: 23,
        compute_scale: 0.0,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    // A bare server that never ticks: SWIM rounds are real-time driven
    // and would perturb the virtual clocks nondeterministically.
    let contact = area.launch_bare();

    // One voxel cell carrying a `v02` value: even iterations stage a hot
    // 5.0 (fires `max(v02) > 3.0`), odd iterations a quiet 1.0 (skips).
    fn voxel_payload(value: f32) -> Bytes {
        let mut g = UnstructuredGrid::new();
        for k in 0..2u32 {
            for j in 0..2u32 {
                for i in 0..2u32 {
                    g.points.push([i as f32 * 4.0, j as f32 * 4.0, k as f32 * 4.0]);
                }
            }
        }
        g.add_cell(CellType::Voxel, &[0, 1, 2, 3, 4, 5, 6, 7]);
        g.cell_data.set("v02", DataArray::F32(vec![value]));
        colza::codec::dataset_to_bytes(&vizkit::DataSet::UGrid(g))
    }

    let outcomes = area
        .client("client", 1, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            client.view_from(contact).unwrap();
            let mut script = catalyst::PipelineScript::deep_water_impact(32, 24);
            script.triggers = vec![catalyst::TriggerSpec::new("max(v02) > 3.0", "run")];
            admin
                .create_pipeline(contact, "catalyst", "t", &script.to_json())
                .unwrap();
            let handle = client.distributed_handle(contact, "t").unwrap();
            let mut outcomes = Vec::new();
            for iteration in 0..TRIG_ITERS {
                handle.activate(iteration).unwrap();
                let payload = voxel_payload(if iteration % 2 == 0 { 5.0 } else { 1.0 });
                handle
                    .stage(BlockMeta::new("t", 0, iteration, payload.len()), &payload)
                    .unwrap();
                outcomes.push(handle.execute(iteration).unwrap());
                handle.deactivate(iteration).unwrap();
            }
            outcomes
        })
        .join();
    area.shutdown();
    let snap = area.shared().trace_snapshot();

    // The decision schedule alternates with the staged data.
    let expected: Vec<colza::ExecOutcome> = (0..TRIG_ITERS)
        .map(|i| {
            if i % 2 == 0 {
                colza::ExecOutcome::Ran
            } else {
                colza::ExecOutcome::Skipped
            }
        })
        .collect();
    assert_eq!(outcomes, expected);

    // Trigger counters reconcile with that schedule: one evaluation per
    // iteration, one firing per hot iteration, one skip per quiet one —
    // and the provider's skip counter agrees with the pipeline's.
    assert_eq!(snap.counter_total("colza.trigger.evaluated"), TRIG_ITERS);
    assert_eq!(snap.counter_total("colza.trigger.fired"), TRIG_ITERS / 2);
    assert_eq!(snap.counter_total("colza.trigger.skipped"), TRIG_ITERS / 2);
    assert_eq!(
        snap.counter_total("colza.exec.skipped"),
        snap.counter_total("colza.trigger.skipped")
    );
    // Every evaluation opened its span.
    assert_eq!(
        snap.spans_named("catalyst.trigger.eval").count() as u64,
        TRIG_ITERS
    );

    // THE fused-collective property: exactly one stats allreduce per
    // evaluated iteration — executed iterations reuse the trigger-time
    // stats, and no second bounds/range collective exists anywhere.
    assert_eq!(
        snap.counter_total("colza.trigger.stats.collectives"),
        TRIG_ITERS
    );
    assert_eq!(
        snap.spans_named("mona.coll:allreduce").count() as u64,
        TRIG_ITERS,
        "expected exactly one fused allreduce per evaluated iteration"
    );
}
