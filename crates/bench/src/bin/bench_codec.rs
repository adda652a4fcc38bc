//! **Codec sweep** — bytes-on-wire and host encode/decode cost for every
//! staging codec (DESIGN.md §13) across the three paper workloads:
//!
//! * `gray-scott` — slowly varying regular grid, the delta-codec target;
//! * `mandelbulb` — smooth static-ish scalar field (power drifts per
//!   iteration so deltas are small but nonzero);
//! * `dwi` — growing unstructured mesh whose size changes every iteration,
//!   forcing the delta codec to anchor (honest worst case).
//!
//! Emits JSON rows to `results/BENCH_codec.json` with bytes-in,
//! bytes-on-wire, compression ratio, host-clock encode/decode throughput
//! and the observed max elementwise error (zero for lossless codecs).
//!
//! Run: `cargo run --release -p colza-bench --bin bench_codec
//!       [--out results/BENCH_codec.json] [--smoke] [--assert]`
//!
//! `--smoke` shrinks grids and iteration counts for CI; `--assert` exits
//! nonzero unless the delta codec cuts Gray–Scott wire bytes by at least
//! 1.5x (the gate `scripts/check.sh` runs).

use std::time::Instant;

use bytes::Bytes;
use colza::codec::{self, CodecId, CodecSpec};
use colza_bench::{write_json, Args};
use vizkit::{DataArray, DataSet};

const LOSSY_BOUND: f32 = 1e-3;

#[derive(serde::Serialize)]
struct Row {
    series: &'static str,
    codec: &'static str,
    iterations: usize,
    bytes_in: u64,
    bytes_wire: u64,
    ratio: f64,
    encode_ns: u64,
    decode_ns: u64,
    encode_mb_per_s: f64,
    decode_mb_per_s: f64,
    max_abs_err: f64,
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let out_path = args.get_str("out", "results/BENCH_codec.json");

    let iters = if smoke { 3 } else { 6 };
    let series: Vec<(&'static str, Vec<Bytes>)> = vec![
        ("gray-scott", gray_scott_series(if smoke { 32 } else { 64 }, iters)),
        ("mandelbulb", mandelbulb_series(if smoke { 24 } else { 48 }, iters)),
        ("dwi", dwi_series(iters)),
    ];
    let codecs: Vec<(&'static str, CodecSpec)> = vec![
        ("raw", CodecSpec::Raw),
        ("shuffle_lz", CodecSpec::ShuffleLz),
        ("lossy", CodecSpec::Lossy { error_bound: LOSSY_BOUND }),
        ("delta", CodecSpec::Delta),
    ];

    let mut rows = Vec::new();
    for (name, payloads) in &series {
        for &(codec_name, spec) in &codecs {
            let row = sweep(name, codec_name, spec, payloads);
            println!(
                "{:>11} {:<10} in={:>9} B  wire={:>9} B  ratio={:>5.2}  enc={:>7.1} MB/s  dec={:>7.1} MB/s  err={:.2e}",
                row.series,
                row.codec,
                row.bytes_in,
                row.bytes_wire,
                row.ratio,
                row.encode_mb_per_s,
                row.decode_mb_per_s,
                row.max_abs_err,
            );
            rows.push(row);
        }
    }

    write_json(&out_path, &rows);
    println!("\nwrote {} rows to {out_path}", rows.len());

    if args.has("assert") {
        let gs_delta = rows
            .iter()
            .find(|r| r.series == "gray-scott" && r.codec == "delta")
            .expect("gray-scott delta row");
        if gs_delta.ratio >= 1.5 {
            println!(
                "Assert: gray-scott delta wire reduction {:.2}x >= 1.5x (OK)",
                gs_delta.ratio
            );
        } else {
            eprintln!(
                "Assert FAILED: gray-scott delta wire reduction {:.2}x < 1.5x",
                gs_delta.ratio
            );
            std::process::exit(1);
        }
    }
}

/// Encodes the iteration series with one codec, decoding every frame back
/// and comparing against the original dataset for the error column.
fn sweep(series: &'static str, codec_name: &'static str, spec: CodecSpec, payloads: &[Bytes]) -> Row {
    let mut bytes_in = 0u64;
    let mut bytes_wire = 0u64;
    let mut encode_ns = 0u64;
    let mut decode_ns = 0u64;
    let mut max_abs_err = 0f64;
    // The delta chain threads the *decoded* previous payload, exactly what
    // `DistributedPipelineHandle::stage` caches client-side.
    let mut prev: Option<Bytes> = None;

    for (i, payload) in payloads.iter().enumerate() {
        let base = match spec {
            CodecSpec::Delta => prev.as_ref().map(|p| (p, (i - 1) as u64)),
            _ => None,
        };
        let t0 = Instant::now();
        let enc = codec::encode_block(spec, payload, base).expect("encode");
        encode_ns += t0.elapsed().as_nanos() as u64;

        bytes_in += payload.len() as u64;
        bytes_wire += enc.frame.len() as u64;

        let dec_base = match enc.codec {
            CodecId::DeltaDiff => prev.clone(),
            _ => None,
        };
        let t1 = Instant::now();
        let plain = codec::decode_block(enc.codec, &enc.frame, dec_base.as_ref()).expect("decode");
        decode_ns += t1.elapsed().as_nanos() as u64;

        match spec {
            CodecSpec::Lossy { .. } => {
                let err = dataset_max_err(payload, &plain);
                // Lattice points are rounded to the nearest representable
                // f32, so the bound holds up to ~ulp/2 of the values.
                let tol = LOSSY_BOUND as f64 * 1.001 + 1e-5;
                assert!(err <= tol, "{series}: lossy error {err} exceeds bound {LOSSY_BOUND}");
                max_abs_err = max_abs_err.max(err);
            }
            _ => assert_eq!(&plain[..], &payload[..], "{series}/{codec_name}: lossless roundtrip"),
        }

        // What lands in the store (and the next delta base) is the decoded
        // payload, so lossy chains never accumulate error.
        prev = Some(plain);
    }

    Row {
        series,
        codec: codec_name,
        iterations: payloads.len(),
        bytes_in,
        bytes_wire,
        ratio: bytes_in as f64 / bytes_wire.max(1) as f64,
        encode_ns,
        decode_ns,
        encode_mb_per_s: mb_per_s(bytes_in, encode_ns),
        decode_mb_per_s: mb_per_s(bytes_in, decode_ns),
        max_abs_err,
    }
}

fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    (bytes as f64 / (1024.0 * 1024.0)) / (ns as f64 / 1e9)
}

/// Max elementwise attribute error between the original and decoded
/// serialized datasets (geometry is kept exact by the lossy codec).
fn dataset_max_err(original: &Bytes, decoded: &Bytes) -> f64 {
    let a = codec::dataset_from_bytes(original).expect("original parses");
    let b = codec::dataset_from_bytes(decoded).expect("decoded parses");
    let pairs: Vec<(&vizkit::Attributes, &vizkit::Attributes)> = match (&a, &b) {
        (DataSet::Image(x), DataSet::Image(y)) => {
            vec![(&x.point_data, &y.point_data), (&x.cell_data, &y.cell_data)]
        }
        (DataSet::UGrid(x), DataSet::UGrid(y)) => {
            vec![(&x.point_data, &y.point_data), (&x.cell_data, &y.cell_data)]
        }
        (DataSet::Poly(x), DataSet::Poly(y)) => vec![(&x.point_data, &y.point_data)],
        _ => panic!("dataset kind changed across the codec"),
    };
    let mut max = 0f64;
    for (at_a, at_b) in pairs {
        for (name, arr_a) in at_a.iter() {
            let arr_b = at_b.get(name).expect("attribute survives");
            if let DataArray::U8(_) | DataArray::I32(_) = arr_a {
                continue; // integers pass through exactly
            }
            assert_eq!(arr_a.len(), arr_b.len());
            for i in 0..arr_a.len() {
                let d = (arr_a.get(i) - arr_b.get(i)).abs();
                if d.is_finite() {
                    max = max.max(d);
                }
            }
        }
    }
    max
}

/// Serial Gray–Scott slab: warm up past the seed noise, then capture the
/// field every couple of steps — the slowly-varying series the delta
/// codec is designed for.
fn gray_scott_series(n: usize, iters: usize) -> Vec<Bytes> {
    // Small dt = the paper's cadence of rendering every solver step: the
    // field drifts slowly between captures, which is the delta target.
    let params = sims::gray_scott::GrayScottParams { dt: 0.1, ..Default::default() };
    let mut sim = sims::gray_scott::GrayScott::serial(n, params);
    sim.run(200, None).expect("warmup");
    let mut out = Vec::with_capacity(iters);
    for _ in 0..iters {
        sim.run(1, None).expect("step");
        out.push(codec::dataset_to_bytes(&sim.to_dataset()));
    }
    out
}

/// Mandelbulb with a slowly drifting fractal power, so consecutive
/// iterations differ smoothly instead of being bit-identical.
fn mandelbulb_series(dim: usize, iters: usize) -> Vec<Bytes> {
    (0..iters)
        .map(|i| {
            let bulb = sims::mandelbulb::Mandelbulb {
                dims: [dim, dim, dim],
                power: 8.0 + 0.05 * i as f32,
                ..Default::default()
            };
            codec::dataset_to_bytes(&bulb.generate_block(0, 1))
        })
        .collect()
}

/// Deep-water-impact proxy: the mesh grows every iteration, so payload
/// sizes differ and the delta codec must re-anchor each frame.
fn dwi_series(iters: usize) -> Vec<Bytes> {
    let series = sims::dwi::DwiSeries { total_blocks: 8, scale: 1.0 / 4096.0, iterations: iters as u64 };
    (0..iters)
        .map(|i| codec::dataset_to_bytes(&DataSet::UGrid(series.generate_block(i as u64, 0))))
        .collect()
}
