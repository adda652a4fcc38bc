//! Property tests: the staged-dataset codec roundtrips arbitrary grids,
//! and every staging codec (DESIGN.md §13) preserves its contract on
//! random payloads — lossless codecs bit-identically, the lossy codec
//! within its error bound, and delta chains of any length.

use bytes::Bytes;
use proptest::prelude::*;
use vizkit::data::{CellType, DataArray, ImageData, PolyData, UnstructuredGrid};

use colza::codec::{self, CodecId, CodecSpec};

fn arb_grid(n: usize) -> impl Strategy<Value = ImageData> {
    proptest::collection::vec(-10.0f32..10.0, n * n * n).prop_map(move |vals| {
        let mut g = ImageData::new([n, n, n]);
        g.point_data.set("f", DataArray::F32(vals));
        g
    })
}

/// An image block with two attribute arrays, like the Gray–Scott export.
fn arb_image_payload() -> impl Strategy<Value = Bytes> {
    (1usize..5, 1usize..5, 1usize..4)
        .prop_flat_map(|(nx, ny, nz)| {
            let n = nx * ny * nz;
            (
                Just([nx, ny, nz]),
                proptest::collection::vec(-100.0f32..100.0, n),
                proptest::collection::vec(-1.0f64..1.0, n),
            )
        })
        .prop_map(|(dims, u, v)| {
            let mut g = ImageData::new(dims);
            g.point_data.set("u", DataArray::F32(u));
            g.point_data.set("v", DataArray::F64(v));
            codec::dataset_to_bytes(&vizkit::DataSet::Image(g))
        })
}

/// A tetrahedral unstructured grid with point and cell attributes.
fn arb_ugrid_payload() -> impl Strategy<Value = Bytes> {
    (1usize..6)
        .prop_flat_map(|cells| {
            let pts = cells * 4;
            (
                Just(cells),
                proptest::collection::vec(-10.0f32..10.0, pts * 3),
                proptest::collection::vec(-10.0f32..10.0, pts),
                proptest::collection::vec(-10.0f64..10.0, cells),
            )
        })
        .prop_map(|(cells, coords, pd, cd)| {
            let mut g = UnstructuredGrid::new();
            for c in coords.chunks_exact(3) {
                g.points.push([c[0], c[1], c[2]]);
            }
            for c in 0..cells {
                let base = (c * 4) as u32;
                g.connectivity.extend([base, base + 1, base + 2, base + 3]);
                g.offsets.push(((c + 1) * 4) as u32);
                g.cell_types.push(CellType::Tetra);
            }
            g.point_data.set("p", DataArray::F32(pd));
            g.cell_data.set("c", DataArray::F64(cd));
            codec::dataset_to_bytes(&vizkit::DataSet::UGrid(g))
        })
}

/// A triangle soup with per-point attributes.
fn arb_poly_payload() -> impl Strategy<Value = Bytes> {
    (1usize..6)
        .prop_flat_map(|tris| {
            let pts = tris * 3;
            (
                Just(tris),
                proptest::collection::vec(-10.0f32..10.0, pts * 3),
                proptest::collection::vec(-10.0f32..10.0, pts),
            )
        })
        .prop_map(|(tris, coords, pd)| {
            let mut p = PolyData::new();
            for c in coords.chunks_exact(3) {
                p.add_point([c[0], c[1], c[2]], None);
            }
            for t in 0..tris {
                let b = (t * 3) as u32;
                p.triangles.push([b, b + 1, b + 2]);
            }
            p.point_data.set("s", DataArray::F32(pd));
            codec::dataset_to_bytes(&vizkit::DataSet::Poly(p))
        })
}

/// Any serialized dataset payload.
fn arb_payload() -> impl Strategy<Value = Bytes> {
    prop_oneof![arb_image_payload(), arb_ugrid_payload(), arb_poly_payload()]
}

const ALL_CODECS: [CodecId; 5] = [
    CodecId::Raw,
    CodecId::ShuffleLz,
    CodecId::Lossy,
    CodecId::DeltaFull,
    CodecId::DeltaDiff,
];

/// A well-formed frame header (DESIGN.md §13) declaring `decoded_len`
/// bytes; raw payloads carry none.
fn frame_header(codec: CodecId, decoded_len: usize) -> Vec<u8> {
    if codec == CodecId::Raw {
        return Vec::new();
    }
    let mut h = vec![0xC5, codec.as_u8()];
    h.extend_from_slice(&(decoded_len as u64).to_le_bytes());
    match codec {
        CodecId::DeltaDiff => h.extend_from_slice(&3u64.to_le_bytes()),
        CodecId::Lossy => h.extend_from_slice(&0.5f32.to_le_bytes()),
        _ => {}
    }
    h
}

/// Decode via the round-trip path a server takes: metadata codec id plus
/// the frame (plus the chain base where the codec needs one).
fn roundtrip(spec: CodecSpec, payload: &Bytes) -> Bytes {
    let enc = codec::encode_block(spec, payload, None).expect("encode");
    codec::decode_block(enc.codec, &enc.frame, None).expect("decode")
}

/// Max elementwise |a - b| across all attribute arrays of two serialized
/// datasets of the same shape.
fn max_attr_err(a: &Bytes, b: &Bytes) -> f64 {
    fn attrs(ds: &vizkit::DataSet) -> Vec<&vizkit::Attributes> {
        match ds {
            vizkit::DataSet::Image(d) => vec![&d.point_data, &d.cell_data],
            vizkit::DataSet::UGrid(d) => vec![&d.point_data, &d.cell_data],
            vizkit::DataSet::Poly(d) => vec![&d.point_data],
        }
    }
    let da = codec::dataset_from_bytes(a).expect("parse a");
    let db = codec::dataset_from_bytes(b).expect("parse b");
    let mut max = 0f64;
    for (at_a, at_b) in attrs(&da).into_iter().zip(attrs(&db)) {
        for (name, arr_a) in at_a.iter() {
            let arr_b = at_b.get(name).expect("attribute survives");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dataset_codec_roundtrips_grids(grid in arb_grid(4)) {
        let ds = vizkit::DataSet::Image(grid);
        let bytes = colza::codec::dataset_to_bytes(&ds);
        let back = colza::codec::dataset_from_bytes(&bytes).unwrap();
        let (vizkit::DataSet::Image(a), vizkit::DataSet::Image(b)) = (&ds, &back) else {
            panic!("variant changed");
        };
        prop_assert_eq!(&a.point_data, &b.point_data);
        prop_assert_eq!(a.dims, b.dims);
    }

    #[test]
    fn codec_rejects_garbage_without_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        declared in prop_oneof![Just(0usize), 1usize..600, Just(1usize << 62)],
    ) {
        let _ = colza::codec::dataset_from_bytes(&bytes);
        // The same bytes as the body behind a valid header, for every
        // codec, with and without a delta base of the declared length.
        let base = Bytes::from(vec![0x5A; declared.min(600)]);
        for codec in ALL_CODECS {
            let frame = Bytes::from([frame_header(codec, declared), bytes.clone()].concat());
            for base in [None, Some(&base)] {
                let decoded = codec::decode_block(codec, &frame, base);
                if let (CodecId::Raw, Ok(d)) = (codec, &decoded) {
                    prop_assert_eq!(d, &frame);
                } else if let Ok(d) = decoded {
                    prop_assert_eq!(d.len(), declared);
                }
            }
        }
    }

    #[test]
    fn shuffle_lz_is_bit_identical_on_any_dataset(payload in arb_payload()) {
        let back = roundtrip(CodecSpec::ShuffleLz, &payload);
        prop_assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn shuffle_lz_is_bit_identical_on_raw_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let payload = Bytes::from(data);
        let back = roundtrip(CodecSpec::ShuffleLz, &payload);
        prop_assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn delta_full_anchor_is_bit_identical(payload in arb_payload()) {
        // No base: the chain anchors with a self-contained full frame.
        let enc = codec::encode_block(CodecSpec::Delta, &payload, None).unwrap();
        prop_assert_eq!(enc.codec, CodecId::DeltaFull);
        let back = codec::decode_block(enc.codec, &enc.frame, None).unwrap();
        prop_assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn lossy_respects_bound_elementwise(payload in arb_image_payload(), bound in 1e-4f32..1e-1) {
        let back = roundtrip(CodecSpec::Lossy { error_bound: bound }, &payload);
        // Quantized lattice points round to the nearest representable
        // float, so allow ~ulp slack on top of the bound.
        let tol = bound as f64 * (1.0 + 1e-3) + 1e-4;
        prop_assert!(max_attr_err(&payload, &back) <= tol);
    }

    #[test]
    fn lossy_preserves_geometry_exactly(payload in arb_ugrid_payload()) {
        let back = roundtrip(CodecSpec::Lossy { error_bound: 0.5 }, &payload);
        let (Ok(vizkit::DataSet::UGrid(a)), Ok(vizkit::DataSet::UGrid(b))) =
            (codec::dataset_from_bytes(&payload), codec::dataset_from_bytes(&back))
        else {
            panic!("ugrid expected");
        };
        prop_assert_eq!(&a.points, &b.points);
        prop_assert_eq!(&a.connectivity, &b.connectivity);
        prop_assert_eq!(&a.offsets, &b.offsets);
    }
}

proptest! {
    // Chains re-encode the payload per link, so keep the case count lower.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn delta_chains_decode_link_by_link(
        base_vals in proptest::collection::vec(-100.0f32..100.0, 27),
        steps in proptest::collection::vec(proptest::collection::vec(-0.5f32..0.5, 27), 1..6),
    ) {
        // A chain of slowly varying grids: iteration i+1 = iteration i + step.
        let mut vals = base_vals;
        let mut chain: Vec<Bytes> = Vec::new();
        chain.push({
            let mut g = ImageData::new([3, 3, 3]);
            g.point_data.set("f", DataArray::F32(vals.clone()));
            codec::dataset_to_bytes(&vizkit::DataSet::Image(g))
        });
        for step in &steps {
            for (v, d) in vals.iter_mut().zip(step) {
                *v += d;
            }
            let mut g = ImageData::new([3, 3, 3]);
            g.point_data.set("f", DataArray::F32(vals.clone()));
            chain.push(codec::dataset_to_bytes(&vizkit::DataSet::Image(g)));
        }

        // Encode exactly as the client does: each link's base is the
        // previous *plain* payload; decode with the same base and demand
        // bit-identity at every link.
        let mut prev: Option<Bytes> = None;
        for (i, payload) in chain.iter().enumerate() {
            let base = prev.as_ref().map(|p| (p, i as u64 - 1));
            let enc = codec::encode_block(CodecSpec::Delta, payload, base).unwrap();
            if i == 0 {
                prop_assert_eq!(enc.codec, CodecId::DeltaFull);
            } else {
                prop_assert_eq!(enc.codec, CodecId::DeltaDiff);
            }
            let back = codec::decode_block(enc.codec, &enc.frame, prev.as_ref()).unwrap();
            prop_assert_eq!(&back[..], &payload[..]);
            prev = Some(back);
        }
    }

    #[test]
    fn frame_info_reports_the_encoding(payload in arb_payload()) {
        for spec in [CodecSpec::ShuffleLz, CodecSpec::Lossy { error_bound: 1e-2 }, CodecSpec::Delta] {
            let enc = codec::encode_block(spec, &payload, None).unwrap();
            let info = codec::frame_info(&enc.frame).unwrap();
            prop_assert_eq!(info.codec, enc.codec);
            prop_assert_eq!(info.decoded_len as usize, payload.len());
        }
    }

    #[test]
    fn truncated_frames_never_panic(payload in arb_image_payload(), cut in 0usize..100) {
        let enc = codec::encode_block(CodecSpec::ShuffleLz, &payload, None).unwrap();
        let cut = cut.min(enc.frame.len());
        let truncated = enc.frame.slice(0..cut);
        // Must be a typed error (or, for tiny cuts, still parse the
        // header) — never a panic or a wrong-length success.
        if let Ok(back) = codec::decode_block(enc.codec, &truncated, None) {
            prop_assert_eq!(&back[..], &payload[..]);
        }
    }
}

/// The delta codec's reason to exist (DESIGN.md §13): on the slowly
/// varying Gray–Scott field — a serial slab warmed up past the seed noise,
/// captured every solver step at the paper's render cadence — shipping
/// XOR residuals cuts the bytes on the wire by at least 1.5x, and every
/// link still decodes bit-identically.
#[test]
fn delta_cuts_gray_scott_wire_bytes_by_at_least_1_5x() {
    let params = sims::gray_scott::GrayScottParams { dt: 0.1, ..Default::default() };
    let mut sim = sims::gray_scott::GrayScott::serial(32, params);
    sim.run(200, None).expect("warmup");
    let (mut bytes_in, mut bytes_wire) = (0usize, 0usize);
    // The chain threads the *decoded* previous payload, exactly what
    // `DistributedPipelineHandle::stage` caches client-side.
    let mut prev: Option<Bytes> = None;
    for i in 0..3u64 {
        sim.run(1, None).expect("step");
        let payload = codec::dataset_to_bytes(&sim.to_dataset());
        let base = prev.as_ref().map(|p| (p, i - 1));
        let enc = codec::encode_block(CodecSpec::Delta, &payload, base).unwrap();
        let back = codec::decode_block(enc.codec, &enc.frame, prev.as_ref()).unwrap();
        assert_eq!(&back[..], &payload[..], "iteration {i}: lossless roundtrip");
        bytes_in += payload.len();
        bytes_wire += enc.frame.len();
        prev = Some(back);
    }
    let ratio = bytes_in as f64 / bytes_wire as f64;
    assert!(ratio >= 1.5, "gray-scott delta wire reduction {ratio:.2}x < 1.5x");
}
