//! Serialization and compression of staged datasets.
//!
//! Two layers live here:
//!
//! 1. **Dataset serialization** ([`dataset_to_bytes`] / [`dataset_from_bytes`]):
//!    the self-describing framing over the `vizkit` data model (the paper
//!    stages raw VTK buffers the same way — metadata in the RPC, bulk
//!    payload via RDMA).
//!
//! 2. **The pluggable codec layer** (DESIGN.md §13): byte-shuffle +
//!    LZ-style lossless compression for float grids, an error-bounded
//!    lossy mode, and iteration-delta encoding for slowly varying fields.
//!    Clients encode a block **once** before exposing it for RDMA; the
//!    encoded frame is what the staging store holds, replicates, repairs
//!    and rebalances (the same `Bytes` refcount throughout), and servers
//!    decode only a primary copy, the one its backend is handed.
//!
//! Every codec decision is a pure function of `(CodecConfig, dataset
//! name, payload, delta base)` — no wall-clock, no randomness — so
//! same-seed simulated traces stay byte-identical with codecs enabled.
//! Codec CPU is charged to the virtual clock as a deterministic modeled
//! cost per byte (`compute_scale`-independent), mirroring how the rest of
//! the simulator accounts compute.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use vizkit::data::{Attributes, CellType, DataArray, DataSet, ImageData, PolyData, UnstructuredGrid};

use crate::error::{ColzaError, Result};

const TAG_IMAGE: u8 = 1;
const TAG_UGRID: u8 = 2;
const TAG_POLY: u8 = 3;

/// Typed failure of the codec layer — both the dataset serializer and
/// the compression codecs surface through this (wrapped in
/// [`ColzaError::Codec`]), so a truncated or corrupt frame is an error
/// value, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The input ended before the declared content (`what` names the
    /// element being read).
    Truncated(&'static str),
    /// The frame does not start with the codec magic byte.
    BadMagic(u8),
    /// The frame (or block metadata) names an unknown codec.
    BadCodecId(u8),
    /// Decoded output length differs from the declared decoded length.
    LengthMismatch {
        /// Length the frame header declared.
        expected: usize,
        /// Length actually produced.
        got: usize,
    },
    /// A delta frame references a base payload this process does not
    /// hold (the chain should have been anchored — DESIGN.md §13).
    MissingDeltaBase {
        /// Iteration of the missing base.
        base_iteration: u64,
    },
    /// Lossy mode configured with a non-positive or non-finite bound.
    BadErrorBound(f32),
    /// The payload did not parse as a dataset (structural codecs need
    /// the dataset framing), or a dataset field was malformed.
    Dataset(String),
    /// A structurally invalid compressed body.
    BadFrame(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated input while reading {what}"),
            CodecError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            CodecError::BadCodecId(b) => write!(f, "unknown codec id {b}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded length {got} != declared {expected}")
            }
            CodecError::MissingDeltaBase { base_iteration } => {
                write!(f, "delta base from iteration {base_iteration} not held")
            }
            CodecError::BadErrorBound(eb) => write!(f, "bad lossy error bound {eb}"),
            CodecError::Dataset(m) => write!(f, "bad dataset: {m}"),
            CodecError::BadFrame(m) => write!(f, "bad frame: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for ColzaError {
    fn from(e: CodecError) -> Self {
        ColzaError::Codec(e)
    }
}

fn dataset_err(m: impl Into<String>) -> ColzaError {
    ColzaError::Codec(CodecError::Dataset(m.into()))
}

/// Serializes a dataset to a contiguous buffer (what `stage` exposes for
/// the server's RDMA pull).
pub fn dataset_to_bytes(ds: &DataSet) -> Bytes {
    let mut buf = BytesMut::with_capacity(ds.byte_size() + 256);
    match ds {
        DataSet::Image(img) => {
            buf.put_u8(TAG_IMAGE);
            for d in img.dims {
                buf.put_u64_le(d as u64);
            }
            for v in img.origin.iter().chain(&img.spacing) {
                buf.put_f32_le(*v);
            }
            put_attributes(&mut buf, &img.point_data);
            put_attributes(&mut buf, &img.cell_data);
        }
        DataSet::UGrid(g) => {
            buf.put_u8(TAG_UGRID);
            buf.put_u64_le(g.points.len() as u64);
            for p in &g.points {
                for c in p {
                    buf.put_f32_le(*c);
                }
            }
            buf.put_u64_le(g.connectivity.len() as u64);
            for c in &g.connectivity {
                buf.put_u32_le(*c);
            }
            buf.put_u64_le(g.offsets.len() as u64);
            for o in &g.offsets {
                buf.put_u32_le(*o);
            }
            buf.put_u64_le(g.cell_types.len() as u64);
            for t in &g.cell_types {
                buf.put_u8(match t {
                    CellType::Triangle => 5,
                    CellType::Tetra => 10,
                    CellType::Voxel => 11,
                    CellType::Hexahedron => 12,
                });
            }
            put_attributes(&mut buf, &g.point_data);
            put_attributes(&mut buf, &g.cell_data);
        }
        DataSet::Poly(p) => {
            buf.put_u8(TAG_POLY);
            buf.put_u64_le(p.points.len() as u64);
            for pt in &p.points {
                for c in pt {
                    buf.put_f32_le(*c);
                }
            }
            buf.put_u64_le(p.normals.len() as u64);
            for n in &p.normals {
                for c in n {
                    buf.put_f32_le(*c);
                }
            }
            buf.put_u64_le(p.triangles.len() as u64);
            for t in &p.triangles {
                for v in t {
                    buf.put_u32_le(*v);
                }
            }
            put_attributes(&mut buf, &p.point_data);
        }
    }
    buf.freeze()
}

/// Deserializes a dataset from [`dataset_to_bytes`] output.
pub fn dataset_from_bytes(mut b: &[u8]) -> Result<DataSet> {
    let tag = take_u8(&mut b)?;
    match tag {
        TAG_IMAGE => {
            let mut img = ImageData::new([
                take_u64(&mut b)? as usize,
                take_u64(&mut b)? as usize,
                take_u64(&mut b)? as usize,
            ]);
            for v in img
                .origin
                .iter_mut()
                .chain(img.spacing.iter_mut())
                .collect::<Vec<_>>()
            {
                *v = take_f32(&mut b)?;
            }
            img.point_data = take_attributes(&mut b)?;
            img.cell_data = take_attributes(&mut b)?;
            Ok(DataSet::Image(img))
        }
        TAG_UGRID => {
            let mut g = UnstructuredGrid::new();
            let npts = take_u64(&mut b)? as usize;
            g.points = (0..npts)
                .map(|_| -> Result<[f32; 3]> {
                    Ok([take_f32(&mut b)?, take_f32(&mut b)?, take_f32(&mut b)?])
                })
                .collect::<Result<_>>()?;
            let nc = take_u64(&mut b)? as usize;
            g.connectivity = (0..nc).map(|_| take_u32(&mut b)).collect::<Result<_>>()?;
            let no = take_u64(&mut b)? as usize;
            g.offsets = (0..no).map(|_| take_u32(&mut b)).collect::<Result<_>>()?;
            let nt = take_u64(&mut b)? as usize;
            g.cell_types = (0..nt)
                .map(|_| -> Result<CellType> {
                    Ok(match take_u8(&mut b)? {
                        5 => CellType::Triangle,
                        10 => CellType::Tetra,
                        11 => CellType::Voxel,
                        12 => CellType::Hexahedron,
                        x => return Err(dataset_err(format!("bad cell type {x}"))),
                    })
                })
                .collect::<Result<_>>()?;
            g.point_data = take_attributes(&mut b)?;
            g.cell_data = take_attributes(&mut b)?;
            g.validate().map_err(dataset_err)?;
            Ok(DataSet::UGrid(g))
        }
        TAG_POLY => {
            let mut p = PolyData::new();
            let npts = take_u64(&mut b)? as usize;
            p.points = (0..npts)
                .map(|_| -> Result<[f32; 3]> {
                    Ok([take_f32(&mut b)?, take_f32(&mut b)?, take_f32(&mut b)?])
                })
                .collect::<Result<_>>()?;
            let nn = take_u64(&mut b)? as usize;
            p.normals = (0..nn)
                .map(|_| -> Result<[f32; 3]> {
                    Ok([take_f32(&mut b)?, take_f32(&mut b)?, take_f32(&mut b)?])
                })
                .collect::<Result<_>>()?;
            let ntri = take_u64(&mut b)? as usize;
            p.triangles = (0..ntri)
                .map(|_| -> Result<[u32; 3]> {
                    Ok([take_u32(&mut b)?, take_u32(&mut b)?, take_u32(&mut b)?])
                })
                .collect::<Result<_>>()?;
            p.point_data = take_attributes(&mut b)?;
            p.validate().map_err(dataset_err)?;
            Ok(DataSet::Poly(p))
        }
        x => Err(dataset_err(format!("bad dataset tag {x}"))),
    }
}

fn put_attributes(buf: &mut BytesMut, at: &Attributes) {
    buf.put_u64_le(at.len() as u64);
    for (name, arr) in at.iter() {
        buf.put_u64_le(name.len() as u64);
        buf.put_slice(name.as_bytes());
        let (tag, bytes) = match arr {
            DataArray::F32(_) => (0u8, arr.to_le_bytes()),
            DataArray::F64(_) => (1u8, arr.to_le_bytes()),
            DataArray::I32(_) => (2u8, arr.to_le_bytes()),
            DataArray::U8(_) => (3u8, arr.to_le_bytes()),
        };
        buf.put_u8(tag);
        buf.put_u64_le(bytes.len() as u64);
        buf.put_slice(&bytes);
    }
}

fn take_attributes(b: &mut &[u8]) -> Result<Attributes> {
    let n = take_u64(b)? as usize;
    let mut at = Attributes::new();
    for _ in 0..n {
        let name_len = take_u64(b)? as usize;
        if b.len() < name_len {
            return Err(CodecError::Truncated("attribute name").into());
        }
        let name = String::from_utf8(b[..name_len].to_vec())
            .map_err(|_| dataset_err("attribute name is not utf8"))?;
        b.advance(name_len);
        let tag = take_u8(b)?;
        let len = take_u64(b)? as usize;
        if b.len() < len {
            return Err(CodecError::Truncated("attribute array").into());
        }
        let payload = &b[..len];
        let arr = match tag {
            0 => DataArray::f32_from_le_bytes(payload),
            1 => DataArray::F64(
                payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            2 => DataArray::i32_from_le_bytes(payload),
            3 => DataArray::U8(payload.to_vec()),
            x => return Err(dataset_err(format!("bad array tag {x}"))),
        };
        b.advance(len);
        at.set(name, arr);
    }
    Ok(at)
}

fn take_u8(b: &mut &[u8]) -> Result<u8> {
    if b.is_empty() {
        return Err(CodecError::Truncated("u8").into());
    }
    let v = b[0];
    b.advance(1);
    Ok(v)
}

fn take_u32(b: &mut &[u8]) -> Result<u32> {
    if b.len() < 4 {
        return Err(CodecError::Truncated("u32").into());
    }
    let v = u32::from_le_bytes(b[..4].try_into().unwrap());
    b.advance(4);
    Ok(v)
}

fn take_u64(b: &mut &[u8]) -> Result<u64> {
    if b.len() < 8 {
        return Err(CodecError::Truncated("u64").into());
    }
    let v = u64::from_le_bytes(b[..8].try_into().unwrap());
    b.advance(8);
    Ok(v)
}

fn take_f32(b: &mut &[u8]) -> Result<f32> {
    if b.len() < 4 {
        return Err(CodecError::Truncated("f32").into());
    }
    let v = f32::from_le_bytes(b[..4].try_into().unwrap());
    b.advance(4);
    Ok(v)
}

// ====================================================================
// The codec layer: frame format, configuration and the codecs proper.
// ====================================================================

/// How one staged block's payload is encoded on the wire and in the
/// staging store. Carried in [`crate::BlockMeta`] so every holder of a
/// copy knows how to decode it without out-of-band configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CodecId {
    /// Identity: the staged bytes are the serialized payload.
    Raw,
    /// Byte-shuffle (stride 4) + LZ, lossless.
    ShuffleLz,
    /// Error-bounded quantization of float fields, then shuffle + LZ.
    Lossy,
    /// A delta-chain **anchor**: shuffle + LZ of the full payload, but
    /// flagged so every holder reconstructs and remembers it as the
    /// chain base for the following iterations.
    DeltaFull,
    /// XOR-delta against the previous chain payload, then shuffle + LZ
    /// of the residual. Decoding needs the base.
    DeltaDiff,
}

impl CodecId {
    /// Stable numeric id (what the staging store records).
    pub fn as_u8(self) -> u8 {
        match self {
            CodecId::Raw => 0,
            CodecId::ShuffleLz => 1,
            CodecId::Lossy => 2,
            CodecId::DeltaFull => 3,
            CodecId::DeltaDiff => 4,
        }
    }

    /// Inverse of [`CodecId::as_u8`].
    pub fn from_u8(v: u8) -> std::result::Result<Self, CodecError> {
        Ok(match v {
            0 => CodecId::Raw,
            1 => CodecId::ShuffleLz,
            2 => CodecId::Lossy,
            3 => CodecId::DeltaFull,
            4 => CodecId::DeltaDiff,
            x => return Err(CodecError::BadCodecId(x)),
        })
    }

    /// Whether copies of this codec participate in a delta chain: every
    /// holder reconstructs the plain payload at admit time and keeps it,
    /// so a later promotion (or push to a fresh owner) never needs a
    /// base that was already released.
    pub fn is_chain(self) -> bool {
        matches!(self, CodecId::DeltaFull | CodecId::DeltaDiff)
    }

    /// Short lowercase name (counter suffixes, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "raw",
            CodecId::ShuffleLz => "shuffle_lz",
            CodecId::Lossy => "lossy",
            CodecId::DeltaFull => "delta_full",
            CodecId::DeltaDiff => "delta_diff",
        }
    }
}

/// Per-dataset codec selection (what the user configures).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CodecSpec {
    /// No encoding.
    Raw,
    /// Lossless byte-shuffle + LZ.
    ShuffleLz,
    /// Quantize float fields to `|v - v'| <= error_bound` elementwise,
    /// then shuffle + LZ. Geometry (points/normals/connectivity) stays
    /// exact; only attribute arrays are quantized.
    Lossy {
        /// Maximum absolute elementwise error on float attribute values.
        error_bound: f32,
    },
    /// Iteration-delta against the previously staged payload of the same
    /// `(dataset, block)`, anchored (re-sent in full) whenever the
    /// member view changed, the payload size changed, or no base exists.
    Delta,
}

/// Codec selection for a deployment: a default plus per-dataset-name
/// overrides. Lives on [`crate::DaemonConfig`] (advertised through the
/// `colza.get_codec_config` RPC) and on client handles
/// ([`crate::DistributedPipelineHandle::set_codec`]). Selection is a
/// pure function of `(config, dataset name)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CodecConfig {
    /// Codec for datasets without an override.
    pub default: CodecSpec,
    /// `(dataset name, codec)` overrides; first match wins.
    pub per_dataset: Vec<(String, CodecSpec)>,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            default: CodecSpec::Raw,
            per_dataset: Vec::new(),
        }
    }
}

impl CodecConfig {
    /// The same codec for every dataset.
    pub fn uniform(spec: CodecSpec) -> Self {
        CodecConfig {
            default: spec,
            per_dataset: Vec::new(),
        }
    }

    /// Adds a per-dataset override (builder style).
    pub fn with_dataset(mut self, dataset: &str, spec: CodecSpec) -> Self {
        self.per_dataset.push((dataset.to_string(), spec));
        self
    }

    /// The codec for one dataset name.
    pub fn spec_for(&self, dataset: &str) -> CodecSpec {
        self.per_dataset
            .iter()
            .find(|(n, _)| n == dataset)
            .map(|&(_, s)| s)
            .unwrap_or(self.default)
    }
}

/// The result of encoding one payload: the codec actually used (the
/// delta spec resolves to full or diff) and the wire frame. For
/// [`CodecId::Raw`] the frame **is** the payload (same refcount).
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Codec the frame is encoded with.
    pub codec: CodecId,
    /// The wire/store form of the payload.
    pub frame: Bytes,
}

/// Parsed header of a non-raw frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameInfo {
    /// Codec id recorded in the frame.
    pub codec: CodecId,
    /// Length of the decoded payload.
    pub decoded_len: usize,
    /// Iteration of the delta base ([`CodecId::DeltaDiff`] only).
    pub base_iteration: Option<u64>,
    /// Quantization bound ([`CodecId::Lossy`] only).
    pub error_bound: Option<f32>,
}

const FRAME_MAGIC: u8 = 0xC5;

/// Encodes one payload under `spec`. `base` is the previous chain
/// payload for [`CodecSpec::Delta`] (`(plain bytes, its iteration)`);
/// without it a delta spec emits an anchor frame. This is the single
/// encode entry point — a block is encoded here exactly once per stage,
/// and everything downstream moves the returned `Bytes` by refcount.
pub fn encode_block(
    spec: CodecSpec,
    payload: &Bytes,
    base: Option<(&Bytes, u64)>,
) -> Result<Encoded> {
    let (codec, frame) = match spec {
        CodecSpec::Raw => {
            // Identity, and deliberately uninstrumented: raw staging must
            // be byte- and cycle-identical to the pre-codec data plane.
            return Ok(Encoded {
                codec: CodecId::Raw,
                frame: payload.clone(),
            });
        }
        CodecSpec::ShuffleLz => (
            CodecId::ShuffleLz,
            build_frame(
                CodecId::ShuffleLz,
                payload.len(),
                None,
                None,
                &shuffle4(payload, None),
            ),
        ),
        CodecSpec::Lossy { error_bound } => {
            let quantized = quantize_payload(payload, error_bound)?;
            (
                CodecId::Lossy,
                build_frame(
                    CodecId::Lossy,
                    quantized.len(),
                    None,
                    Some(error_bound),
                    &shuffle4(&quantized, None),
                ),
            )
        }
        CodecSpec::Delta => match base {
            Some((b, base_iteration)) if b.len() == payload.len() => (
                CodecId::DeltaDiff,
                build_frame(
                    CodecId::DeltaDiff,
                    payload.len(),
                    Some(base_iteration),
                    None,
                    &shuffle4(payload, Some(b)),
                ),
            ),
            _ => (
                CodecId::DeltaFull,
                build_frame(
                    CodecId::DeltaFull,
                    payload.len(),
                    None,
                    None,
                    &shuffle4(payload, None),
                ),
            ),
        },
    };
    let ns = modeled_encode_ns(codec, payload.len());
    charge_ns(ns);
    hpcsim::trace::counter_add("colza.codec.encode.bytes_in", payload.len() as u64);
    hpcsim::trace::counter_add("colza.codec.encode.bytes_out", frame.len() as u64);
    hpcsim::trace::counter_add("colza.codec.encode.ns", ns);
    hpcsim::trace::counter_add(format!("colza.codec.enc.{}.frames", codec.name()), 1);
    Ok(Encoded { codec, frame })
}

/// Decodes one stored/wire frame back to the plain payload. `base` is
/// the chain base for [`CodecId::DeltaDiff`]. [`CodecId::Raw`] returns
/// the input `Bytes` by refcount (zero copy).
pub fn decode_block(codec: CodecId, data: &Bytes, base: Option<&Bytes>) -> Result<Bytes> {
    if codec == CodecId::Raw {
        return Ok(data.clone());
    }
    let info = frame_info(data)?;
    if info.codec != codec {
        return Err(CodecError::BadFrame("frame codec disagrees with metadata").into());
    }
    let body = &data[frame_header_len(info.codec)..];
    let planes = lz_decompress(body, info.decoded_len)?;
    let residual_of = if codec == CodecId::DeltaDiff {
        let base_iteration = info.base_iteration.unwrap_or(0);
        let b = base.ok_or(CodecError::MissingDeltaBase { base_iteration })?;
        if b.len() != planes.len() {
            return Err(CodecError::LengthMismatch {
                expected: planes.len(),
                got: b.len(),
            }
            .into());
        }
        Some(&b[..])
    } else {
        None
    };
    let plain = unshuffle4(&planes, residual_of);
    let ns = modeled_decode_ns(codec, plain.len());
    charge_ns(ns);
    hpcsim::trace::counter_add("colza.codec.decode.bytes_in", data.len() as u64);
    hpcsim::trace::counter_add("colza.codec.decode.bytes_out", plain.len() as u64);
    hpcsim::trace::counter_add("colza.codec.decode.ns", ns);
    Ok(Bytes::from(plain))
}

/// Parses a non-raw frame header without decoding the body.
pub fn frame_info(frame: &[u8]) -> Result<FrameInfo> {
    let mut b = frame;
    let magic = take_u8(&mut b).map_err(|_| CodecError::Truncated("frame magic"))?;
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic(magic).into());
    }
    let codec = CodecId::from_u8(take_u8(&mut b).map_err(|_| CodecError::Truncated("frame codec"))?)?;
    if codec == CodecId::Raw {
        return Err(CodecError::BadFrame("raw payloads carry no frame header").into());
    }
    let decoded_len = take_u64(&mut b).map_err(|_| CodecError::Truncated("frame decoded_len"))? as usize;
    let base_iteration = if codec == CodecId::DeltaDiff {
        Some(take_u64(&mut b).map_err(|_| CodecError::Truncated("frame base_iteration"))?)
    } else {
        None
    };
    let error_bound = if codec == CodecId::Lossy {
        Some(take_f32(&mut b).map_err(|_| CodecError::Truncated("frame error_bound"))?)
    } else {
        None
    };
    Ok(FrameInfo {
        codec,
        decoded_len,
        base_iteration,
        error_bound,
    })
}

fn frame_header_len(codec: CodecId) -> usize {
    // magic + codec + decoded_len, plus per-codec extras.
    10 + match codec {
        CodecId::DeltaDiff => 8,
        CodecId::Lossy => 4,
        _ => 0,
    }
}

fn build_frame(
    codec: CodecId,
    decoded_len: usize,
    base_iteration: Option<u64>,
    error_bound: Option<f32>,
    planes: &[u8],
) -> Bytes {
    // The header goes first into the very `Vec` the body is compressed
    // into, sized for the body's worst case (incompressible input grows
    // by one length byte per 255 literals), so it is never re-copied;
    // the spare capacity is handed back before the frame is stored.
    let header = frame_header_len(codec);
    let mut frame = Vec::with_capacity(header + planes.len() + planes.len() / 255 + 16);
    frame.push(FRAME_MAGIC);
    frame.push(codec.as_u8());
    frame.extend_from_slice(&(decoded_len as u64).to_le_bytes());
    if let Some(it) = base_iteration {
        frame.extend_from_slice(&it.to_le_bytes());
    }
    if let Some(eb) = error_bound {
        frame.extend_from_slice(&eb.to_le_bytes());
    }
    debug_assert_eq!(frame.len(), header);
    lz_compress(planes, &mut frame);
    frame.shrink_to_fit();
    Bytes::from(frame)
}

/// Deterministic modeled CPU cost of encoding (virtual ns). Pure in
/// `(codec, bytes)` so charging it preserves same-seed trace identity.
pub fn modeled_encode_ns(codec: CodecId, bytes: usize) -> u64 {
    let b = bytes as u64;
    match codec {
        CodecId::Raw => 0,
        CodecId::ShuffleLz | CodecId::DeltaFull => b / 2,
        CodecId::DeltaDiff => (b * 5) / 8,
        CodecId::Lossy => (b * 3) / 4,
    }
}

/// Deterministic modeled CPU cost of decoding (virtual ns).
pub fn modeled_decode_ns(codec: CodecId, bytes: usize) -> u64 {
    match codec {
        CodecId::Raw => 0,
        _ => bytes as u64 / 4,
    }
}

fn charge_ns(ns: u64) {
    if ns > 0 {
        if let Some(ctx) = hpcsim::process::try_current() {
            ctx.advance(ns);
        }
    }
}

// --- byte shuffle ----------------------------------------------------
//
// Both directions are one pass over the payload: the delta residual's
// XOR is folded into the shuffle on encode and into the unshuffle on
// decode, so a residual is never materialized as a buffer of its own.

/// Transposes the buffer — XORed with `base` first when one is given (a
/// delta residual) — into 4 byte planes plus a verbatim tail for
/// `len % 4`: little-endian f32 neighbours in smooth fields share their
/// high bytes, so planes are long runs the LZ stage can match.
fn shuffle4(src: &[u8], base: Option<&[u8]>) -> Vec<u8> {
    let n = src.len() / 4;
    let mut out = vec![0u8; src.len()];
    let (planes, tail) = out.split_at_mut(4 * n);
    let words = src.chunks_exact(4).map(|w| read_u32(w, 0));
    match base {
        None => scatter_words(planes, words),
        Some(b) => scatter_words(planes, words.zip(b.chunks_exact(4)).map(xor_word)),
    }
    tail.copy_from_slice(&src[4 * n..]);
    if let Some(b) = base {
        xor_tail(tail, &b[4 * n..]);
    }
    out
}

/// Inverse of [`shuffle4`]: gathers the 4 planes back into words, XORing
/// each with `base` when one is given.
fn unshuffle4(planes: &[u8], base: Option<&[u8]>) -> Vec<u8> {
    let n = planes.len() / 4;
    let mut out = vec![0u8; planes.len()];
    let (body, tail) = out.split_at_mut(4 * n);
    let (p0, rest) = planes.split_at(n);
    let (p1, rest) = rest.split_at(n);
    let (p2, rest) = rest.split_at(n);
    let (p3, plane_tail) = rest.split_at(n);
    let words = p0
        .iter()
        .zip(p1)
        .zip(p2)
        .zip(p3)
        .map(|(((&a, &b), &c), &d)| u32::from_le_bytes([a, b, c, d]));
    match base {
        None => gather_words(body, words),
        Some(b) => gather_words(body, words.zip(b.chunks_exact(4)).map(xor_word)),
    }
    tail.copy_from_slice(plane_tail);
    if let Some(b) = base {
        xor_tail(tail, &b[4 * n..]);
    }
    out
}

/// Writes byte `j` of word `i` to `planes[j * n + i]`.
fn scatter_words(planes: &mut [u8], words: impl Iterator<Item = u32>) {
    let n = planes.len() / 4;
    let (p0, rest) = planes.split_at_mut(n);
    let (p1, rest) = rest.split_at_mut(n);
    let (p2, p3) = rest.split_at_mut(n);
    let outs = p0
        .iter_mut()
        .zip(p1.iter_mut())
        .zip(p2.iter_mut())
        .zip(p3.iter_mut());
    for ((((a, b), c), d), w) in outs.zip(words) {
        [*a, *b, *c, *d] = w.to_le_bytes();
    }
}

/// Writes word `i` to `out[4 * i..4 * i + 4]`.
fn gather_words(out: &mut [u8], words: impl Iterator<Item = u32>) {
    for (o, w) in out.chunks_exact_mut(4).zip(words) {
        o.copy_from_slice(&w.to_le_bytes());
    }
}

fn xor_word((w, base): (u32, &[u8])) -> u32 {
    w ^ read_u32(base, 0)
}

fn xor_tail(dst: &mut [u8], base: &[u8]) {
    for (d, m) in dst.iter_mut().zip(base) {
        *d ^= *m;
    }
}

// --- LZ --------------------------------------------------------------
//
// An LZ77 byte compressor in the LZ4 block style: sequences of
// `token(lit_len | match_len)`, literals, 16-bit offset, with 255-run
// length extensions; the final sequence is literals only. Greedy
// single-probe hash matching — simple, allocation-light, and entirely
// deterministic: every position is hashed, a probe that misses advances
// one byte, and a hit is extended as far as the bytes agree.

const LZ_MIN_MATCH: usize = 4;
const LZ_WINDOW: usize = 0xFFFF;
const LZ_HASH_BITS: u32 = 13;
/// Hash-table slots hold `position + LZ_BIAS`, so an empty slot (0)
/// reads as a candidate further back than the window and a probe is one
/// distance compare. Positions are kept as `u32`: bodies shorter than
/// 4 GiB − 64 KiB make exactly these decisions; past that, slots alias
/// modulo 2^32, so a probe may find another (still verified, still
/// in-window) candidate — a valid frame, matched differently.
const LZ_BIAS: u32 = LZ_WINDOW as u32 + 1;

fn lz_hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
}

fn read_u32(s: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(s[i..i + 4].try_into().unwrap())
}

fn read_u64(s: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(s[i..i + 8].try_into().unwrap())
}

fn put_len(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// Length of the common prefix of `s[a..]` and `s[b..]` (`a < b`),
/// eight bytes per compare: the first differing byte of two
/// little-endian words is their XOR's lowest set byte.
fn common_prefix(s: &[u8], a: usize, b: usize) -> usize {
    let mut m = 0;
    while b + m + 8 <= s.len() {
        let x = read_u64(s, a + m) ^ read_u64(s, b + m);
        if x != 0 {
            return m + (x.trailing_zeros() / 8) as usize;
        }
        m += 8;
    }
    while b + m < s.len() && s[a + m] == s[b + m] {
        m += 1;
    }
    m
}

/// Appends one sequence: `lits`, then (unless this is the final
/// sequence) a match of `mlen` bytes at distance `off`.
fn put_sequence(out: &mut Vec<u8>, lits: &[u8], m: Option<(usize, usize)>) {
    let lnib = lits.len().min(15);
    let mnib = m.map_or(0, |(_, mlen)| (mlen - LZ_MIN_MATCH).min(15));
    out.push(((lnib as u8) << 4) | mnib as u8);
    if lits.len() >= 15 {
        put_len(out, lits.len() - 15);
    }
    out.extend_from_slice(lits);
    if let Some((off, mlen)) = m {
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if mlen - LZ_MIN_MATCH >= 15 {
            put_len(out, mlen - LZ_MIN_MATCH - 15);
        }
    }
}

/// Probes position `p`, whose first four bytes are `v`: records it in
/// the table and returns the distance back to the position the slot held
/// when that one is in the window and starts with the same four bytes.
fn probe(table: &mut [u32; 1 << LZ_HASH_BITS], src: &[u8], p: usize, v: u32) -> Option<usize> {
    let slot = &mut table[lz_hash(v)];
    let here = (p as u32).wrapping_add(LZ_BIAS);
    let dist = here.wrapping_sub(*slot) as usize;
    *slot = here;
    (dist <= LZ_WINDOW && read_u32(src, p - dist) == v).then_some(dist)
}

/// Compresses `src`, appending the body to `out` (an empty input has an
/// empty body).
fn lz_compress(src: &[u8], out: &mut Vec<u8>) {
    let n = src.len();
    if n == 0 {
        return;
    }
    let mut table = [0u32; 1 << LZ_HASH_BITS];
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + LZ_MIN_MATCH <= n {
        // One 8-byte load holds the first four bytes of five consecutive
        // positions; they are probed in order, exactly as one at a time.
        let (w, span) = if i + 8 <= n {
            (read_u64(src, i), 5)
        } else {
            (read_u32(src, i) as u64, 1)
        };
        let hit = (0..span).find_map(|k| {
            probe(&mut table, src, i + k, (w >> (8 * k)) as u32).map(|dist| (i + k, dist))
        });
        let Some((p, dist)) = hit else {
            i += span;
            continue;
        };
        let mlen = LZ_MIN_MATCH + common_prefix(src, p - dist + LZ_MIN_MATCH, p + LZ_MIN_MATCH);
        put_sequence(out, &src[anchor..p], Some((dist, mlen)));
        i = p + mlen;
        anchor = i;
    }
    // Final literals-only sequence (possibly empty).
    put_sequence(out, &src[anchor..], None);
}

fn take_len(src: &[u8], i: &mut usize) -> std::result::Result<usize, CodecError> {
    let mut v = 0usize;
    loop {
        let Some(&b) = src.get(*i) else {
            return Err(CodecError::Truncated("lz length extension"));
        };
        *i += 1;
        v += b as usize;
        if b != 255 {
            return Ok(v);
        }
    }
}

/// Decompresses a body that declares `expected` output bytes. Every
/// failure — a truncated or corrupt body, a declared length the body
/// cannot produce — is a typed error, and nothing is allocated beyond
/// what the body could expand to.
fn lz_decompress(src: &[u8], expected: usize) -> std::result::Result<Vec<u8>, CodecError> {
    if src.is_empty() {
        if expected == 0 {
            return Ok(Vec::new());
        }
        return Err(CodecError::Truncated("lz body"));
    }
    // No body byte expands to more than 255 output bytes (a match length
    // extension byte), so a larger declared length is a corrupt header.
    if expected / 255 > src.len() {
        return Err(CodecError::BadFrame(
            "declared length exceeds what the body can expand to",
        ));
    }
    let mut out = Vec::with_capacity(expected);
    let mut i = 0usize;
    loop {
        let Some(&token) = src.get(i) else {
            return Err(CodecError::Truncated("lz token"));
        };
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit += take_len(src, &mut i)?;
        }
        let Some(lits) = src.get(i..i + lit) else {
            return Err(CodecError::Truncated("lz literals"));
        };
        if out.len() + lit > expected {
            return Err(CodecError::BadFrame("literals overrun declared length"));
        }
        out.extend_from_slice(lits);
        i += lit;
        if i == src.len() {
            break;
        }
        let Some(&[lo, hi]) = src.get(i..i + 2) else {
            return Err(CodecError::Truncated("lz match offset"));
        };
        let off = u16::from_le_bytes([lo, hi]) as usize;
        i += 2;
        if off == 0 || off > out.len() {
            return Err(CodecError::BadFrame("match offset out of range"));
        }
        let mut mlen = (token & 0x0F) as usize + LZ_MIN_MATCH;
        if token & 0x0F == 15 {
            mlen += take_len(src, &mut i)?;
        }
        if out.len() + mlen > expected {
            return Err(CodecError::BadFrame("match overruns declared length"));
        }
        copy_match(&mut out, off, mlen);
    }
    if out.len() != expected {
        return Err(CodecError::LengthMismatch {
            expected,
            got: out.len(),
        });
    }
    Ok(out)
}

/// Appends `len` bytes copied from `off` bytes back. A match that
/// overlaps itself (`off < len`) repeats a period of `off` bytes: after
/// each copy the periodic run starting at the source is twice as long,
/// so the chunk doubles.
fn copy_match(out: &mut Vec<u8>, off: usize, mut len: usize) {
    let start = out.len() - off;
    let mut chunk = off;
    while len > 0 {
        let c = chunk.min(len);
        out.extend_from_within(start..start + c);
        len -= c;
        chunk *= 2;
    }
}

// --- lossy quantization ----------------------------------------------

/// Quantizes every float attribute array of a serialized dataset to
/// `|v - v'| <= error_bound` elementwise (step = 2·bound, so rounding to
/// the nearest step keeps the error within the bound). Geometry and
/// integer arrays pass through exactly; non-finite values (NaN/Inf) are
/// kept verbatim, as are values too large for exact integer rounding.
/// Returns the re-serialized (same-length) dataset bytes.
fn quantize_payload(payload: &Bytes, error_bound: f32) -> Result<Vec<u8>> {
    if error_bound <= 0.0 || !error_bound.is_finite() {
        return Err(CodecError::BadErrorBound(error_bound).into());
    }
    let mut ds = dataset_from_bytes(payload)?;
    let step32 = 2.0 * error_bound;
    let step64 = 2.0 * error_bound as f64;
    match &mut ds {
        DataSet::Image(img) => {
            quantize_attrs(&mut img.point_data, step32, step64);
            quantize_attrs(&mut img.cell_data, step32, step64);
        }
        DataSet::UGrid(g) => {
            quantize_attrs(&mut g.point_data, step32, step64);
            quantize_attrs(&mut g.cell_data, step32, step64);
        }
        DataSet::Poly(p) => {
            quantize_attrs(&mut p.point_data, step32, step64);
        }
    }
    Ok(dataset_to_bytes(&ds).to_vec())
}

fn quantize_attrs(at: &mut Attributes, step32: f32, step64: f64) {
    let names: Vec<String> = at.iter().map(|(n, _)| n.clone()).collect();
    for name in names {
        let q = match at.get(&name) {
            Some(DataArray::F32(v)) => {
                DataArray::F32(v.iter().map(|&x| quant32(x, step32)).collect())
            }
            Some(DataArray::F64(v)) => {
                DataArray::F64(v.iter().map(|&x| quant64(x, step64)).collect())
            }
            Some(other) => other.clone(),
            None => continue,
        };
        at.set(name, q);
    }
}

fn quant32(v: f32, step: f32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    let q = v / step;
    // Beyond 2^23 the quotient itself rounds, so snapping would no
    // longer honor the bound; keep such values exact.
    if q.abs() >= 8_388_608.0 {
        return v;
    }
    q.round() * step
}

fn quant64(v: f64, step: f64) -> f64 {
    if !v.is_finite() {
        return v;
    }
    let q = v / step;
    if q.abs() >= 4_503_599_627_370_496.0 {
        return v;
    }
    q.round() * step
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> DataSet {
        let mut img = ImageData::new([3, 2, 2]);
        img.origin = [1.0, 2.0, 3.0];
        img.spacing = [0.5, 0.5, 0.5];
        img.point_data
            .set("u", DataArray::F32((0..12).map(|i| i as f32).collect()));
        img.cell_data.set("c", DataArray::I32(vec![7, -7]));
        DataSet::Image(img)
    }

    fn ugrid() -> DataSet {
        let mut g = UnstructuredGrid::new();
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..2 {
                    g.points.push([i as f32, j as f32, k as f32]);
                }
            }
        }
        g.add_cell(CellType::Voxel, &[0, 1, 2, 3, 4, 5, 6, 7]);
        g.cell_data.set("v", DataArray::F64(vec![2.5]));
        DataSet::UGrid(g)
    }

    fn poly() -> DataSet {
        let mut p = PolyData::new();
        p.add_point([0.0, 0.0, 0.0], Some([0.0, 0.0, 1.0]));
        p.add_point([1.0, 0.0, 0.0], Some([0.0, 0.0, 1.0]));
        p.add_point([0.0, 1.0, 0.0], Some([0.0, 0.0, 1.0]));
        p.triangles.push([0, 1, 2]);
        p.point_data.set("s", DataArray::U8(vec![1, 2, 3]));
        DataSet::Poly(p)
    }

    #[test]
    fn image_roundtrip() {
        let ds = image();
        let back = dataset_from_bytes(&dataset_to_bytes(&ds)).unwrap();
        let (DataSet::Image(a), DataSet::Image(b)) = (&ds, &back) else {
            panic!("wrong variant");
        };
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.point_data, b.point_data);
        assert_eq!(a.cell_data, b.cell_data);
    }

    #[test]
    fn ugrid_roundtrip() {
        let ds = ugrid();
        let back = dataset_from_bytes(&dataset_to_bytes(&ds)).unwrap();
        let (DataSet::UGrid(a), DataSet::UGrid(b)) = (&ds, &back) else {
            panic!("wrong variant");
        };
        assert_eq!(a.points, b.points);
        assert_eq!(a.connectivity, b.connectivity);
        assert_eq!(a.cell_types, b.cell_types);
        // F64 array is widened to F32 on the wire? No: preserved as F64.
        assert_eq!(b.cell_data.get("v").unwrap().get(0), 2.5);
    }

    #[test]
    fn poly_roundtrip() {
        let ds = poly();
        let back = dataset_from_bytes(&dataset_to_bytes(&ds)).unwrap();
        let (DataSet::Poly(a), DataSet::Poly(b)) = (&ds, &back) else {
            panic!("wrong variant");
        };
        assert_eq!(a.points, b.points);
        assert_eq!(a.normals, b.normals);
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.point_data, b.point_data);
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(dataset_from_bytes(&[]).is_err());
        assert!(dataset_from_bytes(&[99]).is_err());
        assert!(dataset_from_bytes(&[1, 2, 3]).is_err());
        let mut good = dataset_to_bytes(&image()).to_vec();
        good.truncate(good.len() / 2);
        assert!(dataset_from_bytes(&good).is_err());
    }

    // --- codec layer ---------------------------------------------------

    fn roundtrip_lossless(spec: CodecSpec, payload: &[u8]) -> Encoded {
        let payload = Bytes::copy_from_slice(payload);
        let enc = encode_block(spec, &payload, None).unwrap();
        let dec = decode_block(enc.codec, &enc.frame, None).unwrap();
        assert_eq!(dec.to_vec(), payload.to_vec(), "lossless roundtrip");
        enc
    }

    #[test]
    fn shuffle_lz_roundtrips_and_compresses_smooth_data() {
        // A smooth float ramp: byte-shuffle exposes long runs.
        let vals: Vec<u8> = (0..4096)
            .flat_map(|i| (1000.0f32 + i as f32 * 0.25).to_le_bytes())
            .collect();
        let enc = roundtrip_lossless(CodecSpec::ShuffleLz, &vals);
        assert_eq!(enc.codec, CodecId::ShuffleLz);
        assert!(
            enc.frame.len() * 2 < vals.len(),
            "smooth ramp should compress at least 2x, got {} -> {}",
            vals.len(),
            enc.frame.len()
        );
    }

    #[test]
    fn shuffle_lz_handles_degenerate_inputs() {
        // Empty, single byte, tail < stride, incompressible-ish noise.
        roundtrip_lossless(CodecSpec::ShuffleLz, &[]);
        roundtrip_lossless(CodecSpec::ShuffleLz, &[0x42]);
        roundtrip_lossless(CodecSpec::ShuffleLz, &[1, 2, 3]);
        let noise: Vec<u8> = (0..1023u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip_lossless(CodecSpec::ShuffleLz, &noise);
    }

    #[test]
    fn nan_and_inf_survive_shuffle_lz_bit_exact() {
        let vals = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_1234), // payload-carrying NaN
            -0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        roundtrip_lossless(CodecSpec::ShuffleLz, &bytes);
    }

    #[test]
    fn delta_of_identical_payload_is_near_zero() {
        let ds = dataset_to_bytes(&image());
        let enc = encode_block(CodecSpec::Delta, &ds, Some((&ds, 0))).unwrap();
        assert_eq!(enc.codec, CodecId::DeltaDiff);
        // An all-constant residual collapses to almost nothing.
        assert!(
            enc.frame.len() < ds.len() / 4 + 32,
            "constant delta should be near-zero: {} -> {}",
            ds.len(),
            enc.frame.len()
        );
        let dec = decode_block(enc.codec, &enc.frame, Some(&ds)).unwrap();
        assert_eq!(dec.to_vec(), ds.to_vec());
    }

    #[test]
    fn delta_without_base_anchors_to_full_frame() {
        let ds = dataset_to_bytes(&image());
        let enc = encode_block(CodecSpec::Delta, &ds, None).unwrap();
        assert_eq!(enc.codec, CodecId::DeltaFull);
        let dec = decode_block(enc.codec, &enc.frame, None).unwrap();
        assert_eq!(dec.to_vec(), ds.to_vec());
    }

    #[test]
    fn delta_with_mismatched_base_length_anchors() {
        let ds = dataset_to_bytes(&image());
        let short = Bytes::copy_from_slice(&ds[..ds.len() - 4]);
        let enc = encode_block(CodecSpec::Delta, &ds, Some((&short, 0))).unwrap();
        assert_eq!(enc.codec, CodecId::DeltaFull, "size change must anchor");
    }

    #[test]
    fn delta_diff_decode_without_base_is_a_typed_error() {
        let ds = dataset_to_bytes(&image());
        let enc = encode_block(CodecSpec::Delta, &ds, Some((&ds, 3))).unwrap();
        match decode_block(enc.codec, &enc.frame, None) {
            Err(ColzaError::Codec(CodecError::MissingDeltaBase { base_iteration: 3 })) => {}
            other => panic!("expected MissingDeltaBase, got {other:?}"),
        }
    }

    #[test]
    fn lossy_respects_error_bound_elementwise() {
        let mut img = ImageData::new([8, 8, 1]);
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        img.point_data.set("u", DataArray::F32(vals.clone()));
        let payload = dataset_to_bytes(&DataSet::Image(img));
        let eb = 1e-2f32;
        let enc = encode_block(CodecSpec::Lossy { error_bound: eb }, &payload, None).unwrap();
        assert_eq!(enc.codec, CodecId::Lossy);
        let dec = decode_block(enc.codec, &enc.frame, None).unwrap();
        assert_eq!(dec.len(), payload.len(), "lossy keeps the serialized shape");
        let DataSet::Image(back) = dataset_from_bytes(&dec).unwrap() else {
            panic!("variant changed");
        };
        let Some(DataArray::F32(got)) = back.point_data.get("u") else {
            panic!("field lost");
        };
        for (a, b) in vals.iter().zip(got) {
            assert!(
                (a - b).abs() <= eb * 1.0001,
                "lossy bound violated: {a} vs {b}"
            );
        }
    }

    #[test]
    fn lossy_rejects_bad_bounds_and_non_datasets() {
        let payload = Bytes::from(vec![9u8; 64]);
        assert!(matches!(
            encode_block(CodecSpec::Lossy { error_bound: 0.0 }, &payload, None),
            Err(ColzaError::Codec(CodecError::BadErrorBound(_)))
        ));
        let ds = dataset_to_bytes(&image());
        assert!(encode_block(CodecSpec::Lossy { error_bound: -1.0 }, &ds, None).is_err());
        // Not a dataset: structural quantization cannot apply.
        assert!(encode_block(CodecSpec::Lossy { error_bound: 0.1 }, &payload, None).is_err());
    }

    /// A smooth `n`³ image block at time `t`: long matches inside and
    /// across its byte planes, and a small residual against `t - 1`.
    fn smooth_image(n: usize, t: f32) -> Bytes {
        let mut img = ImageData::new([n, n, n]);
        let vals = (0..n * n * n)
            .map(|i| 100.0 + (i as f32 * 0.05 + t).sin())
            .collect();
        img.point_data.set("u", DataArray::F32(vals));
        dataset_to_bytes(&DataSet::Image(img))
    }

    #[test]
    fn truncated_frames_decode_to_typed_errors_not_panics() {
        // Every strict prefix of a frame of each LZ-bodied kind.
        let (prev, next) = (smooth_image(6, 0.0), smooth_image(6, 0.1));
        for (spec, base) in [
            (CodecSpec::ShuffleLz, None),
            (CodecSpec::Delta, None),
            (CodecSpec::Delta, Some(&prev)),
        ] {
            let enc = encode_block(spec, &next, base.map(|b| (b, 0))).unwrap();
            for cut in 0..enc.frame.len() {
                let r = decode_block(enc.codec, &enc.frame.slice(..cut), base);
                assert!(
                    matches!(r, Err(ColzaError::Codec(_))),
                    "{:?} cut at {cut} must be a typed codec error, got {r:?}",
                    enc.codec
                );
            }
        }
        let ds = dataset_to_bytes(&image());
        // Corrupt magic and codec id.
        let enc = encode_block(CodecSpec::ShuffleLz, &ds, None).unwrap();
        let mut bad = enc.frame.to_vec();
        bad[0] = 0x00;
        assert!(matches!(
            decode_block(CodecId::ShuffleLz, &Bytes::from(bad), None),
            Err(ColzaError::Codec(CodecError::BadMagic(0)))
        ));
        let mut bad = enc.frame.to_vec();
        bad[1] = 99;
        assert!(matches!(
            decode_block(CodecId::ShuffleLz, &Bytes::from(bad), None),
            Err(ColzaError::Codec(CodecError::BadCodecId(99)))
        ));
    }

    #[test]
    fn raw_encode_is_zero_copy_passthrough() {
        let payload = Bytes::from(vec![7u8; 128]);
        let enc = encode_block(CodecSpec::Raw, &payload, None).unwrap();
        assert_eq!(enc.codec, CodecId::Raw);
        assert_eq!(enc.frame.len(), payload.len());
        let dec = decode_block(CodecId::Raw, &enc.frame, None).unwrap();
        assert_eq!(dec.to_vec(), payload.to_vec());
    }

    #[test]
    fn config_selects_per_dataset() {
        let cfg = CodecConfig::uniform(CodecSpec::ShuffleLz)
            .with_dataset("temperature", CodecSpec::Delta)
            .with_dataset("noise", CodecSpec::Raw);
        assert_eq!(cfg.spec_for("temperature"), CodecSpec::Delta);
        assert_eq!(cfg.spec_for("noise"), CodecSpec::Raw);
        assert_eq!(cfg.spec_for("anything-else"), CodecSpec::ShuffleLz);
        assert_eq!(CodecConfig::default().spec_for("x"), CodecSpec::Raw);
    }

    #[test]
    fn codec_id_u8_roundtrip() {
        for c in [
            CodecId::Raw,
            CodecId::ShuffleLz,
            CodecId::Lossy,
            CodecId::DeltaFull,
            CodecId::DeltaDiff,
        ] {
            assert_eq!(CodecId::from_u8(c.as_u8()).unwrap(), c);
        }
        assert!(matches!(CodecId::from_u8(200), Err(CodecError::BadCodecId(200))));
    }

    #[test]
    fn empty_and_single_element_fields_roundtrip_every_codec() {
        for ds in [
            {
                let mut img = ImageData::new([0, 0, 0]);
                img.point_data.set("empty", DataArray::F32(vec![]));
                DataSet::Image(img)
            },
            {
                let mut img = ImageData::new([1, 1, 1]);
                img.point_data.set("one", DataArray::F32(vec![42.5]));
                DataSet::Image(img)
            },
        ] {
            let payload = dataset_to_bytes(&ds);
            for spec in [CodecSpec::ShuffleLz, CodecSpec::Delta] {
                let enc = encode_block(spec, &payload, None).unwrap();
                let dec = decode_block(enc.codec, &enc.frame, None).unwrap();
                assert_eq!(dec.to_vec(), payload.to_vec());
            }
            let enc = encode_block(CodecSpec::Lossy { error_bound: 0.5 }, &payload, None).unwrap();
            let dec = decode_block(enc.codec, &enc.frame, None).unwrap();
            assert!(dataset_from_bytes(&dec).is_ok());
        }
    }

    // --- the kernels against the reference --------------------------

    use proptest::prelude::*;

    fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .or((a.len() != b.len()).then(|| a.len().min(b.len())))
    }

    /// The production kernels and [`reference`] agree byte for byte on
    /// `payload`: every frame kind encodes to the same frame and decodes
    /// to the same payload, and the LZ stage alone (on unshuffled bytes,
    /// where a period-`p` run is one self-overlapping match) produces the
    /// same body and decodes it back.
    fn assert_matches_reference(payload: &[u8], base: &[u8]) {
        let payload = Bytes::copy_from_slice(payload);
        let base = Bytes::copy_from_slice(base);
        for (spec, base) in [
            (CodecSpec::ShuffleLz, None),
            (CodecSpec::Delta, None),
            (CodecSpec::Delta, Some(&base)),
        ] {
            let with_it = base.map(|b| (b, 7));
            let enc = encode_block(spec, &payload, with_it).unwrap();
            let want = reference::encode_frame(spec, &payload, with_it).unwrap();
            let diff = first_difference(&enc.frame, &want);
            assert!(
                diff.is_none(),
                "{:?} frame differs from the reference at byte {diff:?}",
                enc.codec
            );
            let got = decode_block(enc.codec, &enc.frame, base).unwrap();
            let want = reference::decode_frame(enc.codec, &enc.frame, base).unwrap();
            assert!(
                got[..] == want[..],
                "{:?} decode differs from the reference",
                enc.codec
            );
            assert!(got == payload, "{:?} does not round-trip", enc.codec);
        }
        let mut body = Vec::new();
        lz_compress(&payload, &mut body);
        let want = reference::lz_compress(&payload);
        let diff = first_difference(&body, &want);
        assert!(
            diff.is_none(),
            "lz body differs from the reference at byte {diff:?}"
        );
        let got = lz_decompress(&body, payload.len()).unwrap();
        assert!(got == reference::lz_decompress(&body, payload.len()).unwrap());
        assert!(got[..] == payload[..], "lz body does not round-trip");
    }

    /// `data` with a sparse, seeded set of bytes flipped: a delta base
    /// whose residual is mostly zero, like a slowly varying field's.
    fn perturbed(data: &[u8], seed: u64) -> Vec<u8> {
        let mut out = data.to_vec();
        let mut x = seed | 1;
        for b in out.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x >> 60 == 0 {
                *b ^= (x >> 32) as u8 | 1;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernels_match_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            seed: u64,
        ) {
            assert_matches_reference(&data, &perturbed(&data, seed));
        }

        #[test]
        fn kernels_match_reference_on_long_zero_runs(
            segments in proptest::collection::vec(
                (0usize..2000, proptest::collection::vec(any::<u8>(), 0..24)),
                1..8,
            ),
            seed: u64,
        ) {
            // Runs past 15 + 255 bytes need more than one length
            // extension byte.
            let data: Vec<u8> = segments
                .iter()
                .flat_map(|(zeros, tail)| std::iter::repeat_n(0, *zeros).chain(tail.iter().copied()))
                .collect();
            assert_matches_reference(&data, &perturbed(&data, seed));
        }

        #[test]
        fn kernels_match_reference_on_self_overlapping_matches(
            period in 1usize..8,
            pattern in proptest::collection::vec(any::<u8>(), 7),
            len in 0usize..3000,
            prefix in proptest::collection::vec(any::<u8>(), 0..16),
            seed: u64,
        ) {
            let data: Vec<u8> = prefix
                .iter()
                .copied()
                .chain(pattern[..period].iter().copied().cycle().take(len))
                .collect();
            assert_matches_reference(&data, &perturbed(&data, seed));
        }
    }

    #[test]
    fn kernels_match_reference_past_the_window() {
        // A 300-byte motif at 0, again exactly one window later (a legal
        // match distance) and once more one byte further than that (out
        // of reach of the first copy) in 200 KB of noise.
        let mut x = 0x9E37_79B9u32;
        let mut data: Vec<u8> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let motif = data[..300].to_vec();
        for at in [LZ_WINDOW, 2 * LZ_WINDOW + 1] {
            data[at..at + 300].copy_from_slice(&motif);
        }
        assert_matches_reference(&data, &perturbed(&data, 3));
    }

    /// Consecutive snapshots of a small periodic Gray–Scott run (the
    /// staged field of `gs_stage_delta`, at toy scale), serialized as the
    /// simulation exports them: an image block with `u` and `v`.
    fn gray_scott_snapshots(n: usize, warmup: usize, count: usize) -> Vec<Bytes> {
        let (feed, kill, du, dv) = (0.01, 0.05, 0.2, 0.1);
        let at = |x: usize, y: usize, z: usize| ((z % n) * n + y % n) * n + x % n;
        let mut u = vec![1.0f64; n * n * n];
        let mut v = vec![0.0f64; n * n * n];
        for z in n / 2 - 2..n / 2 + 2 {
            for y in n / 2 - 2..n / 2 + 2 {
                for x in n / 2 - 2..n / 2 + 2 {
                    let i = at(x, y, z);
                    let noise = (i as u32).wrapping_mul(2_654_435_761) as f64 / 4e10;
                    u[i] = 0.25 + noise;
                    v[i] = 0.33 + noise;
                }
            }
        }
        let mut snapshots = Vec::new();
        for step in 0..warmup + count {
            let (mut u2, mut v2) = (u.clone(), v.clone());
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let i = at(x, y, z);
                        let lap = |f: &[f64]| {
                            (f[at(x + 1, y, z)]
                                + f[at(x + n - 1, y, z)]
                                + f[at(x, y + 1, z)]
                                + f[at(x, y + n - 1, z)]
                                + f[at(x, y, z + 1)]
                                + f[at(x, y, z + n - 1)]
                                - 6.0 * f[i])
                                / 6.0
                        };
                        let uvv = u[i] * v[i] * v[i];
                        u2[i] = u[i] + du * lap(&u) - uvv + feed * (1.0 - u[i]);
                        v2[i] = v[i] + dv * lap(&v) + uvv - (feed + kill) * v[i];
                    }
                }
            }
            (u, v) = (u2, v2);
            if step >= warmup {
                let mut img = ImageData::new([n, n, n]);
                img.point_data
                    .set("u", DataArray::F32(u.iter().map(|&x| x as f32).collect()));
                img.point_data
                    .set("v", DataArray::F32(v.iter().map(|&x| x as f32).collect()));
                snapshots.push(dataset_to_bytes(&DataSet::Image(img)));
            }
        }
        snapshots
    }

    #[test]
    fn kernels_match_reference_on_gray_scott_residuals() {
        let snapshots = gray_scott_snapshots(16, 60, 3);
        for pair in snapshots.windows(2) {
            assert_matches_reference(&pair[1], &pair[0]);
        }
        // The lossy codec runs the same kernels on the quantized field.
        let lossy = CodecSpec::Lossy { error_bound: 1e-3 };
        let enc = encode_block(lossy, &snapshots[0], None).unwrap();
        let want = reference::encode_frame(lossy, &snapshots[0], None).unwrap();
        assert!(enc.frame[..] == want[..], "lossy frame differs");
        let got = decode_block(enc.codec, &enc.frame, None).unwrap();
        assert!(got[..] == reference::decode_frame(enc.codec, &enc.frame, None).unwrap()[..]);
    }

    #[test]
    fn declared_length_beyond_the_body_is_refused_before_allocating() {
        let enc = encode_block(CodecSpec::ShuffleLz, &smooth_image(4, 0.0), None).unwrap();
        // Without the bound, this header alone would ask the allocator
        // for 4 EiB and abort the process.
        let mut forged = enc.frame.to_vec();
        forged[2..10].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(matches!(
            decode_block(CodecId::ShuffleLz, &Bytes::from(forged), None),
            Err(ColzaError::Codec(CodecError::BadFrame(_)))
        ));
        // The bound is the format's own: a payload that compresses as far
        // as it can (one match run, ~255 bytes per body byte) is within it.
        let zeros = roundtrip_lossless(CodecSpec::ShuffleLz, &[0u8; 1 << 20]);
        assert!(zeros.frame.len() < (1 << 20) / 250);
    }
}

/// The codec kernels as first written — byte-at-a-time shuffle, a
/// separate XOR pass, a `usize` hash table and a byte-by-byte match
/// copy — kept verbatim as the oracle the production kernels are
/// checked against: every frame they produce, and every payload they
/// decode, must match these byte for byte.
#[cfg(test)]
mod reference {
    use bytes::{BufMut, Bytes, BytesMut};

    use super::{
        frame_header_len, frame_info, lz_hash, put_len, quantize_payload, take_len, CodecError,
        CodecId, CodecSpec, FRAME_MAGIC, LZ_HASH_BITS, LZ_MIN_MATCH, LZ_WINDOW,
    };
    use crate::error::Result;

    /// The frame `encode_block` produced for `(spec, payload, base)`.
    pub(super) fn encode_frame(
        spec: CodecSpec,
        payload: &Bytes,
        base: Option<(&Bytes, u64)>,
    ) -> Result<Bytes> {
        Ok(match spec {
            CodecSpec::Raw => payload.clone(),
            CodecSpec::ShuffleLz => build_frame(
                CodecId::ShuffleLz,
                payload.len(),
                None,
                None,
                &shuffle4(payload),
            ),
            CodecSpec::Lossy { error_bound } => {
                let quantized = quantize_payload(payload, error_bound)?;
                build_frame(
                    CodecId::Lossy,
                    quantized.len(),
                    None,
                    Some(error_bound),
                    &shuffle4(&quantized),
                )
            }
            CodecSpec::Delta => match base {
                Some((b, base_iteration)) if b.len() == payload.len() => {
                    let mut residual = payload.to_vec();
                    xor_in_place(&mut residual, b);
                    build_frame(
                        CodecId::DeltaDiff,
                        payload.len(),
                        Some(base_iteration),
                        None,
                        &shuffle4(&residual),
                    )
                }
                _ => build_frame(
                    CodecId::DeltaFull,
                    payload.len(),
                    None,
                    None,
                    &shuffle4(payload),
                ),
            },
        })
    }

    /// The payload `decode_block` produced for a well-formed frame.
    pub(super) fn decode_frame(
        codec: CodecId,
        data: &Bytes,
        base: Option<&Bytes>,
    ) -> Result<Vec<u8>> {
        if codec == CodecId::Raw {
            return Ok(data.to_vec());
        }
        let info = frame_info(data)?;
        if info.codec != codec {
            return Err(CodecError::BadFrame("frame codec disagrees with metadata").into());
        }
        let body = &data[frame_header_len(info.codec)..];
        let shuffled = lz_decompress(body, info.decoded_len)?;
        let mut plain = unshuffle4(&shuffled);
        if codec == CodecId::DeltaDiff {
            let base_iteration = info.base_iteration.unwrap_or(0);
            let b = base.ok_or(CodecError::MissingDeltaBase { base_iteration })?;
            if b.len() != plain.len() {
                return Err(CodecError::LengthMismatch {
                    expected: plain.len(),
                    got: b.len(),
                }
                .into());
            }
            xor_in_place(&mut plain, b);
        }
        Ok(plain)
    }

    fn build_frame(
        codec: CodecId,
        decoded_len: usize,
        base_iteration: Option<u64>,
        error_bound: Option<f32>,
        shuffled: &[u8],
    ) -> Bytes {
        let body = lz_compress(shuffled);
        let mut buf = BytesMut::with_capacity(frame_header_len(codec) + body.len());
        buf.put_u8(FRAME_MAGIC);
        buf.put_u8(codec.as_u8());
        buf.put_u64_le(decoded_len as u64);
        if let Some(it) = base_iteration {
            buf.put_u64_le(it);
        }
        if let Some(eb) = error_bound {
            buf.put_f32_le(eb);
        }
        buf.put_slice(&body);
        buf.freeze()
    }

    fn xor_in_place(dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
    }

    fn shuffle4(src: &[u8]) -> Vec<u8> {
        let n = src.len() / 4;
        let mut out = Vec::with_capacity(src.len());
        for j in 0..4 {
            for i in 0..n {
                out.push(src[i * 4 + j]);
            }
        }
        out.extend_from_slice(&src[n * 4..]);
        out
    }

    fn unshuffle4(src: &[u8]) -> Vec<u8> {
        let n = src.len() / 4;
        let mut out = vec![0u8; src.len()];
        let mut k = 0;
        for j in 0..4 {
            for i in 0..n {
                out[i * 4 + j] = src[k];
                k += 1;
            }
        }
        out[n * 4..].copy_from_slice(&src[n * 4..]);
        out
    }

    fn read_u32_at(s: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(s[i..i + 4].try_into().unwrap())
    }

    pub(super) fn lz_compress(src: &[u8]) -> Vec<u8> {
        let n = src.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n == 0 {
            return out;
        }
        let mut table = vec![usize::MAX; 1 << LZ_HASH_BITS];
        let mut anchor = 0usize;
        let mut i = 0usize;
        while i + LZ_MIN_MATCH <= n {
            let h = lz_hash(read_u32_at(src, i));
            let cand = table[h];
            table[h] = i;
            if cand != usize::MAX
                && i - cand <= LZ_WINDOW
                && read_u32_at(src, cand) == read_u32_at(src, i)
            {
                let mut mlen = LZ_MIN_MATCH;
                while i + mlen < n && src[cand + mlen] == src[i + mlen] {
                    mlen += 1;
                }
                let lits = &src[anchor..i];
                let lnib = lits.len().min(15);
                let mnib = (mlen - LZ_MIN_MATCH).min(15);
                out.push(((lnib as u8) << 4) | mnib as u8);
                if lits.len() >= 15 {
                    put_len(&mut out, lits.len() - 15);
                }
                out.extend_from_slice(lits);
                out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                if mlen - LZ_MIN_MATCH >= 15 {
                    put_len(&mut out, mlen - LZ_MIN_MATCH - 15);
                }
                i += mlen;
                anchor = i;
            } else {
                i += 1;
            }
        }
        // Final literals-only sequence (possibly empty).
        let lits = &src[anchor..];
        let lnib = lits.len().min(15);
        out.push((lnib as u8) << 4);
        if lits.len() >= 15 {
            put_len(&mut out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        out
    }

    pub(super) fn lz_decompress(
        src: &[u8],
        expected: usize,
    ) -> std::result::Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(expected);
        if src.is_empty() {
            if expected == 0 {
                return Ok(out);
            }
            return Err(CodecError::Truncated("lz body"));
        }
        let mut i = 0usize;
        loop {
            let token = src[i];
            i += 1;
            let mut lit = (token >> 4) as usize;
            if lit == 15 {
                lit += take_len(src, &mut i)?;
            }
            if i + lit > src.len() {
                return Err(CodecError::Truncated("lz literals"));
            }
            if out.len() + lit > expected {
                return Err(CodecError::BadFrame("literals overrun declared length"));
            }
            out.extend_from_slice(&src[i..i + lit]);
            i += lit;
            if i == src.len() {
                break;
            }
            if i + 2 > src.len() {
                return Err(CodecError::Truncated("lz match offset"));
            }
            let off = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
            i += 2;
            if off == 0 || off > out.len() {
                return Err(CodecError::BadFrame("match offset out of range"));
            }
            let mut mlen = (token & 0x0F) as usize + LZ_MIN_MATCH;
            if token & 0x0F == 15 {
                mlen += take_len(src, &mut i)?;
            }
            if out.len() + mlen > expected {
                return Err(CodecError::BadFrame("match overruns declared length"));
            }
            let start = out.len() - off;
            for k in 0..mlen {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() != expected {
            return Err(CodecError::LengthMismatch {
                expected,
                got: out.len(),
            });
        }
        Ok(out)
    }
}
