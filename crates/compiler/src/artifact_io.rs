//! Disk serialization for [`CompiledArtifact`] — the artifact cache's
//! storage layer.
//!
//! A compiled artifact is fully determined by its provenance (network +
//! node fingerprints, options), so a session that finds a stored artifact
//! with matching provenance can skip the entire pipeline. This module
//! round-trips every field **exactly**:
//!
//! * `u64` values (fingerprints, FLOP and byte counts) are stored as
//!   decimal *strings* — the zero-dependency JSON layer models numbers as
//!   `f64`, which cannot represent all of `u64`.
//! * `f64` utilization factors are stored as decimal strings of their IEEE
//!   bit pattern ([`f64::to_bits`]) so reload is bit-identical.
//! * Programs are stored as hex of their canonical [`Program::encode`]
//!   wire form, which already round-trips all 28 instruction forms.
//! * The lower phase's micro-op streams are **not** stored: lowering is a
//!   pure function of the programs, so [`load`] re-derives them with
//!   [`scaledeep_isa::micro::lower`] — cheaper than parsing them and
//!   immune to drift between the stored stream and the lowering rules.
//!
//! Everything else (`u32`/`u16`/`usize` fields) fits `f64` exactly and is
//! stored as a plain JSON number.

use crate::codegen::{BufferLoc, CompiledNetwork, FuncTargetOptions, LayerBuffers, TrackerSpec};
use crate::mapping::{ArrayPlan, FailedTiles, LayerPlan, Mapping, Placement};
use crate::pipeline::{CompiledArtifact, Provenance};
use crate::{Error, Result};
use scaledeep_arch::{DesignPoint, Precision};
use scaledeep_dnn::LayerId;
use scaledeep_isa::Program;
use scaledeep_trace::json::{self, obj, Json};
use std::path::Path;

/// On-disk format version. Bumped on any schema change; [`load`] rejects
/// files written by other versions rather than guessing.
///
/// * v1 — initial format.
/// * v2 — provenance carries the full node configuration as a structural
///   `design` document; `node_fingerprint` is the FNV-1a hash of that
///   document's canonical rendering and is re-derived (and checked) on
///   load.
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// Serializes an artifact to its JSON document form.
pub fn to_json(artifact: &CompiledArtifact) -> Json {
    let functional = match artifact.functional() {
        Ok(net) => obj([("ok", network_to_json(net))]),
        Err(e) => obj([("err", error_to_json(&e))]),
    };
    obj([
        ("format_version", num(ARTIFACT_FORMAT_VERSION as usize)),
        ("provenance", provenance_to_json(artifact.provenance())),
        ("mapping", mapping_to_json(artifact.mapping())),
        ("functional", functional),
    ])
}

/// Deserializes an artifact from its JSON document form, re-deriving the
/// lowered micro-op streams.
///
/// # Errors
///
/// Returns [`Error::Codegen`] on a malformed document or a format-version
/// mismatch.
pub fn from_json(doc: &Json) -> Result<CompiledArtifact> {
    let version = get_usize(doc, "format_version")?;
    if version != ARTIFACT_FORMAT_VERSION as usize {
        return Err(bad(format!(
            "artifact format version {version} (this build reads {ARTIFACT_FORMAT_VERSION})"
        )));
    }
    let provenance = provenance_from_json(field(doc, "provenance")?)?;
    let mapping = mapping_from_json(field(doc, "mapping")?)?;
    let f = field(doc, "functional")?;
    let functional = if let Some(ok) = f.get("ok") {
        Ok(network_from_json(ok)?)
    } else if let Some(err) = f.get("err") {
        Err(error_from_json(err)?)
    } else {
        return Err(bad("`functional` has neither `ok` nor `err`".into()));
    };
    let lowered = functional.as_ref().ok().map(|net: &CompiledNetwork| {
        net.programs
            .iter()
            .map(scaledeep_isa::micro::lower)
            .collect()
    });
    Ok(CompiledArtifact::from_parts(
        mapping, functional, lowered, provenance,
    ))
}

/// Writes an artifact to `path` as pretty-printed JSON, atomically: the
/// document lands in a process-unique sibling temp file first and is
/// renamed into place, so a concurrent reader (or a crash mid-write)
/// never observes a torn half-document at `path` — it sees either the
/// old artifact or the new one.
///
/// # Errors
///
/// Returns [`Error::Codegen`] describing any I/O failure; the temp file
/// is removed on a failed rename.
pub fn save(artifact: &CompiledArtifact, path: &Path) -> Result<()> {
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let text = to_json(artifact).render_pretty();
    // Unique per process *and* per call, so two threads publishing the
    // same key never race on one temp file.
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, text)
        .map_err(|e| bad(format!("writing artifact {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        bad(format!(
            "publishing artifact {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Reads an artifact previously written by [`save`].
///
/// # Errors
///
/// Returns [`Error::Codegen`] on I/O failure, malformed JSON, or a
/// format-version mismatch.
pub fn load(path: &Path) -> Result<CompiledArtifact> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("reading artifact {}: {e}", path.display())))?;
    let doc =
        json::parse(&text).map_err(|e| bad(format!("parsing artifact {}: {e}", path.display())))?;
    from_json(&doc)
}

// ---------------------------------------------------------------- helpers

fn bad(detail: String) -> Error {
    Error::Codegen {
        detail: format!("artifact: {detail}"),
    }
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn u64s(v: u64) -> Json {
    Json::Str(v.to_string())
}

fn f64s(v: f64) -> Json {
    Json::Str(v.to_bits().to_string())
}

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json> {
    j.get(key).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn get_usize(j: &Json, key: &str) -> Result<usize> {
    index(field(j, key)?, key)
}

/// A JSON number that is an integer in `[0, 2^53)` ([`Json::as_u64`]):
/// the range where `f64` holds every integer, and so every index this
/// module writes.
fn index(v: &Json, key: &str) -> Result<usize> {
    let n = v
        .as_num()
        .ok_or_else(|| bad(format!("`{key}` is not a number")))?;
    v.as_u64()
        .map(|i| i as usize)
        .ok_or_else(|| bad(format!("`{key}` = {n} is not a valid index")))
}

fn get_u32(j: &Json, key: &str) -> Result<u32> {
    u32::try_from(get_usize(j, key)?).map_err(|_| bad(format!("`{key}` exceeds u32")))
}

fn get_u16(j: &Json, key: &str) -> Result<u16> {
    u16::try_from(get_usize(j, key)?).map_err(|_| bad(format!("`{key}` exceeds u16")))
}

fn get_str<'j>(j: &'j Json, key: &str) -> Result<&'j str> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| bad(format!("`{key}` is not a string")))
}

fn get_bool(j: &Json, key: &str) -> Result<bool> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(format!("`{key}` is not a bool"))),
    }
}

fn get_u64(j: &Json, key: &str) -> Result<u64> {
    get_str(j, key)?
        .parse()
        .map_err(|_| bad(format!("`{key}` is not a decimal u64")))
}

fn get_f64_bits(j: &Json, key: &str) -> Result<f64> {
    Ok(f64::from_bits(get_u64(j, key)?))
}

fn get_arr<'j>(j: &'j Json, key: &str) -> Result<&'j [Json]> {
    field(j, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("`{key}` is not an array")))
}

fn usize_arr(j: &Json, key: &str) -> Result<Vec<usize>> {
    get_arr(j, key)?.iter().map(|v| index(v, key)).collect()
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Decodes byte pairs, never `str` slices: a non-ASCII character in a
/// crafted file is a non-hex digit, not a slice across a char boundary.
fn hex_decode(s: &str) -> Result<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(bad("odd-length hex program".into()));
    }
    let nibble = |d: u8| {
        char::from(d)
            .to_digit(16)
            .ok_or_else(|| bad("non-hex program byte".into()))
    };
    s.chunks_exact(2)
        .map(|pair| Ok((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

// ------------------------------------------------------------- provenance

fn provenance_to_json(p: &Provenance) -> Json {
    obj([
        ("network", Json::Str(p.network.clone())),
        ("net_fingerprint", u64s(p.net_fingerprint)),
        ("node_fingerprint", u64s(p.node_fingerprint)),
        ("design", p.design.to_json()),
        (
            "precision",
            Json::Str(
                match p.precision {
                    Precision::Single => "single",
                    Precision::Half => "half",
                }
                .into(),
            ),
        ),
        (
            "failed_cols",
            Json::Arr(p.failed.columns().map(num).collect()),
        ),
        (
            "failed_func_tiles",
            Json::Arr(p.failed.func_tiles().map(|t| num(t as usize)).collect()),
        ),
        ("func_mem_tiles", num(p.func.mem_tiles)),
        (
            "func_tile_capacity_elems",
            num(p.func.tile_capacity_elems as usize),
        ),
        ("minibatch", num(p.minibatch)),
    ])
}

fn provenance_from_json(j: &Json) -> Result<Provenance> {
    let precision = match get_str(j, "precision")? {
        "single" => Precision::Single,
        "half" => Precision::Half,
        other => return Err(bad(format!("unknown precision `{other}`"))),
    };
    let cols = usize_arr(j, "failed_cols")?;
    let tiles: Vec<u16> = usize_arr(j, "failed_func_tiles")?
        .into_iter()
        .map(|n| u16::try_from(n).map_err(|_| bad("failed func tile exceeds u16".into())))
        .collect::<Result<_>>()?;
    let design = DesignPoint::from_json(field(j, "design")?)
        .map_err(|e| bad(format!("provenance design: {e}")))?;
    let node_fingerprint = get_u64(j, "node_fingerprint")?;
    // The fingerprint is derivable from the design document; a stored
    // value that disagrees means the file was edited or corrupted, and
    // trusting it would poison every cache keyed on it.
    if design.fingerprint() != node_fingerprint {
        return Err(bad(format!(
            "stored node_fingerprint {node_fingerprint:016x} does not match \
             the design document ({:016x})",
            design.fingerprint()
        )));
    }
    Ok(Provenance {
        network: get_str(j, "network")?.to_string(),
        net_fingerprint: get_u64(j, "net_fingerprint")?,
        node_fingerprint,
        design,
        precision,
        failed: FailedTiles::from_sets(cols, tiles),
        func: FuncTargetOptions {
            mem_tiles: get_usize(j, "func_mem_tiles")?,
            tile_capacity_elems: get_u32(j, "func_tile_capacity_elems")?,
        },
        minibatch: get_usize(j, "minibatch")?,
    })
}

// ---------------------------------------------------------------- mapping

fn placement_to_json(p: Placement) -> Json {
    match p {
        Placement::Conv { first_col, cols } => obj([
            ("kind", Json::Str("conv".into())),
            ("first_col", num(first_col)),
            ("cols", num(cols)),
        ]),
        Placement::Fc { first_col, cols } => obj([
            ("kind", Json::Str("fc".into())),
            ("first_col", num(first_col)),
            ("cols", num(cols)),
        ]),
        Placement::Inline => obj([("kind", Json::Str("inline".into()))]),
    }
}

fn placement_from_json(j: &Json) -> Result<Placement> {
    match get_str(j, "kind")? {
        "conv" => Ok(Placement::Conv {
            first_col: get_usize(j, "first_col")?,
            cols: get_usize(j, "cols")?,
        }),
        "fc" => Ok(Placement::Fc {
            first_col: get_usize(j, "first_col")?,
            cols: get_usize(j, "cols")?,
        }),
        "inline" => Ok(Placement::Inline),
        other => Err(bad(format!("unknown placement `{other}`"))),
    }
}

fn array_to_json(a: &ArrayPlan) -> Json {
    obj([
        ("cols", num(a.cols)),
        ("lanes", num(a.lanes)),
        ("row_split", Json::Bool(a.row_split)),
        ("util_rows", f64s(a.util_rows)),
        ("util_kernel", f64s(a.util_kernel)),
        ("util_lanes", f64s(a.util_lanes)),
        ("batches_per_image", num(a.batches_per_image)),
        ("streaming_fits", Json::Bool(a.streaming_fits)),
    ])
}

fn array_from_json(j: &Json) -> Result<ArrayPlan> {
    Ok(ArrayPlan {
        cols: get_usize(j, "cols")?,
        lanes: get_usize(j, "lanes")?,
        row_split: get_bool(j, "row_split")?,
        util_rows: get_f64_bits(j, "util_rows")?,
        util_kernel: get_f64_bits(j, "util_kernel")?,
        util_lanes: get_f64_bits(j, "util_lanes")?,
        batches_per_image: get_usize(j, "batches_per_image")?,
        streaming_fits: get_bool(j, "streaming_fits")?,
    })
}

fn u64_triple(j: &Json, key: &str) -> Result<[u64; 3]> {
    let arr = get_arr(j, key)?;
    if arr.len() != 3 {
        return Err(bad(format!("`{key}` is not a 3-array")));
    }
    let mut out = [0u64; 3];
    for (o, v) in out.iter_mut().zip(arr) {
        *o = v
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("`{key}` holds a non-u64-string")))?;
    }
    Ok(out)
}

fn plan_to_json(p: &LayerPlan) -> Json {
    obj([
        ("id", num(p.id.index())),
        ("name", Json::Str(p.name.clone())),
        ("placement", placement_to_json(p.placement)),
        (
            "comp_flops",
            Json::Arr(p.comp_flops.iter().map(|&f| u64s(f)).collect()),
        ),
        (
            "mem_flops",
            Json::Arr(p.mem_flops.iter().map(|&f| u64s(f)).collect()),
        ),
        ("state_bytes", u64s(p.state_bytes)),
        ("weight_bytes", u64s(p.weight_bytes)),
        ("weights_on_chip", Json::Bool(p.weights_on_chip)),
        ("tiles_total", num(p.tiles_total)),
        ("tiles_used", num(p.tiles_used)),
        ("out_features", num(p.out_features)),
        ("feature_elems", num(p.feature_elems)),
        ("in_bytes", u64s(p.in_bytes)),
        ("out_bytes", u64s(p.out_bytes)),
        ("array", array_to_json(&p.array)),
        ("conv_kernel", p.conv_kernel.map_or(Json::Null, num)),
    ])
}

fn plan_from_json(j: &Json) -> Result<LayerPlan> {
    let conv_kernel = match field(j, "conv_kernel")? {
        Json::Null => None,
        v => Some(index(v, "conv_kernel")?),
    };
    Ok(LayerPlan {
        id: LayerId::from_index(get_usize(j, "id")?),
        name: get_str(j, "name")?.to_string(),
        placement: placement_from_json(field(j, "placement")?)?,
        comp_flops: u64_triple(j, "comp_flops")?,
        mem_flops: u64_triple(j, "mem_flops")?,
        state_bytes: get_u64(j, "state_bytes")?,
        weight_bytes: get_u64(j, "weight_bytes")?,
        weights_on_chip: get_bool(j, "weights_on_chip")?,
        tiles_total: get_usize(j, "tiles_total")?,
        tiles_used: get_usize(j, "tiles_used")?,
        out_features: get_usize(j, "out_features")?,
        feature_elems: get_usize(j, "feature_elems")?,
        in_bytes: get_u64(j, "in_bytes")?,
        out_bytes: get_u64(j, "out_bytes")?,
        array: array_from_json(field(j, "array")?)?,
        conv_kernel,
    })
}

fn mapping_to_json(m: &Mapping) -> Json {
    obj([
        ("net_name", Json::Str(m.net_name.clone())),
        (
            "plans",
            Json::Arr(m.plans.iter().map(plan_to_json).collect()),
        ),
        ("conv_cols_used", num(m.conv_cols_used)),
        ("fc_cols_used", num(m.fc_cols_used)),
        ("chips_spanned", num(m.chips_spanned)),
        ("clusters_spanned", num(m.clusters_spanned)),
        ("conv_cols_per_chip", num(m.conv_cols_per_chip)),
        ("wheel_batch", num(m.wheel_batch)),
        ("elem_bytes", u64s(m.elem_bytes)),
        (
            "col_map",
            Json::Arr(m.col_map.iter().map(|&c| num(c)).collect()),
        ),
        (
            "failed_cols",
            Json::Arr(m.failed_cols.iter().map(|&c| num(c)).collect()),
        ),
    ])
}

fn mapping_from_json(j: &Json) -> Result<Mapping> {
    Ok(Mapping {
        net_name: get_str(j, "net_name")?.to_string(),
        plans: get_arr(j, "plans")?
            .iter()
            .map(plan_from_json)
            .collect::<Result<_>>()?,
        conv_cols_used: get_usize(j, "conv_cols_used")?,
        fc_cols_used: get_usize(j, "fc_cols_used")?,
        chips_spanned: get_usize(j, "chips_spanned")?,
        clusters_spanned: get_usize(j, "clusters_spanned")?,
        conv_cols_per_chip: get_usize(j, "conv_cols_per_chip")?,
        wheel_batch: get_usize(j, "wheel_batch")?,
        elem_bytes: get_u64(j, "elem_bytes")?,
        col_map: usize_arr(j, "col_map")?,
        failed_cols: usize_arr(j, "failed_cols")?,
    })
}

// ------------------------------------------------------------- functional

fn loc_to_json(l: &BufferLoc) -> Json {
    obj([
        ("tile", num(l.tile as usize)),
        ("offset", num(l.offset as usize)),
        ("len", num(l.len as usize)),
    ])
}

fn loc_from_json(j: &Json) -> Result<BufferLoc> {
    Ok(BufferLoc {
        tile: get_u16(j, "tile")?,
        offset: get_u32(j, "offset")?,
        len: get_u32(j, "len")?,
    })
}

fn opt_loc_to_json(l: &Option<BufferLoc>) -> Json {
    l.as_ref().map_or(Json::Null, loc_to_json)
}

fn opt_loc_from_json(j: &Json) -> Result<Option<BufferLoc>> {
    match j {
        Json::Null => Ok(None),
        v => Ok(Some(loc_from_json(v)?)),
    }
}

fn buffers_to_json(b: &LayerBuffers) -> Json {
    obj([
        ("output", opt_loc_to_json(&b.output)),
        ("pre", opt_loc_to_json(&b.pre)),
        ("err", opt_loc_to_json(&b.err)),
        ("dz", opt_loc_to_json(&b.dz)),
        ("weights", opt_loc_to_json(&b.weights)),
        ("weights_t", opt_loc_to_json(&b.weights_t)),
        ("wgrad", opt_loc_to_json(&b.wgrad)),
        ("golden", opt_loc_to_json(&b.golden)),
    ])
}

fn buffers_from_json(j: &Json) -> Result<LayerBuffers> {
    Ok(LayerBuffers {
        output: opt_loc_from_json(field(j, "output")?)?,
        pre: opt_loc_from_json(field(j, "pre")?)?,
        err: opt_loc_from_json(field(j, "err")?)?,
        dz: opt_loc_from_json(field(j, "dz")?)?,
        weights: opt_loc_from_json(field(j, "weights")?)?,
        weights_t: opt_loc_from_json(field(j, "weights_t")?)?,
        wgrad: opt_loc_from_json(field(j, "wgrad")?)?,
        golden: opt_loc_from_json(field(j, "golden")?)?,
    })
}

fn network_to_json(net: &CompiledNetwork) -> Json {
    obj([
        ("net_name", Json::Str(net.net_name.clone())),
        (
            "buffers",
            Json::Arr(net.buffers.iter().map(buffers_to_json).collect()),
        ),
        (
            "programs",
            Json::Arr(
                net.programs
                    .iter()
                    .map(|p| {
                        obj([
                            ("name", Json::Str(p.name().to_string())),
                            ("hex", Json::Str(hex_encode(&p.encode()))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trackers",
            Json::Arr(
                net.trackers
                    .iter()
                    .map(|t| {
                        obj([
                            ("tile", num(t.tile as usize)),
                            ("addr", num(t.addr as usize)),
                            ("len", num(t.len as usize)),
                            ("num_updates", num(t.num_updates as usize)),
                            ("num_reads", num(t.num_reads as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("mem_tiles", num(net.mem_tiles)),
        ("const_neg_one", loc_to_json(&net.const_neg_one)),
        ("dropped_biases", num(net.dropped_biases)),
        ("minibatch", num(net.minibatch)),
        ("zeros", opt_loc_to_json(&net.zeros)),
    ])
}

fn network_from_json(j: &Json) -> Result<CompiledNetwork> {
    let programs = get_arr(j, "programs")?
        .iter()
        .map(|p| {
            let name = get_str(p, "name")?;
            let bytes = hex_decode(get_str(p, "hex")?)?;
            Program::decode(name, &bytes)
                .map_err(|e| bad(format!("decoding program `{name}`: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let trackers = get_arr(j, "trackers")?
        .iter()
        .map(|t| {
            Ok(TrackerSpec {
                tile: get_u16(t, "tile")?,
                addr: get_u32(t, "addr")?,
                len: get_u32(t, "len")?,
                num_updates: get_u16(t, "num_updates")?,
                num_reads: get_u16(t, "num_reads")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CompiledNetwork {
        net_name: get_str(j, "net_name")?.to_string(),
        buffers: get_arr(j, "buffers")?
            .iter()
            .map(buffers_from_json)
            .collect::<Result<_>>()?,
        programs,
        trackers,
        mem_tiles: get_usize(j, "mem_tiles")?,
        const_neg_one: loc_from_json(field(j, "const_neg_one")?)?,
        dropped_biases: get_usize(j, "dropped_biases")?,
        minibatch: get_usize(j, "minibatch")?,
        zeros: opt_loc_from_json(field(j, "zeros")?)?,
    })
}

// ------------------------------------------------------------------ error

fn error_to_json(e: &Error) -> Json {
    match e {
        Error::DoesNotFit {
            required_cols,
            available_cols,
        } => obj([
            ("kind", Json::Str("does_not_fit".into())),
            ("required_cols", num(*required_cols)),
            ("available_cols", num(*available_cols)),
        ]),
        Error::NoCapacity {
            required_cols,
            live_cols,
            failed_cols,
        } => obj([
            ("kind", Json::Str("no_capacity".into())),
            ("required_cols", num(*required_cols)),
            ("live_cols", num(*live_cols)),
            ("failed_cols", num(*failed_cols)),
        ]),
        Error::NoRoute { chip } => {
            obj([("kind", Json::Str("no_route".into())), ("chip", num(*chip))])
        }
        Error::Codegen { detail } => obj([
            ("kind", Json::Str("codegen".into())),
            ("detail", Json::Str(detail.clone())),
        ]),
        // Wrapped foreign errors carry types this layer cannot rebuild;
        // their rendered message survives as a codegen diagnostic.
        other => obj([
            ("kind", Json::Str("codegen".into())),
            ("detail", Json::Str(other.to_string())),
        ]),
    }
}

fn error_from_json(j: &Json) -> Result<Error> {
    match get_str(j, "kind")? {
        "does_not_fit" => Ok(Error::DoesNotFit {
            required_cols: get_usize(j, "required_cols")?,
            available_cols: get_usize(j, "available_cols")?,
        }),
        "no_capacity" => Ok(Error::NoCapacity {
            required_cols: get_usize(j, "required_cols")?,
            live_cols: get_usize(j, "live_cols")?,
            failed_cols: get_usize(j, "failed_cols")?,
        }),
        "no_route" => Ok(Error::NoRoute {
            chip: get_usize(j, "chip")?,
        }),
        "codegen" => Ok(Error::Codegen {
            detail: get_str(j, "detail")?.to_string(),
        }),
        other => Err(bad(format!("unknown error kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use crate::TileCoord;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    fn small_net() -> scaledeep_dnn::Network {
        zoo::by_name("cnn-s").expect("zoo has cnn-s")
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let doc = to_json(&a);
        let b = from_json(&doc).expect("parses back");
        assert_eq!(a.mapping(), b.mapping());
        assert_eq!(a.provenance(), b.provenance());
        match (a.functional(), b.functional()) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("functional verdict flipped: {x:?} vs {y:?}"),
        }
        // The lowered streams are re-derived, not stored — still identical.
        assert_eq!(a.lowered(), b.lowered());
    }

    #[test]
    fn artifact_round_trips_through_disk() {
        // alexnet-func's artifact is the largest in the zoo (~668 KB, most
        // of it program hex): loading it must stay linear-time.
        let node = presets::single_precision();
        let dir =
            std::env::temp_dir().join(format!("scaledeep-artifact-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["cnn-s", "alexnet-func"] {
            let net = zoo::by_name(name).expect("zoo net");
            let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
            let path = dir.join(format!("{name}.artifact.json"));
            save(&a, &path).expect("saves");
            let text = std::fs::read_to_string(&path).unwrap();
            let b = load(&path).expect("loads");
            assert_eq!(a.mapping(), b.mapping());
            assert_eq!(a.provenance(), b.provenance());
            assert_eq!(a.lowered(), b.lowered());
            // The reloaded artifact re-renders to the stored bytes.
            assert_eq!(to_json(&b).render_pretty(), text, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The value at `key` of an object, for patching documents in place.
    fn field_mut<'j>(j: &'j mut Json, key: &str) -> &'j mut Json {
        match j {
            Json::Obj(fields) => fields
                .iter_mut()
                .find_map(|(k, v)| (k == key).then_some(v))
                .unwrap_or_else(|| panic!("document has no `{key}`")),
            _ => panic!("`{key}`: not an object"),
        }
    }

    #[test]
    fn index_arrays_reject_non_indices() {
        let node = presets::single_precision();
        let a = compile(&node, &small_net(), &CompileOptions::default()).expect("compiles");
        let doc = to_json(&a);
        for (section, key) in [
            ("mapping", "col_map"),
            ("mapping", "failed_cols"),
            ("provenance", "failed_cols"),
            ("provenance", "failed_func_tiles"),
        ] {
            for n in [-1.0, 0.5, 1e300] {
                let mut d = doc.clone();
                *field_mut(field_mut(&mut d, section), key) = Json::Arr(vec![Json::Num(n)]);
                let err = from_json(&d).expect_err("non-index must be rejected");
                assert!(
                    err.to_string().contains("is not a valid index"),
                    "{section}.{key} = [{n}]: {err}"
                );
            }
        }
    }

    #[test]
    fn hex_decode_rejects_without_panicking() {
        assert_eq!(hex_decode("00ff7A").unwrap(), [0x00, 0xff, 0x7a]);
        assert_eq!(hex_encode(&[0x00, 0xff, 0x7a]), "00ff7a");
        // "aé0" is four bytes, so pairing by byte splits the `é`.
        for bad in ["aé0", "é", "+a", "-1", "0x", "abc"] {
            assert!(hex_decode(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn degraded_artifact_preserves_failed_tiles_and_error() {
        let node = presets::single_precision();
        let net = small_net();
        let opts = CompileOptions {
            failed: FailedTiles::from_coords(
                &[TileCoord {
                    chip: 0,
                    col: 0,
                    row: 0,
                }],
                node.cluster.conv_chip.cols,
            ),
            ..CompileOptions::default()
        };
        let a = compile(&node, &net, &opts).expect("degraded compile succeeds");
        let b = from_json(&to_json(&a)).expect("parses back");
        assert!(b.is_degraded());
        assert_eq!(a.provenance(), b.provenance());
        assert_eq!(
            a.provenance().failed.columns().collect::<Vec<_>>(),
            b.provenance().failed.columns().collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let dir =
            std::env::temp_dir().join(format!("scaledeep-atomic-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cnn-s.artifact.json");
        // Save twice (fresh + overwrite); both must publish via rename.
        save(&a, &path).expect("saves");
        save(&a, &path).expect("overwrites");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        load(&path).expect("published artifact loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_or_garbage_files_fail_to_load() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let dir = std::env::temp_dir().join(format!("scaledeep-torn-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.artifact.json");
        // A torn write: the front half of a valid document.
        let text = to_json(&a).render_pretty();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(load(&path).is_err(), "half a document must not parse");
        // Valid JSON that is not an artifact.
        std::fs::write(&path, "{\"not\": \"an artifact\"}").unwrap();
        assert!(load(&path).is_err(), "wrong shape must be rejected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let mut doc = to_json(&a);
        *field_mut(&mut doc, "format_version") = Json::Num(999.0);
        let err = from_json(&doc).expect_err("version 999 must be rejected");
        assert!(matches!(err, Error::Codegen { .. }), "{err:?}");
    }

    #[test]
    fn tampered_design_document_is_rejected() {
        // Editing the stored design without re-deriving node_fingerprint
        // must fail the load: the fingerprint is the cache identity, and
        // a file claiming one identity while describing another config
        // would poison every cache keyed on it.
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let mut doc = to_json(&a);
        *field_mut(
            field_mut(field_mut(&mut doc, "provenance"), "design"),
            "clusters",
        ) = Json::Num(2.0);
        let err = from_json(&doc).expect_err("tampered design must be rejected");
        assert!(
            err.to_string().contains("node_fingerprint"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn exact_u64_and_f64_fields_survive() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let b = from_json(&to_json(&a)).expect("parses back");
        for (x, y) in a.mapping().plans().iter().zip(b.mapping().plans()) {
            assert_eq!(x.comp_flops, y.comp_flops);
            assert_eq!(x.state_bytes, y.state_bytes);
            assert_eq!(x.array.util_rows.to_bits(), y.array.util_rows.to_bits());
            assert_eq!(x.array.util_lanes.to_bits(), y.array.util_lanes.to_bits());
        }
        assert_eq!(
            a.provenance().net_fingerprint,
            b.provenance().net_fingerprint
        );
    }
}
