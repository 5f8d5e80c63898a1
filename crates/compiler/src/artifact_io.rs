//! Disk serialization for [`CompiledArtifact`] — the artifact cache's
//! storage layer.
//!
//! A compiled artifact is fully determined by its provenance (network +
//! node fingerprints, options), so a session that finds a stored artifact
//! with matching provenance can skip the entire pipeline. This module
//! round-trips every field **exactly**:
//!
//! * `u64` values (fingerprints, FLOP and byte counts) are stored as
//!   decimal *strings* ([`Json::decimal`]) — the zero-dependency JSON
//!   layer models numbers as `f64`, which cannot represent all of `u64`.
//! * `f64` utilization factors are stored as decimal strings of their IEEE
//!   bit pattern ([`f64::to_bits`]) so reload is bit-identical.
//! * Programs are stored as hex of their canonical [`Program::encode`]
//!   wire form, which already round-trips all 28 instruction forms.
//! * The lower phase's micro-op streams are **not** stored: lowering is a
//!   pure function of the programs, so [`decode`] re-derives them with
//!   [`scaledeep_isa::micro::lower`] — cheaper than parsing them and
//!   immune to drift between the stored stream and the lowering rules.
//!
//! Everything else (`u32`/`u16`/`usize` fields) fits `f64` exactly and is
//! stored as a plain JSON number ([`Json::count`]).
//!
//! [`to_json`] builds the document and [`save`] writes it pretty-printed.
//! [`decode`] (and [`load`], which reads a file and decodes it) reads that
//! text back with a [`Reader`], in place and in [`to_json`]'s field order,
//! without building a tree; only the `design` sub-document becomes a
//! [`Json`] value, for [`DesignPoint::from_json`]. So a stored file is
//! trusted only if it is exactly what [`save`] writes, give or take
//! whitespace: a field missing, reordered, repeated or added fails the
//! decode like a malformed value, and a session quarantines the file and
//! recompiles. Every value goes through the shared rules of
//! [`scaledeep_trace::json`]; [`decode`] wraps their message in
//! [`Error::Codegen`] once.

use crate::codegen::{BufferLoc, CompiledNetwork, FuncTargetOptions, LayerBuffers, TrackerSpec};
use crate::mapping::{ArrayPlan, FailedTiles, LayerPlan, Mapping, Placement};
use crate::pipeline::{CompiledArtifact, Provenance};
use crate::{Error, Result};
use scaledeep_arch::{DesignPoint, Precision};
use scaledeep_dnn::LayerId;
use scaledeep_isa::Program;
use scaledeep_trace::json::{obj, Json, Reader};
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
        (
            "format_version",
            Json::count(ARTIFACT_FORMAT_VERSION as usize),
        ),
        ("provenance", provenance_to_json(artifact.provenance())),
        ("mapping", mapping_to_json(artifact.mapping())),
        ("functional", functional),
    ])
}

/// Decodes an artifact from the text [`save`] writes, re-deriving the
/// lowered micro-op streams. The text is read in place, in [`to_json`]'s
/// field order, with no tree: a document with a field missing, reordered,
/// repeated or added is rejected, like one with a malformed value.
///
/// # Errors
///
/// Returns [`Error::Codegen`] on malformed text, a document that is not
/// [`to_json`]'s shape, or a format-version mismatch.
pub fn decode(text: &str) -> Result<CompiledArtifact> {
    let mut r = Reader::new(text);
    let artifact = r.object(artifact).map_err(bad)?;
    r.finish().map_err(bad)?;
    Ok(artifact)
}

/// Reads the members of the artifact object. Each reader below likewise
/// reads the members of the object its caller opened, except [`loc`],
/// which reads a whole object because it also stands as a nullable value.
fn artifact(r: &mut Reader) -> Decoded<CompiledArtifact> {
    let version: u64 = r.field("format_version")?.count()?;
    if version != u64::from(ARTIFACT_FORMAT_VERSION) {
        return Err(format!(
            "artifact format version {version} (this build reads {ARTIFACT_FORMAT_VERSION})"
        ));
    }
    let provenance = r.field("provenance")?.object(provenance)?;
    let mapping = r.field("mapping")?.object(mapping)?;
    let functional = r.field("functional")?.object(|r| match r.key()? {
        Some("ok") => Ok(Ok(r.object(network)?)),
        Some("err") => Ok(Err(r.object(error)?)),
        _ => Err("`functional` has neither `ok` nor `err`".to_string()),
    })?;
    Ok(CompiledArtifact::from_parts(
        mapping,
        functional.map(crate::pipeline::lower),
        provenance,
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

/// Reads an artifact previously written by [`save`] and [`decode`]s it.
///
/// # Errors
///
/// Returns [`Error::Codegen`] on I/O failure or whatever [`decode`]
/// rejects.
pub fn load(path: &Path) -> Result<CompiledArtifact> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("reading artifact {}: {e}", path.display())))?;
    decode(&text)
}

// ---------------------------------------------------------------- helpers

fn bad(detail: String) -> Error {
    Error::Codegen {
        detail: format!("artifact: {detail}"),
    }
}

/// A decode result: the message names the offending field.
type Decoded<T> = std::result::Result<T, String>;

fn f64s(v: f64) -> Json {
    Json::decimal(v.to_bits())
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
fn hex_decode(s: &str) -> Decoded<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex program".into());
    }
    let nibble = |d: u8| {
        char::from(d)
            .to_digit(16)
            .ok_or_else(|| "non-hex program byte".to_string())
    };
    s.chunks_exact(2)
        .map(|pair| Ok((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

// ------------------------------------------------------------- provenance

fn provenance_to_json(p: &Provenance) -> Json {
    obj([
        ("network", Json::Str(p.network.clone())),
        ("net_fingerprint", Json::decimal(p.net_fingerprint)),
        ("node_fingerprint", Json::decimal(p.node_fingerprint)),
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
            Json::Arr(p.failed.columns().map(Json::count).collect()),
        ),
        (
            "failed_func_tiles",
            Json::Arr(
                p.failed
                    .func_tiles()
                    .map(|t| Json::count(t as usize))
                    .collect(),
            ),
        ),
        ("func_mem_tiles", Json::count(p.func.mem_tiles)),
        (
            "func_tile_capacity_elems",
            Json::count(p.func.tile_capacity_elems as usize),
        ),
        ("minibatch", Json::count(p.minibatch)),
    ])
}

fn provenance(r: &mut Reader) -> Decoded<Provenance> {
    let network = r.field("network")?.str()?.into_owned();
    let net_fingerprint = r.field("net_fingerprint")?.decimal()?;
    let node_fingerprint = r.field("node_fingerprint")?.decimal()?;
    let stored_design = r.field("design")?.value()?;
    let design =
        DesignPoint::from_json(&stored_design).map_err(|e| format!("provenance design: {e}"))?;
    // The one sub-document read as a tree is held to the same contract as
    // the rest: exactly the fields the canonical encoder writes, in its
    // order.
    let mut canonical = String::new();
    design
        .write_canonical(&mut canonical)
        .expect("writing to a String cannot fail");
    if stored_design.render() != canonical {
        return Err("provenance design is not in its canonical form".into());
    }
    // The fingerprint is derivable from the design document; a stored
    // value that disagrees means the file was edited or corrupted, and
    // trusting it would poison every cache keyed on it.
    if design.fingerprint() != node_fingerprint {
        return Err(format!(
            "stored node_fingerprint {node_fingerprint:016x} does not match \
             the design document ({:016x})",
            design.fingerprint()
        ));
    }
    let precision = match &*r.field("precision")?.str()? {
        "single" => Precision::Single,
        "half" => Precision::Half,
        other => return Err(format!("unknown precision `{other}`")),
    };
    let cols = r.field("failed_cols")?.array(Reader::count)?;
    let tiles = r.field("failed_func_tiles")?.array(Reader::count)?;
    Ok(Provenance {
        network,
        net_fingerprint,
        node_fingerprint,
        design,
        precision,
        failed: FailedTiles::from_sets(cols, tiles),
        func: FuncTargetOptions {
            mem_tiles: r.field("func_mem_tiles")?.count()?,
            tile_capacity_elems: r.field("func_tile_capacity_elems")?.count()?,
        },
        minibatch: r.field("minibatch")?.count()?,
    })
}

// ---------------------------------------------------------------- mapping

fn placement_to_json(p: Placement) -> Json {
    match p {
        Placement::Conv { first_col, cols } => obj([
            ("kind", Json::Str("conv".into())),
            ("first_col", Json::count(first_col)),
            ("cols", Json::count(cols)),
        ]),
        Placement::Fc { first_col, cols } => obj([
            ("kind", Json::Str("fc".into())),
            ("first_col", Json::count(first_col)),
            ("cols", Json::count(cols)),
        ]),
        Placement::Inline => obj([("kind", Json::Str("inline".into()))]),
    }
}

fn placement(r: &mut Reader) -> Decoded<Placement> {
    match &*r.field("kind")?.str()? {
        "conv" => Ok(Placement::Conv {
            first_col: r.field("first_col")?.count()?,
            cols: r.field("cols")?.count()?,
        }),
        "fc" => Ok(Placement::Fc {
            first_col: r.field("first_col")?.count()?,
            cols: r.field("cols")?.count()?,
        }),
        "inline" => Ok(Placement::Inline),
        other => Err(format!("unknown placement `{other}`")),
    }
}

fn array_to_json(a: &ArrayPlan) -> Json {
    obj([
        ("cols", Json::count(a.cols)),
        ("lanes", Json::count(a.lanes)),
        ("row_split", Json::Bool(a.row_split)),
        ("util_rows", f64s(a.util_rows)),
        ("util_kernel", f64s(a.util_kernel)),
        ("util_lanes", f64s(a.util_lanes)),
        ("batches_per_image", Json::count(a.batches_per_image)),
        ("streaming_fits", Json::Bool(a.streaming_fits)),
    ])
}

fn array(r: &mut Reader) -> Decoded<ArrayPlan> {
    Ok(ArrayPlan {
        cols: r.field("cols")?.count()?,
        lanes: r.field("lanes")?.count()?,
        row_split: r.field("row_split")?.bool()?,
        util_rows: f64::from_bits(r.field("util_rows")?.decimal()?),
        util_kernel: f64::from_bits(r.field("util_kernel")?.decimal()?),
        util_lanes: f64::from_bits(r.field("util_lanes")?.decimal()?),
        batches_per_image: r.field("batches_per_image")?.count()?,
        streaming_fits: r.field("streaming_fits")?.bool()?,
    })
}

/// The field `key`: exactly three decimal `u64`s.
fn u64_triple(r: &mut Reader, key: &str) -> Decoded<[u64; 3]> {
    let mut out = [0u64; 3];
    let mut n = 0;
    r.field(key)?.elements(|r| {
        let v = r.decimal()?;
        if let Some(slot) = out.get_mut(n) {
            *slot = v;
        }
        n += 1;
        Ok(())
    })?;
    if n == 3 {
        Ok(out)
    } else {
        Err(format!("`{key}` is not a 3-array"))
    }
}

fn plan_to_json(p: &LayerPlan, name: &str) -> Json {
    obj([
        ("id", Json::count(p.id.index())),
        ("name", Json::Str(name.to_string())),
        ("placement", placement_to_json(p.placement)),
        (
            "comp_flops",
            Json::Arr(p.comp_flops.iter().map(|&f| Json::decimal(f)).collect()),
        ),
        (
            "mem_flops",
            Json::Arr(p.mem_flops.iter().map(|&f| Json::decimal(f)).collect()),
        ),
        ("state_bytes", Json::decimal(p.state_bytes)),
        ("weight_bytes", Json::decimal(p.weight_bytes)),
        ("weights_on_chip", Json::Bool(p.weights_on_chip)),
        ("tiles_total", Json::count(p.tiles_total)),
        ("tiles_used", Json::count(p.tiles_used)),
        ("out_features", Json::count(p.out_features)),
        ("feature_elems", Json::count(p.feature_elems)),
        ("in_bytes", Json::decimal(p.in_bytes)),
        ("out_bytes", Json::decimal(p.out_bytes)),
        ("array", array_to_json(&p.array)),
        ("conv_kernel", p.conv_kernel.map_or(Json::Null, Json::count)),
    ])
}

/// Reads one plan, pushing its layer name onto `names`.
fn plan(r: &mut Reader, names: &mut Vec<String>) -> Decoded<LayerPlan> {
    let id = LayerId::from_index(r.field("id")?.count()?);
    names.push(r.field("name")?.str()?.into_owned());
    Ok(LayerPlan {
        id,
        placement: r.field("placement")?.object(placement)?,
        comp_flops: u64_triple(r, "comp_flops")?,
        mem_flops: u64_triple(r, "mem_flops")?,
        state_bytes: r.field("state_bytes")?.decimal()?,
        weight_bytes: r.field("weight_bytes")?.decimal()?,
        weights_on_chip: r.field("weights_on_chip")?.bool()?,
        tiles_total: r.field("tiles_total")?.count()?,
        tiles_used: r.field("tiles_used")?.count()?,
        out_features: r.field("out_features")?.count()?,
        feature_elems: r.field("feature_elems")?.count()?,
        in_bytes: r.field("in_bytes")?.decimal()?,
        out_bytes: r.field("out_bytes")?.decimal()?,
        array: r.field("array")?.object(array)?,
        conv_kernel: r.field("conv_kernel")?.nullable(Reader::count)?,
    })
}

fn mapping_to_json(m: &Mapping) -> Json {
    obj([
        ("net_name", Json::Str(m.net_name.clone())),
        (
            "plans",
            Json::Arr(
                m.plans
                    .iter()
                    .zip(m.layer_names.iter())
                    .map(|(p, name)| plan_to_json(p, name))
                    .collect(),
            ),
        ),
        ("conv_cols_used", Json::count(m.conv_cols_used)),
        ("fc_cols_used", Json::count(m.fc_cols_used)),
        ("chips_spanned", Json::count(m.chips_spanned)),
        ("clusters_spanned", Json::count(m.clusters_spanned)),
        ("conv_cols_per_chip", Json::count(m.conv_cols_per_chip)),
        ("wheel_batch", Json::count(m.wheel_batch)),
        ("elem_bytes", Json::decimal(m.elem_bytes)),
        (
            "col_map",
            Json::Arr(m.col_map.iter().map(|&c| Json::count(c)).collect()),
        ),
        (
            "failed_cols",
            Json::Arr(m.failed_cols.iter().map(|&c| Json::count(c)).collect()),
        ),
    ])
}

fn mapping(r: &mut Reader) -> Decoded<Mapping> {
    let net_name = r.field("net_name")?.str()?.into_owned();
    let mut names = Vec::new();
    let plans = r
        .field("plans")?
        .array(|r| r.object(|r| plan(r, &mut names)))?;
    Ok(Mapping {
        net_name,
        layer_names: names.into(),
        plans,
        conv_cols_used: r.field("conv_cols_used")?.count()?,
        fc_cols_used: r.field("fc_cols_used")?.count()?,
        chips_spanned: r.field("chips_spanned")?.count()?,
        clusters_spanned: r.field("clusters_spanned")?.count()?,
        conv_cols_per_chip: r.field("conv_cols_per_chip")?.count()?,
        wheel_batch: r.field("wheel_batch")?.count()?,
        elem_bytes: r.field("elem_bytes")?.decimal()?,
        col_map: r.field("col_map")?.array(Reader::count)?,
        failed_cols: r.field("failed_cols")?.array(Reader::count)?,
    })
}

// ------------------------------------------------------------- functional

fn loc_to_json(l: &BufferLoc) -> Json {
    obj([
        ("tile", Json::count(l.tile as usize)),
        ("offset", Json::count(l.offset as usize)),
        ("len", Json::count(l.len as usize)),
    ])
}

fn loc(r: &mut Reader) -> Decoded<BufferLoc> {
    r.object(|r| {
        Ok(BufferLoc {
            tile: r.field("tile")?.count()?,
            offset: r.field("offset")?.count()?,
            len: r.field("len")?.count()?,
        })
    })
}

fn opt_loc_to_json(l: &Option<BufferLoc>) -> Json {
    l.as_ref().map_or(Json::Null, loc_to_json)
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

fn buffers(r: &mut Reader) -> Decoded<LayerBuffers> {
    Ok(LayerBuffers {
        output: r.field("output")?.nullable(loc)?,
        pre: r.field("pre")?.nullable(loc)?,
        err: r.field("err")?.nullable(loc)?,
        dz: r.field("dz")?.nullable(loc)?,
        weights: r.field("weights")?.nullable(loc)?,
        weights_t: r.field("weights_t")?.nullable(loc)?,
        wgrad: r.field("wgrad")?.nullable(loc)?,
        golden: r.field("golden")?.nullable(loc)?,
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
                            ("tile", Json::count(t.tile as usize)),
                            ("addr", Json::count(t.addr as usize)),
                            ("len", Json::count(t.len as usize)),
                            ("num_updates", Json::count(t.num_updates as usize)),
                            ("num_reads", Json::count(t.num_reads as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("mem_tiles", Json::count(net.mem_tiles)),
        ("const_neg_one", loc_to_json(&net.const_neg_one)),
        ("dropped_biases", Json::count(net.dropped_biases)),
        ("minibatch", Json::count(net.minibatch)),
        ("zeros", opt_loc_to_json(&net.zeros)),
    ])
}

fn network(r: &mut Reader) -> Decoded<CompiledNetwork> {
    Ok(CompiledNetwork {
        net_name: r.field("net_name")?.str()?.into_owned(),
        buffers: r.field("buffers")?.array(|r| r.object(buffers))?,
        programs: r.field("programs")?.array(|r| r.object(program))?,
        trackers: r.field("trackers")?.array(|r| r.object(tracker))?,
        mem_tiles: r.field("mem_tiles")?.count()?,
        const_neg_one: loc(r.field("const_neg_one")?)?,
        dropped_biases: r.field("dropped_biases")?.count()?,
        minibatch: r.field("minibatch")?.count()?,
        zeros: r.field("zeros")?.nullable(loc)?,
    })
}

fn program(r: &mut Reader) -> Decoded<Program> {
    let name = r.field("name")?.str()?;
    let bytes = hex_decode(&r.field("hex")?.str()?)?;
    Program::decode(&*name, &bytes).map_err(|e| format!("decoding program `{name}`: {e}"))
}

fn tracker(r: &mut Reader) -> Decoded<TrackerSpec> {
    Ok(TrackerSpec {
        tile: r.field("tile")?.count()?,
        addr: r.field("addr")?.count()?,
        len: r.field("len")?.count()?,
        num_updates: r.field("num_updates")?.count()?,
        num_reads: r.field("num_reads")?.count()?,
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
            ("required_cols", Json::count(*required_cols)),
            ("available_cols", Json::count(*available_cols)),
        ]),
        Error::NoCapacity {
            required_cols,
            live_cols,
            failed_cols,
        } => obj([
            ("kind", Json::Str("no_capacity".into())),
            ("required_cols", Json::count(*required_cols)),
            ("live_cols", Json::count(*live_cols)),
            ("failed_cols", Json::count(*failed_cols)),
        ]),
        Error::NoRoute { chip } => obj([
            ("kind", Json::Str("no_route".into())),
            ("chip", Json::count(*chip)),
        ]),
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

fn error(r: &mut Reader) -> Decoded<Error> {
    match &*r.field("kind")?.str()? {
        "does_not_fit" => Ok(Error::DoesNotFit {
            required_cols: r.field("required_cols")?.count()?,
            available_cols: r.field("available_cols")?.count()?,
        }),
        "no_capacity" => Ok(Error::NoCapacity {
            required_cols: r.field("required_cols")?.count()?,
            live_cols: r.field("live_cols")?.count()?,
            failed_cols: r.field("failed_cols")?.count()?,
        }),
        "no_route" => Ok(Error::NoRoute {
            chip: r.field("chip")?.count()?,
        }),
        "codegen" => Ok(Error::Codegen {
            detail: r.field("detail")?.str()?.into_owned(),
        }),
        other => Err(format!("unknown error kind `{other}`")),
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
        let b = decode(&to_json(&a).render_pretty()).expect("parses back");
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
                let err = decode(&d.render_pretty()).expect_err("non-index must be rejected");
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
        let b = decode(&to_json(&a).render_pretty()).expect("parses back");
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
        let err = decode(&doc.render_pretty()).expect_err("version 999 must be rejected");
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
        let err = decode(&doc.render_pretty()).expect_err("tampered design must be rejected");
        assert!(
            err.to_string().contains("node_fingerprint"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn only_the_saved_shape_is_trusted() {
        // Whitespace is free, so the compact rendering decodes; a
        // reordered, extended or duplicate-keyed document does not, each
        // failing on the field it names.
        let node = presets::single_precision();
        let a = compile(&node, &small_net(), &CompileOptions::default()).expect("compiles");
        let doc = to_json(&a);
        let b = decode(&doc.render()).expect("compact text decodes");
        assert_eq!(to_json(&b).render_pretty(), doc.render_pretty());

        // Edits the members of the object at `path`, and returns why the
        // edited document is rejected.
        let reject = |path: &[&str], edit: fn(&mut Vec<(String, Json)>)| {
            let mut d = doc.clone();
            let Json::Obj(fields) = path.iter().fold(&mut d, |j, key| field_mut(j, key)) else {
                panic!("{path:?} is an object")
            };
            edit(fields);
            decode(&d.render_pretty())
                .expect_err("only the saved shape decodes")
                .to_string()
        };
        let swapped = reject(&["provenance"], |f| f.swap(0, 1));
        assert!(
            swapped.contains("expected field `network`, found `net_fingerprint`"),
            "{swapped}"
        );
        let extended = reject(&["provenance"], |f| f.push(("extra".into(), Json::Null)));
        assert!(extended.contains("unexpected field `extra`"), "{extended}");
        let repeated = reject(&["provenance"], |f| f.insert(1, f[0].clone()));
        assert!(
            repeated.contains("expected field `net_fingerprint`, found `network`"),
            "{repeated}"
        );
        let dropped = reject(&["provenance"], |f| {
            f.pop();
        });
        assert!(dropped.contains("missing field `minibatch`"), "{dropped}");
        // The design sub-document too, though it is read as a tree.
        let reordered = reject(&["provenance", "design"], |f| f.swap(0, 1));
        assert!(
            reordered.contains("not in its canonical form"),
            "{reordered}"
        );
        let trailing = decode(&format!("{} {{}}", doc.render())).expect_err("one document");
        assert!(
            trailing.to_string().contains("trailing garbage"),
            "{trailing}"
        );
    }

    #[test]
    fn exact_u64_and_f64_fields_survive() {
        let node = presets::single_precision();
        let net = small_net();
        let a = compile(&node, &net, &CompileOptions::default()).expect("compiles");
        let b = decode(&to_json(&a).render_pretty()).expect("parses back");
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
