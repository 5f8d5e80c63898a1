//! Typed design-space layer: a design point is data, not code.
//!
//! The paper's §6 sensitivity studies sweep the architecture over memory
//! capacity, bandwidth, precision and chip mix. This module promotes those
//! sweeps into a first-class API:
//!
//! * [`DesignPoint`] — a validated [`NodeConfig`] with a canonical JSON
//!   form and a structural fingerprint, so a point can flow into compiler
//!   provenance and disk artifact caches as *data* rather than as the
//!   `Debug` rendering of a Rust struct;
//! * [`DesignPointBuilder`] — a base configuration edited one [`Knob`] at
//!   a time and validated once at [`DesignPointBuilder::build`]; the
//!   dependent quantities (tile counts, peak FLOPs, power envelope) derive
//!   from the sealed point;
//! * [`Knob`] / [`KnobValue`] — the named parameter axes of the space;
//! * [`ParamSpace`] — a base point plus axes, expanded into a full
//!   cartesian grid or a seeded random sample of labeled [`Candidate`]s
//!   for the DSE driver.
//!
//! The two Figure-14 presets are two points in this space:
//! [`DesignPoint::figure14_sp`] and its FP16 derivation
//! [`DesignPoint::derive_half_precision`] (halve memories and bandwidths,
//! grow the grids back to the power envelope — §6.1).

use crate::chip::{ChipConfig, ChipKind};
use crate::cluster::ClusterConfig;
use crate::error::{Error, Result};
use crate::node::{NodeConfig, Precision};
use crate::power::PowerModel;
use crate::tile::{CompHeavyConfig, MemHeavyConfig};
use scaledeep_trace::json::{self, exact_u64, Json, ObjectWriter};
use scaledeep_trace::Fnv1aWriter;
use std::fmt::{self, Write as _};

const KB: usize = 1024;
const GB: f64 = 1e9;

/// A point in the ScaleDeep design space: a [`NodeConfig`] promoted to
/// data, with a canonical JSON rendering and a structural fingerprint.
///
/// Construct one by describing an existing config
/// ([`DesignPoint::describe`], total), through the validating builder
/// ([`DesignPointBuilder::build`]), or from its serialized form
/// ([`DesignPoint::from_json`], validating).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    node: NodeConfig,
}

impl DesignPoint {
    /// Wraps an existing configuration without validating it. Total: the
    /// compiler stamps provenance before its own validation runs, so the
    /// description of a degenerate config must still be well-defined.
    pub fn describe(node: &NodeConfig) -> Self {
        Self { node: *node }
    }

    /// The baseline single-precision design point of Figure 14: 4 clusters
    /// × (4 ConvLayer + 1 FcLayer chips), 600 MHz, 680 TFLOPS peak, 7032
    /// processing tiles.
    pub fn figure14_sp() -> Self {
        DesignPointBuilder::figure14_sp()
            .build()
            .expect("the Figure 14 preset validates")
    }

    /// Derives the half-precision point of §6.1 from this one: FP16
    /// datapaths, MemHeavy capacity and every link bandwidth halved, chip
    /// grids grown by 4/3 × 3/2 (6×16 → 8×24, 6×8 → 8×12) to spend the
    /// freed power on more tiles. Applied to [`Self::figure14_sp`] this
    /// reproduces the paper's 1.35 PFLOPS FP16 node bit-for-bit.
    pub fn derive_half_precision(self) -> Self {
        let mut node = self.node;
        node.precision = Precision::Half;
        for chip in [&mut node.cluster.conv_chip, &mut node.cluster.fc_chip] {
            chip.rows = chip.rows * 4 / 3;
            chip.cols = chip.cols * 3 / 2;
            chip.mem_heavy.capacity_bytes /= 2;
            chip.ext_mem_bw /= 2.0;
            chip.comp_mem_bw /= 2.0;
            chip.mem_mem_bw /= 2.0;
        }
        node.cluster.spoke_bw /= 2.0;
        node.cluster.arc_bw /= 2.0;
        node.ring_bw /= 2.0;
        Self { node }
    }

    /// The underlying node configuration (by value; `NodeConfig` is
    /// `Copy`).
    pub fn node_config(&self) -> NodeConfig {
        self.node
    }

    /// Borrow the underlying node configuration.
    pub fn node(&self) -> &NodeConfig {
        &self.node
    }

    /// Derived quantity: peak FLOPs of the node.
    pub fn peak_flops(&self) -> f64 {
        self.node.peak_flops()
    }

    /// Derived quantity: total processing tiles.
    pub fn total_tiles(&self) -> usize {
        self.node.total_tiles()
    }

    /// Derived quantity: the calibrated power model matching this point's
    /// precision (Figure 14 SP table, or its iso-power FP16 scaling).
    pub fn power_model(&self) -> PowerModel {
        self.node.power_model()
    }

    /// Derived quantity: the node power envelope in watts.
    pub fn peak_power_watts(&self) -> f64 {
        self.power_model().node.peak_watts
    }

    /// Derived quantity: peak processing efficiency in GFLOPS/W
    /// (Figure 14's 485.7 for the SP point).
    pub fn peak_gflops_per_watt(&self) -> f64 {
        self.peak_flops() / self.peak_power_watts() / 1e9
    }

    /// Streams the canonical JSON text into `out`: the knobs only, in a
    /// fixed field order, so that equal configurations write
    /// byte-identical text. Derived quantities are deliberately excluded —
    /// they would otherwise split cache keys whenever a derivation rule is
    /// refined. This is the point's one list of its fields:
    /// [`DesignPoint::to_json`] parses this text and
    /// [`DesignPoint::fingerprint`] hashes it.
    ///
    /// # Errors
    ///
    /// Only what the sink returns.
    pub fn write_canonical<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let n = &self.node;
        let mut o = ObjectWriter::open(out)?;
        o.str("precision", n.precision.name())?;
        o.count("clusters", n.clusters)?;
        o.num("frequency_mhz", n.frequency_mhz)?;
        o.num("ring_bw", n.ring_bw)?;
        o.object("cluster", |o| {
            o.count("conv_chips", n.cluster.conv_chips)?;
            o.num("spoke_bw", n.cluster.spoke_bw)?;
            o.num("arc_bw", n.cluster.arc_bw)?;
            o.object("conv_chip", |o| write_chip(o, &n.cluster.conv_chip))?;
            o.object("fc_chip", |o| write_chip(o, &n.cluster.fc_chip))
        })?;
        o.close()
    }

    /// The canonical JSON form as a tree: the parse of
    /// [`DesignPoint::write_canonical`]'s text, for documents that embed
    /// the point (the DSE `base`, the BENCH `design.point`, the artifact
    /// header).
    pub fn to_json(&self) -> Json {
        let mut text = String::new();
        self.write_canonical(&mut text)
            .expect("writing to a String cannot fail");
        json::parse(&text).expect("the canonical encoder writes valid JSON")
    }

    /// Parses the canonical JSON form and validates the result.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a field is missing or of the
    /// wrong type, or when the decoded configuration fails
    /// [`NodeConfig::validate`].
    pub fn from_json(v: &Json) -> Result<Self> {
        let node = node_from_json(v).map_err(bad)?;
        node.validate()?;
        Ok(Self { node })
    }

    /// Structural fingerprint: FNV-1a over the canonical JSON text,
    /// hashed as it is written (no text and no tree is built). Two
    /// configurations fingerprint equal iff their knobs are equal —
    /// independent of how the Rust structs happen to `Debug`-format.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1aWriter::new();
        self.write_canonical(&mut h).expect("hashing never fails");
        h.finish()
    }
}

fn write_chip<W: fmt::Write>(o: &mut ObjectWriter<'_, W>, c: &ChipConfig) -> fmt::Result {
    o.str("kind", c.kind.name())?;
    o.count("rows", c.rows)?;
    o.count("cols", c.cols)?;
    o.object("comp_heavy", |o| {
        let comp = &c.comp_heavy;
        o.count("array_rows", comp.array_rows)?;
        o.count("array_cols", comp.array_cols)?;
        o.count("lanes", comp.lanes)?;
        o.count("acc_units", comp.acc_units)?;
        o.count("left_mem_bytes", comp.left_mem_bytes)?;
        o.count("top_mem_bytes", comp.top_mem_bytes)?;
        o.count("bottom_mem_bytes", comp.bottom_mem_bytes)?;
        o.count("scratch_bytes", comp.scratch_bytes)
    })?;
    o.object("mem_heavy", |o| {
        let mem = &c.mem_heavy;
        o.count("capacity_bytes", mem.capacity_bytes)?;
        o.count("num_sfu", mem.num_sfu)?;
        o.count("num_trackers", mem.num_trackers)
    })?;
    o.num("ext_mem_bw", c.ext_mem_bw)?;
    o.num("comp_mem_bw", c.comp_mem_bw)?;
    o.num("mem_mem_bw", c.mem_mem_bw)
}

fn node_from_json(v: &Json) -> std::result::Result<NodeConfig, String> {
    let cluster = v.field("cluster")?;
    Ok(NodeConfig {
        clusters: v.count_field("clusters")?,
        cluster: ClusterConfig {
            conv_chips: cluster.count_field("conv_chips")?,
            conv_chip: chip_from_json(cluster.field("conv_chip")?)?,
            fc_chip: chip_from_json(cluster.field("fc_chip")?)?,
            spoke_bw: cluster.num_field("spoke_bw")?,
            arc_bw: cluster.num_field("arc_bw")?,
        },
        ring_bw: v.num_field("ring_bw")?,
        frequency_mhz: v.num_field("frequency_mhz")?,
        precision: match v.str_field("precision")? {
            "single" => Precision::Single,
            "half" => Precision::Half,
            other => return Err(format!("unknown precision {other:?}")),
        },
    })
}

fn chip_from_json(v: &Json) -> std::result::Result<ChipConfig, String> {
    let comp = v.field("comp_heavy")?;
    let mem = v.field("mem_heavy")?;
    Ok(ChipConfig {
        kind: match v.str_field("kind")? {
            "ConvLayer" => ChipKind::ConvLayer,
            "FcLayer" => ChipKind::FcLayer,
            other => return Err(format!("unknown chip kind {other:?}")),
        },
        rows: v.count_field("rows")?,
        cols: v.count_field("cols")?,
        comp_heavy: CompHeavyConfig {
            array_rows: comp.count_field("array_rows")?,
            array_cols: comp.count_field("array_cols")?,
            lanes: comp.count_field("lanes")?,
            acc_units: comp.count_field("acc_units")?,
            left_mem_bytes: comp.count_field("left_mem_bytes")?,
            top_mem_bytes: comp.count_field("top_mem_bytes")?,
            bottom_mem_bytes: comp.count_field("bottom_mem_bytes")?,
            scratch_bytes: comp.count_field("scratch_bytes")?,
        },
        mem_heavy: MemHeavyConfig {
            capacity_bytes: mem.count_field("capacity_bytes")?,
            num_sfu: mem.count_field("num_sfu")?,
            num_trackers: mem.count_field("num_trackers")?,
        },
        ext_mem_bw: v.num_field("ext_mem_bw")?,
        comp_mem_bw: v.num_field("comp_mem_bw")?,
        mem_mem_bw: v.num_field("mem_mem_bw")?,
    })
}

fn bad(detail: String) -> Error {
    Error::InvalidConfig {
        component: "design",
        detail,
    }
}

/// Builder for [`DesignPoint`]s: [`Knob`] edits over a base configuration,
/// with validation deferred to [`DesignPointBuilder::build`] so
/// intermediate states may be degenerate.
#[derive(Debug, Clone, Copy)]
pub struct DesignPointBuilder {
    node: NodeConfig,
}

impl DesignPointBuilder {
    /// Starts from an existing point.
    pub fn from_point(point: DesignPoint) -> Self {
        Self {
            node: point.node_config(),
        }
    }

    /// Starts from the Figure-14 single-precision baseline. This is where
    /// the paper's published constants live; everything else in the
    /// design space is expressed as edits of this literal.
    pub fn figure14_sp() -> Self {
        let conv_chip = ChipConfig {
            kind: ChipKind::ConvLayer,
            rows: 6,
            cols: 16,
            comp_heavy: CompHeavyConfig {
                array_rows: 8,
                array_cols: 3,
                lanes: 4,
                acc_units: 16,
                left_mem_bytes: 8 * KB,
                top_mem_bytes: 4 * KB,
                bottom_mem_bytes: 4 * KB,
                scratch_bytes: 16 * KB,
            },
            mem_heavy: MemHeavyConfig {
                capacity_bytes: 512 * KB,
                num_sfu: 32,
                num_trackers: 16,
            },
            ext_mem_bw: 150.0 * GB,
            comp_mem_bw: 24.0 * GB,
            mem_mem_bw: 36.0 * GB,
        };
        let fc_chip = ChipConfig {
            kind: ChipKind::FcLayer,
            rows: 6,
            cols: 8,
            comp_heavy: CompHeavyConfig {
                array_rows: 4,
                array_cols: 8,
                lanes: 1,
                acc_units: 0,
                left_mem_bytes: 8 * KB,
                top_mem_bytes: 12 * KB,
                bottom_mem_bytes: 12 * KB,
                scratch_bytes: 0,
            },
            mem_heavy: MemHeavyConfig {
                capacity_bytes: 1024 * KB,
                num_sfu: 32,
                num_trackers: 16,
            },
            ext_mem_bw: 300.0 * GB,
            comp_mem_bw: 48.0 * GB,
            mem_mem_bw: 144.0 * GB,
        };
        Self {
            node: NodeConfig {
                clusters: 4,
                cluster: ClusterConfig {
                    conv_chips: 4,
                    conv_chip,
                    fc_chip,
                    spoke_bw: 0.5 * GB,
                    arc_bw: 16.0 * GB,
                },
                ring_bw: 12.0 * GB,
                frequency_mhz: 600.0,
                precision: Precision::Single,
            },
        }
    }

    /// Applies one named knob.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the value's type does not fit
    /// the knob (a precision string on a numeric knob, a fractional number
    /// on an integer knob).
    pub fn set(mut self, knob: Knob, value: KnobValue) -> Result<Self> {
        knob.apply(&mut self.node, value)?;
        Ok(self)
    }

    /// Validates and seals the point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the assembled configuration
    /// fails [`NodeConfig::validate`].
    pub fn build(self) -> Result<DesignPoint> {
        self.node.validate()?;
        Ok(DesignPoint { node: self.node })
    }
}

/// The named parameter axes of the design space. Each knob edits one
/// field (or one small field group) of the configuration tree; ranges are
/// enforced by [`NodeConfig::validate`] when the point is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Knob {
    /// Cluster count on the ring (`clusters`).
    Clusters,
    /// ConvLayer chips per cluster (`conv-chips`).
    ConvChips,
    /// Operating frequency in MHz (`frequency-mhz`).
    FrequencyMhz,
    /// Datapath precision (`precision`).
    Precision,
    /// Ring bandwidth, bytes/s (`ring-bw`).
    RingBw,
    /// Spoke bandwidth, bytes/s (`spoke-bw`).
    SpokeBw,
    /// Arc bandwidth, bytes/s (`arc-bw`).
    ArcBw,
    /// ConvLayer grid rows (`conv-rows`).
    ConvRows,
    /// ConvLayer grid compute columns (`conv-cols`).
    ConvCols,
    /// FcLayer grid rows (`fc-rows`).
    FcRows,
    /// FcLayer grid compute columns (`fc-cols`).
    FcCols,
    /// ConvLayer CompHeavy array rows (`conv-array-rows`).
    ConvArrayRows,
    /// ConvLayer CompHeavy array columns (`conv-array-cols`).
    ConvArrayCols,
    /// ConvLayer CompHeavy vector lanes (`conv-lanes`).
    ConvLanes,
    /// ConvLayer CompHeavy scratchpad bytes (`conv-scratch-bytes`).
    ConvScratchBytes,
    /// ConvLayer MemHeavy capacity bytes (`conv-mem-capacity-bytes`).
    ConvMemCapacityBytes,
    /// FcLayer MemHeavy capacity bytes (`fc-mem-capacity-bytes`).
    FcMemCapacityBytes,
    /// ConvLayer external-memory bandwidth, bytes/s (`conv-ext-mem-bw`).
    ConvExtMemBw,
    /// FcLayer external-memory bandwidth, bytes/s (`fc-ext-mem-bw`).
    FcExtMemBw,
}

/// All knobs, in declaration order (the order `--list`-style help prints).
pub const ALL_KNOBS: [Knob; 19] = [
    Knob::Clusters,
    Knob::ConvChips,
    Knob::FrequencyMhz,
    Knob::Precision,
    Knob::RingBw,
    Knob::SpokeBw,
    Knob::ArcBw,
    Knob::ConvRows,
    Knob::ConvCols,
    Knob::FcRows,
    Knob::FcCols,
    Knob::ConvArrayRows,
    Knob::ConvArrayCols,
    Knob::ConvLanes,
    Knob::ConvScratchBytes,
    Knob::ConvMemCapacityBytes,
    Knob::FcMemCapacityBytes,
    Knob::ConvExtMemBw,
    Knob::FcExtMemBw,
];

impl Knob {
    /// The knob's kebab-case name, as used on the `repro dse` command line.
    pub const fn name(self) -> &'static str {
        match self {
            Knob::Clusters => "clusters",
            Knob::ConvChips => "conv-chips",
            Knob::FrequencyMhz => "frequency-mhz",
            Knob::Precision => "precision",
            Knob::RingBw => "ring-bw",
            Knob::SpokeBw => "spoke-bw",
            Knob::ArcBw => "arc-bw",
            Knob::ConvRows => "conv-rows",
            Knob::ConvCols => "conv-cols",
            Knob::FcRows => "fc-rows",
            Knob::FcCols => "fc-cols",
            Knob::ConvArrayRows => "conv-array-rows",
            Knob::ConvArrayCols => "conv-array-cols",
            Knob::ConvLanes => "conv-lanes",
            Knob::ConvScratchBytes => "conv-scratch-bytes",
            Knob::ConvMemCapacityBytes => "conv-mem-capacity-bytes",
            Knob::FcMemCapacityBytes => "fc-mem-capacity-bytes",
            Knob::ConvExtMemBw => "conv-ext-mem-bw",
            Knob::FcExtMemBw => "fc-ext-mem-bw",
        }
    }

    /// Looks a knob up by its kebab-case name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] listing the legal names when the
    /// name is unknown.
    pub fn parse(name: &str) -> Result<Self> {
        ALL_KNOBS
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = ALL_KNOBS.iter().map(|k| k.name()).collect();
                bad(format!(
                    "unknown knob {name:?}; expected one of {}",
                    names.join(", ")
                ))
            })
    }

    /// Applies this knob to a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the value's type does not fit
    /// the knob.
    pub fn apply(self, node: &mut NodeConfig, value: KnobValue) -> Result<()> {
        match self {
            Knob::Precision => {
                let KnobValue::Prec(p) = value else {
                    return Err(bad(format!(
                        "knob {:?} takes 'single' or 'half', got {value}",
                        self.name()
                    )));
                };
                node.precision = p;
            }
            Knob::FrequencyMhz
            | Knob::RingBw
            | Knob::SpokeBw
            | Knob::ArcBw
            | Knob::ConvExtMemBw
            | Knob::FcExtMemBw => {
                let n = self.numeric(value)?;
                match self {
                    Knob::FrequencyMhz => node.frequency_mhz = n,
                    Knob::RingBw => node.ring_bw = n,
                    Knob::SpokeBw => node.cluster.spoke_bw = n,
                    Knob::ArcBw => node.cluster.arc_bw = n,
                    Knob::ConvExtMemBw => node.cluster.conv_chip.ext_mem_bw = n,
                    Knob::FcExtMemBw => node.cluster.fc_chip.ext_mem_bw = n,
                    _ => unreachable!("outer match covers only f64 knobs"),
                }
            }
            _ => {
                let n = self.integral(value)?;
                let conv = &mut node.cluster.conv_chip;
                match self {
                    Knob::Clusters => node.clusters = n,
                    Knob::ConvChips => node.cluster.conv_chips = n,
                    Knob::ConvRows => conv.rows = n,
                    Knob::ConvCols => conv.cols = n,
                    Knob::ConvArrayRows => conv.comp_heavy.array_rows = n,
                    Knob::ConvArrayCols => conv.comp_heavy.array_cols = n,
                    Knob::ConvLanes => conv.comp_heavy.lanes = n,
                    Knob::ConvScratchBytes => conv.comp_heavy.scratch_bytes = n,
                    Knob::ConvMemCapacityBytes => conv.mem_heavy.capacity_bytes = n,
                    Knob::FcRows => node.cluster.fc_chip.rows = n,
                    Knob::FcCols => node.cluster.fc_chip.cols = n,
                    Knob::FcMemCapacityBytes => {
                        node.cluster.fc_chip.mem_heavy.capacity_bytes = n;
                    }
                    _ => unreachable!("outer match covers only integer knobs"),
                }
            }
        }
        Ok(())
    }

    fn numeric(self, value: KnobValue) -> Result<f64> {
        match value {
            KnobValue::Num(n) => Ok(n),
            KnobValue::Prec(_) => Err(bad(format!(
                "knob {:?} takes a number, got {value}",
                self.name()
            ))),
        }
    }

    fn integral(self, value: KnobValue) -> Result<usize> {
        let n = self.numeric(value)?;
        exact_u64(n)
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| {
                bad(format!(
                    "knob {:?} takes a non-negative integer, got {n}",
                    self.name()
                ))
            })
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One value a knob can take: a number, or a precision name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobValue {
    /// A numeric value (integer knobs require it to be integral).
    Num(f64),
    /// A datapath precision (`single` / `half`).
    Prec(Precision),
}

impl KnobValue {
    /// Parses a command-line value: `single`/`half` become precisions,
    /// anything else must parse as a finite number.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for non-numeric, non-precision
    /// input.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "single" => Ok(KnobValue::Prec(Precision::Single)),
            "half" => Ok(KnobValue::Prec(Precision::Half)),
            other => other
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite())
                .map(KnobValue::Num)
                .ok_or_else(|| bad(format!("knob value {other:?} is not a finite number"))),
        }
    }
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Finite numbers the way JSON writes them: integral values
            // without a trailing `.0`, everything else via the shortest
            // round-trip rendering.
            KnobValue::Num(n) if n.is_finite() => json::write_num(f, *n),
            KnobValue::Num(n) => write!(f, "{n:?}"),
            KnobValue::Prec(p) => f.write_str(p.name()),
        }
    }
}

/// One expanded configuration of a [`ParamSpace`]: a human-readable label
/// (`"clusters=2,frequency-mhz=450"`) plus either the validated point or
/// the validation error that makes this corner of the space infeasible.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// `knob=value` pairs joined with `,`, in axis declaration order;
    /// `"base"` when the space has no axes.
    pub label: String,
    /// The built point, or why this combination is invalid. Infeasible
    /// corners of a grid are data too — the DSE driver reports them
    /// rather than aborting the sweep.
    pub point: Result<DesignPoint>,
}

/// A base design point plus named axes, expanded into candidates by
/// cartesian product ([`ParamSpace::grid`]) or seeded random sampling
/// ([`ParamSpace::sample`]).
#[derive(Debug, Clone)]
pub struct ParamSpace {
    base: DesignPoint,
    axes: Vec<(Knob, Vec<KnobValue>)>,
}

impl ParamSpace {
    /// Creates a space around a base point with no axes yet.
    pub fn new(base: DesignPoint) -> Self {
        Self {
            base,
            axes: Vec::new(),
        }
    }

    /// Adds an axis: the knob sweeps over `values`. Axis order is
    /// significant — the grid iterates the last axis fastest.
    pub fn axis(mut self, knob: Knob, values: Vec<KnobValue>) -> Self {
        self.axes.push((knob, values));
        self
    }

    /// The declared axes.
    pub fn axes(&self) -> &[(Knob, Vec<KnobValue>)] {
        &self.axes
    }

    /// The base point.
    pub fn base(&self) -> DesignPoint {
        self.base
    }

    /// Number of points in the full grid (product of axis lengths; 1 for
    /// an axis-free space, 0 if any axis is empty), or `None` when the
    /// product overflows `usize`.
    pub fn grid_len(&self) -> Option<usize> {
        self.axes
            .iter()
            .try_fold(1usize, |len, (_, v)| len.checked_mul(v.len()))
    }

    /// Expands the full cartesian grid, last axis fastest.
    ///
    /// # Panics
    ///
    /// Panics when [`ParamSpace::grid_len`] overflows; callers that take
    /// the space from outside bound it first (the DSE driver's candidate
    /// limit).
    pub fn grid(&self) -> Vec<Candidate> {
        let len = self.grid_len().expect("grid size overflows usize");
        let mut idx = vec![0usize; self.axes.len()];
        (0..len)
            .map(|flat| {
                // Decompose the flat index with the last axis fastest.
                let mut rem = flat;
                for (slot, (_, values)) in idx.iter_mut().zip(&self.axes).rev() {
                    *slot = rem % values.len();
                    rem /= values.len();
                }
                self.candidate(&idx)
            })
            .collect()
    }

    /// Draws `n` candidates with an xorshift64* generator seeded by
    /// `seed`: deterministic for a given (space, n, seed), independent of
    /// how the DSE driver later schedules the points. A space with an
    /// empty axis has no candidates, as in [`ParamSpace::grid`].
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Candidate> {
        if self.axes.iter().any(|(_, values)| values.is_empty()) {
            return Vec::new();
        }
        // xorshift64* needs a non-zero state; fold seed 0 onto a fixed
        // odd constant rather than rejecting it.
        let mut state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut idx = vec![0usize; self.axes.len()];
        (0..n)
            .map(|_| {
                for (slot, (_, values)) in idx.iter_mut().zip(&self.axes) {
                    *slot = (next() % values.len() as u64) as usize;
                }
                self.candidate(&idx)
            })
            .collect()
    }

    /// The candidate at one index per axis. Its label is written into one
    /// `String`, each value by [`KnobValue`]'s `Display`.
    fn candidate(&self, idx: &[usize]) -> Candidate {
        let mut label = String::with_capacity(24 * self.axes.len().max(1));
        let mut builder = DesignPointBuilder::from_point(self.base);
        let mut point = Ok(());
        for ((knob, values), &i) in self.axes.iter().zip(idx) {
            let value = values[i];
            if !label.is_empty() {
                label.push(',');
            }
            label.push_str(knob.name());
            label.push('=');
            write!(label, "{value}").expect("writing to a String cannot fail");
            if point.is_ok() {
                point = knob.apply(&mut builder.node, value);
            }
        }
        if label.is_empty() {
            label.push_str("base");
        }
        Candidate {
            label,
            point: point.and_then(|()| builder.build()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use scaledeep_trace::json;

    #[test]
    fn figure14_sp_matches_preset() {
        assert_eq!(
            DesignPoint::figure14_sp().node_config(),
            presets::single_precision()
        );
    }

    #[test]
    fn hp_derivation_matches_preset() {
        assert_eq!(
            DesignPoint::figure14_sp()
                .derive_half_precision()
                .node_config(),
            presets::half_precision()
        );
    }

    #[test]
    fn json_round_trips_bit_identically() {
        for node in [presets::single_precision(), presets::half_precision()] {
            let point = DesignPoint::describe(&node);
            let text = point.to_json().render();
            let parsed = json::parse(&text).expect("canonical JSON parses");
            let back = DesignPoint::from_json(&parsed).expect("decodes");
            assert_eq!(back.node_config(), node);
            assert_eq!(back.fingerprint(), point.fingerprint());
        }
    }

    #[test]
    fn fingerprints_are_structural_and_distinct() {
        let sp = DesignPoint::figure14_sp();
        let hp = sp.derive_half_precision();
        assert_eq!(sp.fingerprint(), DesignPoint::figure14_sp().fingerprint());
        assert_ne!(sp.fingerprint(), hp.fingerprint());
        // One knob change moves the fingerprint.
        let tweaked = DesignPointBuilder::from_point(sp)
            .set(Knob::Clusters, KnobValue::Num(2.0))
            .and_then(DesignPointBuilder::build)
            .expect("2 clusters is valid");
        assert_ne!(sp.fingerprint(), tweaked.fingerprint());
    }

    /// The canonical form as it was built before the streamed encoder:
    /// a `Json` tree, field by field. The oracle the encoder's bytes are
    /// held to.
    fn tree_form(point: &DesignPoint) -> Json {
        use scaledeep_trace::json::obj;
        let chip = |c: &ChipConfig| {
            obj([
                ("kind", Json::Str(c.kind.to_string())),
                ("rows", Json::count(c.rows)),
                ("cols", Json::count(c.cols)),
                (
                    "comp_heavy",
                    obj([
                        ("array_rows", Json::count(c.comp_heavy.array_rows)),
                        ("array_cols", Json::count(c.comp_heavy.array_cols)),
                        ("lanes", Json::count(c.comp_heavy.lanes)),
                        ("acc_units", Json::count(c.comp_heavy.acc_units)),
                        ("left_mem_bytes", Json::count(c.comp_heavy.left_mem_bytes)),
                        ("top_mem_bytes", Json::count(c.comp_heavy.top_mem_bytes)),
                        (
                            "bottom_mem_bytes",
                            Json::count(c.comp_heavy.bottom_mem_bytes),
                        ),
                        ("scratch_bytes", Json::count(c.comp_heavy.scratch_bytes)),
                    ]),
                ),
                (
                    "mem_heavy",
                    obj([
                        ("capacity_bytes", Json::count(c.mem_heavy.capacity_bytes)),
                        ("num_sfu", Json::count(c.mem_heavy.num_sfu)),
                        ("num_trackers", Json::count(c.mem_heavy.num_trackers)),
                    ]),
                ),
                ("ext_mem_bw", Json::Num(c.ext_mem_bw)),
                ("comp_mem_bw", Json::Num(c.comp_mem_bw)),
                ("mem_mem_bw", Json::Num(c.mem_mem_bw)),
            ])
        };
        let n = point.node();
        obj([
            ("precision", Json::Str(n.precision.to_string())),
            ("clusters", Json::count(n.clusters)),
            ("frequency_mhz", Json::Num(n.frequency_mhz)),
            ("ring_bw", Json::Num(n.ring_bw)),
            (
                "cluster",
                obj([
                    ("conv_chips", Json::count(n.cluster.conv_chips)),
                    ("spoke_bw", Json::Num(n.cluster.spoke_bw)),
                    ("arc_bw", Json::Num(n.cluster.arc_bw)),
                    ("conv_chip", chip(&n.cluster.conv_chip)),
                    ("fc_chip", chip(&n.cluster.fc_chip)),
                ]),
            ),
        ])
    }

    /// A number of one of the shapes the encoder must render exactly as
    /// the tree did, picked by `r`: fractional, huge (around 1e20), tiny
    /// (around 1e-300), integral, negative, or non-finite.
    fn number_of(r: u64) -> f64 {
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        match r % 7 {
            0 => unit * 1e12,
            1 => 1e20 * (1.0 + unit),
            2 => 1e20,
            3 => 1e-300 * (1.0 + unit * 1e5),
            4 => ((r >> 11) % (1 << 52)) as f64,
            5 => -unit * 1e9,
            _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r >> 8) as usize % 3],
        }
    }

    /// A count the knobs accept (below 2^53), small or large by `r`.
    fn count_of(r: u64) -> usize {
        if r.is_multiple_of(2) {
            ((r >> 1) % 1000) as usize
        } else {
            ((r >> 1) % (1 << 53)) as usize
        }
    }

    /// A point with every one of the 19 knobs set from `draws` (beyond
    /// validation: `describe` is total), plus the non-knob counts set to
    /// values past 2^53, which render through the non-integral branch.
    fn point_from(draws: &[u64], half: bool) -> DesignPoint {
        let mut node = presets::single_precision();
        for (knob, &r) in ALL_KNOBS.iter().zip(draws) {
            let value = match knob {
                Knob::Precision => KnobValue::Prec(if half {
                    Precision::Half
                } else {
                    Precision::Single
                }),
                Knob::FrequencyMhz
                | Knob::RingBw
                | Knob::SpokeBw
                | Knob::ArcBw
                | Knob::ConvExtMemBw
                | Knob::FcExtMemBw => KnobValue::Num(number_of(r)),
                _ => KnobValue::Num(count_of(r) as f64),
            };
            knob.apply(&mut node, value)
                .expect("the value fits its knob");
        }
        let big = draws[draws.len() - 1];
        node.cluster.fc_chip.comp_heavy.acc_units = (1usize << 53) + (big as usize >> 12);
        node.cluster.conv_chip.mem_heavy.num_trackers = big as usize;
        node.cluster.conv_chip.comp_mem_bw = number_of(big.rotate_left(17));
        node.cluster.fc_chip.mem_mem_bw = number_of(big.rotate_left(31));
        DesignPoint::describe(&node)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn streamed_encoder_writes_the_tree_rendering(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 20..21),
            half in proptest::prelude::any::<bool>(),
        ) {
            use scaledeep_trace::{fnv1a, FNV1A_OFFSET};
            let point = point_from(&draws, half);
            let mut text = String::new();
            point.write_canonical(&mut text).unwrap();
            let tree = tree_form(&point).render();
            proptest::prop_assert_eq!(&text, &tree);
            proptest::prop_assert_eq!(point.fingerprint(), fnv1a(FNV1A_OFFSET, tree.bytes()));
            proptest::prop_assert_eq!(point.to_json().render(), tree);
        }

        #[test]
        fn labels_are_the_joined_knob_value_pairs(
            axes in proptest::collection::vec(
                (0usize..19, proptest::collection::vec(proptest::prelude::any::<u64>(), 1..4)),
                0..5,
            ),
        ) {
            // The label form before labels were written into one
            // `String`: a `format!` per knob, numbers through a rendered
            // `Json::Num` (finite) or `{:?}`, joined with `,`.
            let old_value = |v: KnobValue| match v {
                KnobValue::Num(n) if n.is_finite() => Json::Num(n).render(),
                KnobValue::Num(n) => format!("{n:?}"),
                KnobValue::Prec(p) => format!("{p}"),
            };
            let mut space = ParamSpace::new(DesignPoint::figure14_sp());
            for (k, draws) in &axes {
                let knob = ALL_KNOBS[*k];
                let values = draws
                    .iter()
                    .map(|&r| match r % 3 {
                        0 => KnobValue::Prec(if r & 8 == 0 {
                            Precision::Single
                        } else {
                            Precision::Half
                        }),
                        1 => KnobValue::Num(count_of(r >> 2) as f64),
                        _ => KnobValue::Num(number_of(r >> 2)),
                    })
                    .collect();
                space = space.axis(knob, values);
            }
            let grid = space.grid();
            proptest::prop_assert_eq!(Some(grid.len()), space.grid_len());
            for (flat, candidate) in grid.iter().enumerate() {
                let mut rem = flat;
                let mut parts = Vec::new();
                for (knob, values) in space.axes().iter().rev() {
                    parts.push(format!("{knob}={}", old_value(values[rem % values.len()])));
                    rem /= values.len();
                }
                parts.reverse();
                let old = if parts.is_empty() {
                    "base".to_string()
                } else {
                    parts.join(",")
                };
                proptest::prop_assert_eq!(&candidate.label, &old);
            }
        }
    }

    #[test]
    fn fingerprint_hashes_the_rendered_text() {
        use scaledeep_trace::{fnv1a, FNV1A_OFFSET};
        let sp = DesignPoint::figure14_sp();
        for point in [sp, sp.derive_half_precision()] {
            let text = point.to_json().render();
            assert_eq!(point.fingerprint(), fnv1a(FNV1A_OFFSET, text.bytes()));
        }
    }

    #[test]
    fn derived_quantities_match_figure14() {
        let sp = DesignPoint::figure14_sp();
        assert_eq!(sp.total_tiles(), 7032);
        assert!((sp.peak_flops() / 1e12 - 680.0).abs() < 5.0);
        assert_eq!(sp.peak_power_watts(), 1400.0);
        assert!((sp.peak_gflops_per_watt() - 485.7).abs() < 5.0);
        let hp = sp.derive_half_precision();
        assert!((hp.peak_flops() / 1e15 - 1.35).abs() < 0.01);
        assert_eq!(hp.peak_power_watts(), 1400.0);
    }

    #[test]
    fn builder_rejects_degenerate_points() {
        for (knob, value) in [(Knob::Clusters, 0.0), (Knob::FrequencyMhz, -600.0)] {
            let builder = DesignPointBuilder::figure14_sp()
                .set(knob, KnobValue::Num(value))
                .expect("the value fits the knob");
            assert!(builder.build().is_err(), "{knob} = {value}");
        }
    }

    #[test]
    fn knob_names_round_trip() {
        for knob in ALL_KNOBS {
            assert_eq!(Knob::parse(knob.name()).expect("parses"), knob);
        }
        assert!(Knob::parse("warp-drive").is_err());
    }

    #[test]
    fn knob_values_parse_and_display() {
        assert_eq!(
            KnobValue::parse("half").expect("parses"),
            KnobValue::Prec(Precision::Half)
        );
        assert_eq!(
            KnobValue::parse("450").expect("parses"),
            KnobValue::Num(450.0)
        );
        assert_eq!(KnobValue::Num(450.0).to_string(), "450");
        assert_eq!(KnobValue::Num(0.5).to_string(), "0.5");
        assert_eq!(KnobValue::Prec(Precision::Single).to_string(), "single");
        assert!(KnobValue::parse("NaN").is_err());
        assert!(KnobValue::parse("not-a-number").is_err());
    }

    #[test]
    fn precision_knob_rejects_numbers_and_vice_versa() {
        let mut node = presets::single_precision();
        assert!(Knob::Precision
            .apply(&mut node, KnobValue::Num(1.0))
            .is_err());
        assert!(Knob::Clusters
            .apply(&mut node, KnobValue::Prec(Precision::Half))
            .is_err());
        assert!(Knob::Clusters
            .apply(&mut node, KnobValue::Num(2.5))
            .is_err());
        // The failed applications left the config untouched.
        assert_eq!(node, presets::single_precision());
    }

    #[test]
    fn grid_is_cartesian_last_axis_fastest() {
        let space = ParamSpace::new(DesignPoint::figure14_sp())
            .axis(
                Knob::Clusters,
                vec![KnobValue::Num(1.0), KnobValue::Num(2.0)],
            )
            .axis(
                Knob::FrequencyMhz,
                vec![KnobValue::Num(450.0), KnobValue::Num(600.0)],
            );
        assert_eq!(space.grid_len(), Some(4));
        let grid = space.grid();
        let labels: Vec<&str> = grid.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "clusters=1,frequency-mhz=450",
                "clusters=1,frequency-mhz=600",
                "clusters=2,frequency-mhz=450",
                "clusters=2,frequency-mhz=600",
            ]
        );
        let last = grid[3].point.as_ref().expect("valid corner");
        assert_eq!(last.node_config().clusters, 2);
        assert_eq!(last.node_config().frequency_mhz, 600.0);
    }

    #[test]
    fn infeasible_grid_corners_are_reported_not_fatal() {
        let space = ParamSpace::new(DesignPoint::figure14_sp()).axis(
            Knob::Clusters,
            vec![KnobValue::Num(0.0), KnobValue::Num(4.0)],
        );
        let grid = space.grid();
        assert!(grid[0].point.is_err());
        assert!(grid[1].point.is_ok());
    }

    #[test]
    fn axis_free_space_yields_the_base() {
        let grid = ParamSpace::new(DesignPoint::figure14_sp()).grid();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].label, "base");
        assert_eq!(
            grid[0].point.as_ref().expect("base is valid").node_config(),
            presets::single_precision()
        );
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let space = ParamSpace::new(DesignPoint::figure14_sp())
            .axis(
                Knob::Clusters,
                vec![
                    KnobValue::Num(1.0),
                    KnobValue::Num(2.0),
                    KnobValue::Num(4.0),
                ],
            )
            .axis(
                Knob::Precision,
                vec![
                    KnobValue::Prec(Precision::Single),
                    KnobValue::Prec(Precision::Half),
                ],
            );
        let a = space.sample(8, 42);
        let b = space.sample(8, 42);
        let labels =
            |cs: &[Candidate]| -> Vec<String> { cs.iter().map(|c| c.label.clone()).collect() };
        assert_eq!(labels(&a), labels(&b));
        let c = space.sample(8, 43);
        // A different seed draws a different sequence (overwhelmingly).
        assert_ne!(labels(&a), labels(&c));
        // Seed 0 is remapped, not degenerate.
        assert_eq!(labels(&space.sample(4, 0)), labels(&space.sample(4, 0)));
    }
}
