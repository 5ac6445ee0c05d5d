//! CIM bit-cell designs.
//!
//! Three designs are implemented:
//!
//! * [`OneFefetOneR`] — the baseline 1FeFET-1R cell of Soliman et al.
//!   (IEDM'20), the paper's Fig. 2 reference structure, operable in the
//!   saturation region (`V_read = 1.3 V`) or scaled into subthreshold
//!   (`V_read = 0.35 V`).
//! * [`OneFefetOneT`] — the cascoded 1FeFET-1T cell of Sk et al.
//!   (TNANO'23), the variation-tolerant prior design of Table II.
//! * [`TwoTransistorOneFefet`] — the paper's proposed temperature-
//!   resilient 2T-1FeFET cell (Fig. 5), with the M1/M2 feedback ring.
//!
//! All three implement [`CellDesign`], which abstracts what the
//! [`crate::CimArray`] needs: build the cell into a netlist between the
//! shared rails, and measure a standalone output current.

mod one_fefet_one_r;
mod one_fefet_one_t;
mod two_t_one_fefet;

pub use one_fefet_one_r::OneFefetOneR;
pub use one_fefet_one_t::OneFefetOneT;
pub use two_t_one_fefet::TwoTransistorOneFefet;

use crate::{CimError, ReadBias};
use ferrocim_spice::{Circuit, NodeId};
use ferrocim_units::{Ampere, Celsius, Volt};
use serde::{Deserialize, Serialize};

/// Per-cell process-variation threshold offsets (one Monte-Carlo draw).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CellOffsets {
    /// FeFET threshold offset.
    pub fefet: Volt,
    /// M1 threshold offset (ignored by cells without an M1).
    pub m1: Volt,
    /// M2 threshold offset (ignored by cells without an M2).
    pub m2: Volt,
}

impl CellOffsets {
    /// The nominal (zero-variation) cell.
    pub const NOMINAL: CellOffsets = CellOffsets {
        fefet: Volt(0.0),
        m1: Volt(0.0),
        m2: Volt(0.0),
    };
}

/// A stored weight: binary (the paper's main mode) or an analog
/// multi-level polarization (the multi-bit extension in the spirit of
/// the cited 1FeFET multi-bit MAC design \[23\]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CellWeight {
    /// A binary weight: `true` programs low-`V_TH`.
    Bit(bool),
    /// Level `level` of `max` (0 = fully erased, `max` = fully
    /// programmed), stored as a partial polarization spread across the
    /// full memory window.
    Level {
        /// The stored level, `0..=max`.
        level: u8,
        /// The number of the highest level.
        max: u8,
    },
    /// An explicit polarization in `[-1, 1]` — the encoding-aware
    /// programming mode (e.g. packing analog levels near the low-`V_TH`
    /// edge where the subthreshold read has usable transconductance).
    Analog(f64),
}

impl CellWeight {
    /// The remanent polarization in `[-1, 1]` encoding this weight.
    pub fn polarization(self) -> f64 {
        match self {
            CellWeight::Bit(true) => 1.0,
            CellWeight::Bit(false) => -1.0,
            CellWeight::Level { level, max } => {
                assert!(max > 0 && level <= max, "level {level} of {max}");
                2.0 * level as f64 / max as f64 - 1.0
            }
            CellWeight::Analog(p) => p.clamp(-1.0, 1.0),
        }
    }

    /// The nearest binary interpretation.
    pub fn bit(self) -> bool {
        self.polarization() > 0.0
    }
}

impl From<bool> for CellWeight {
    fn from(bit: bool) -> Self {
        CellWeight::Bit(bit)
    }
}

/// Everything a cell needs to instantiate itself inside an array
/// netlist.
#[derive(Debug)]
pub struct CellContext<'a> {
    /// The cell's column index within the row (used to generate unique
    /// element names such as `F3`, `M1_3`).
    pub index: usize,
    /// Shared bit-line rail node.
    pub bl: NodeId,
    /// Shared source-line rail node.
    pub sl: NodeId,
    /// This cell's word-line node (driven by the input bit).
    pub wl: NodeId,
    /// This cell's output node (the `C_o` top plate).
    pub out: NodeId,
    /// The stored weight ('1' = low-`V_TH`, or an analog level).
    pub weight: CellWeight,
    /// This cell's variation offsets.
    pub offsets: &'a CellOffsets,
}

/// A CIM bit-cell design usable by [`crate::CimArray`].
///
/// Designs are `Sync` because the batch entry points
/// ([`crate::CimArray::run_all`], [`crate::ArrayEngine`],
/// [`crate::Crossbar`]) solve one array's cells on several threads.
pub trait CellDesign: std::fmt::Debug + Sync {
    /// A short human-readable design name (for reports).
    fn name(&self) -> &'static str;

    /// The read bias this design operates at.
    fn bias(&self) -> ReadBias;

    /// Adds this cell's devices to the netlist. The array provides the
    /// rails, the per-cell word line, and the output node; the cell adds
    /// its transistors/resistors (and any internal nodes, which must be
    /// named uniquely using `ctx.index`).
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    fn build_cell(&self, ckt: &mut Circuit, ctx: &CellContext<'_>) -> Result<(), CimError>;

    /// The standalone DC output current of one cell with its output node
    /// clamped at the design's probe voltage — the quantity plotted in
    /// the paper's Figs. 3 and 7.
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation failures.
    fn read_current(
        &self,
        stored: bool,
        input: bool,
        temp: Celsius,
        offsets: &CellOffsets,
    ) -> Result<Ampere, CimError>;
}

/// Measures the worst-case *normalized output-current fluctuation* of a
/// cell over a temperature sweep, relative to the reference temperature
/// (27 °C): `max_T |I(T)/I(27 °C) − 1|`.
///
/// This is the figure of merit of the paper's Figs. 3 and 7 (20.6 % for
/// the saturation baseline, 52.1 % subthreshold baseline, 26.6 % for the
/// proposed cell).
///
/// # Errors
///
/// Propagates simulation failures; returns
/// [`CimError::EmptySweep`] for an empty temperature list.
pub fn current_fluctuation<C: CellDesign + ?Sized>(
    cell: &C,
    temps: &[Celsius],
    reference: Celsius,
) -> Result<f64, CimError> {
    if temps.is_empty() {
        return Err(CimError::EmptySweep {
            what: "temperatures",
        });
    }
    let i_ref = cell
        .read_current(true, true, reference, &CellOffsets::NOMINAL)?
        .value();
    let mut worst = 0.0f64;
    for &t in temps {
        let i = cell
            .read_current(true, true, t, &CellOffsets::NOMINAL)?
            .value();
        worst = worst.max((i / i_ref - 1.0).abs());
    }
    Ok(worst)
}

/// The normalized output current `I(T)/I(reference)` over a sweep —
/// the full curve behind the paper's Figs. 3 and 7.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn normalized_current_curve<C: CellDesign + ?Sized>(
    cell: &C,
    temps: &[Celsius],
    reference: Celsius,
) -> Result<Vec<(Celsius, f64)>, CimError> {
    let i_ref = cell
        .read_current(true, true, reference, &CellOffsets::NOMINAL)?
        .value();
    temps
        .iter()
        .map(|&t| {
            let i = cell.read_current(true, true, t, &CellOffsets::NOMINAL)?;
            Ok((t, i.value() / i_ref))
        })
        .collect()
}
