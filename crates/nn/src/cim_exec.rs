//! CIM-mapped network execution with hardware error injection.
//!
//! Every inner product of the network is decomposed exactly the way the
//! paper's 8-cell rows execute it:
//!
//! 1. quantize weights (signed, bit-planes split by sign) and
//!    activations (unsigned),
//! 2. chunk the operand vectors into rows of
//!    [`CimMapping::cells_per_row`] elements,
//! 3. for every (weight-bit, activation-bit, sign) combination, form the
//!    binary product vector and let the **MAC oracle** read out the
//!    0..=8 count — the oracle is where circuit behaviour (temperature
//!    drift + process variation, via
//!    `ferrocim_cim::transfer::TransferModel`) enters,
//! 4. recombine with power-of-two shifts and the quantization scales.
//!
//! Step 3 runs on bit planes: each weight vector is packed once, at map
//! time, into one `u64` mask per (row chunk, magnitude bit, sign), each
//! activation vector into one mask per (row chunk, activation bit), and
//! a partial count is the popcount of two masks ANDed.
//!
//! The [`MacOracle`] trait decouples this crate from the circuit layer:
//! [`IdealMac`] reads back the true count (pure quantization baseline),
//! while the blanket impl over `TransferModel` samples the measured
//! confusion matrix.

use crate::layers::Layer;
use crate::network::{fail_fast_error, Network};
use crate::quant::{quantize_activations, quantize_weights, QuantizedWeights};
use crate::tensor::Tensor;
use ferrocim_spice::{try_fan_out, Budget, FailurePolicy, SpiceError};
use ferrocim_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Typed failures of [`CimNetwork::try_accuracy`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// `inputs` and `labels` had different lengths.
    LengthMismatch {
        /// Number of input tensors.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// The resource budget ran out or the evaluation was cancelled
    /// (carries [`SpiceError::BudgetExceeded`] or
    /// [`SpiceError::Cancelled`]).
    Budget(SpiceError),
    /// An inference worker panicked (e.g. inside a hardware oracle).
    /// The panic is contained rather than unwinding through the sweep.
    WorkerPanicked {
        /// The panic payload, rendered to a string when possible.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::LengthMismatch { inputs, labels } => {
                write!(f, "inputs ({inputs}) and labels ({labels}) lengths differ")
            }
            ExecError::Budget(e) => write!(f, "accuracy sweep stopped: {e}"),
            ExecError::WorkerPanicked { message } => {
                write!(f, "inference worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpiceError> for ExecError {
    fn from(e: SpiceError) -> Self {
        ExecError::Budget(e)
    }
}

/// A hardware MAC readout: given the true number of conducting cells in
/// a row (`0..=cells_per_row`), return the digitized count.
pub trait MacOracle: Sync {
    /// Reads out one row MAC.
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize;

    /// Reads out a batch of row MACs into `out` (cleared first), one
    /// readout per entry of `true_counts`, in order.
    ///
    /// The default implementation loops [`MacOracle::read`]. Oracles
    /// backed by batched hardware simulation can override it for
    /// throughput, but an override must consume RNG draws in exactly
    /// the slice order the default does, so seeded network evaluations
    /// are independent of how reads are batched.
    fn read_batch(&self, true_counts: &[usize], out: &mut Vec<usize>, rng: &mut StdRng) {
        out.clear();
        out.extend(true_counts.iter().map(|&c| self.read(c, rng)));
    }

    /// The row width this oracle models.
    fn cells_per_row(&self) -> usize;
}

/// A perfect readout: always returns the true count. Running the
/// network through [`IdealMac`] isolates the pure quantization loss from
/// the circuit-induced loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealMac(pub usize);

impl MacOracle for IdealMac {
    fn read(&self, true_count: usize, _rng: &mut StdRng) -> usize {
        true_count
    }

    fn cells_per_row(&self) -> usize {
        self.0
    }
}

impl MacOracle for ferrocim_cim::transfer::TransferModel {
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
        self.sample(true_count, rng)
    }

    fn cells_per_row(&self) -> usize {
        self.confusion().len() - 1
    }
}

/// Wraps any [`MacOracle`] so inference survives a panicking readout.
///
/// Each [`MacOracle::read`] that panics is caught, counted, and
/// substituted by the ideal readout (the true count, clamped to the row
/// width) — the skip-and-substitute failure policy at per-read
/// granularity. A long accuracy sweep over a flaky hardware model thus
/// completes, and [`FaultTolerant::fault_count`] reports how many reads
/// actually failed.
///
/// A read that panics may already have consumed RNG draws, so seeded
/// results downstream of a fault are reproducible only for the same
/// inner oracle (the substitution itself draws nothing).
#[derive(Debug, Default)]
pub struct FaultTolerant<O> {
    inner: O,
    faults: std::sync::atomic::AtomicUsize,
    telemetry: Telemetry,
}

impl<O> FaultTolerant<O> {
    /// Wraps an oracle.
    pub fn new(inner: O) -> Self {
        FaultTolerant {
            inner,
            faults: std::sync::atomic::AtomicUsize::new(0),
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: every substituted read additionally
    /// emits [`Event::FaultSubstituted`] with `substitute: 1`, so an
    /// aggregator's `faults_substituted` count equals
    /// [`FaultTolerant::fault_count`].
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of reads that panicked and were substituted so far.
    pub fn fault_count(&self) -> usize {
        self.faults.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: MacOracle> MacOracle for FaultTolerant<O> {
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.read(true_count, rng)
        })) {
            Ok(v) => v,
            Err(_) => {
                self.faults
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.telemetry
                    .emit(|| Event::FaultSubstituted { substitute: 1 });
                true_count.min(self.inner.cells_per_row())
            }
        }
    }

    fn cells_per_row(&self) -> usize {
        self.inner.cells_per_row()
    }
}

/// Bit widths and row geometry of the CIM mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimMapping {
    /// Signed weight bit width (sign + magnitude planes).
    pub weight_bits: u8,
    /// Unsigned activation bit width.
    pub activation_bits: u8,
    /// Cells per CIM row (must match the oracle).
    pub cells_per_row: usize,
}

impl Default for CimMapping {
    /// The evaluation default: 4-bit weights, 4-bit activations on the
    /// paper's 8-cell rows.
    fn default() -> Self {
        CimMapping {
            weight_bits: 4,
            activation_bits: 4,
            cells_per_row: 8,
        }
    }
}

/// The widest row the packed kernel supports: one `u64` bit per cell.
const MAX_CELLS_PER_ROW: usize = 64;

/// Reusable packing and readout buffers for [`cim_dot_in`], so repeated
/// dot products pay no per-call allocation.
#[derive(Debug, Clone, Default)]
pub struct DotScratch {
    weights: WeightPlanes,
    activations: Vec<u64>,
    reads: ReadBuffers,
}

/// The partial counts of one dot product, their signed power-of-two
/// weights, and the oracle's readouts of them.
#[derive(Debug, Clone, Default)]
struct ReadBuffers {
    counts: Vec<usize>,
    terms: Vec<i64>,
    reads: Vec<usize>,
}

/// Quantized weights packed into sign-split magnitude bit planes: per
/// row chunk and magnitude bit, a `[positive, negative]` pair of masks
/// of the cells whose weight has that sign and that bit set.
#[derive(Debug, Clone, Default)]
struct WeightPlanes {
    planes: Vec<[u64; 2]>,
    magnitude_bits: u8,
    scale: f32,
}

impl WeightPlanes {
    fn pack(w: &QuantizedWeights, cells_per_row: usize) -> WeightPlanes {
        let mut packed = WeightPlanes::default();
        packed.repack(w, cells_per_row);
        packed
    }

    /// Packs `w` in place, reusing the plane buffer.
    fn repack(&mut self, w: &QuantizedWeights, cells_per_row: usize) {
        self.planes.clear();
        for chunk in w.values.chunks(cells_per_row) {
            for wb in 0..w.magnitude_bits() {
                let mut sign_planes = [0u64; 2];
                for (cell, &wv) in chunk.iter().enumerate() {
                    if (wv.unsigned_abs() >> wb) & 1 == 1 {
                        sign_planes[usize::from(wv < 0)] |= 1u64 << cell;
                    }
                }
                self.planes.push(sign_planes);
            }
        }
        self.magnitude_bits = w.magnitude_bits();
        self.scale = w.scale;
    }
}

/// Packs activations into `planes` (cleared first): per chunk of
/// `cells_per_row` elements, one mask per activation bit.
fn pack_activations(
    values: &[u8],
    activation_bits: u8,
    cells_per_row: usize,
    planes: &mut Vec<u64>,
) {
    planes.clear();
    for chunk in values.chunks(cells_per_row) {
        for ab in 0..activation_bits {
            let mut plane = 0u64;
            for (cell, &av) in chunk.iter().enumerate() {
                plane |= u64::from((av >> ab) & 1) << cell;
            }
            planes.push(plane);
        }
    }
}

/// Set bits per byte value.
const BYTE_ONES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = (byte as u8).count_ones() as u8;
        byte += 1;
    }
    table
};

/// Population count of a row mask by byte table. The baseline x86-64
/// target has no `popcnt` instruction, and there `u64::count_ones`
/// costs several times the one lookup an 8-cell row needs; the first
/// byte is looked up unconditionally, so zero masks take no branch.
fn ones(mask: u64) -> usize {
    let mut count = usize::from(BYTE_ONES[(mask & 0xff) as usize]);
    let mut rest = mask >> 8;
    while rest != 0 {
        count += usize::from(BYTE_ONES[(rest & 0xff) as usize]);
        rest >>= 8;
    }
    count
}

/// The bit-serial dot product of packed operands: one partial count per
/// (chunk, weight bit, activation bit, sign) by popcount, pushed in
/// that order with zero counts skipped, then read out through the
/// oracle as one batch and recombined with power-of-two shifts.
fn packed_dot<O: MacOracle>(
    weights: &WeightPlanes,
    activations: &[u64],
    activation_bits: u8,
    oracle: &O,
    rng: &mut StdRng,
    buf: &mut ReadBuffers,
) -> i64 {
    // Every slot is written and kept only if its count is nonzero, so
    // data-dependent zeros cost no branch.
    let slots = 2 * weights.planes.len() * usize::from(activation_bits);
    if buf.counts.len() < slots {
        buf.counts.resize(slots, 0);
        buf.terms.resize(slots, 0);
    }
    let mut len = 0;
    // A zero-bit operand has no planes, so it reads nothing; `max(1)`
    // only keeps `chunks` from panicking on it.
    let chunks = weights
        .planes
        .chunks(usize::from(weights.magnitude_bits).max(1))
        .zip(activations.chunks(usize::from(activation_bits).max(1)));
    for (w_chunk, a_chunk) in chunks {
        for (wb, &[pos_plane, neg_plane]) in w_chunk.iter().enumerate() {
            for (ab, &a_plane) in a_chunk.iter().enumerate() {
                let term = 1i64 << (wb + ab);
                for (plane, term) in [(pos_plane, term), (neg_plane, -term)] {
                    let count = ones(plane & a_plane);
                    buf.counts[len] = count;
                    buf.terms[len] = term;
                    len += usize::from(count > 0);
                }
            }
        }
    }
    oracle.read_batch(&buf.counts[..len], &mut buf.reads, rng);
    debug_assert_eq!(buf.reads.len(), len);
    buf.terms[..len]
        .iter()
        .zip(&buf.reads)
        .map(|(&term, &read)| term * read as i64)
        .sum()
}

/// Executes one signed dot product through the CIM row decomposition.
///
/// Returns the *integer* accumulation (to be scaled by
/// `w.scale · a_scale`).
///
/// # Panics
///
/// Panics if the operand lengths differ, the oracle's row width differs
/// from the mapping's, or a row is wider than 64 cells.
pub fn cim_dot<O: MacOracle>(
    w: &QuantizedWeights,
    a: &[u8],
    mapping: &CimMapping,
    oracle: &O,
    rng: &mut StdRng,
) -> i64 {
    cim_dot_in(w, a, mapping, oracle, rng, &mut DotScratch::default())
}

/// [`cim_dot`] with caller-owned scratch buffers.
///
/// Both operands are packed into bit planes (one mask per row chunk and
/// bit), each partial count is a popcount, and all row reads of the dot
/// product — per operand chunk, weight bit, activation bit: the
/// positive then the negative partial count — are issued as one
/// [`MacOracle::read_batch`] call in exactly that order, which keeps
/// seeded results identical to reading one at a time.
///
/// # Panics
///
/// As [`cim_dot`].
pub fn cim_dot_in<O: MacOracle>(
    w: &QuantizedWeights,
    a: &[u8],
    mapping: &CimMapping,
    oracle: &O,
    rng: &mut StdRng,
    scratch: &mut DotScratch,
) -> i64 {
    assert_eq!(w.values.len(), a.len(), "operand length mismatch");
    assert_eq!(
        oracle.cells_per_row(),
        mapping.cells_per_row,
        "oracle row width does not match the mapping"
    );
    assert_row_width(mapping.cells_per_row);
    scratch.weights.repack(w, mapping.cells_per_row);
    pack_activations(
        a,
        mapping.activation_bits,
        mapping.cells_per_row,
        &mut scratch.activations,
    );
    packed_dot(
        &scratch.weights,
        &scratch.activations,
        mapping.activation_bits,
        oracle,
        rng,
        &mut scratch.reads,
    )
}

fn assert_row_width(cells_per_row: usize) {
    assert!(
        cells_per_row <= MAX_CELLS_PER_ROW,
        "rows wider than {MAX_CELLS_PER_ROW} cells are not supported (got {cells_per_row})"
    );
}

/// Bit-plane-packed weights of one network layer (rows of the weight
/// matrix for linears; one filter per output channel for convolutions).
#[derive(Debug, Clone)]
enum MappedLayer {
    Conv {
        /// Per-output-channel packed 9·`in_channels`-element filters.
        filters: Vec<WeightPlanes>,
        bias: Vec<f32>,
        in_channels: usize,
    },
    Linear {
        rows: Vec<WeightPlanes>,
        bias: Vec<f32>,
        in_dim: usize,
    },
    /// Non-MAC layer executed digitally.
    Passthrough(Layer),
}

/// A network whose MAC layers have been quantized and mapped onto CIM
/// rows, ready to run against any [`MacOracle`].
#[derive(Debug, Clone)]
pub struct CimNetwork {
    layers: Vec<MappedLayer>,
    mapping: CimMapping,
    telemetry: Telemetry,
}

impl CimNetwork {
    /// Quantizes and maps a trained network, packing every filter and
    /// weight-matrix row into sign-split magnitude bit planes once.
    ///
    /// # Panics
    ///
    /// Panics if `mapping.cells_per_row` exceeds 64 (the packed kernel
    /// holds one row chunk per `u64` mask).
    pub fn map(network: &Network, mapping: CimMapping) -> CimNetwork {
        assert_row_width(mapping.cells_per_row);
        let pack = |weights: &[f32]| {
            WeightPlanes::pack(
                &quantize_weights(weights, mapping.weight_bits),
                mapping.cells_per_row,
            )
        };
        let layers = network
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Conv2d(conv) => {
                    let (in_c, _) = conv.channels();
                    let filters = conv.weight.data().chunks(in_c * 9).map(pack).collect();
                    MappedLayer::Conv {
                        filters,
                        bias: conv.bias.data().to_vec(),
                        in_channels: in_c,
                    }
                }
                Layer::Linear(lin) => {
                    let (in_dim, _) = lin.dims();
                    MappedLayer::Linear {
                        rows: lin.weight.data().chunks(in_dim).map(pack).collect(),
                        bias: lin.bias.data().to_vec(),
                        in_dim,
                    }
                }
                other => MappedLayer::Passthrough(other.clone()),
            })
            .collect();
        CimNetwork {
            layers,
            mapping,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: every CIM-mapped layer execution in
    /// [`CimNetwork::forward`] is wrapped in a wall-clock span
    /// (`cim.conv2d`, `cim.linear`, `cim.passthrough`), so per-layer
    /// inference time shows up in span histograms.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The mapping geometry.
    pub fn mapping(&self) -> &CimMapping {
        &self.mapping
    }

    /// Runs inference with all inner products executed through the
    /// oracle. `seed` makes the stochastic readout reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's row width differs from the mapping's.
    pub fn forward<O: MacOracle>(&self, x: &Tensor, oracle: &O, seed: u64) -> Tensor {
        assert_eq!(
            oracle.cells_per_row(),
            self.mapping.cells_per_row,
            "oracle row width does not match the mapping"
        );
        // The per-image root: layer spans (and their MAC batches and
        // solves) nest under it, forming the network → layer → MAC
        // tree trace viewers reconstruct.
        let _forward_span = self.telemetry.span("nn.forward");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = x.clone();
        for layer in &self.layers {
            h = match layer {
                MappedLayer::Conv {
                    filters,
                    bias,
                    in_channels,
                } => {
                    let _timer = self.telemetry.span("cim.conv2d");
                    self.conv_forward(&h, filters, bias, *in_channels, oracle, &mut rng)
                }
                MappedLayer::Linear { rows, bias, in_dim } => {
                    let _timer = self.telemetry.span("cim.linear");
                    assert_eq!(h.len(), *in_dim, "linear input dim mismatch");
                    self.linear_forward(&h, rows, bias, oracle, &mut rng)
                }
                MappedLayer::Passthrough(l) => {
                    let _timer = self.telemetry.span("cim.passthrough");
                    let (out, _) = l.forward(&h, crate::layers::Mode::Eval, &mut rng);
                    out
                }
            };
        }
        h
    }

    /// Predicted class through the oracle.
    pub fn predict<O: MacOracle>(&self, x: &Tensor, oracle: &O, seed: u64) -> usize {
        self.forward(x, oracle, seed).argmax()
    }

    /// Accuracy over a labelled set, parallelized across images.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or an inference worker panicked
    /// ([`CimNetwork::try_accuracy`] reports both as typed errors
    /// instead).
    pub fn accuracy<O: MacOracle>(
        &self,
        inputs: &[Tensor],
        labels: &[usize],
        oracle: &O,
        seed: u64,
    ) -> f64 {
        match self.try_accuracy(inputs, labels, oracle, seed, &Budget::unlimited()) {
            Ok(acc) => acc,
            Err(e @ ExecError::LengthMismatch { .. }) => {
                panic!("inputs/labels length mismatch: {e}")
            }
            Err(e) => panic!("accuracy sweep failed: {e}"),
        }
    }

    /// Fallible, resource-governed [`CimNetwork::accuracy`]: one step
    /// of `budget` is charged per image, the cancel token and deadline
    /// are polled between images, and a panicking oracle is contained
    /// as [`ExecError::WorkerPanicked`] instead of unwinding through
    /// the sweep.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. Budget exhaustion mid-sweep aborts with
    /// [`ExecError::Budget`]; images already evaluated are discarded.
    pub fn try_accuracy<O: MacOracle>(
        &self,
        inputs: &[Tensor],
        labels: &[usize],
        oracle: &O,
        seed: u64,
        budget: &Budget,
    ) -> Result<f64, ExecError> {
        if inputs.len() != labels.len() {
            return Err(ExecError::LengthMismatch {
                inputs: inputs.len(),
                labels: labels.len(),
            });
        }
        if inputs.is_empty() {
            return Ok(0.0);
        }
        let sweep_span = self.telemetry.span("nn.accuracy");
        let sweep_id = sweep_span.id();
        let report = try_fan_out(
            inputs.len(),
            true,
            &FailurePolicy::FailFast,
            // Root each worker's per-image forward spans under the
            // sweep span across the thread hop.
            || self.telemetry.span_under("nn.accuracy_worker", sweep_id),
            |_worker_span, i| -> Result<bool, ExecError> {
                budget.check()?;
                budget.charge_steps(1)?;
                let image_seed = seed ^ (i as u64) << 13;
                Ok(self.predict(&inputs[i], oracle, image_seed) == labels[i])
            },
        )
        .map_err(|e| fail_fast_error(e, |message| ExecError::WorkerPanicked { message }))?;
        let hits = report.values().filter(|&&hit| hit).count();
        Ok(hits as f64 / inputs.len() as f64)
    }

    fn conv_forward<O: MacOracle>(
        &self,
        x: &Tensor,
        filters: &[WeightPlanes],
        bias: &[f32],
        in_channels: usize,
        oracle: &O,
        rng: &mut StdRng,
    ) -> Tensor {
        let (h, w) = (x.shape()[1], x.shape()[2]);
        assert_eq!(x.shape()[0], in_channels, "conv input channel mismatch");
        // One MAC-batch span per layer invocation: all of this layer's
        // oracle reads happen inside it, so traces show the causal
        // chain network → layer → MAC batch.
        let _mac_span = self.telemetry.span("nn.mac_batch");
        let qa = quantize_activations(x.data(), self.mapping.activation_bits);
        let mut out = Tensor::zeros(&[filters.len(), h, w]);
        // Gather the quantized 3×3 patch per output pixel (im2col row).
        let mut patch = vec![0u8; in_channels * 9];
        let mut patch_planes = Vec::new();
        let mut reads = ReadBuffers::default();
        let activation_bits = self.mapping.activation_bits;
        // One span per output row at Iterations detail only: per-pixel
        // MAC timing is diagnostic-grade and would multiply trace size.
        let fine_grained = self.telemetry.wants_iterations();
        for oy in 0..h {
            let _row_span = fine_grained.then(|| self.telemetry.span("nn.conv_row"));
            for ox in 0..w {
                patch.fill(0);
                for i in 0..in_channels {
                    for kh in 0..3usize {
                        let iy = oy + kh;
                        if iy < 1 || iy > h {
                            continue;
                        }
                        let iy = iy - 1;
                        for kw in 0..3usize {
                            let ix = ox + kw;
                            if ix < 1 || ix > w {
                                continue;
                            }
                            let ix = ix - 1;
                            patch[(i * 3 + kh) * 3 + kw] = qa.values[(i * h + iy) * w + ix];
                        }
                    }
                }
                // Pack the patch once; every filter shares its planes.
                pack_activations(
                    &patch,
                    activation_bits,
                    self.mapping.cells_per_row,
                    &mut patch_planes,
                );
                for (o, filter) in filters.iter().enumerate() {
                    let acc = packed_dot(
                        filter,
                        &patch_planes,
                        activation_bits,
                        oracle,
                        rng,
                        &mut reads,
                    );
                    *out.at3_mut(o, oy, ox) = acc as f32 * filter.scale * qa.scale + bias[o];
                }
            }
        }
        out
    }

    fn linear_forward<O: MacOracle>(
        &self,
        x: &Tensor,
        rows: &[WeightPlanes],
        bias: &[f32],
        oracle: &O,
        rng: &mut StdRng,
    ) -> Tensor {
        let _mac_span = self.telemetry.span("nn.mac_batch");
        let qa = quantize_activations(x.data(), self.mapping.activation_bits);
        let mut input_planes = Vec::new();
        pack_activations(
            &qa.values,
            self.mapping.activation_bits,
            self.mapping.cells_per_row,
            &mut input_planes,
        );
        let mut out = Tensor::zeros(&[rows.len()]);
        let mut reads = ReadBuffers::default();
        let fine_grained = self.telemetry.wants_iterations();
        for (o, row) in rows.iter().enumerate() {
            let _row_span = fine_grained.then(|| self.telemetry.span("nn.linear_row"));
            let acc = packed_dot(
                row,
                &input_planes,
                self.mapping.activation_bits,
                oracle,
                rng,
                &mut reads,
            );
            out.data_mut()[o] = acc as f32 * row.scale * qa.scale + bias[o];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::quant::integer_dot;
    use rand::Rng;

    #[test]
    fn ideal_cim_dot_equals_integer_dot() {
        let mut rng = StdRng::seed_from_u64(0);
        let mapping = CimMapping::default();
        let oracle = IdealMac(8);
        for _ in 0..50 {
            let len = rng.random_range(1..40);
            let w: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let qw = quantize_weights(&w, mapping.weight_bits);
            let qa = quantize_activations(&a, mapping.activation_bits);
            let exact = integer_dot(&qw, &qa);
            let cim = cim_dot(&qw, &qa.values, &mapping, &oracle, &mut rng);
            assert_eq!(cim, exact, "len {len}");
        }
    }

    #[test]
    fn ideal_network_matches_quantized_reference() {
        // A small linear network through IdealMac must match plain
        // quantized inference closely (identical integer math).
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(16, 4, &mut rng);
        let net = Network::new(vec![Layer::Linear(lin.clone()), Layer::Relu]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let x = Tensor::from_vec(
            &[16],
            (0..16).map(|i| (i as f32 * 0.31).sin().abs()).collect(),
        );
        let float_out = net.forward(&x);
        let cim_out = cim.forward(&x, &IdealMac(8), 7);
        for (f, c) in float_out.data().iter().zip(cim_out.data()) {
            assert!((f - c).abs() < 0.15, "float {f} vs cim {c}");
        }
    }

    /// A stochastic oracle whose reads each consume one RNG draw, so
    /// tests can detect any change in draw order.
    struct Noisy;
    impl MacOracle for Noisy {
        fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
            (true_count + rng.random_range(0..2)).min(8)
        }
        fn cells_per_row(&self) -> usize {
            8
        }
    }

    #[test]
    fn read_batch_consumes_rng_in_read_order() {
        let counts = [3usize, 5, 1, 0, 8, 2];
        let mut batch_rng = StdRng::seed_from_u64(9);
        let mut batched = Vec::new();
        Noisy.read_batch(&counts, &mut batched, &mut batch_rng);
        let mut serial_rng = StdRng::seed_from_u64(9);
        let serial: Vec<usize> = counts
            .iter()
            .map(|&c| Noisy.read(c, &mut serial_rng))
            .collect();
        assert_eq!(batched, serial);
        // Both paths must have consumed the same number of draws.
        assert_eq!(batch_rng.random::<u64>(), serial_rng.random::<u64>());
    }

    #[test]
    fn batched_dot_matches_draw_by_draw_reference() {
        // cim_dot gathers all reads into one read_batch call; a seeded
        // stochastic oracle must see the exact same draw sequence as
        // the historical read-one-at-a-time loop.
        let mut rng = StdRng::seed_from_u64(12);
        let mapping = CimMapping::default();
        for _ in 0..20 {
            let len = rng.random_range(1..40);
            let w: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let qw = quantize_weights(&w, mapping.weight_bits);
            let qa = quantize_activations(&a, mapping.activation_bits);

            let mut batch_rng = StdRng::seed_from_u64(77);
            let batched = cim_dot(&qw, &qa.values, &mapping, &Noisy, &mut batch_rng);

            // Reference: the pre-batching formulation, reading each
            // partial count as soon as it is formed.
            let mut serial_rng = StdRng::seed_from_u64(77);
            let n = mapping.cells_per_row;
            let mut acc: i64 = 0;
            for (wc, ac) in qw.values.chunks(n).zip(qa.values.chunks(n)) {
                for wb in 0..qw.magnitude_bits() {
                    for ab in 0..mapping.activation_bits {
                        let mut pos = 0usize;
                        let mut neg = 0usize;
                        for (&wv, &av) in wc.iter().zip(ac) {
                            if (av >> ab) & 1 == 0 {
                                continue;
                            }
                            if (wv.unsigned_abs() >> wb) & 1 == 1 {
                                if wv > 0 {
                                    pos += 1;
                                } else {
                                    neg += 1;
                                }
                            }
                        }
                        let shift = (wb + ab) as u32;
                        if pos > 0 {
                            acc += (Noisy.read(pos, &mut serial_rng) as i64) << shift;
                        }
                        if neg > 0 {
                            acc -= (Noisy.read(neg, &mut serial_rng) as i64) << shift;
                        }
                    }
                }
            }
            assert_eq!(batched, acc, "len {len}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(21);
        let mapping = CimMapping::default();
        let mut scratch = DotScratch::default();
        for _ in 0..10 {
            let len = rng.random_range(1..30);
            let w: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let qw = quantize_weights(&w, mapping.weight_bits);
            let qa = quantize_activations(&a, mapping.activation_bits);
            let mut r1 = StdRng::seed_from_u64(5);
            let mut r2 = StdRng::seed_from_u64(5);
            let fresh = cim_dot(&qw, &qa.values, &mapping, &Noisy, &mut r1);
            let reused = cim_dot_in(&qw, &qa.values, &mapping, &Noisy, &mut r2, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    /// An oracle that always reads one count high (when possible) —
    /// lets tests verify errors actually propagate.
    struct AlwaysHigh;
    impl MacOracle for AlwaysHigh {
        fn read(&self, true_count: usize, _rng: &mut StdRng) -> usize {
            (true_count + 1).min(8)
        }
        fn cells_per_row(&self) -> usize {
            8
        }
    }

    #[test]
    fn faulty_oracle_changes_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(16, 4, &mut rng);
        let net = Network::new(vec![Layer::Linear(lin)]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let x = Tensor::from_vec(&[16], vec![0.5; 16]);
        let good = cim.forward(&x, &IdealMac(8), 3);
        let bad = cim.forward(&x, &AlwaysHigh, 3);
        assert_ne!(good.data(), bad.data());
    }

    #[test]
    fn accuracy_is_deterministic_for_a_seed() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Network::new(vec![Layer::Linear(Linear::new(8, 2, &mut rng))]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let inputs: Vec<Tensor> = (0..10)
            .map(|i| Tensor::from_vec(&[8], vec![i as f32 * 0.1; 8]))
            .collect();
        let labels: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let a = cim.accuracy(&inputs, &labels, &IdealMac(8), 5);
        let b = cim.accuracy(&inputs, &labels, &IdealMac(8), 5);
        assert_eq!(a, b);
    }

    /// Panics on every odd true count — a flaky hardware model.
    struct Flaky;
    impl MacOracle for Flaky {
        fn read(&self, true_count: usize, _rng: &mut StdRng) -> usize {
            assert!(
                true_count.is_multiple_of(2),
                "flaky oracle hit an odd count"
            );
            true_count
        }
        fn cells_per_row(&self) -> usize {
            8
        }
    }

    #[test]
    fn fault_tolerant_oracle_substitutes_and_counts() {
        let oracle = FaultTolerant::new(Flaky);
        let mut rng = StdRng::seed_from_u64(0);
        let counts = [1usize, 2, 3, 4, 5];
        let mut out = Vec::new();
        oracle.read_batch(&counts, &mut out, &mut rng);
        // Panicked reads are substituted by the true count, so the
        // batch completes with ideal values in the failed slots.
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(oracle.fault_count(), 3);
        assert_eq!(oracle.cells_per_row(), 8);
    }

    /// Panics on every read.
    struct AlwaysPanics;
    impl MacOracle for AlwaysPanics {
        fn read(&self, _true_count: usize, _rng: &mut StdRng) -> usize {
            panic!("hardware model exploded");
        }
        fn cells_per_row(&self) -> usize {
            8
        }
    }

    #[test]
    fn fault_tolerant_inference_completes_under_total_failure() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(16, 4, &mut rng);
        let net = Network::new(vec![Layer::Linear(lin)]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let x = Tensor::from_vec(&[16], vec![0.5; 16]);
        let ideal = cim.forward(&x, &IdealMac(8), 3);
        let oracle = FaultTolerant::new(AlwaysPanics);
        let survived = cim.forward(&x, &oracle, 3);
        // Every read failed and was replaced by the ideal readout.
        assert_eq!(ideal.data(), survived.data());
        assert!(oracle.fault_count() > 0);
    }

    #[test]
    fn fault_events_match_the_fault_count() {
        use ferrocim_telemetry::Aggregator;
        use std::sync::Arc;
        let agg = Arc::new(Aggregator::new());
        let tele = Telemetry::new(agg.clone());
        let oracle = FaultTolerant::new(Flaky).with_recorder(tele.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        oracle.read_batch(&[1usize, 2, 3, 4, 5, 7], &mut out, &mut rng);
        assert_eq!(oracle.fault_count(), 4);
        assert_eq!(agg.counts().faults_substituted, 4);
    }

    #[test]
    fn recorded_forward_emits_one_span_per_layer() {
        use ferrocim_telemetry::Aggregator;
        use std::sync::Arc;
        let mut rng = StdRng::seed_from_u64(2);
        let net = Network::new(vec![
            Layer::Linear(Linear::new(16, 8, &mut rng)),
            Layer::Relu,
            Layer::Linear(Linear::new(8, 4, &mut rng)),
        ]);
        let agg = Arc::new(Aggregator::new());
        let cim =
            CimNetwork::map(&net, CimMapping::default()).with_recorder(Telemetry::new(agg.clone()));
        let x = Tensor::from_vec(&[16], vec![0.5; 16]);
        let _ = cim.forward(&x, &IdealMac(8), 3);
        // One span per layer, one nn.mac_batch inside each of the two
        // MAC layers, plus the enclosing nn.forward root.
        assert_eq!(agg.counts().spans, 6);
    }

    #[test]
    #[should_panic(expected = "oracle row width")]
    fn mapping_oracle_mismatch_is_rejected() {
        let qw = quantize_weights(&[0.5; 8], 4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = cim_dot(
            &qw,
            &[1u8; 8],
            &CimMapping::default(),
            &IdealMac(4),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "rows wider than 64 cells")]
    fn map_rejects_rows_wider_than_a_plane() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(vec![Layer::Linear(Linear::new(80, 2, &mut rng))]);
        let mapping = CimMapping {
            cells_per_row: 65,
            ..CimMapping::default()
        };
        let _ = CimNetwork::map(&net, mapping);
    }

    #[test]
    #[should_panic(expected = "oracle row width")]
    fn forward_rejects_a_mismatched_oracle() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(vec![Layer::Linear(Linear::new(16, 2, &mut rng))]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let _ = cim.forward(&Tensor::from_vec(&[16], vec![0.5; 16]), &IdealMac(4), 0);
    }

    #[test]
    fn byte_table_popcount_matches_count_ones() {
        let mut rng = StdRng::seed_from_u64(8);
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            let x = rng.random::<u64>() & mask;
            assert_eq!(ones(x), x.count_ones() as usize, "{x:#x}");
            assert_eq!(ones(mask), width as usize);
        }
    }

    #[test]
    fn zero_bit_operands_read_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let one_bit = QuantizedWeights {
            values: vec![1, -1, 0, 1],
            scale: 1.0,
            bits: 1,
        };
        assert_eq!(
            cim_dot(&one_bit, &[3; 4], &CimMapping::default(), &Noisy, &mut rng),
            0
        );
        let no_activation_bits = CimMapping {
            activation_bits: 0,
            ..CimMapping::default()
        };
        let qw = quantize_weights(&[0.5, -0.25, 1.0, 0.1], 4);
        assert_eq!(
            cim_dot(&qw, &[3; 4], &no_activation_bits, &Noisy, &mut rng),
            0
        );
    }
}
