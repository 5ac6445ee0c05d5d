//! Readout (ADC) modelling and the statistical hardware-transfer model
//! consumed by `ferrocim-nn`.
//!
//! The analog `V_acc` of a MAC must be digitized before it re-enters a
//! neural network. [`Adc`] models the level slicer: it is calibrated on
//! the nominal level voltages at a reference temperature and quantizes
//! by nearest level. [`TransferModel`] then captures everything the
//! circuit does to a MAC value — temperature drift and process
//! variation included — as a `(n+1)×(n+1)` confusion matrix
//! `P[true][read]`, measured by Monte-Carlo over the actual array
//! simulation. The NN evaluation samples from this matrix, which is
//! exactly the paper's methodology of propagating circuit-level error
//! statistics into VGG/CIFAR-10 accuracy (Sec. IV-B).

use crate::array::{mac_operands, CimArray};
use crate::cells::{CellDesign, CellOffsets};
use crate::engine::fail_fast;
use crate::CimError;
use ferrocim_device::variation::{GaussianSampler, VariationModel};
use ferrocim_spice::{FailurePolicy, MonteCarlo};
use ferrocim_units::{Celsius, Volt};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A level-slicing analog-to-digital converter for MAC outputs.
///
/// Internally this is a set of `n` decision thresholds between the
/// `n + 1` MAC levels. Two calibrations are provided:
///
/// * [`Adc::calibrate`] places thresholds at the midpoints of the
///   *nominal* levels at one reference temperature — the naive slicer.
/// * [`Adc::calibrate_over`] places each threshold at the centre of the
///   worst-case *gap* between adjacent level ranges over a temperature
///   sweep — the sense-margin-aware placement implied by the paper's
///   NMR analysis (a positive `NMR_i` guarantees such a gap exists).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    thresholds: Vec<f64>,
}

impl Adc {
    /// Calibrates midpoint thresholds from the nominal level voltages at
    /// a reference temperature (27 °C in the paper).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn calibrate<C: CellDesign>(
        array: &CimArray<C>,
        reference: Celsius,
    ) -> Result<Adc, CimError> {
        // Calibration issues live transient solves; the span keeps them
        // parented in the trace instead of appearing as roots.
        let _span = array.context().telemetry.span("cim.adc_calibrate");
        let levels: Vec<Volt> = array.level_voltages(reference)?;
        Ok(Self::from_levels(levels))
    }

    /// Calibrates gap-centred thresholds from the level *ranges* over a
    /// temperature sweep, so the readout stays correct at every swept
    /// temperature whenever the array's `NMR_min` is positive.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn calibrate_over<C: CellDesign>(
        array: &CimArray<C>,
        temps: &[Celsius],
    ) -> Result<Adc, CimError> {
        let _span = array.context().telemetry.span("cim.adc_calibrate");
        let table = crate::metrics::RangeTable::measure(array, temps)?;
        Ok(Self::from_range_table(&table))
    }

    /// Builds gap-centred thresholds from a measured range table.
    pub fn from_range_table(table: &crate::metrics::RangeTable) -> Adc {
        let thresholds = table
            .ranges()
            .windows(2)
            .map(|w| 0.5 * (w[0].hi.value() + w[1].lo.value()))
            .collect();
        Adc { thresholds }
    }

    /// Builds midpoint thresholds from explicit level voltages
    /// (ascending).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two levels are given or they are not
    /// strictly ascending.
    pub fn from_levels(levels: Vec<Volt>) -> Adc {
        assert!(levels.len() >= 2, "an ADC needs at least two levels");
        assert!(
            levels.windows(2).all(|w| w[0].value() < w[1].value()),
            "ADC levels must be strictly ascending"
        );
        Adc {
            thresholds: levels
                .windows(2)
                .map(|w| 0.5 * (w[0].value() + w[1].value()))
                .collect(),
        }
    }

    /// The decision thresholds, ascending.
    pub fn thresholds(&self) -> Vec<Volt> {
        self.thresholds.iter().map(|&v| Volt(v)).collect()
    }

    /// Quantizes an analog output: the number of thresholds below it.
    pub fn quantize(&self, v: Volt) -> usize {
        self.thresholds.partition_point(|&t| t < v.value())
    }
}

/// How the readout thresholds follow the operating temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdcTracking {
    /// One fixed threshold set placed in the worst-case gaps over the
    /// whole 0–85 °C range. Works whenever `NMR_min > 0`, but nominal
    /// levels sit asymmetrically in their decision windows at the
    /// temperature extremes, which biases readouts under variation.
    Global,
    /// Replica-row tracking: a nominal reference row on the same die
    /// re-centres the thresholds at the operating temperature — the
    /// standard analog-CIM sensing aid, which keeps readout errors
    /// unbiased at every temperature.
    Replica,
}

/// Configuration of a transfer-model measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferConfig {
    /// The operating temperature the model is measured at.
    pub temp: Celsius,
    /// The device-variation model (`σ_VT = 54 mV` in the paper).
    pub variation: VariationModel,
    /// Monte-Carlo samples per MAC level.
    pub samples_per_level: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Threshold-tracking scheme of the deployed readout.
    pub tracking: AdcTracking,
}

impl TransferConfig {
    /// The paper's Fig. 9 configuration at a given temperature:
    /// `σ_VT = 54 mV`, 100 Monte-Carlo samples, replica-tracked
    /// thresholds.
    pub fn paper_default(temp: Celsius) -> Self {
        TransferConfig {
            temp,
            variation: VariationModel::paper_default(),
            samples_per_level: 100,
            seed: 0xF3F3,
            tracking: AdcTracking::Replica,
        }
    }
}

/// The measured digital-in/digital-out behaviour of a CIM row:
/// `P[true_mac][read_mac]`, plus the raw analog spread per level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    confusion: Vec<Vec<f64>>,
    /// Running sums of each confusion row, added left to right, which
    /// [`TransferModel::sample`] searches instead of re-summing the row
    /// on every read. Derived from `confusion`, yet serialized with it
    /// (the vendored `serde_derive` has no field-skip attribute); no
    /// caller deserializes a `TransferModel`.
    cumulative: Vec<Vec<f64>>,
    /// Worst observed |read − true| per true level.
    max_abs_error: Vec<usize>,
    temp: Celsius,
}

impl TransferModel {
    /// Measures the transfer model of an array by Monte-Carlo over
    /// per-cell threshold offsets, using the analytic MAC path and an
    /// ADC calibrated at 27 °C nominal.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; returns
    /// [`CimError::InvalidConfig`] for a zero sample count.
    pub fn measure<C: CellDesign>(
        array: &CimArray<C>,
        config: &TransferConfig,
    ) -> Result<TransferModel, CimError> {
        if config.samples_per_level == 0 {
            return Err(CimError::InvalidConfig {
                name: "samples_per_level",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        let n = array.config().cells_per_row;
        // Every live solve of the measurement — ADC calibration and the
        // per-sample Monte-Carlo MACs — is parented under this span, so
        // the trace tree attributes them to the transfer measurement.
        // Samples run on fan-out worker threads, so each one bridges
        // back to this parent explicitly via `span_under`.
        let measure_span = array.context().telemetry.span("cim.transfer_measure");
        let measure_id = measure_span.id();
        let adc = match config.tracking {
            AdcTracking::Global => {
                Adc::calibrate_over(array, &ferrocim_spice::sweep::temperature_sweep(8))?
            }
            AdcTracking::Replica => Adc::calibrate(array, config.temp)?,
        };
        let mut confusion = vec![vec![0.0; n + 1]; n + 1];
        let mut max_abs_error = vec![0usize; n + 1];
        for k in 0..=n {
            let (w, x) = mac_operands(n, k);
            let mc = MonteCarlo::new(config.samples_per_level, config.seed ^ (k as u64) << 32);
            let reads = fail_fast(mc.try_run(&FailurePolicy::FailFast, |_, rng| {
                let _sample_span = array
                    .context()
                    .telemetry
                    .span_under("cim.mac_sample", measure_id);
                let mut sampler = GaussianSampler::new();
                let offsets: Vec<CellOffsets> = (0..n)
                    .map(|_| CellOffsets {
                        fefet: config.variation.sample_fefet_offset(rng, &mut sampler),
                        m1: config.variation.sample_mosfet_offset(rng, &mut sampler),
                        m2: config.variation.sample_mosfet_offset(rng, &mut sampler),
                    })
                    .collect();
                let request = crate::MacRequest::new(&x)
                    .weights(&w)
                    .at(config.temp)
                    .offsets(&offsets)
                    .path(crate::MacPath::Analytic);
                let out = array.run(&request)?;
                Ok(adc.quantize(out.v_acc))
            }))?;
            for read in reads {
                confusion[k][read] += 1.0;
                max_abs_error[k] = max_abs_error[k].max(read.abs_diff(k));
            }
            for p in &mut confusion[k] {
                *p /= config.samples_per_level as f64;
            }
        }
        Ok(TransferModel {
            cumulative: cumulative_rows(&confusion),
            confusion,
            max_abs_error,
            temp: config.temp,
        })
    }

    /// The confusion matrix `P[true][read]`.
    pub fn confusion(&self) -> &[Vec<f64>] {
        &self.confusion
    }

    /// The temperature this model was measured at.
    pub fn temp(&self) -> Celsius {
        self.temp
    }

    /// The probability that a true MAC of `k` reads back exactly `k`.
    pub fn correct_probability(&self, k: usize) -> f64 {
        self.confusion[k][k]
    }

    /// The worst |read − true| over all levels — the paper's Fig. 9
    /// "highest error" metric, as a fraction of the full scale `n`.
    pub fn max_relative_error(&self) -> f64 {
        let n = self.confusion.len() - 1;
        *self.max_abs_error.iter().max().unwrap_or(&0) as f64 / n as f64
    }

    /// Samples a readout for a true MAC value: the first read whose
    /// cumulative probability exceeds one uniform draw `u`, or the top
    /// level when rounding leaves the row sum at or below `u`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the modelled range.
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        read_at(&self.cumulative[k], u)
    }

    /// The expected readout for a true MAC value.
    pub fn expected(&self, k: usize) -> f64 {
        self.confusion[k]
            .iter()
            .enumerate()
            .map(|(read, &p)| read as f64 * p)
            .sum()
    }
}

/// The number of running sums at or below `u`, clamped to the top
/// level: the first read whose cumulative probability exceeds `u`.
fn read_at(cumulative: &[f64], u: f64) -> usize {
    // A branch-free count over the short row beats a binary search.
    cumulative
        .iter()
        .filter(|&&c| c <= u)
        .count()
        .min(cumulative.len() - 1)
}

/// The running sums of every row, each added left to right.
fn cumulative_rows(confusion: &[Vec<f64>]) -> Vec<Vec<f64>> {
    confusion
        .iter()
        .map(|row| {
            row.iter()
                .scan(0.0, |acc, &p| {
                    *acc += p;
                    Some(*acc)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrocim_device::variation::seeded_rng;
    use proptest::prelude::*;

    /// The sequential scan `sample` used before the cumulative rows:
    /// re-sum the row on every read and stop at the first partial sum
    /// above `u`.
    fn scan_sample(row: &[f64], u: f64) -> usize {
        let mut acc = 0.0;
        for (read, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return read;
            }
        }
        row.len() - 1
    }

    /// A probability row of 1..=9 levels built from raw draws: `kind`
    /// 0 normalizes the weights (zeroed where flagged), 1 does the same
    /// and then nudges the top nonzero entry down until the float sum
    /// falls short of 1, and 2 is one-hot at `hot`.
    fn confusion_row(kind: u8, raw: &[(bool, f64)], hot: usize) -> Vec<f64> {
        let hot = hot % raw.len();
        if kind == 2 {
            let mut row = vec![0.0; raw.len()];
            row[hot] = 1.0;
            return row;
        }
        let mut row: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &(zero, p))| if zero && i != hot { 0.0 } else { p })
            .collect();
        let total: f64 = row.iter().sum();
        for p in &mut row {
            *p /= total;
        }
        if kind == 1 {
            let top = row.iter().rposition(|&p| p > 0.0).unwrap_or(hot);
            while row.iter().fold(0.0, |acc, p| acc + p) >= 1.0 {
                row[top] = row[top].next_down();
            }
        }
        row
    }

    #[test]
    fn adc_quantizes_to_nearest_level() {
        let adc = Adc::from_levels(vec![Volt(0.0), Volt(0.01), Volt(0.02)]);
        assert_eq!(adc.quantize(Volt(0.0004)), 0);
        assert_eq!(adc.quantize(Volt(0.009)), 1);
        assert_eq!(adc.quantize(Volt(0.014)), 1);
        assert_eq!(adc.quantize(Volt(0.016)), 2);
        assert_eq!(adc.quantize(Volt(5.0)), 2); // saturates high
        assert_eq!(adc.quantize(Volt(-1.0)), 0); // saturates low
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn adc_rejects_unsorted_levels() {
        let _ = Adc::from_levels(vec![Volt(0.02), Volt(0.01)]);
    }

    #[test]
    fn transfer_model_sampling_follows_confusion() {
        let confusion = vec![
            vec![0.8, 0.2, 0.0],
            vec![0.1, 0.8, 0.1],
            vec![0.0, 0.3, 0.7],
        ];
        let model = TransferModel {
            cumulative: cumulative_rows(&confusion),
            confusion,
            max_abs_error: vec![1, 1, 1],
            temp: Celsius::ROOM,
        };
        let mut rng = seeded_rng(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| model.sample(1, &mut rng) == 1).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "sampled {frac}");
        assert!((model.expected(1) - 1.0).abs() < 1e-12);
        assert!((model.expected(0) - 0.2).abs() < 1e-12);
        assert_eq!(model.max_relative_error(), 0.5);
        assert_eq!(model.correct_probability(2), 0.7);
    }

    proptest! {
        /// The cumulative-row `sample` returns the sequential scan's
        /// read for every draw, one draw per read; at and around every
        /// partial sum, where `u < acc` flips; and for draws above a
        /// row sum that falls short of 1, where both clamp to the top
        /// level.
        #[test]
        fn cumulative_sample_matches_sequential_scan(
            raw_rows in prop::collection::vec(
                (0u8..3, prop::collection::vec((any::<bool>(), 0.01f64..1.0), 1..=9), 0usize..9),
                1..=4,
            ),
            pick in 0usize..4,
            seed in any::<u64>(),
        ) {
            let rows: Vec<Vec<f64>> = raw_rows
                .iter()
                .map(|(kind, raw, hot)| confusion_row(*kind, raw, *hot))
                .collect();
            let k = pick % rows.len();
            let model = TransferModel {
                cumulative: cumulative_rows(&rows),
                max_abs_error: vec![0; rows.len()],
                confusion: rows,
                temp: Celsius::ROOM,
            };
            let row = &model.confusion()[k];
            let mut rng = seeded_rng(seed);
            let mut draws = seeded_rng(seed);
            for _ in 0..64 {
                let u: f64 = draws.random();
                prop_assert_eq!(model.sample(k, &mut rng), scan_sample(row, u));
            }
            prop_assert_eq!(rng.random::<u64>(), draws.random::<u64>());
            let cumulative = &model.cumulative[k];
            let edges = cumulative
                .iter()
                .flat_map(|&c| [c.next_down(), c, c.next_up()])
                .chain([0.0, 1.0f64.next_down()]);
            for u in edges {
                prop_assert_eq!(read_at(cumulative, u), scan_sample(row, u), "u = {}", u);
            }
        }
    }
}
