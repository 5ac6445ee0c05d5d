//! Calibrated transfer curves: the per-key payload of the store.
//!
//! For a fixed key (topology, geometry, faults, programmed weights) the
//! analytic MAC is linear in the input bits: every cell drives its own
//! output capacitor, and charge sharing combines the per-cell voltages
//! linearly, so `v_acc(x) = base + Σᵢ xᵢ·Δᵢ` *exactly* at any one
//! temperature. Energy and the ideal MAC count decompose the same way.
//! A curve therefore stores, per grid temperature, the base vector and
//! one delta per column, plus the ADC threshold table for readout
//! quantization; temperatures between grid points interpolate linearly,
//! which is where the (measured, certified) error envelope comes from.

use crate::SurrogateError;
use ferrocim_units::{Celsius, Joule, Second, Volt};
use serde::{Deserialize, Serialize};

/// Tolerance (°C) applied at the domain edges so that a query at
/// exactly `t_lo`/`t_hi` survives floating-point round-trips.
const DOMAIN_EPS_C: f64 = 1e-9;

/// The certified deviation envelope of one calibrated curve, measured
/// against live solves at calibration time.
///
/// `max_v` is the *certified bound* — the observed maximum inflated by
/// a safety factor plus an absolute floor — and is the value check mode
/// enforces. `observed_max_v`/`rms_v` are the raw measurements, kept so
/// reports can show how much margin the certification added.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// Certified bound on `|surrogate − live|` for `v_acc`, in volts.
    pub max_v: f64,
    /// Raw maximum deviation observed over the calibration probes, V.
    pub observed_max_v: f64,
    /// Root-mean-square deviation over the calibration probes, V.
    pub rms_v: f64,
    /// Number of (temperature, pattern) probe points measured.
    pub probes: usize,
}

/// The outcome of one check-mode live re-solve of a surrogate answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckOutcome {
    /// Absolute deviation between the surrogate and the live solve, V.
    pub deviation_v: f64,
    /// Whether the deviation stayed within the certified envelope.
    pub ok: bool,
}

/// One surrogate-answered MAC evaluation.
#[derive(Debug, Clone)]
pub struct SurrogateAnswer {
    /// Accumulated output voltage.
    pub v_acc: Volt,
    /// Estimated MAC energy.
    pub energy: Joule,
    /// The array's fixed readout latency.
    pub latency: Second,
    /// Quantized readout (against the curve's interpolated thresholds).
    pub readout: usize,
    /// The ideal (fault-aware) MAC count for these operands.
    pub expected: usize,
    /// The certified error envelope this answer is covered by.
    pub envelope: ErrorEnvelope,
    /// Present when check mode routed this query through the live
    /// solver as well.
    pub check: Option<CheckOutcome>,
}

/// A calibrated operating-point/transfer-curve bundle for one key.
///
/// Immutable after calibration; the store shares it via `Arc`.
#[derive(Debug, Clone)]
pub struct CalibratedCurve {
    key: u64,
    cells_per_row: usize,
    /// Calibration grid, °C, strictly ascending.
    temps_c: Vec<f64>,
    /// Per grid temperature: `v_acc` with all inputs low, volts.
    base_v: Vec<f64>,
    /// Per grid temperature, per column: `v_acc` contribution of
    /// raising input `i`, volts.
    delta_v: Vec<Vec<f64>>,
    /// Per grid temperature: MAC energy with all inputs low, joules.
    base_e: Vec<f64>,
    /// Per grid temperature, per column: energy contribution of input
    /// `i`, joules.
    delta_e: Vec<Vec<f64>>,
    /// Per grid temperature: ADC decision thresholds (ascending), V.
    thresholds: Vec<Vec<f64>>,
    /// Ideal MAC count with all inputs low (nonzero under some faults).
    expected_base: i64,
    /// Per column: ideal-count contribution of raising input `i`.
    expected_delta: Vec<i64>,
    /// The array's fixed readout latency, seconds.
    latency_s: f64,
    /// Wall-clock seconds spent calibrating this curve.
    calibration_s: f64,
    /// Live MAC evaluations spent calibrating (fit + envelope probes).
    solves: usize,
    envelope: ErrorEnvelope,
}

/// Everything [`CalibratedCurve::new`] needs, gathered by the
/// calibration pass in [`crate::MacSurrogate`].
#[derive(Debug)]
pub(crate) struct CurveData {
    pub key: u64,
    pub cells_per_row: usize,
    pub temps_c: Vec<f64>,
    pub base_v: Vec<f64>,
    pub delta_v: Vec<Vec<f64>>,
    pub base_e: Vec<f64>,
    pub delta_e: Vec<Vec<f64>>,
    pub thresholds: Vec<Vec<f64>>,
    pub expected_base: i64,
    pub expected_delta: Vec<i64>,
    pub latency_s: f64,
    pub calibration_s: f64,
    pub solves: usize,
    pub envelope: ErrorEnvelope,
}

impl CalibratedCurve {
    pub(crate) fn from_data(data: CurveData) -> Self {
        CalibratedCurve {
            key: data.key,
            cells_per_row: data.cells_per_row,
            temps_c: data.temps_c,
            base_v: data.base_v,
            delta_v: data.delta_v,
            base_e: data.base_e,
            delta_e: data.delta_e,
            thresholds: data.thresholds,
            expected_base: data.expected_base,
            expected_delta: data.expected_delta,
            latency_s: data.latency_s,
            calibration_s: data.calibration_s,
            solves: data.solves,
            envelope: data.envelope,
        }
    }

    /// Stamps the measured envelope and calibration cost onto a
    /// provisional curve (calibration builds the curve first, then
    /// measures it against live solves).
    pub(crate) fn finalize(
        mut self,
        envelope: ErrorEnvelope,
        calibration_s: f64,
        solves: usize,
    ) -> Self {
        self.envelope = envelope;
        self.calibration_s = calibration_s;
        self.solves = solves;
        self
    }

    /// The content-addressed key this curve was calibrated for.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Row width the curve answers for.
    pub fn cells_per_row(&self) -> usize {
        self.cells_per_row
    }

    /// The calibration temperature grid, °C, ascending.
    pub fn temps_c(&self) -> &[f64] {
        &self.temps_c
    }

    /// The calibrated temperature domain `(lo, hi)` in °C.
    pub fn domain_c(&self) -> (f64, f64) {
        // Grids are validated non-empty at construction.
        let lo = self.temps_c.first().copied().unwrap_or(f64::NAN);
        let hi = self.temps_c.last().copied().unwrap_or(f64::NAN);
        (lo, hi)
    }

    /// The certified error envelope measured at calibration time.
    pub fn envelope(&self) -> ErrorEnvelope {
        self.envelope
    }

    /// Live MAC evaluations spent building this curve: `n + 1` fit
    /// requests per grid temperature plus `n + 1 + 4` envelope probes
    /// per probe temperature (53 for an 8-cell row over 0/27/85 °C).
    /// It counts MACs, not cell transients: one calibration runs them
    /// all in one batch that solves each distinct cell state once per
    /// temperature.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Wall-clock seconds the calibration took.
    pub fn calibration_s(&self) -> f64 {
        self.calibration_s
    }

    /// Whether `temp` falls inside the calibrated domain (with a tiny
    /// edge tolerance).
    pub fn in_domain(&self, temp: Celsius) -> bool {
        let (lo, hi) = self.domain_c();
        temp.value() >= lo - DOMAIN_EPS_C && temp.value() <= hi + DOMAIN_EPS_C
    }

    /// Locates `t` in the grid: `(lower index, upper index, blend)`.
    fn bracket(&self, t: f64) -> Result<(usize, usize, f64), SurrogateError> {
        let (lo, hi) = self.domain_c();
        if !(t >= lo - DOMAIN_EPS_C && t <= hi + DOMAIN_EPS_C) {
            return Err(SurrogateError::OutOfDomain {
                temp_c: t,
                lo_c: lo,
                hi_c: hi,
            });
        }
        let t = t.clamp(lo, hi);
        // Index of the first grid point >= t.
        let upper = self.temps_c.partition_point(|&g| g < t);
        if upper == 0 {
            return Ok((0, 0, 0.0));
        }
        let i = upper - 1;
        let j = upper.min(self.temps_c.len() - 1);
        if i == j {
            return Ok((i, j, 0.0));
        }
        let span = self.temps_c[j] - self.temps_c[i];
        let blend = if span > 0.0 {
            (t - self.temps_c[i]) / span
        } else {
            0.0
        };
        Ok((i, j, blend))
    }

    /// Evaluates the curve at `inputs` / `temp`.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::MismatchedOperands`] for a wrong input width,
    /// [`SurrogateError::OutOfDomain`] for a temperature outside the
    /// calibrated grid — the curve never extrapolates.
    pub fn eval(&self, inputs: &[bool], temp: Celsius) -> Result<SurrogateAnswer, SurrogateError> {
        if inputs.len() != self.cells_per_row {
            return Err(SurrogateError::MismatchedOperands {
                weights: self.cells_per_row,
                inputs: inputs.len(),
                cells_per_row: self.cells_per_row,
            });
        }
        let (i, j, blend) = self.bracket(temp.value())?;
        let mut v = lerp(self.base_v[i], self.base_v[j], blend);
        let mut e = lerp(self.base_e[i], self.base_e[j], blend);
        let mut expected = self.expected_base;
        for (col, &x) in inputs.iter().enumerate() {
            if x {
                v += lerp(self.delta_v[i][col], self.delta_v[j][col], blend);
                e += lerp(self.delta_e[i][col], self.delta_e[j][col], blend);
                expected += self.expected_delta[col];
            }
        }
        let readout = self.quantize(v, i, j, blend);
        Ok(SurrogateAnswer {
            v_acc: Volt(v),
            energy: Joule(e),
            latency: Second(self.latency_s),
            readout,
            expected: expected.max(0) as usize,
            envelope: self.envelope,
            check: None,
        })
    }

    /// Quantizes against the temperature-interpolated threshold table:
    /// the number of thresholds strictly below `v` (the same convention
    /// as `ferrocim_cim::transfer::Adc::quantize`).
    fn quantize(&self, v: f64, i: usize, j: usize, blend: f64) -> usize {
        let a = &self.thresholds[i];
        let b = &self.thresholds[j];
        a.iter()
            .zip(b.iter())
            .map(|(&ta, &tb)| lerp(ta, tb, blend))
            .filter(|&t| t < v)
            .count()
    }
}

fn lerp(a: f64, b: f64, blend: f64) -> f64 {
    a + (b - a) * blend
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> CalibratedCurve {
        CalibratedCurve::from_data(CurveData {
            key: 1,
            cells_per_row: 2,
            temps_c: vec![0.0, 100.0],
            base_v: vec![0.0, 0.1],
            delta_v: vec![vec![0.2, 0.4], vec![0.3, 0.5]],
            base_e: vec![1e-15, 2e-15],
            delta_e: vec![vec![1e-15, 1e-15], vec![2e-15, 2e-15]],
            thresholds: vec![vec![0.1, 0.3], vec![0.2, 0.4]],
            expected_base: 0,
            expected_delta: vec![1, 1],
            latency_s: 7e-9,
            calibration_s: 0.0,
            solves: 6,
            envelope: ErrorEnvelope {
                max_v: 1e-3,
                observed_max_v: 5e-4,
                rms_v: 1e-4,
                probes: 4,
            },
        })
    }

    #[test]
    fn eval_interpolates_linearly_between_grid_points() {
        let c = curve();
        let at = |t: f64, x: &[bool]| c.eval(x, Celsius(t)).expect("in domain");
        // At the grid points the stored values come back exactly.
        assert!((at(0.0, &[true, false]).v_acc.value() - 0.2).abs() < 1e-15);
        assert!((at(100.0, &[true, false]).v_acc.value() - 0.4).abs() < 1e-15);
        // Midpoint blends base and delta: (0+0.1)/2 + (0.2+0.3)/2 = 0.3.
        assert!((at(50.0, &[true, false]).v_acc.value() - 0.3).abs() < 1e-15);
        // Expected counts are temperature independent.
        assert_eq!(at(50.0, &[true, true]).expected, 2);
    }

    #[test]
    fn eval_rejects_out_of_domain_and_bad_width() {
        let c = curve();
        match c.eval(&[true, false], Celsius(120.0)) {
            Err(SurrogateError::OutOfDomain { temp_c, lo_c, hi_c }) => {
                assert_eq!(temp_c, 120.0);
                assert_eq!((lo_c, hi_c), (0.0, 100.0));
            }
            other => panic!("expected OutOfDomain, got {other:?}"),
        }
        assert!(matches!(
            c.eval(&[true], Celsius(50.0)),
            Err(SurrogateError::MismatchedOperands { .. })
        ));
        // The exact edges stay in domain.
        assert!(c.eval(&[true, true], Celsius(0.0)).is_ok());
        assert!(c.eval(&[true, true], Celsius(100.0)).is_ok());
        assert!(c.in_domain(Celsius(100.0)));
        assert!(!c.in_domain(Celsius(100.1)));
    }

    /// Renders the fitted bits of a calibrated curve: one line per
    /// field, every `f64` as its IEEE-754 bit pattern.
    fn render_bits(name: &str, c: &CalibratedCurve) -> String {
        let hex = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut out = format!("{name} key {:016x}\n", c.key);
        for (ti, t) in c.temps_c.iter().enumerate() {
            out.push_str(&format!("{name} {t} base_v {}\n", hex(&[c.base_v[ti]])));
            out.push_str(&format!("{name} {t} delta_v {}\n", hex(&c.delta_v[ti])));
            out.push_str(&format!(
                "{name} {t} thresholds {}\n",
                hex(&c.thresholds[ti])
            ));
        }
        let e = c.envelope;
        out.push_str(&format!(
            "{name} envelope {} probes {}\n",
            hex(&[e.max_v, e.observed_max_v, e.rms_v]),
            e.probes
        ));
        out
    }

    /// Calibration is a pure function of the key: the fitted bits of two
    /// curves (one on a healthy row, one on a row with a dead word line
    /// and a shorted cell) on a 4-cell row over 0/27/85 °C are pinned
    /// in `tests/golden/curve_bits.txt`.
    #[test]
    fn calibrated_curve_bits_match_the_golden_file() {
        use crate::MacSurrogate;
        use ferrocim_cim::cells::TwoTransistorOneFefet;
        use ferrocim_cim::{ArrayConfig, CellFault, CimArray};

        let config = ArrayConfig {
            cells_per_row: 4,
            dt: Second(100e-12),
            ..ArrayConfig::paper_default()
        };
        let grid = [Celsius(0.0), Celsius(27.0), Celsius(85.0)];
        let healthy =
            CimArray::new(TwoTransistorOneFefet::paper_default(), config).expect("valid config");
        let faulted = healthy
            .clone()
            .with_faults(&[
                Some(CellFault::DeadWordline),
                None,
                Some(CellFault::ShortDevice),
                None,
            ])
            .expect("valid faults");
        let mut rendered = String::new();
        for (name, array, weights) in [
            ("healthy", healthy, [true, false, true, true]),
            ("faulted", faulted, [false, true, true, true]),
        ] {
            let surrogate = MacSurrogate::new(array, &grid).expect("valid grid");
            let curve = surrogate.curve_for(&weights).expect("calibrate");
            rendered.push_str(&render_bits(name, &curve));
        }
        assert_eq!(rendered, include_str!("../tests/golden/curve_bits.txt"));
    }

    #[test]
    fn quantize_counts_interpolated_thresholds_below() {
        let c = curve();
        // At t=0 thresholds are [0.1, 0.3]: v=0.2 → readout 1.
        let a = c.eval(&[true, false], Celsius(0.0)).expect("in domain");
        assert_eq!(a.readout, 1);
        // At t=100 thresholds are [0.2, 0.4]: v=0.5+0.1 base? inputs
        // [false, true] → 0.1 + 0.5 = 0.6 → above both → readout 2.
        let b = c.eval(&[false, true], Celsius(100.0)).expect("in domain");
        assert_eq!(b.readout, 2);
    }
}
