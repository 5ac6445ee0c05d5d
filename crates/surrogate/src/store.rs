//! The content-addressed store and its populate-on-miss front end.
//!
//! [`SurrogateStore`] is a concurrent `key → Arc<CalibratedCurve>` map;
//! [`MacSurrogate`] owns an array plus a store and exposes the
//! evaluate-with-fallback-to-calibration workflow: a query whose key is
//! present answers from the curve (a few hundred nanoseconds of linear
//! algebra), a miss runs the `n + 1`-solves-per-grid-temperature
//! calibration and the envelope probes, inserts the curve, and answers.
//! Every lookup and check-mode outcome is emitted through the shared
//! telemetry pipeline.

use crate::curve::{CalibratedCurve, CheckOutcome, CurveData, ErrorEnvelope, SurrogateAnswer};
use crate::fingerprint::{fingerprint, CellState};
use crate::SurrogateError;
use ferrocim_cim::cells::CellDesign;
use ferrocim_cim::{CimArray, MacOutput, MacPath, MacRequest};
use ferrocim_telemetry::Event;
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// Safety factor applied to the observed maximum deviation when
/// certifying the envelope.
const ENVELOPE_SAFETY: f64 = 2.0;
/// Absolute floor (volts) so an exactly-zero observed deviation (single
/// grid temperature, linear-exact fit) still certifies a positive,
/// checkable bound.
const ENVELOPE_FLOOR_V: f64 = 1e-9;
/// Random input patterns probed per midpoint temperature, on top of the
/// `n + 1` ramp patterns.
const RANDOM_PROBES: usize = 4;

/// Deterministic sampling policy for check mode: roughly one in `every`
/// hit-path queries is re-solved live and compared to the envelope.
///
/// The decision is a pure function of `(seed, query index)`, so a run
/// with a fixed seed checks the same queries every time — reproducible
/// audits rather than a coin flip per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckPolicy {
    /// Sampling period: 1 checks every query, `n` roughly one in `n`.
    pub every: u64,
    /// Seed decorrelating the subsample from the query stream.
    pub seed: u64,
}

impl CheckPolicy {
    /// A policy checking roughly one in `every` queries (clamped to at
    /// least 1) with the default seed.
    pub fn every(every: u64) -> Self {
        CheckPolicy {
            every: every.max(1),
            seed: 0xfefe7,
        }
    }

    /// Overrides the subsample seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether query number `n` is selected for a live check.
    fn selects(&self, n: u64) -> bool {
        // SplitMix64-style finalizer: cheap, well-mixed, deterministic.
        let mut z = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)).is_multiple_of(self.every)
    }
}

/// A snapshot of the surrogate's lookup/check counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurrogateCounts {
    /// Lookups answered from an existing calibrated curve.
    pub hits: u64,
    /// Lookups that triggered a live calibration.
    pub misses: u64,
    /// Check-mode live re-solves performed.
    pub checks: u64,
    /// Check-mode deviations exceeding the certified envelope.
    pub check_failures: u64,
}

/// A concurrent content-addressed map of calibrated curves.
///
/// Reads take a shared lock; calibration happens *outside* any lock and
/// inserts afterwards, first writer wins — so concurrent misses on the
/// same key cost duplicate calibrations, never a deadlock or a torn
/// curve.
#[derive(Debug, Default)]
pub struct SurrogateStore {
    curves: RwLock<HashMap<u64, Arc<CalibratedCurve>>>,
}

impl SurrogateStore {
    /// An empty store.
    pub fn new() -> Self {
        SurrogateStore::default()
    }

    /// Looks up a curve by key.
    pub fn get(&self, key: u64) -> Option<Arc<CalibratedCurve>> {
        self.curves
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    /// Inserts a curve, returning the stored handle. If another thread
    /// inserted the same key first, the existing curve wins and the
    /// argument is dropped (calibrations of the same key are
    /// interchangeable by construction).
    pub fn insert(&self, curve: CalibratedCurve) -> Arc<CalibratedCurve> {
        let key = curve.key();
        let mut map = self.curves.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(key).or_insert_with(|| Arc::new(curve)).clone()
    }

    /// Number of calibrated curves held.
    pub fn len(&self) -> usize {
        self.curves
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the store holds no curves yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The surrogate front end: an array, its calibration temperature grid,
/// and a store of curves keyed by programmed state.
///
/// Construction is cheap (one netlist build for the topology hash); all
/// live solving happens lazily on the first query per key. Lookups emit
/// [`Event::SurrogateLookup`] and check-mode re-solves emit
/// [`Event::SurrogateCheck`] through the array's telemetry handle (see
/// [`CimArray::with_recorder`]), alongside the live solves' own events.
#[derive(Debug)]
pub struct MacSurrogate<C> {
    array: CimArray<C>,
    temps: Vec<Celsius>,
    topology: u64,
    store: SurrogateStore,
    check: Option<CheckPolicy>,
    hits: AtomicU64,
    misses: AtomicU64,
    checks: AtomicU64,
    check_failures: AtomicU64,
    queries: AtomicU64,
}

impl<C: CellDesign> MacSurrogate<C> {
    /// Wraps `array` with a surrogate calibrated over the temperature
    /// grid `temps` (strictly ascending, at least one point, finite).
    ///
    /// # Errors
    ///
    /// [`SurrogateError::InvalidGrid`] for an empty, non-finite, or
    /// non-ascending grid; [`SurrogateError::Cim`] if the topology
    /// netlist cannot be built.
    pub fn new(array: CimArray<C>, temps: &[Celsius]) -> Result<Self, SurrogateError> {
        if temps.is_empty() {
            return Err(SurrogateError::InvalidGrid {
                requirement: "at least one grid temperature",
            });
        }
        if temps.iter().any(|t| !t.value().is_finite()) {
            return Err(SurrogateError::InvalidGrid {
                requirement: "all grid temperatures finite",
            });
        }
        if temps.windows(2).any(|w| w[0].value() >= w[1].value()) {
            return Err(SurrogateError::InvalidGrid {
                requirement: "grid temperatures strictly ascending",
            });
        }
        let n = array.config().cells_per_row;
        // Canonical operands: the topology hash must not depend on any
        // particular programmed state (weights enter the fingerprint
        // through the sorted cell states instead), so the netlist is
        // built with all-true weights and all-false inputs.
        let (circuit, _acc, _latency) = array.readout_circuit(&vec![true; n], &vec![false; n])?;
        let topology = circuit.content_hash();
        Ok(MacSurrogate {
            array,
            temps: temps.to_vec(),
            topology,
            store: SurrogateStore::new(),
            check: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            check_failures: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        })
    }

    /// Enables check mode: a deterministic subsample of hit-path
    /// queries is re-solved live and compared to the envelope.
    #[must_use]
    pub fn with_check(mut self, policy: CheckPolicy) -> Self {
        self.check = Some(policy);
        self
    }

    /// The wrapped array.
    pub fn array(&self) -> &CimArray<C> {
        &self.array
    }

    /// The calibration temperature grid.
    pub fn temps(&self) -> &[Celsius] {
        &self.temps
    }

    /// The calibrated temperature domain `(lo, hi)` in °C.
    pub fn domain_c(&self) -> (f64, f64) {
        // The grid is validated non-empty at construction.
        let lo = self.temps.first().map_or(f64::NAN, |t| t.value());
        let hi = self.temps.last().map_or(f64::NAN, |t| t.value());
        (lo, hi)
    }

    /// Row width the surrogate answers for.
    pub fn cells_per_row(&self) -> usize {
        self.array.config().cells_per_row
    }

    /// The curve store (for inspection and direct curve access).
    pub fn store(&self) -> &SurrogateStore {
        &self.store
    }

    /// A snapshot of the lookup/check counters.
    pub fn counts(&self) -> SurrogateCounts {
        SurrogateCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            checks: self.checks.load(Ordering::Relaxed),
            check_failures: self.check_failures.load(Ordering::Relaxed),
        }
    }

    /// The content-addressed key for a programmed weight vector on this
    /// array (faults come from the array itself).
    ///
    /// # Errors
    ///
    /// [`SurrogateError::MismatchedOperands`] for a wrong width.
    pub fn key_for(&self, weights: &[bool]) -> Result<u64, SurrogateError> {
        let n = self.cells_per_row();
        if weights.len() != n {
            return Err(SurrogateError::MismatchedOperands {
                weights: weights.len(),
                inputs: n,
                cells_per_row: n,
            });
        }
        let faults = self.array.faults();
        let cells: Vec<CellState> = weights
            .iter()
            .enumerate()
            .map(|(col, &weight)| CellState {
                col,
                weight,
                fault: faults.get(col).copied().flatten(),
            })
            .collect();
        let temps_c: Vec<f64> = self.temps.iter().map(|t| t.value()).collect();
        Ok(fingerprint(
            self.topology,
            self.array.config(),
            &temps_c,
            &cells,
        ))
    }

    /// Returns the calibrated curve for `weights`, calibrating it with
    /// live solves on the first request (populate-on-miss). Emits one
    /// [`Event::SurrogateLookup`] either way.
    ///
    /// # Errors
    ///
    /// Width mismatches and live-calibration failures.
    pub fn curve_for(&self, weights: &[bool]) -> Result<Arc<CalibratedCurve>, SurrogateError> {
        let key = self.key_for(weights)?;
        if let Some(curve) = self.store.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.array
                .context()
                .telemetry
                .emit(|| Event::SurrogateLookup { hit: true });
            return Ok(curve);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.array
            .context()
            .telemetry
            .emit(|| Event::SurrogateLookup { hit: false });
        let curve = self.calibrate(key, weights)?;
        Ok(self.store.insert(curve))
    }

    /// Answers one MAC query: curve lookup (calibrating on miss), curve
    /// evaluation, and — when check mode selects this query — a live
    /// re-solve compared against the certified envelope.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::OutOfDomain`] for temperatures outside the
    /// grid (never extrapolates), width mismatches, and live-solve
    /// failures during calibration.
    pub fn evaluate(
        &self,
        weights: &[bool],
        inputs: &[bool],
        temp: Celsius,
    ) -> Result<SurrogateAnswer, SurrogateError> {
        let curve = self.curve_for(weights)?;
        let mut answer = curve.eval(inputs, temp)?;
        let query = self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(policy) = self.check {
            if policy.selects(query) {
                // A failed live solve must not fail the query — the
                // surrogate answer is already in hand — so check
                // outcomes only exist when the re-solve succeeds.
                if let Ok(live) = self.live(weights, inputs, temp) {
                    let deviation_v = (answer.v_acc.value() - live.v_acc.value()).abs();
                    let ok = deviation_v <= answer.envelope.max_v;
                    self.checks.fetch_add(1, Ordering::Relaxed);
                    if !ok {
                        self.check_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    self.array
                        .context()
                        .telemetry
                        .emit(|| Event::SurrogateCheck {
                            ok,
                            deviation: deviation_v,
                        });
                    answer.check = Some(CheckOutcome { deviation_v, ok });
                }
            }
        }
        Ok(answer)
    }

    /// One live analytic MAC solve (the reference the surrogate is
    /// calibrated against and checked with).
    fn live(
        &self,
        weights: &[bool],
        inputs: &[bool],
        temp: Celsius,
    ) -> Result<MacOutput, SurrogateError> {
        Ok(self.array.run(
            &MacRequest::new(inputs)
                .weights(weights)
                .at(temp)
                .path(MacPath::Analytic),
        )?)
    }

    /// Runs the full calibration for one key: the `n + 1` live solves
    /// per grid temperature that pin the linear form, the ADC threshold
    /// tables, and the envelope probes at interpolation midpoints.
    fn calibrate(&self, key: u64, weights: &[bool]) -> Result<CalibratedCurve, SurrogateError> {
        let started = Instant::now();
        let n = self.cells_per_row();
        let mut solves = 0usize;
        let temps_c: Vec<f64> = self.temps.iter().map(|t| t.value()).collect();
        let mut base_v = Vec::with_capacity(temps_c.len());
        let mut base_e = Vec::with_capacity(temps_c.len());
        let mut delta_v = Vec::with_capacity(temps_c.len());
        let mut delta_e = Vec::with_capacity(temps_c.len());
        let mut thresholds = Vec::with_capacity(temps_c.len());
        let mut expected_base = 0i64;
        let mut expected_delta: Vec<i64> = Vec::with_capacity(n);
        let all_low = vec![false; n];
        for (ti, &temp) in self.temps.iter().enumerate() {
            let zero = self.live(weights, &all_low, temp)?;
            solves += 1;
            base_v.push(zero.v_acc.value());
            base_e.push(zero.energy.value());
            if ti == 0 {
                expected_base = zero.expected as i64;
            }
            let mut dv = Vec::with_capacity(n);
            let mut de = Vec::with_capacity(n);
            for col in 0..n {
                let mut x = all_low.clone();
                x[col] = true;
                let one = self.live(weights, &x, temp)?;
                solves += 1;
                dv.push(one.v_acc.value() - zero.v_acc.value());
                de.push(one.energy.value() - zero.energy.value());
                if ti == 0 {
                    expected_delta.push(one.expected as i64 - zero.expected as i64);
                }
            }
            delta_v.push(dv);
            delta_e.push(de);
            let levels = self.array.level_voltages(temp)?;
            let mut mids: Vec<f64> = levels
                .windows(2)
                .map(|w| 0.5 * (w[0].value() + w[1].value()))
                .collect();
            // The nominal level table is ascending for any sane design;
            // sorting makes quantization well-defined even for a
            // pathological one instead of panicking.
            mids.sort_by(f64::total_cmp);
            thresholds.push(mids);
        }
        // Provisional curve (placeholder envelope) used to measure the
        // real envelope against live solves.
        let provisional = CalibratedCurve::from_data(CurveData {
            key,
            cells_per_row: n,
            temps_c: temps_c.clone(),
            base_v,
            delta_v,
            base_e,
            delta_e,
            thresholds,
            expected_base,
            expected_delta,
            latency_s: self.array.config().latency().value(),
            calibration_s: 0.0,
            solves: 0,
            envelope: ErrorEnvelope {
                max_v: f64::INFINITY,
                observed_max_v: 0.0,
                rms_v: 0.0,
                probes: 0,
            },
        });
        // Probe at interpolation midpoints (worst case for a linear
        // blend); a single-temperature grid has no interpolation error,
        // so probe the grid point itself as a fit sanity check.
        let probe_temps: Vec<f64> = if temps_c.len() >= 2 {
            temps_c.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
        } else {
            temps_c.clone()
        };
        let mut patterns: Vec<Vec<bool>> =
            (0..=n).map(|k| (0..n).map(|i| i < k).collect()).collect();
        let mut rng = StdRng::seed_from_u64(key);
        for _ in 0..RANDOM_PROBES {
            patterns.push((0..n).map(|_| rng.random::<bool>()).collect());
        }
        let mut max_dev = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut probes = 0usize;
        for &t in &probe_temps {
            for pattern in &patterns {
                let live = self.live(weights, pattern, Celsius(t))?;
                solves += 1;
                let sur = provisional.eval(pattern, Celsius(t))?;
                let dev = (sur.v_acc.value() - live.v_acc.value()).abs();
                max_dev = max_dev.max(dev);
                sum_sq += dev * dev;
                probes += 1;
            }
        }
        let rms = if probes > 0 {
            (sum_sq / probes as f64).sqrt()
        } else {
            0.0
        };
        let envelope = ErrorEnvelope {
            max_v: max_dev * ENVELOPE_SAFETY + ENVELOPE_FLOOR_V,
            observed_max_v: max_dev,
            rms_v: rms,
            probes,
        };
        Ok(provisional.finalize(envelope, started.elapsed().as_secs_f64(), solves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrocim_cim::cells::TwoTransistorOneFefet;
    use ferrocim_cim::{ArrayConfig, CellFault};
    use ferrocim_telemetry::{Aggregator, Telemetry};
    use ferrocim_units::Second;

    fn small_array() -> CimArray<TwoTransistorOneFefet> {
        let config = ArrayConfig {
            cells_per_row: 4,
            dt: Second(100e-12),
            ..ArrayConfig::paper_default()
        };
        CimArray::new(TwoTransistorOneFefet::paper_default(), config).expect("valid config")
    }

    fn grid() -> Vec<Celsius> {
        vec![Celsius(0.0), Celsius(85.0)]
    }

    #[test]
    fn miss_calibrates_then_hits_answer_from_the_curve() {
        let surrogate = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let weights = [true, false, true, true];
        let inputs = [true, true, false, true];
        let first = surrogate
            .evaluate(&weights, &inputs, Celsius(27.0))
            .expect("in domain");
        let second = surrogate
            .evaluate(&weights, &inputs, Celsius(27.0))
            .expect("in domain");
        assert_eq!(first.v_acc, second.v_acc);
        assert_eq!(first.expected, 2);
        let counts = surrogate.counts();
        assert_eq!(counts.misses, 1);
        assert_eq!(counts.hits, 1);
        assert_eq!(surrogate.store().len(), 1);
        // A different weight vector is a different key.
        surrogate
            .evaluate(&[false; 4], &inputs, Celsius(27.0))
            .expect("in domain");
        assert_eq!(surrogate.counts().misses, 2);
        assert_eq!(surrogate.store().len(), 2);
    }

    #[test]
    fn surrogate_matches_live_solves_within_the_envelope() {
        let surrogate = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let weights = [true, true, false, true];
        for (temp_c, inputs) in [
            (0.0, [true, false, true, true]),
            (42.5, [true, true, true, true]),
            (85.0, [false, true, false, true]),
            (13.0, [false, false, false, false]),
        ] {
            let answer = surrogate
                .evaluate(&weights, &inputs, Celsius(temp_c))
                .expect("in domain");
            let live = surrogate
                .array()
                .run(
                    &MacRequest::new(&inputs)
                        .weights(&weights)
                        .at(Celsius(temp_c))
                        .path(MacPath::Analytic),
                )
                .expect("live solve");
            let dev = (answer.v_acc.value() - live.v_acc.value()).abs();
            assert!(
                dev <= answer.envelope.max_v,
                "deviation {dev} exceeds certified envelope {} at {temp_c} °C",
                answer.envelope.max_v
            );
            assert_eq!(answer.expected, live.expected);
        }
    }

    #[test]
    fn grid_temperatures_are_answered_exactly() {
        let surrogate = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let weights = [true, true, true, false];
        let inputs = [true, false, true, true];
        for temp in grid() {
            let answer = surrogate
                .evaluate(&weights, &inputs, temp)
                .expect("in domain");
            let live = surrogate
                .array()
                .run(
                    &MacRequest::new(&inputs)
                        .weights(&weights)
                        .at(temp)
                        .path(MacPath::Analytic),
                )
                .expect("live solve");
            // Linear-in-inputs is exact at grid points; only float
            // round-off separates the two.
            assert!((answer.v_acc.value() - live.v_acc.value()).abs() < 1e-12);
            assert!((answer.energy.value() - live.energy.value()).abs() < 1e-24);
        }
    }

    #[test]
    fn out_of_domain_is_a_typed_error_not_an_extrapolation() {
        let surrogate = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let weights = [true; 4];
        match surrogate.evaluate(&weights, &[true; 4], Celsius(120.0)) {
            Err(SurrogateError::OutOfDomain { temp_c, lo_c, hi_c }) => {
                assert_eq!(temp_c, 120.0);
                assert_eq!((lo_c, hi_c), (0.0, 85.0));
            }
            other => panic!("expected OutOfDomain, got {other:?}"),
        }
        assert!(matches!(
            surrogate.evaluate(&weights, &[true; 4], Celsius(-40.0)),
            Err(SurrogateError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn check_mode_re_solves_and_never_violates_the_envelope() {
        let surrogate = MacSurrogate::new(small_array(), &grid())
            .expect("valid grid")
            .with_check(CheckPolicy::every(1));
        let weights = [true, false, true, true];
        for k in 0..6 {
            let inputs: Vec<bool> = (0..4).map(|i| (k >> i) & 1 == 1).collect();
            let answer = surrogate
                .evaluate(&weights, &inputs, Celsius(20.0 + 10.0 * k as f64))
                .expect("in domain");
            let check = answer.check.expect("every-query policy checks all");
            assert!(check.ok, "envelope violated: {check:?}");
        }
        let counts = surrogate.counts();
        assert_eq!(counts.checks, 6);
        assert_eq!(counts.check_failures, 0);
    }

    #[test]
    fn faults_change_the_key_and_the_calibrated_answer() {
        let healthy = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let faulted_array = small_array()
            .with_faults(&[Some(CellFault::StuckAtHvt), None, None, None])
            .expect("valid faults");
        let faulted = MacSurrogate::new(faulted_array, &grid()).expect("valid grid");
        let weights = [true; 4];
        let key_h = healthy.key_for(&weights).expect("width ok");
        let key_f = faulted.key_for(&weights).expect("width ok");
        assert_ne!(key_h, key_f, "fault plans must separate keys");
        let inputs = [true; 4];
        let a = healthy
            .evaluate(&weights, &inputs, Celsius(27.0))
            .expect("in domain");
        let b = faulted
            .evaluate(&weights, &inputs, Celsius(27.0))
            .expect("in domain");
        // `expected` is the digital ground truth from the *requested*
        // operands (faults do not change it), but the analog output
        // sees the stuck-at-HVT cell read as weight 0.
        assert_eq!(a.expected, 4);
        assert_eq!(b.expected, 4);
        assert!(a.v_acc.value() > b.v_acc.value());
    }

    #[test]
    fn lookups_and_checks_flow_into_telemetry_counters() {
        let agg = Arc::new(Aggregator::new());
        let array = small_array().with_recorder(Telemetry::new(agg.clone()));
        let surrogate = MacSurrogate::new(array, &grid())
            .expect("valid grid")
            .with_check(CheckPolicy::every(1));
        let weights = [true, true, false, false];
        for _ in 0..3 {
            surrogate
                .evaluate(&weights, &[true; 4], Celsius(40.0))
                .expect("in domain");
        }
        let counts = agg.counts();
        assert_eq!(counts.surrogate_misses, 1);
        assert_eq!(counts.surrogate_hits, 2);
        assert_eq!(counts.surrogate_checks, 3);
        assert_eq!(counts.surrogate_check_failures, 0);
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(matches!(
            MacSurrogate::new(small_array(), &[]),
            Err(SurrogateError::InvalidGrid { .. })
        ));
        assert!(matches!(
            MacSurrogate::new(small_array(), &[Celsius(85.0), Celsius(0.0)]),
            Err(SurrogateError::InvalidGrid { .. })
        ));
        assert!(matches!(
            MacSurrogate::new(small_array(), &[Celsius(f64::NAN)]),
            Err(SurrogateError::InvalidGrid { .. })
        ));
        // A single-temperature grid is legal: domain == that point.
        let single = MacSurrogate::new(small_array(), &[Celsius(27.0)]).expect("single-point grid");
        assert_eq!(single.domain_c(), (27.0, 27.0));
        let answer = single
            .evaluate(&[true; 4], &[true, false, false, true], Celsius(27.0))
            .expect("in domain");
        assert_eq!(answer.expected, 2);
    }
}
