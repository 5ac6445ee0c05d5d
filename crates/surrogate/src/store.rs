//! The content-addressed store and its populate-on-miss front end.
//!
//! [`SurrogateStore`] is a concurrent, bounded `key →
//! Arc<CalibratedCurve>` map that evicts its least recently hit curve
//! when full; [`MacSurrogate`] owns an array plus a store and exposes
//! the evaluate-with-fallback-to-calibration workflow: a query whose key
//! is present answers from the curve (a few hundred nanoseconds of
//! linear algebra), a miss calibrates, inserts the curve, and answers.
//! Calibration is single-flight per key: concurrent misses on one key
//! run one calibration, and the other callers wait for its curve.
//! Calibration sends its `n + 1` fit MACs per grid temperature and its
//! envelope probes through one [`CimArray::run_batch`], which solves each
//! distinct cell state once per temperature, fanned out over the cores,
//! and reads the ADC level tables from the same cell results: on the
//! paper-default row over 0/27/85 °C that is 20 cell transients for the
//! 53 MACs, where one solve per MAC ran 172.
//! Every lookup, eviction and check-mode outcome is emitted through the
//! shared telemetry pipeline.

use crate::curve::{CalibratedCurve, CheckOutcome, CurveData, ErrorEnvelope, SurrogateAnswer};
use crate::fingerprint::{fingerprint, CellState};
use crate::SurrogateError;
use ferrocim_cim::cells::CellDesign;
use ferrocim_cim::{CimArray, MacOutput, MacPath, MacRequest};
use ferrocim_telemetry::{Event, Telemetry};
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
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
/// The decision is a pure function of the query index (mixed with a
/// fixed seed), so a run checks the same queries every time —
/// reproducible audits rather than a coin flip per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckPolicy {
    /// Sampling period: 1 checks every query, `n` roughly one in `n`.
    pub every: u64,
}

/// Seed decorrelating the check subsample from the query stream.
const CHECK_SEED: u64 = 0xfefe7;

impl CheckPolicy {
    /// A policy checking roughly one in `every` queries (clamped to at
    /// least 1).
    pub fn every(every: u64) -> Self {
        CheckPolicy {
            every: every.max(1),
        }
    }

    /// Whether query number `n` is selected for a live check.
    fn selects(&self, n: u64) -> bool {
        // SplitMix64-style finalizer: cheap, well-mixed, deterministic.
        let mut z = CHECK_SEED ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)).is_multiple_of(self.every)
    }
}

/// A snapshot of the surrogate's lookup/check counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurrogateCounts {
    /// Lookups answered from a calibrated curve, including callers that
    /// waited for a concurrent caller's calibration of the same key.
    pub hits: u64,
    /// Lookups that ran a live calibration (one per calibration).
    pub misses: u64,
    /// Check-mode live re-solves performed.
    pub checks: u64,
    /// Check-mode deviations exceeding the certified envelope.
    pub check_failures: u64,
    /// Curves the full store dropped to make room for new ones.
    #[serde(default)]
    pub evictions: u64,
}

/// One stored curve and the store tick of its last hit (or insert).
#[derive(Debug)]
struct Entry {
    curve: Arc<CalibratedCurve>,
    last_hit: AtomicU64,
}

/// What a finished calibration left for the callers that waited on it.
type Outcome = Result<Arc<CalibratedCurve>, SurrogateError>;

/// One key's calibration in progress; waiters block until it lands.
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<Option<Outcome>>,
    landed: Condvar,
}

impl Flight {
    /// Blocks until the calibrating caller publishes its outcome.
    fn wait(&self) -> Outcome {
        let mut outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = outcome.as_ref() {
                return outcome.clone();
            }
            outcome = self
                .landed
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The calibrating caller's hold on its flight. Dropping it, on return
/// or while a panic unwinds, publishes the outcome, wakes every waiter
/// and retires the flight, so no waiter outlives its calibration.
struct Pilot<'a> {
    store: &'a SurrogateStore,
    key: u64,
    flight: Arc<Flight>,
    outcome: Option<Outcome>,
}

impl Drop for Pilot<'_> {
    fn drop(&mut self) {
        let key = self.key;
        let outcome = self
            .outcome
            .take()
            .unwrap_or(Err(SurrogateError::CalibrationPanicked { key }));
        self.store
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&key);
        *self
            .flight
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.flight.landed.notify_all();
    }
}

/// A concurrent, bounded, content-addressed map of calibrated curves.
///
/// Reads take a shared lock. [`SurrogateStore::get_or_calibrate`] is
/// single-flight per key: the first caller to miss a key calibrates it
/// outside any lock, and every concurrent caller of the same key waits
/// for that calibration's curve (the same `Arc`) or its error. A failed
/// calibration is not stored, so the next miss tries again. The store
/// holds at most [`SurrogateStore::CAP`] curves: an insert that would
/// pass the cap first evicts the least recently hit one. Handles
/// already given out stay valid after their eviction.
#[derive(Debug, Default)]
pub struct SurrogateStore {
    curves: RwLock<HashMap<u64, Entry>>,
    /// Calibrations in progress, by key.
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Logical clock stamped on an entry at every hit and insert.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SurrogateStore {
    /// The most curves a store holds.
    pub const CAP: usize = 32;

    /// An empty store.
    pub fn new() -> Self {
        SurrogateStore::default()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a curve by key; a hit marks it most recently used.
    pub fn get(&self, key: u64) -> Option<Arc<CalibratedCurve>> {
        let map = self.curves.read().unwrap_or_else(PoisonError::into_inner);
        let entry = map.get(&key)?;
        entry.last_hit.store(self.next_tick(), Ordering::Relaxed);
        Some(entry.curve.clone())
    }

    /// Returns the curve under `key`, running `calibrate` (and inserting
    /// its curve) only when no curve is stored and no other caller is
    /// calibrating the key; otherwise waits for that caller's outcome.
    /// A caller that ran `calibrate` counts as a miss and every other
    /// caller as a hit (reported by [`MacSurrogate::counts`]); each emits
    /// the matching [`Event::SurrogateLookup`], plus
    /// [`Event::SurrogateEvicted`] when the insert evicted.
    ///
    /// # Errors
    ///
    /// The calibration's error, for the caller that ran it and for every
    /// caller that waited on it; [`SurrogateError::CalibrationPanicked`]
    /// for the waiters of a calibration that panicked.
    pub fn get_or_calibrate(
        &self,
        key: u64,
        telemetry: &Telemetry,
        calibrate: impl FnOnce() -> Result<CalibratedCurve, SurrogateError>,
    ) -> Result<Arc<CalibratedCurve>, SurrogateError> {
        let lookup = |hit: bool| {
            let counter = if hit { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
            telemetry.emit(|| Event::SurrogateLookup { hit });
        };
        if let Some(curve) = self.get(key) {
            lookup(true);
            return Ok(curve);
        }
        let (flight, calibrating) = {
            let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
            // A flight inserts its curve before it retires, so a curve
            // that landed since the read above is visible here.
            if let Some(curve) = self.get(key) {
                drop(flights);
                lookup(true);
                return Ok(curve);
            }
            let calibrating = !flights.contains_key(&key);
            (flights.entry(key).or_default().clone(), calibrating)
        };
        if !calibrating {
            lookup(true);
            return flight.wait();
        }
        lookup(false);
        let mut pilot = Pilot {
            store: self,
            key,
            flight,
            outcome: None,
        };
        let outcome = calibrate().map(|curve| {
            let (curve, evicted) = self.insert_evicting(curve);
            if evicted {
                telemetry.emit(|| Event::SurrogateEvicted);
            }
            curve
        });
        pilot.outcome = Some(outcome.clone());
        outcome
    }

    /// Inserts a curve, returning the stored handle. If the key is
    /// already stored, the existing curve wins and the argument is
    /// dropped (calibrations of the same key are interchangeable by
    /// construction). A new key in a full store evicts the least
    /// recently hit curve first.
    pub fn insert(&self, curve: CalibratedCurve) -> Arc<CalibratedCurve> {
        self.insert_evicting(curve).0
    }

    /// [`SurrogateStore::insert`], also reporting whether it evicted.
    fn insert_evicting(&self, curve: CalibratedCurve) -> (Arc<CalibratedCurve>, bool) {
        let key = curve.key();
        let mut map = self.curves.write().unwrap_or_else(PoisonError::into_inner);
        let now = self.next_tick();
        if let Some(entry) = map.get(&key) {
            entry.last_hit.store(now, Ordering::Relaxed);
            return (entry.curve.clone(), false);
        }
        let coldest = if map.len() >= Self::CAP {
            map.iter()
                .min_by_key(|(_, entry)| entry.last_hit.load(Ordering::Relaxed))
                .map(|(&old, _)| old)
        } else {
            None
        };
        if let Some(old) = coldest {
            map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let curve = Arc::new(curve);
        map.insert(
            key,
            Entry {
                curve: curve.clone(),
                last_hit: AtomicU64::new(now),
            },
        );
        (curve, coldest.is_some())
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

    /// Lookups through [`SurrogateStore::get_or_calibrate`] that did not
    /// run a calibration.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calibrations [`SurrogateStore::get_or_calibrate`] ran.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Curves evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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
    /// `temps` in °C, as the key and the curve store them.
    temps_c: Vec<f64>,
    topology: u64,
    store: SurrogateStore,
    check: Option<CheckPolicy>,
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
            temps_c: temps.iter().map(|t| t.value()).collect(),
            topology,
            store: SurrogateStore::new(),
            check: None,
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
            hits: self.store.hits(),
            misses: self.store.misses(),
            checks: self.checks.load(Ordering::Relaxed),
            check_failures: self.check_failures.load(Ordering::Relaxed),
            evictions: self.store.evictions(),
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
        Ok(fingerprint(
            self.topology,
            self.array.config(),
            &self.temps_c,
            &cells,
        ))
    }

    /// Returns the calibrated curve for `weights`, calibrating it with
    /// live solves on the first request (populate-on-miss). Concurrent
    /// first requests for one key run one calibration and share its
    /// curve (see [`SurrogateStore::get_or_calibrate`]). Emits one
    /// [`Event::SurrogateLookup`] either way.
    ///
    /// # Errors
    ///
    /// Width mismatches and live-calibration failures.
    pub fn curve_for(&self, weights: &[bool]) -> Result<Arc<CalibratedCurve>, SurrogateError> {
        let key = self.key_for(weights)?;
        self.store
            .get_or_calibrate(key, &self.array.context().telemetry, || {
                self.calibrate(key, weights)
            })
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

    /// One live analytic MAC request (the reference the surrogate is
    /// calibrated against and checked with).
    fn live_request(weights: &[bool], inputs: &[bool], temp: Celsius) -> MacRequest {
        MacRequest::new(inputs)
            .weights(weights)
            .at(temp)
            .path(MacPath::Analytic)
    }

    /// One live analytic MAC solve.
    fn live(
        &self,
        weights: &[bool],
        inputs: &[bool],
        temp: Celsius,
    ) -> Result<MacOutput, SurrogateError> {
        Ok(self.array.run(&Self::live_request(weights, inputs, temp))?)
    }

    /// Runs the full calibration for one key: the `n + 1` live MACs per
    /// grid temperature that pin the linear form, the ADC threshold
    /// tables, and the envelope probes at interpolation midpoints.
    ///
    /// The fit and probe requests are all known up front (the probe
    /// patterns do not depend on the fit), so they go through one
    /// [`CimArray::run_batch`] with the grid as its level temperatures:
    /// each distinct cell state runs one transient per temperature,
    /// shared by every MAC and level table that needs it.
    fn calibrate(&self, key: u64, weights: &[bool]) -> Result<CalibratedCurve, SurrogateError> {
        let started = Instant::now();
        let n = self.cells_per_row();
        let temps_c = &self.temps_c;
        // Fit: per grid temperature, all inputs low then each one-hot.
        let one_hot: Vec<Vec<bool>> = (0..=n)
            .map(|hot| (0..n).map(|i| i + 1 == hot).collect())
            .collect();
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
        let fit = self
            .temps
            .iter()
            .flat_map(|&t| one_hot.iter().map(move |x| (x, t)));
        let probe = probe_temps
            .iter()
            .flat_map(|&t| patterns.iter().map(move |x| (x, Celsius(t))));
        let requests: Vec<MacRequest> = fit
            .chain(probe)
            .map(|(x, t)| Self::live_request(weights, x, t))
            .collect();
        let batch = self.array.run_batch(&requests, &self.temps)?;
        let (fit_out, probe_out) = batch.outputs.split_at(self.temps.len() * (n + 1));

        let mut base_v = Vec::with_capacity(temps_c.len());
        let mut base_e = Vec::with_capacity(temps_c.len());
        let mut delta_v = Vec::with_capacity(temps_c.len());
        let mut delta_e = Vec::with_capacity(temps_c.len());
        let mut thresholds = Vec::with_capacity(temps_c.len());
        let mut expected_base = 0i64;
        let mut expected_delta = Vec::new();
        for (ti, (levels, fit)) in batch.levels.iter().zip(fit_out.chunks(n + 1)).enumerate() {
            let (zero, ones) = (&fit[0], &fit[1..]);
            base_v.push(zero.v_acc.value());
            base_e.push(zero.energy.value());
            if ti == 0 {
                expected_base = zero.expected as i64;
                expected_delta = ones
                    .iter()
                    .map(|one| one.expected as i64 - zero.expected as i64)
                    .collect();
            }
            delta_v.push(
                ones.iter()
                    .map(|one| one.v_acc.value() - zero.v_acc.value())
                    .collect(),
            );
            delta_e.push(
                ones.iter()
                    .map(|one| one.energy.value() - zero.energy.value())
                    .collect(),
            );
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
        // real envelope against the probe solves.
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
        let mut max_dev = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut probes = 0usize;
        for (&t, lives) in probe_temps.iter().zip(probe_out.chunks(patterns.len())) {
            for (pattern, live) in patterns.iter().zip(lives) {
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
        Ok(provisional.finalize(envelope, started.elapsed().as_secs_f64(), requests.len()))
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

    /// A placeholder 4-cell curve under `key`; the store never looks
    /// past the key.
    fn stub_curve(key: u64) -> CalibratedCurve {
        CalibratedCurve::from_data(CurveData {
            key,
            cells_per_row: 4,
            temps_c: vec![0.0, 85.0],
            base_v: vec![0.0; 2],
            delta_v: vec![vec![0.0; 4]; 2],
            base_e: vec![0.0; 2],
            delta_e: vec![vec![0.0; 4]; 2],
            thresholds: vec![vec![0.0; 4]; 2],
            expected_base: 0,
            expected_delta: vec![1; 4],
            latency_s: 0.0,
            calibration_s: 0.0,
            solves: 0,
            envelope: ErrorEnvelope {
                max_v: 1e-3,
                observed_max_v: 0.0,
                rms_v: 0.0,
                probes: 0,
            },
        })
    }

    #[test]
    fn a_flooded_store_keeps_its_cap_and_its_hot_curve() {
        let surrogate = MacSurrogate::new(small_array(), &grid()).expect("valid grid");
        let hot = surrogate
            .curve_for(&[true, false, true, true])
            .expect("calibrate");
        let store = SurrogateStore::new();
        store.insert((*hot).clone());
        let flood = SurrogateStore::CAP + 16;
        for i in 1..=flood as u64 {
            store.insert(stub_curve(hot.key().wrapping_add(i)));
            assert!(store.len() <= SurrogateStore::CAP, "{} curves", store.len());
            assert!(
                store.get(hot.key()).is_some(),
                "the hit curve was evicted after {i} inserts"
            );
        }
        let inserts = flood + 1;
        assert_eq!(store.len(), SurrogateStore::CAP);
        assert_eq!(store.evictions(), (inserts - SurrogateStore::CAP) as u64);
    }

    #[test]
    fn evictions_flow_into_counts_and_telemetry() {
        // Six cells give 64 weight vectors, enough to overfill the store.
        let config = ArrayConfig {
            cells_per_row: 6,
            dt: Second(100e-12),
            ..ArrayConfig::paper_default()
        };
        let agg = Arc::new(Aggregator::new());
        let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)
            .expect("valid config")
            .with_recorder(Telemetry::new(agg.clone()));
        let surrogate = MacSurrogate::new(array, &grid()).expect("valid grid");
        // Held outside the store, like the serve backend's fallback curve.
        let first = surrogate.curve_for(&[true; 6]).expect("calibrate");
        let extra = 2;
        for w in 0..(SurrogateStore::CAP + extra) as u32 {
            let weights: Vec<bool> = (0..6).map(|i| (w >> i) & 1 == 1).collect();
            surrogate.curve_for(&weights).expect("calibrate");
        }
        let evicted = extra as u64 + 1;
        assert_eq!(surrogate.store().len(), SurrogateStore::CAP);
        assert_eq!(surrogate.counts().evictions, evicted);
        assert_eq!(agg.counts().surrogate_evictions, evicted);
        // The least recently hit curve went first, and its handle lives on.
        assert!(surrogate.store().get(first.key()).is_none());
        assert!(first.eval(&[true; 6], Celsius(27.0)).is_ok());
    }

    /// What each of 16 concurrent `get_or_calibrate` callers of one key
    /// got back (`None` for a caller that panicked), collected within a
    /// bounded time, and how many calibrations ran. A calibration lands
    /// only once the 15 other callers are counted as hits, i.e. are
    /// waiting on it.
    fn crowd(
        store: &Arc<SurrogateStore>,
        land: fn() -> Result<CalibratedCurve, SurrogateError>,
    ) -> (Vec<Option<Outcome>>, usize) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::{mpsc, Barrier};
        use std::time::{Duration, Instant};

        const CALLERS: usize = 16;
        let barrier = Arc::new(Barrier::new(CALLERS));
        let runs = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let mut callers = Vec::new();
        for _ in 0..CALLERS {
            let (store, barrier, runs, tx) =
                (store.clone(), barrier.clone(), runs.clone(), tx.clone());
            callers.push(std::thread::spawn(move || {
                barrier.wait();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    store.get_or_calibrate(CROWD_KEY, &Telemetry::off(), || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        let give_up = Instant::now() + Duration::from_secs(10);
                        while store.hits() < CALLERS as u64 - 1 && Instant::now() < give_up {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        land()
                    })
                }));
                // The receiver outlives every caller unless the test
                // already failed.
                let _ = tx.send(outcome.ok());
            }));
        }
        let outcomes = (0..CALLERS)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("a caller was left waiting on its calibration")
            })
            .collect();
        // Every caller has sent its outcome, so these joins return.
        for caller in callers {
            caller.join().expect("a caller's panic is caught");
        }
        (outcomes, runs.load(Ordering::Relaxed) as usize)
    }

    const CROWD_KEY: u64 = 0xc0ffee;

    #[test]
    fn a_failed_calibration_releases_every_waiter_with_its_error() {
        let store = Arc::new(SurrogateStore::new());
        let (outcomes, runs) = crowd(&store, || {
            Err(SurrogateError::InvalidGrid {
                requirement: "a calibration that fails",
            })
        });
        assert_eq!(runs, 1);
        for outcome in &outcomes {
            assert!(
                matches!(outcome, Some(Err(SurrogateError::InvalidGrid { .. }))),
                "{outcome:?}"
            );
        }
        assert_eq!((store.misses(), store.hits()), (1, 15));
        // The failure is not stored: the next lookup calibrates again.
        let curve = store
            .get_or_calibrate(CROWD_KEY, &Telemetry::off(), || Ok(stub_curve(CROWD_KEY)))
            .expect("a later calibration succeeds");
        assert_eq!(curve.key(), CROWD_KEY);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_panicked_calibration_releases_every_waiter_with_a_typed_error() {
        let store = Arc::new(SurrogateStore::new());
        let (outcomes, runs) = crowd(&store, || panic!("calibration panicked on purpose"));
        // The caller that ran the calibration panicked; every other one
        // got the typed error instead of waiting forever.
        assert_eq!(runs, 1);
        assert_eq!(outcomes.iter().filter(|o| o.is_none()).count(), 1);
        for outcome in outcomes.iter().flatten() {
            assert!(
                matches!(
                    outcome,
                    Err(SurrogateError::CalibrationPanicked { key: CROWD_KEY })
                ),
                "{outcome:?}"
            );
        }
        let curve = store
            .get_or_calibrate(CROWD_KEY, &Telemetry::off(), || Ok(stub_curve(CROWD_KEY)))
            .expect("the panicked flight is retired");
        assert_eq!(curve.key(), CROWD_KEY);
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
