//! Property-based pinning of the surrogate's certified error bound.
//!
//! The contract under test: for ANY programmed weight vector, fault
//! plan, input pattern, and in-domain temperature, the surrogate's
//! `v_acc` deviates from the live analytic solve by less than the
//! stored certified envelope — and for any out-of-domain temperature
//! the surrogate refuses with a typed error instead of extrapolating.
//! A seeded mix on the paper-default row also pins the point of the
//! store: cache hits are far faster than the live solves they replace.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{ArrayConfig, CellFault, CimArray, MacPath, MacRequest};
use ferrocim_surrogate::{MacSurrogate, SurrogateError};
use ferrocim_units::{Celsius, Second};
use proptest::prelude::*;

const CELLS: usize = 4;
const T_LO: f64 = 0.0;
const T_HI: f64 = 85.0;

fn array_with(faults: &[Option<CellFault>]) -> CimArray<TwoTransistorOneFefet> {
    let config = ArrayConfig {
        cells_per_row: CELLS,
        dt: Second(100e-12),
        ..ArrayConfig::paper_default()
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config)
        .expect("valid config")
        .with_faults(faults)
        .expect("valid faults")
}

fn fault_strategy() -> impl Strategy<Value = Option<CellFault>> {
    // Healthy cells dominate (5 of 10 slots) so most sampled rows mix
    // working and broken columns rather than being all-fault.
    prop::sample::select(vec![
        None,
        None,
        None,
        None,
        None,
        Some(CellFault::StuckAtLvt),
        Some(CellFault::StuckAtHvt),
        Some(CellFault::DeadWordline),
        Some(CellFault::OpenDevice),
        Some(CellFault::ShortDevice),
    ])
}

proptest! {
    // Each case runs a full calibration (dozens of small analytic
    // solves), so the case count is modest — like the batch property
    // tests in ferrocim-cim.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// In-domain surrogate answers stay inside the certified envelope
    /// against the live solver, for arbitrary weights, faults, inputs,
    /// and temperatures.
    #[test]
    fn in_domain_deviation_stays_below_the_certified_envelope(
        weights in prop::collection::vec(any::<bool>(), CELLS),
        faults in prop::collection::vec(fault_strategy(), CELLS),
        inputs in prop::collection::vec(prop::collection::vec(any::<bool>(), CELLS), 1..4),
        temps in prop::collection::vec(T_LO..T_HI, 1..4),
    ) {
        let array = array_with(&faults);
        let surrogate = MacSurrogate::new(array, &[Celsius(T_LO), Celsius(27.0), Celsius(T_HI)])
            .expect("valid grid");
        for (x, &t) in inputs.iter().zip(temps.iter().cycle()) {
            let answer = surrogate
                .evaluate(&weights, x, Celsius(t))
                .expect("in-domain query");
            let live = surrogate
                .array()
                .run(
                    &MacRequest::new(x)
                        .weights(&weights)
                        .at(Celsius(t))
                        .path(MacPath::Analytic),
                )
                .expect("live solve");
            let dev = (answer.v_acc.value() - live.v_acc.value()).abs();
            prop_assert!(
                dev < answer.envelope.max_v,
                "deviation {dev} >= certified envelope {} \
                 (weights {weights:?}, faults {faults:?}, inputs {x:?}, t {t})",
                answer.envelope.max_v
            );
            // The envelope itself must be a positive, finite bound.
            prop_assert!(answer.envelope.max_v.is_finite() && answer.envelope.max_v > 0.0);
            prop_assert!(answer.envelope.observed_max_v <= answer.envelope.max_v);
        }
        // Repeating any query is a pure curve hit with an identical answer.
        let again = surrogate
            .evaluate(&weights, &inputs[0], Celsius(temps[0]))
            .expect("in-domain query");
        let first = surrogate
            .evaluate(&weights, &inputs[0], Celsius(temps[0]))
            .expect("in-domain query");
        prop_assert_eq!(again.v_acc, first.v_acc);
    }

    /// Out-of-domain temperatures always return the typed
    /// `OutOfDomain` error — the surrogate never extrapolates.
    #[test]
    fn out_of_domain_queries_are_refused_not_extrapolated(
        weights in prop::collection::vec(any::<bool>(), CELLS),
        inputs in prop::collection::vec(any::<bool>(), CELLS),
        above in 1e-3f64..500.0,
        below in 1e-3f64..500.0,
    ) {
        let surrogate = MacSurrogate::new(
            array_with(&[None; CELLS]),
            &[Celsius(T_LO), Celsius(T_HI)],
        )
        .expect("valid grid");
        for t in [T_HI + above, T_LO - below] {
            match surrogate.evaluate(&weights, &inputs, Celsius(t)) {
                Err(SurrogateError::OutOfDomain { temp_c, lo_c, hi_c }) => {
                    prop_assert_eq!(temp_c, t);
                    prop_assert_eq!((lo_c, hi_c), (T_LO, T_HI));
                }
                other => prop_assert!(false, "expected OutOfDomain at {t} °C, got {other:?}"),
            }
        }
    }
}

/// The paper-default 8-cell array over the 0/27/85 °C grid must answer
/// a seeded in-domain query mix at least [`MIN_SPEEDUP`]× faster from
/// cached curves than through live analytic solves, never deviate
/// beyond its certified envelope (itself at most [`MAX_ENVELOPE_V`]),
/// and survive a one-in-four check-mode audit with at most
/// [`MAX_CHECK_FAILURES`] violations.
#[test]
fn cache_hits_beat_live_solves_inside_the_certified_envelope() {
    use ferrocim_surrogate::CheckPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    const MIN_SPEEDUP: f64 = 50.0;
    const MAX_ENVELOPE_V: f64 = 0.02;
    const MAX_CHECK_FAILURES: u64 = 0;
    const QUERIES: usize = 128;
    const QUERY_TEMPS_C: [f64; 6] = [0.0, 13.5, 27.0, 40.0, 56.0, 85.0];

    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .expect("paper-default array");
    let n = array.config().cells_per_row;
    let grid = [Celsius(T_LO), Celsius(27.0), Celsius(T_HI)];
    let surrogate = MacSurrogate::new(array.clone(), &grid).expect("valid grid");
    // A mixed weight pattern, so the curve is not the all-ones case.
    let weights: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let envelope = surrogate.curve_for(&weights).expect("calibrate").envelope();
    assert!(
        envelope.max_v.is_finite() && envelope.max_v > 0.0,
        "certified envelope {} is not usable",
        envelope.max_v
    );
    assert!(
        envelope.max_v <= MAX_ENVELOPE_V,
        "certified envelope {:.3} mV exceeds {:.3} mV",
        envelope.max_v * 1e3,
        MAX_ENVELOPE_V * 1e3
    );

    let mut rng = StdRng::seed_from_u64(0x05E5_EF17);
    let mix: Vec<(Vec<bool>, Celsius)> = (0..QUERIES)
        .map(|_| {
            let inputs: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
            let temp = Celsius(QUERY_TEMPS_C[rng.random_range(0..QUERY_TEMPS_C.len())]);
            (inputs, temp)
        })
        .collect();

    let started = Instant::now();
    let fast: Vec<_> = mix
        .iter()
        .map(|(x, t)| {
            surrogate
                .evaluate(&weights, x, *t)
                .expect("in-domain query")
        })
        .collect();
    let surrogate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let live: Vec<_> = mix
        .iter()
        .map(|(x, t)| {
            array
                .run(
                    &MacRequest::new(x)
                        .weights(&weights)
                        .at(*t)
                        .path(MacPath::Analytic),
                )
                .expect("live solve")
        })
        .collect();
    let live_s = started.elapsed().as_secs_f64();
    let speedup = live_s / surrogate_s;
    assert!(
        speedup >= MIN_SPEEDUP,
        "speedup {speedup:.1}x below the {MIN_SPEEDUP}x bound"
    );
    let worst_v = fast
        .iter()
        .zip(&live)
        .map(|(f, l)| (f.v_acc.value() - l.v_acc.value()).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst_v <= envelope.max_v,
        "observed deviation {:.3} mV escaped the certified {:.3} mV envelope",
        worst_v * 1e3,
        envelope.max_v * 1e3
    );

    // A fresh store, so check-mode solves never touch the timing above.
    let checker = MacSurrogate::new(array, &grid)
        .expect("valid grid")
        .with_check(CheckPolicy::every(4));
    for (x, t) in &mix {
        checker.evaluate(&weights, x, *t).expect("in-domain query");
    }
    let counts = checker.counts();
    assert!(counts.checks > 0, "check mode never sampled a query");
    assert_eq!(
        counts.check_failures, MAX_CHECK_FAILURES,
        "check-mode envelope violation(s)"
    );
}

/// Calibration solves each distinct cell state once per temperature.
/// One mixed-weight key on the paper-default row over 0/27/85 °C has
/// four cell states (weight × input) at five temperatures (three grid
/// points, two probe midpoints). The ADC thresholds' level tables need
/// the weight-'1' states at the grid points, which the fit already
/// solved, so they add no transient: 20 fixed-step cell transients for
/// the 53 MAC evaluations the curve reports.
#[test]
fn calibration_runs_one_cell_transient_per_state_and_temperature() {
    use ferrocim_telemetry::{Aggregator, Telemetry};
    use std::sync::Arc;

    const CELL_STATES: u64 = 4;
    const TEMPERATURES: u64 = 5;
    const LEVEL_TRANSIENTS: u64 = 0;
    const MAC_EVALUATIONS: usize = 53;

    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .expect("paper-default array");
    let n = array.config().cells_per_row;
    // Steps one cell transient accepts: `level_voltages` runs two.
    let probe = Arc::new(Aggregator::new());
    array
        .clone()
        .with_recorder(Telemetry::new(probe.clone()))
        .level_voltages(Celsius(27.0))
        .expect("level voltages");
    let per_transient = probe.counts().steps_accepted / 2;
    assert!(per_transient > 0);
    assert_eq!(probe.counts().steps_accepted, 2 * per_transient);

    let agg = Arc::new(Aggregator::new());
    let surrogate = MacSurrogate::new(
        array.with_recorder(Telemetry::new(agg.clone())),
        &[Celsius(T_LO), Celsius(27.0), Celsius(T_HI)],
    )
    .expect("valid grid");
    let weights: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let curve = surrogate.curve_for(&weights).expect("calibrate");
    assert_eq!(curve.solves(), MAC_EVALUATIONS);
    let counts = agg.counts();
    assert_eq!(counts.steps_rejected, 0);
    assert_eq!(
        counts.steps_accepted,
        (CELL_STATES * TEMPERATURES + LEVEL_TRANSIENTS) * per_transient,
        "calibration accepted {} steps, {per_transient} per cell transient",
        counts.steps_accepted
    );
}

/// Sixteen concurrent first lookups of one key run one calibration:
/// one miss, one calibration's solver work, and one shared curve.
#[test]
fn concurrent_misses_on_one_key_run_one_calibration() {
    use ferrocim_telemetry::{Aggregator, Telemetry};
    use std::sync::{Arc, Barrier};

    const CALLERS: usize = 16;
    /// 20 cell transients of 250 fixed steps (5 ns at 20 ps).
    const ONE_CALIBRATION_STEPS: u64 = 5000;

    let agg = Arc::new(Aggregator::new());
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .expect("paper-default array")
    .with_recorder(Telemetry::new(agg.clone()));
    let n = array.config().cells_per_row;
    let surrogate = MacSurrogate::new(array, &[Celsius(T_LO), Celsius(27.0), Celsius(T_HI)])
        .expect("valid grid");
    let weights: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let barrier = Barrier::new(CALLERS);
    let curves: Vec<_> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    surrogate.curve_for(&weights).expect("calibrate")
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("caller panicked"))
            .collect()
    });
    let counts = surrogate.counts();
    assert_eq!(counts.misses, 1, "{counts:?}");
    assert_eq!(counts.hits, CALLERS as u64 - 1, "{counts:?}");
    assert_eq!(agg.counts().steps_accepted, ONE_CALIBRATION_STEPS);
    assert_eq!(agg.counts().surrogate_misses, 1);
    assert!(curves.iter().all(|c| Arc::ptr_eq(c, &curves[0])));
}
