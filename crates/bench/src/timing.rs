//! Wall-clock timing shared by the probes.
//!
//! Every repeated workload a probe times goes through one of two
//! estimators:
//!
//! * [`best_of`] answers "how fast can this run?" — the minimum over
//!   repeated runs, for the ungated reports (`probe_adaptive`,
//!   `probe_sparse`).
//! * [`paired_overhead`] answers "how much slower is the measured side
//!   than its baseline?" — the estimator behind every wall-clock gate
//!   (`probe_health`, `probe_observe`) and behind `probe_observe`'s
//!   ungated telemetry-dispatch row.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What [`paired_overhead`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedTiming {
    /// Fastest timed baseline block, in seconds.
    pub base_best_s: f64,
    /// Fastest timed measured-side block, in seconds.
    pub test_best_s: f64,
    /// Median over the reps of each rep's `(test - base) / base`, in
    /// percent. The wall-clock gates hold this against their bounds.
    pub overhead_pct: f64,
}

/// Runs `run` `reps` times and returns the fastest wall clock in
/// seconds together with the last run's output.
///
/// # Errors
///
/// Returns the first error `run` returns.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn best_of<T, E>(reps: usize, mut run: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    assert!(reps > 0, "best_of needs at least one rep");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = run()?;
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((best, last.expect("reps > 0")))
}

/// Times `test` against `base`, one block of work per call.
///
/// Each side first runs one untimed warm-up block. Then each of `reps`
/// reps clocks one block per side, with the in-pair order alternating
/// (base first on even reps, test first on odd ones), so machine-load
/// drift and second-position effects (cache warmth, turbo decay)
/// cannot systematically charge one side. The gated overhead is the
/// median of the per-rep paired ratios: a load burst lands on one
/// rep's ratio and is discarded, where a best-of comparison would let
/// it decide the verdict.
///
/// # Errors
///
/// Returns the first error either block returns.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn paired_overhead<E>(
    reps: usize,
    mut base: impl FnMut() -> Result<(), E>,
    mut test: impl FnMut() -> Result<(), E>,
) -> Result<PairedTiming, E> {
    assert!(reps > 0, "paired_overhead needs at least one rep");
    base()?;
    test()?;
    let mut pairs = Vec::with_capacity(reps);
    for rep in 0..reps {
        pairs.push(if rep % 2 == 0 {
            let t_base = clock(&mut base)?;
            (t_base, clock(&mut test)?)
        } else {
            let t_test = clock(&mut test)?;
            (clock(&mut base)?, t_test)
        });
    }
    let fastest =
        |side: fn(&(f64, f64)) -> f64| pairs.iter().map(side).fold(f64::INFINITY, f64::min);
    Ok(PairedTiming {
        base_best_s: fastest(|p| p.0),
        test_best_s: fastest(|p| p.1),
        overhead_pct: median_overhead_pct(&pairs),
    })
}

fn clock<E>(block: &mut impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let start = Instant::now();
    block()?;
    Ok(start.elapsed().as_secs_f64())
}

/// Median over `(base, test)` pairs of `(test - base) / base`, in
/// percent; an even count averages the two middle ratios.
fn median_overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|&(base, test)| (test - base) / base * 100.0)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A `(base, test)` pair whose paired overhead is `pct` percent.
    fn pair(pct: f64) -> (f64, f64) {
        (2.0, 2.0 * (1.0 + pct / 100.0))
    }

    #[test]
    fn median_ignores_one_outlier_rep() {
        let odd = [pair(3.0), pair(1.0), pair(400.0), pair(2.0), pair(-1.0)];
        assert!((median_overhead_pct(&odd) - 2.0).abs() < 1e-9);
        let even = [pair(1.0), pair(900.0), pair(4.0), pair(2.0)];
        assert!((median_overhead_pct(&even) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_up_comes_first_then_the_pair_order_alternates() {
        let calls = RefCell::new(Vec::new());
        let timing = paired_overhead(
            4,
            || {
                calls.borrow_mut().push("base");
                Ok::<(), ()>(())
            },
            || {
                calls.borrow_mut().push("test");
                Ok(())
            },
        )
        .expect("infallible blocks");
        assert_eq!(
            calls.into_inner(),
            [
                "base", "test", // untimed warm-up
                "base", "test", "test", "base", "base", "test", "test", "base",
            ]
        );
        assert!(timing.base_best_s >= 0.0 && timing.test_best_s >= 0.0);
    }

    #[test]
    fn a_failing_block_stops_the_timing() {
        let mut runs = 0;
        let result = paired_overhead(
            3,
            || Ok(()),
            || {
                runs += 1;
                if runs == 2 {
                    Err("second test block failed")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result, Err("second test block failed"));
        assert_eq!(runs, 2);
    }

    #[test]
    fn best_of_returns_the_last_output() {
        let mut n = 0;
        let (best, last) = best_of(3, || {
            n += 1;
            Ok::<_, ()>(n)
        })
        .expect("infallible run");
        assert_eq!(last, 3);
        assert!(best >= 0.0);
    }
}
