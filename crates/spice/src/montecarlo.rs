//! Monte-Carlo driver: runs a seeded closure many times, optionally in
//! parallel across OS threads.
//!
//! The paper's Fig. 9 runs 100 samples of the 2T-1FeFET array with
//! `σ_VT = 54 mV`; this driver provides the deterministic seeding and
//! fan-out for that experiment (and any other statistical sweep).

use ferrocim_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic Monte-Carlo experiment runner.
///
/// Each run `i` receives its own RNG derived from `(seed, i)` by
/// SplitMix64 scrambling, so results are reproducible regardless of
/// thread scheduling and independent of how many runs execute.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    runs: usize,
    seed: u64,
    parallel: bool,
    telemetry: Telemetry,
}

impl MonteCarlo {
    /// Creates a runner for `runs` samples from a base seed.
    pub fn new(runs: usize, seed: u64) -> Self {
        MonteCarlo {
            runs,
            seed,
            parallel: true,
            telemetry: Telemetry::off(),
        }
    }

    /// Disables thread fan-out (useful when the closure is not `Sync`
    /// friendly or for debugging).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Attaches a telemetry handle: every sample emits
    /// [`Event::McRunStarted`] when it begins and [`Event::McRunDone`]
    /// when it finishes (with `ok: false` for typed failures; a panicked
    /// run emits no `McRunDone`, so started minus done counts panics).
    /// The default handle is off.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The per-run RNG for run index `i` (exposed so callers can
    /// reproduce a single interesting run in isolation).
    pub fn rng_for(&self, run: usize) -> StdRng {
        StdRng::seed_from_u64(splitmix64(
            self.seed ^ (run as u64).wrapping_mul(0x9E3779B97F4A7C15),
        ))
    }

    /// Executes `f(run_index, rng)` for every run and collects the
    /// results in run order. `f` may fail with a typed error or panic,
    /// and the batch outcome is governed by `policy` (see
    /// [`FailurePolicy`]). Because every run derives its RNG from
    /// `(seed, run)` alone, results do not depend on thread scheduling,
    /// and failures never perturb other runs' draws.
    ///
    /// # Errors
    ///
    /// See [`try_fan_out`].
    pub fn try_run<T, E, F>(
        &self,
        policy: &FailurePolicy<T>,
        f: F,
    ) -> Result<FanOutReport<T, E>, FanOutError<E>>
    where
        T: Send + Clone,
        E: Send,
        F: Fn(usize, &mut StdRng) -> Result<T, E> + Sync,
    {
        try_fan_out(
            self.runs,
            self.parallel,
            policy,
            || (),
            |(), run| {
                self.telemetry
                    .emit(|| Event::McRunStarted { run: run as u64 });
                let out = f(run, &mut self.rng_for(run));
                let ok = out.is_ok();
                self.telemetry.emit(|| Event::McRunDone {
                    run: run as u64,
                    ok,
                });
                out
            },
        )
    }
}

/// How a fault-tolerant fan-out treats failed jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum FailurePolicy<T> {
    /// The first failure (in job order) aborts the whole batch.
    FailFast,
    /// Failed jobs keep their per-job error in the report; the batch
    /// only fails once more than `max_failures` jobs have failed.
    SkipAndReport {
        /// Largest tolerated number of failed jobs.
        max_failures: usize,
    },
    /// Failed jobs are replaced by a clone of the fallback value and
    /// counted in [`FanOutReport::failures`]; the batch never fails.
    Substitute(T),
}

/// Why a single job of a fault-tolerant fan-out failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError<E> {
    /// The job returned a typed error.
    Failed(E),
    /// The job panicked; the payload is rendered to a string so the
    /// batch stays `Send` and comparable.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Failed(e) => write!(f, "job failed: {e}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

/// A batch-level failure of [`try_fan_out`] under a [`FailurePolicy`].
#[derive(Debug, Clone, PartialEq)]
pub enum FanOutError<E> {
    /// `FailFast`: the first failed job, in job order.
    Job {
        /// Index of the failed job.
        index: usize,
        /// What went wrong.
        error: JobError<E>,
    },
    /// `SkipAndReport`: more jobs failed than the policy tolerates.
    TooManyFailures {
        /// Number of failed jobs.
        failed: usize,
        /// The policy's failure budget.
        max_failures: usize,
        /// The first failure, for diagnosis.
        first: Box<JobError<E>>,
    },
}

impl<E: fmt::Display> fmt::Display for FanOutError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FanOutError::Job { index, error } => write!(f, "job {index}: {error}"),
            FanOutError::TooManyFailures {
                failed,
                max_failures,
                first,
            } => write!(
                f,
                "{failed} jobs failed (budget {max_failures}); first: {first}"
            ),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for FanOutError<E> {}

/// The outcome of a fault-tolerant fan-out that was allowed to finish.
#[derive(Debug, Clone, PartialEq)]
pub struct FanOutReport<T, E> {
    /// Per-job results, in job order. Under
    /// [`FailurePolicy::Substitute`] every entry is `Ok` (failures were
    /// replaced by the fallback); under
    /// [`FailurePolicy::SkipAndReport`] failed jobs keep their error.
    pub results: Vec<Result<T, JobError<E>>>,
    /// Number of jobs that failed (including substituted ones).
    pub failures: usize,
}

impl<T, E> FanOutReport<T, E> {
    /// The successful values, in job order (skipping failed jobs).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// True when every job succeeded.
    pub fn is_clean(&self) -> bool {
        self.failures == 0
    }
}

/// Renders a panic payload (as produced by `catch_unwind`) to a string.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolating core of [`try_fan_out`]: every job runs under
/// `catch_unwind`, and a panicked job yields its payload instead of
/// poisoning the batch. A worker whose scratch state witnessed a panic rebuilds it
/// with `init` before the next job, since `f` may have been interrupted
/// mid-mutation.
fn fan_out_raw<S, T, I, F>(
    jobs: usize,
    parallel: bool,
    init: &I,
    f: &F,
) -> Vec<Result<T, Box<dyn Any + Send>>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let run_job = |state: &mut S, i: usize| -> Result<T, Box<dyn Any + Send>> {
        let result = catch_unwind(AssertUnwindSafe(|| f(state, i)));
        if result.is_err() {
            *state = init();
        }
        result
    };
    if !parallel || jobs < 2 {
        let mut state = init();
        return (0..jobs).map(|i| run_job(&mut state, i)).collect();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs);
    let mut results: Vec<Option<Result<T, Box<dyn Any + Send>>>> =
        (0..jobs).map(|_| None).collect();
    let chunk = jobs.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in results.chunks_mut(chunk).enumerate() {
            let run_job = &run_job;
            let init = &init;
            scope.spawn(move || {
                let mut state = init();
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(run_job(&mut state, t * chunk + j));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(Box::new("fan-out job slot never filled".to_string()) as Box<dyn Any + Send>)
            })
        })
        .collect()
}

/// Runs `jobs` independent fallible jobs, fanned out over OS threads
/// when `parallel`, and collects the results in job order, with the
/// batch outcome governed by a [`FailurePolicy`]. A job that returns
/// `Err` or panics becomes a [`JobError`] in the per-job results; the
/// other jobs are unaffected (each worker rebuilds its scratch state
/// after a panic).
///
/// Each worker thread builds one scratch state with `init` and hands it
/// to `f` for every job in its chunk, so per-job allocations (solver
/// workspaces, cloned circuits) are paid once per thread rather than
/// once per job. This is the machinery behind [`MonteCarlo::try_run`],
/// the CIM batch engines, and the NN accuracy sweep and gradient
/// batches.
///
/// Results depend only on the job index, never on the thread layout:
/// `f` must not leak state between jobs through `S` if callers compare
/// against a sequential reference bit for bit.
///
/// # Errors
///
/// * [`FanOutError::Job`] under [`FailurePolicy::FailFast`] when any
///   job failed — carrying the first failure in job order.
/// * [`FanOutError::TooManyFailures`] under
///   [`FailurePolicy::SkipAndReport`] when more than `max_failures`
///   jobs failed.
///
/// [`FailurePolicy::Substitute`] never fails the batch.
pub fn try_fan_out<S, T, E, I, F>(
    jobs: usize,
    parallel: bool,
    policy: &FailurePolicy<T>,
    init: I,
    f: F,
) -> Result<FanOutReport<T, E>, FanOutError<E>>
where
    T: Send + Clone,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    let raw = fan_out_raw(jobs, parallel, &init, &f);
    let mut results: Vec<Result<T, JobError<E>>> = Vec::with_capacity(raw.len());
    let mut failures = 0usize;
    for slot in raw {
        let item = match slot {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(JobError::Failed(e)),
            Err(payload) => Err(JobError::Panicked {
                message: panic_message(payload.as_ref()),
            }),
        };
        if item.is_err() {
            failures += 1;
        }
        results.push(item);
    }
    apply_policy(results, failures, policy)
}

/// Folds per-job results and a failure count into the policy-governed
/// batch outcome. Shared by [`try_fan_out`] and higher-level batch
/// engines that count failures at their own job granularity (e.g. a
/// matrix-vector batch whose "job" spans several row solves).
pub fn apply_policy<T, E>(
    mut results: Vec<Result<T, JobError<E>>>,
    failures: usize,
    policy: &FailurePolicy<T>,
) -> Result<FanOutReport<T, E>, FanOutError<E>>
where
    T: Clone,
{
    match policy {
        FailurePolicy::FailFast if failures > 0 => {
            for (index, slot) in results.into_iter().enumerate() {
                if let Err(error) = slot {
                    return Err(FanOutError::Job { index, error });
                }
            }
            unreachable!("failures > 0 implies an Err slot")
        }
        FailurePolicy::SkipAndReport { max_failures } if failures > *max_failures => {
            for slot in results {
                if let Err(error) = slot {
                    return Err(FanOutError::TooManyFailures {
                        failed: failures,
                        max_failures: *max_failures,
                        first: Box::new(error),
                    });
                }
            }
            unreachable!("failures > max_failures implies an Err slot")
        }
        FailurePolicy::Substitute(fallback) => {
            for slot in results.iter_mut() {
                if slot.is_err() {
                    *slot = Ok(fallback.clone());
                }
            }
            Ok(FanOutReport { results, failures })
        }
        _ => Ok(FanOutReport { results, failures }),
    }
}

/// SplitMix64 scrambler for decorrelating per-run seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Summary statistics over a sample of scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SampleStats {
    /// Computes statistics over the given samples. Returns `None` for an
    /// empty sample.
    pub fn of(samples: &[f64]) -> Option<SampleStats> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(SampleStats {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Builds a histogram of the samples over `bins` equal-width bins
/// between `lo` and `hi`; out-of-range samples are clamped into the end
/// bins. Returns the per-bin counts.
pub fn histogram(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &s in samples {
        let idx = (((s - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::convert::Infallible;

    /// Every run's value under `FailFast`, for closures that cannot fail.
    fn run_all<T: Send + Clone>(
        mc: &MonteCarlo,
        f: impl Fn(usize, &mut StdRng) -> T + Sync,
    ) -> Vec<T> {
        mc.try_run(&FailurePolicy::FailFast, |run, rng| {
            Ok::<_, Infallible>(f(run, rng))
        })
        .expect("infallible jobs")
        .values()
        .cloned()
        .collect()
    }

    #[test]
    fn results_are_in_run_order_and_reproducible() {
        let mc = MonteCarlo::new(32, 7);
        let a: Vec<u64> = run_all(&mc, |i, rng| (i as u64) << 32 | rng.random::<u32>() as u64);
        let b: Vec<u64> = run_all(&mc, |i, rng| (i as u64) << 32 | rng.random::<u32>() as u64);
        assert_eq!(a, b);
        for (i, v) in a.iter().enumerate() {
            assert_eq!(v >> 32, i as u64);
        }
    }

    #[test]
    fn sequential_matches_parallel() {
        let par = MonteCarlo::new(17, 99);
        let seq = par.clone().sequential();
        let f = |i: usize, rng: &mut StdRng| (i, rng.random::<u64>());
        assert_eq!(run_all(&par, f), run_all(&seq, f));
    }

    #[test]
    fn fewer_runs_than_threads_matches_sequential() {
        // The chunked fan-out must fill every slot even when the run
        // count is below the thread count (including the empty batch).
        let f = |i: usize, rng: &mut StdRng| (i as u64) ^ rng.random::<u64>();
        for runs in 0..4 {
            let par = run_all(&MonteCarlo::new(runs, 3), f);
            let seq = run_all(&MonteCarlo::new(runs, 3).sequential(), f);
            assert_eq!(par, seq, "diverged at {runs} runs");
            assert_eq!(par.len(), runs);
        }
    }

    #[test]
    fn fan_out_keeps_job_order_and_thread_state() {
        // Per-thread scratch state must never change the results, only
        // amortize allocations; job order must be preserved.
        let squares = |parallel| {
            try_fan_out(
                37,
                parallel,
                &FailurePolicy::FailFast,
                Vec::<usize>::new,
                |scratch, i| {
                    scratch.push(i);
                    Ok::<_, Infallible>(i * i)
                },
            )
            .expect("infallible jobs")
            .results
        };
        let par = squares(true);
        assert_eq!(par, squares(false));
        assert_eq!(par[5], Ok(25));
    }

    #[test]
    fn per_run_rngs_are_decorrelated() {
        let mc = MonteCarlo::new(100, 5);
        let firsts: Vec<u64> = run_all(&mc, |_, rng| rng.random());
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), firsts.len(), "duplicate rng streams detected");
    }

    #[test]
    fn stats_of_known_sample() {
        let stats = SampleStats::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(stats.n, 4);
        assert!((stats.mean - 2.5).abs() < 1e-12);
        assert!((stats.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 4.0);
        assert!(SampleStats::of(&[]).is_none());
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = histogram(&[0.1, 0.1, 0.5, 0.9, -3.0, 7.0], 0.0, 1.0, 10);
        assert_eq!(h.iter().sum::<usize>(), 6);
        assert_eq!(h[1], 2); // the two 0.1 samples
        assert_eq!(h[0], 1); // clamped -3.0
        assert_eq!(h[9], 2); // 0.9 and clamped 7.0
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }
}
