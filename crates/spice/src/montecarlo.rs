//! Monte-Carlo driver: runs a seeded closure many times, optionally in
//! parallel across OS threads.
//!
//! The paper's Fig. 9 runs 100 samples of the 2T-1FeFET array with
//! `σ_VT = 54 mV`; this driver provides the deterministic seeding and
//! fan-out for that experiment (and any other statistical sweep).

use crate::{Budget, SpiceError};
use ferrocim_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{de, Deserialize, Serialize, Value};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

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

/// Equality is the sweep identity (runs, seed, fan-out mode); the
/// attached telemetry handle is an observer, not part of the identity.
impl PartialEq for MonteCarlo {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs && self.seed == other.seed && self.parallel == other.parallel
    }
}

impl Eq for MonteCarlo {}

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
    /// when it finishes (with `ok: false` for typed failures under
    /// [`MonteCarlo::try_run`]; a panicked run emits no `McRunDone`, so
    /// started minus done counts panics). The default handle is off.
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

    /// One sample: `f(run, rng)` on the run's own RNG, bracketed by
    /// [`Event::McRunStarted`] and an [`Event::McRunDone`] whose `ok`
    /// flag is `is_ok(&out)`. The body every runner fans out.
    fn sample<T, F>(&self, run: usize, f: &F, is_ok: fn(&T) -> bool) -> T
    where
        F: Fn(usize, &mut StdRng) -> T,
    {
        self.telemetry
            .emit(|| Event::McRunStarted { run: run as u64 });
        let out = f(run, &mut self.rng_for(run));
        let ok = is_ok(&out);
        self.telemetry.emit(|| Event::McRunDone {
            run: run as u64,
            ok,
        });
        out
    }

    /// Executes `f(run_index, rng)` for every run and collects the
    /// results in run order.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        fan_out(
            self.runs,
            self.parallel,
            || (),
            |(), run| self.sample(run, &f, |_| true),
        )
    }

    /// Fault-tolerant variant of [`MonteCarlo::run`]: `f` may fail with
    /// a typed error or panic, and the batch outcome is governed by
    /// `policy` (see [`FailurePolicy`]). Because every run derives its
    /// RNG from `(seed, run)` alone, the results of *successful* runs
    /// are bitwise identical to what [`MonteCarlo::run`] would have
    /// produced — failures never perturb other runs' draws.
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
            |(), run| self.sample(run, &f, Result::is_ok),
        )
    }

    /// Checkpointable, resumable variant of [`MonteCarlo::run`].
    ///
    /// Samples run in chunks of `checkpoint_every`; after each chunk
    /// the completed-sample state (seed, run count, per-run results) is
    /// atomically rewritten to `path`. If the file already exists the
    /// sweep **resumes**: finished samples are skipped and only pending
    /// runs execute. Because every run derives its RNG from
    /// `(seed, run)` alone, a killed-and-resumed sweep returns results
    /// bitwise identical to an uninterrupted one.
    ///
    /// The `budget` is consulted at every chunk boundary (one step
    /// charged per sample, up front per chunk). On exhaustion or
    /// cancellation the current state is saved and the sweep fails with
    /// [`McError::Interrupted`] carrying the partial results — rerun
    /// with the same arguments to continue where it stopped.
    ///
    /// The checkpoint file is left in place after a successful sweep
    /// (rerunning is then a pure replay from disk); delete it to start
    /// fresh.
    ///
    /// # Errors
    ///
    /// * [`McError::Io`] / [`McError::CorruptCheckpoint`] for
    ///   filesystem or parse failures on the checkpoint file (a
    ///   truncated or garbage file is reported with the path and the
    ///   offending content, never as a raw serde error).
    /// * [`McError::Mismatch`] when the checkpoint belongs to a sweep
    ///   with a different seed or run count.
    /// * [`McError::Interrupted`] when the budget ran out.
    pub fn run_resumable<T, F>(
        &self,
        path: impl AsRef<Path>,
        checkpoint_every: usize,
        budget: &Budget,
        f: F,
    ) -> Result<Vec<T>, McError<T>>
    where
        T: Send + Clone + Serialize + Deserialize,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        let path = path.as_ref();
        let mut ckpt = if path.exists() {
            let ckpt = McCheckpoint::resume_from(path)?;
            ckpt.matches(self)?;
            ckpt
        } else {
            McCheckpoint::empty(self)
        };
        let every = checkpoint_every.max(1);
        loop {
            let pending: Vec<usize> = ckpt.pending().take(every).collect();
            if pending.is_empty() {
                break;
            }
            if let Err(reason) = budget
                .check()
                .and_then(|()| budget.charge_steps(pending.len() as u64))
            {
                ckpt.save(path)?;
                return Err(McError::Interrupted {
                    reason,
                    partial: ckpt.partial(),
                });
            }
            let chunk = fan_out(
                pending.len(),
                self.parallel,
                || (),
                |(), k| self.sample(pending[k], &f, |_| true),
            );
            for (k, value) in chunk.into_iter().enumerate() {
                ckpt.completed[pending[k]] = Some(value);
            }
            ckpt.save(path)?;
        }
        let total = ckpt.runs;
        let results: Vec<T> = ckpt.completed.into_iter().flatten().collect();
        if results.len() != total {
            return Err(McError::CorruptCheckpoint {
                path: path.to_path_buf(),
                detail: "checkpoint is missing completed samples".to_string(),
            });
        }
        Ok(results)
    }
}

const CHECKPOINT_FORMAT: &str = "ferrocim-mc-checkpoint-v1";

/// First-line envelope prefix of a checkpoint file. The header carries
/// an FNV-1a checksum of the JSON payload that follows, so *any*
/// flipped or truncated byte — including one that would still parse as
/// valid JSON with different numbers — is detected at resume instead of
/// silently corrupting resumed results.
const CHECKPOINT_HEADER: &str = "ferrocim-mc-checkpoint fnv1a:";

/// FNV-1a 64-bit over raw bytes; tiny, dependency-free, and good enough
/// to catch every single-byte corruption (this is an integrity check
/// against accidents, not an authenticity check against attackers).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A persisted snapshot of a partially completed Monte-Carlo sweep: the
/// sweep identity (seed, run count) plus every finished sample.
///
/// Produced and consumed by [`MonteCarlo::run_resumable`]; exposed so
/// tooling can inspect a checkpoint (progress reporting, salvage of a
/// dead sweep's partial results).
#[derive(Debug, Clone, PartialEq)]
pub struct McCheckpoint<T> {
    seed: u64,
    runs: usize,
    completed: Vec<Option<T>>,
}

impl<T> McCheckpoint<T> {
    fn empty(mc: &MonteCarlo) -> McCheckpoint<T> {
        McCheckpoint {
            seed: mc.seed,
            runs: mc.runs,
            completed: (0..mc.runs).map(|_| None).collect(),
        }
    }

    /// The base seed of the sweep this checkpoint belongs to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of runs in the sweep.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Number of samples already completed.
    pub fn completed_runs(&self) -> usize {
        self.completed.iter().filter(|s| s.is_some()).count()
    }

    /// True once every sample is present.
    pub fn is_complete(&self) -> bool {
        self.completed.iter().all(|s| s.is_some())
    }

    /// Indices of the runs still to do, ascending.
    pub fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.completed
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
    }

    /// The completed `(run, value)` pairs, in run order.
    pub fn partial(&self) -> Vec<(usize, T)>
    where
        T: Clone,
    {
        self.completed
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v.clone())))
            .collect()
    }

    /// Loads a checkpoint from disk.
    ///
    /// # Errors
    ///
    /// [`McError::Io`] if the file cannot be read,
    /// [`McError::CorruptCheckpoint`] if it does not parse as a
    /// checkpoint — covering truncated files, non-JSON garbage,
    /// well-formed JSON that is not a checkpoint, and any payload whose
    /// envelope checksum no longer matches (a flipped byte that still
    /// parses as different-but-valid JSON is caught here rather than
    /// silently resuming wrong samples). The error carries the path and
    /// enough parse context (the serde failure plus a preview of the
    /// offending content) to identify the damaged file without opening
    /// it.
    pub fn resume_from(path: impl AsRef<Path>) -> Result<McCheckpoint<T>, McError<T>>
    where
        T: Deserialize,
    {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| McError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let corrupt = |detail: String| McError::CorruptCheckpoint {
            path: path.to_path_buf(),
            detail,
        };
        // A checkpoint is pure ASCII JSON as written; a byte that breaks
        // UTF-8 is disk/transport corruption, not an I/O failure.
        let text = String::from_utf8(bytes)
            .map_err(|e| corrupt(format!("checkpoint is not valid UTF-8: {e}")))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| corrupt(corrupt_detail(&text, "missing checksum header line")))?;
        let stored = header
            .strip_prefix(CHECKPOINT_HEADER)
            .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
            .ok_or_else(|| corrupt(corrupt_detail(&text, "missing checksum header line")))?;
        let actual = fnv1a64(payload.as_bytes());
        if actual != stored {
            return Err(corrupt(format!(
                "payload checksum mismatch (stored {stored:016x}, computed {actual:016x}) — \
                 the file was modified or truncated after it was written"
            )));
        }
        serde_json::from_str(payload).map_err(|e| corrupt(corrupt_detail(payload, &e.to_string())))
    }

    /// Atomically writes the checkpoint to `path` (via a sibling
    /// temporary file and rename, so a crash mid-write never corrupts
    /// an existing checkpoint). The temporary file is fsynced before
    /// the rename — and the parent directory after it — so the rename
    /// can never be reordered ahead of the data reaching disk (the
    /// classic way an "atomic" write leaves an empty file after a
    /// power loss). The file carries a first-line FNV-1a checksum of
    /// the JSON payload, verified by [`McCheckpoint::resume_from`].
    ///
    /// # Errors
    ///
    /// [`McError::Io`] on any filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), McError<T>>
    where
        T: Serialize,
    {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| McError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let payload = serde_json::to_string_pretty(self).map_err(|e| McError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let text = format!(
            "{CHECKPOINT_HEADER}{:016x}\n{payload}",
            fnv1a64(payload.as_bytes())
        );
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
            file.write_all(text.as_bytes()).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, path).map_err(io_err)?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(parent)
                .and_then(|dir| dir.sync_all())
                .map_err(io_err)?;
        }
        Ok(())
    }

    /// Fails unless the checkpoint's identity matches the runner's.
    fn matches(&self, mc: &MonteCarlo) -> Result<(), McError<T>> {
        if self.seed != mc.seed {
            return Err(McError::Mismatch {
                field: "seed",
                expected: mc.seed,
                found: self.seed,
            });
        }
        if self.runs != mc.runs {
            return Err(McError::Mismatch {
                field: "runs",
                expected: mc.runs as u64,
                found: self.runs as u64,
            });
        }
        Ok(())
    }
}

impl<T: Serialize> Serialize for McCheckpoint<T> {
    // Hand-written (not derived): the vendored derive macro does not
    // support generic types. The seed is stored as a hex string so
    // values above 2^53 survive the f64-backed JSON number type.
    fn to_json(&self) -> Value {
        let samples = self
            .completed
            .iter()
            .enumerate()
            .filter_map(|(run, slot)| {
                slot.as_ref().map(|v| {
                    Value::Object(vec![
                        ("run".to_string(), Value::Number(run as f64)),
                        ("value".to_string(), v.to_json()),
                    ])
                })
            })
            .collect();
        Value::Object(vec![
            (
                "format".to_string(),
                Value::String(CHECKPOINT_FORMAT.to_string()),
            ),
            (
                "seed".to_string(),
                Value::String(format!("{:016x}", self.seed)),
            ),
            ("runs".to_string(), Value::Number(self.runs as f64)),
            ("samples".to_string(), Value::Array(samples)),
        ])
    }
}

impl<T: Deserialize> Deserialize for McCheckpoint<T> {
    fn from_json(v: &Value) -> Result<Self, de::Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| de::Error::msg(format!("missing `{key}`")))
        };
        match field("format")? {
            Value::String(s) if s == CHECKPOINT_FORMAT => {}
            _ => return Err(de::Error::msg("unrecognized checkpoint format")),
        }
        let seed = match field("seed")? {
            Value::String(s) => {
                u64::from_str_radix(s, 16).map_err(|e| de::Error::msg(format!("bad seed: {e}")))?
            }
            _ => return Err(de::Error::msg("seed must be a hex string")),
        };
        let runs = usize::from_json(field("runs")?)?;
        let mut completed: Vec<Option<T>> = (0..runs).map(|_| None).collect();
        let samples = match field("samples")? {
            Value::Array(a) => a,
            _ => return Err(de::Error::msg("samples must be an array")),
        };
        for s in samples {
            let run = usize::from_json(
                s.get("run")
                    .ok_or_else(|| de::Error::msg("sample missing `run`"))?,
            )?;
            if run >= runs {
                return Err(de::Error::msg(format!("sample run {run} out of range")));
            }
            let value = T::from_json(
                s.get("value")
                    .ok_or_else(|| de::Error::msg("sample missing `value`"))?,
            )?;
            completed[run] = Some(value);
        }
        Ok(McCheckpoint {
            seed,
            runs,
            completed,
        })
    }
}

/// Failures of a resumable Monte-Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum McError<T> {
    /// The checkpoint file could not be read or written.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The checkpoint file exists but is not a parseable checkpoint
    /// (truncated write, garbage content, or wrong JSON shape).
    CorruptCheckpoint {
        /// The checkpoint path involved.
        path: PathBuf,
        /// What failed to parse, with a preview of the offending
        /// content.
        detail: String,
    },
    /// The checkpoint belongs to a different sweep (seed or run count
    /// differ); refusing to mix samples from two experiments.
    Mismatch {
        /// Which identity field differed.
        field: &'static str,
        /// The runner's value.
        expected: u64,
        /// The checkpoint's value.
        found: u64,
    },
    /// The budget ran out or the sweep was cancelled. Completed
    /// samples are preserved on disk and carried here; rerunning with
    /// the same checkpoint path continues from them.
    Interrupted {
        /// The budget error that stopped the sweep.
        reason: SpiceError,
        /// The completed `(run, value)` pairs so far.
        partial: Vec<(usize, T)>,
    },
}

impl<T> fmt::Display for McError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Io { path, message } => {
                write!(f, "checkpoint I/O failed at {}: {message}", path.display())
            }
            McError::CorruptCheckpoint { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            McError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint `{field}` mismatch: sweep has {expected}, file has {found}"
            ),
            McError::Interrupted { reason, partial } => write!(
                f,
                "sweep interrupted ({reason}); {} samples completed and checkpointed",
                partial.len()
            ),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for McError<T> {}

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

/// Runs `jobs` independent jobs, fanned out over OS threads when
/// `parallel`, and collects the results in job order.
///
/// Each worker thread builds one scratch state with `init` and hands it
/// to `f` for every job in its chunk, so per-job allocations (solver
/// workspaces, cloned circuits) are paid once per thread rather than
/// once per job. This is the machinery behind [`MonteCarlo::run`];
/// batch drivers that need per-job failures (the CIM batch engines,
/// the NN accuracy sweep and gradient batches) use [`try_fan_out`].
///
/// Results depend only on the job index, never on the thread layout:
/// `f` must not leak state between jobs through `S` if callers compare
/// against a sequential reference bit for bit.
pub fn fan_out<S, T, I, F>(jobs: usize, parallel: bool, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(jobs);
    for slot in fan_out_raw(jobs, parallel, &init, &f) {
        match slot {
            Ok(v) => out.push(v),
            // Preserve the historical contract: a panicking job takes
            // the whole fan-out down with its original payload.
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Panic-isolating fan-out core: every job runs under `catch_unwind`,
/// and a panicked job yields its payload instead of poisoning the
/// batch. A worker whose scratch state witnessed a panic rebuilds it
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

/// Fault-tolerant fan-out: like [`fan_out`] for fallible jobs, with the
/// batch outcome governed by a [`FailurePolicy`]. A job that returns
/// `Err` or panics becomes a [`JobError`] in the per-job results; the
/// other jobs are unaffected (each worker rebuilds its scratch state
/// after a panic).
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

/// Builds the parse-context string for a corrupt checkpoint: the serde
/// failure plus a bounded preview of the file content (empty and
/// truncated files are called out explicitly).
fn corrupt_detail(text: &str, parse_error: &str) -> String {
    const PREVIEW: usize = 120;
    if text.trim().is_empty() {
        return format!("{parse_error} (file is empty)");
    }
    let flat: String = text
        .chars()
        .take(PREVIEW)
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    if text.chars().count() > PREVIEW {
        format!("{parse_error} (content starts {flat:?}…)")
    } else {
        format!("{parse_error} (content {flat:?})")
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
    use crate::CancelToken;
    use rand::Rng;

    #[test]
    fn results_are_in_run_order_and_reproducible() {
        let mc = MonteCarlo::new(32, 7);
        let a: Vec<u64> = mc.run(|i, rng| (i as u64) << 32 | rng.random::<u32>() as u64);
        let b: Vec<u64> = mc.run(|i, rng| (i as u64) << 32 | rng.random::<u32>() as u64);
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
        assert_eq!(par.run(f), seq.run(f));
    }

    #[test]
    fn fewer_runs_than_threads_matches_sequential() {
        // The chunked fan-out must fill every slot even when the run
        // count is below the thread count (including the empty batch).
        let f = |i: usize, rng: &mut StdRng| (i as u64) ^ rng.random::<u64>();
        for runs in 0..4 {
            let par = MonteCarlo::new(runs, 3).run(f);
            let seq = MonteCarlo::new(runs, 3).sequential().run(f);
            assert_eq!(par, seq, "diverged at {runs} runs");
            assert_eq!(par.len(), runs);
        }
    }

    #[test]
    fn fan_out_keeps_job_order_and_thread_state() {
        // Per-thread scratch state must never change the results, only
        // amortize allocations; job order must be preserved.
        let par = fan_out(37, true, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            i * i
        });
        let seq = fan_out(37, false, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            i * i
        });
        assert_eq!(par, seq);
        assert_eq!(par[5], 25);
    }

    #[test]
    fn per_run_rngs_are_decorrelated() {
        let mc = MonteCarlo::new(100, 5);
        let firsts: Vec<u64> = mc.run(|_, rng| rng.random());
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

    fn scratch_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ferrocim-mc-{tag}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpoint_round_trips_exactly_through_json() {
        let mc = MonteCarlo::new(5, 0xDEAD_BEEF_CAFE_F00D);
        let mut ckpt: McCheckpoint<f64> = McCheckpoint::empty(&mc);
        ckpt.completed[0] = Some(1.0 / 3.0);
        ckpt.completed[3] = Some(-2.5e-18);
        let path = scratch_path("roundtrip");
        ckpt.save(&path).unwrap();
        let back: McCheckpoint<f64> = McCheckpoint::resume_from(&path).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.seed(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(back.completed_runs(), 2);
        assert_eq!(back.pending().collect::<Vec<_>>(), vec![1, 2, 4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumable_run_matches_uninterrupted_run_bitwise() {
        let mc = MonteCarlo::new(17, 42).sequential();
        let direct: Vec<f64> = mc.run(|i, rng| rng.random::<f64>() * (i as f64 + 1.0));
        let path = scratch_path("resume");

        // Interrupt the sweep after 6 samples via a step budget.
        let tight = Budget::unlimited().with_max_steps(6);
        let err = mc
            .run_resumable(&path, 3, &tight, |i, rng| {
                rng.random::<f64>() * (i as f64 + 1.0)
            })
            .unwrap_err();
        match &err {
            McError::Interrupted { reason, partial } => {
                assert!(matches!(reason, SpiceError::BudgetExceeded { .. }));
                assert_eq!(partial.len(), 6);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }

        // Resume with no limit: must complete and match bit for bit.
        let resumed = mc
            .run_resumable(&path, 3, &Budget::unlimited(), |i, rng| {
                rng.random::<f64>() * (i as f64 + 1.0)
            })
            .unwrap();
        assert_eq!(resumed, direct);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumable_run_rejects_mismatched_checkpoints() {
        let path = scratch_path("mismatch");
        let mc = MonteCarlo::new(4, 1).sequential();
        mc.run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap();
        let other = MonteCarlo::new(4, 2).sequential();
        let err = other
            .run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap_err();
        assert!(matches!(err, McError::Mismatch { field: "seed", .. }));
        let wrong_runs = MonteCarlo::new(5, 1).sequential();
        let err = wrong_runs
            .run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap_err();
        assert!(matches!(err, McError::Mismatch { field: "runs", .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_or_garbage_checkpoints_are_typed_errors() {
        let path = scratch_path("corrupt");
        let mc = MonteCarlo::new(4, 11).sequential();

        // Garbage bytes (e.g. a crashed editor or disk corruption).
        std::fs::write(&path, "not json at all").unwrap();
        let err = mc
            .run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap_err();
        match &err {
            McError::CorruptCheckpoint { path: p, detail } => {
                assert_eq!(p, &path);
                assert!(detail.contains("not json at all"), "detail: {detail}");
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }

        // A truncated write of an otherwise valid checkpoint.
        let _ = std::fs::remove_file(&path);
        mc.run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = mc
            .run_resumable(&path, 2, &Budget::unlimited(), |i, _| i as f64)
            .unwrap_err();
        assert!(matches!(err, McError::CorruptCheckpoint { .. }), "{err:?}");

        // An empty file is called out explicitly.
        std::fs::write(&path, "").unwrap();
        let err = McCheckpoint::<f64>::resume_from(&path).unwrap_err();
        match err {
            McError::CorruptCheckpoint { detail, .. } => {
                assert!(detail.contains("file is empty"), "detail: {detail}");
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }

        // Valid JSON with the wrong shape is still a checkpoint error.
        std::fs::write(&path, "{\"format\":\"something-else\"}").unwrap();
        let err = McCheckpoint::<f64>::resume_from(&path).unwrap_err();
        assert!(matches!(err, McError::CorruptCheckpoint { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancelled_resumable_run_saves_progress() {
        let path = scratch_path("cancel");
        let mc = MonteCarlo::new(8, 9).sequential();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(&token);
        let err = mc
            .run_resumable(&path, 4, &budget, |i, _| i as f64)
            .unwrap_err();
        match err {
            McError::Interrupted { reason, partial } => {
                assert!(matches!(reason, SpiceError::Cancelled));
                assert!(partial.is_empty());
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }
}
