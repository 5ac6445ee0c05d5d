//! Batched MAC execution: one row netlist, many input vectors.
//!
//! [`CimArray::run`] rebuilds the row circuit and reallocates the
//! solver workspace on every call. An [`ArrayEngine`] is the batched
//! counterpart for workloads that evaluate the *same stored weights*
//! against many input vectors and temperatures (bit-serial NN layers,
//! range tables, temperature sweeps):
//!
//! * the row netlist is built **once** per engine and retargeted to
//!   each input vector by rewriting the word-line waveforms in place;
//! * each worker thread reuses a single solver [`Workspace`] and one
//!   circuit clone across its whole chunk of jobs (the panic-isolating
//!   [`ferrocim_spice::try_fan_out`] shared with
//!   [`ferrocim_spice::MonteCarlo`]);
//! * duplicate `(inputs, temperature)` jobs are simulated once and the
//!   result is fanned back out to every requesting slot.
//!
//! Results are bitwise identical to looping [`CimArray::run`] over the
//! same jobs: retargeting rewrites exactly the waveform the builder
//! would have installed, and no solver state is carried between jobs.

use crate::array::{CimArray, MacOutput, MacPath, MacRequest};
use crate::cells::{CellDesign, CellOffsets, CellWeight};
use crate::CimError;
use ferrocim_spice::{
    apply_policy, try_fan_out, Circuit, FailurePolicy, FanOutError, FanOutReport, JobError, NodeId,
    Workspace,
};
use ferrocim_telemetry::{Event, Telemetry};
use ferrocim_units::Celsius;
use std::panic::resume_unwind;

/// A reusable batched-MAC executor over one set of stored weights.
///
/// Build it once per weight vector, then feed it slices of input
/// vectors with [`ArrayEngine::mac_batch`] (one temperature) or
/// [`ArrayEngine::mac_batch_grid`] (a temperature grid).
///
/// Every path — batch and serial — runs under its array's
/// [`ferrocim_spice::RunContext`] (see [`CimArray::with_context`]): one
/// budget step is charged per unique simulation, every Newton iteration
/// counts against the same pool, and each batch emits one
/// [`Event::MacIssued`] carrying the requested job count and the number
/// of unique simulations actually solved.
///
/// # Examples
///
/// ```
/// use ferrocim_cim::cells::TwoTransistorOneFefet;
/// use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray};
/// use ferrocim_units::Celsius;
///
/// # fn main() -> Result<(), ferrocim_cim::CimError> {
/// let array = CimArray::new(
///     TwoTransistorOneFefet::paper_default(),
///     ArrayConfig::paper_default(),
/// )?;
/// let engine = ArrayEngine::new(&array, &[true; 8])?;
/// let inputs: Vec<Vec<bool>> = (0..4)
///     .map(|k| (0..8).map(|i| i < k).collect())
///     .collect();
/// let outs = engine.mac_batch(&inputs, Celsius::ROOM)?;
/// assert_eq!(outs.len(), 4);
/// assert!(outs[3].v_acc > outs[1].v_acc);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ArrayEngine<'a, C> {
    array: &'a CimArray<C>,
    weights: Vec<CellWeight>,
    offsets: Vec<CellOffsets>,
    base: Circuit,
    outs: Vec<NodeId>,
    acc: NodeId,
    parallel: bool,
}

impl<'a, C: CellDesign> ArrayEngine<'a, C> {
    /// Creates an engine for binary stored weights on nominal devices.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] if `weights` does not
    /// match the row width, or propagates netlist-construction
    /// failures.
    pub fn new(array: &'a CimArray<C>, weights: &[bool]) -> Result<Self, CimError> {
        let weighted: Vec<CellWeight> = weights.iter().map(|&b| CellWeight::Bit(b)).collect();
        let offsets = vec![CellOffsets::NOMINAL; array.config().cells_per_row];
        Self::weighted(array, &weighted, &offsets)
    }

    /// Creates an engine for multi-level stored weights with explicit
    /// per-cell variation offsets (one Monte-Carlo draw held fixed for
    /// the whole batch).
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::new`]; additionally if `offsets` has the wrong
    /// length.
    pub fn weighted(
        array: &'a CimArray<C>,
        weights: &[CellWeight],
        offsets: &[CellOffsets],
    ) -> Result<Self, CimError> {
        let n = array.config().cells_per_row;
        if weights.len() != n || offsets.len() != n {
            return Err(CimError::MismatchedOperands {
                weights: weights.len(),
                inputs: offsets.len(),
                cells_per_row: n,
            });
        }
        // The base netlist is built against the all-off input vector;
        // every job rewrites the word-line waveforms before solving.
        let idle = vec![false; n];
        let (base, outs, acc) = array.build_row_circuit(weights, &idle, offsets)?;
        Ok(ArrayEngine {
            array,
            weights: weights.to_vec(),
            offsets: offsets.to_vec(),
            base,
            outs,
            acc,
            parallel: true,
        })
    }

    /// Disables the thread fan-out; jobs run on the calling thread.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// The stored weights this engine was built for.
    pub fn weights(&self) -> &[CellWeight] {
        &self.weights
    }

    /// Runs one full-transient MAC per input vector at a single
    /// temperature. Output `i` corresponds to `inputs[i]` and is
    /// bitwise identical to the equivalent [`CimArray::run`] call.
    ///
    /// This is [`ArrayEngine::try_mac_batch`] under
    /// [`FailurePolicy::FailFast`], folded to plain values: the first
    /// failed job returns its error, and a job that panicked re-raises
    /// its message.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] for an input vector of
    /// the wrong width (before anything is solved or charged), or
    /// propagates simulation failures.
    pub fn mac_batch(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
    ) -> Result<Vec<MacOutput>, CimError> {
        fail_fast(self.try_mac_batch(inputs, temp, &FailurePolicy::FailFast))
    }

    /// Runs the full `temps × inputs` grid: `grid[t][i]` is the MAC of
    /// `inputs[i]` at `temps[t]`.
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::mac_batch`]; additionally
    /// [`CimError::EmptySweep`] for an empty temperature list.
    pub fn mac_batch_grid(
        &self,
        inputs: &[Vec<bool>],
        temps: &[Celsius],
    ) -> Result<Vec<Vec<MacOutput>>, CimError> {
        if temps.is_empty() {
            return Err(CimError::EmptySweep {
                what: "temperatures",
            });
        }
        let jobs: Vec<(usize, Celsius)> = temps
            .iter()
            .flat_map(|&t| (0..inputs.len()).map(move |i| (i, t)))
            .collect();
        let mut flat =
            fail_fast(self.run_jobs(inputs, &jobs, &FailurePolicy::FailFast))?.into_iter();
        Ok(temps
            .iter()
            .map(|_| flat.by_ref().take(inputs.len()).collect())
            .collect())
    }

    /// Fault-tolerant form of [`ArrayEngine::mac_batch`]: each input
    /// vector is one job, failures (typed errors *or* panics inside the
    /// solver) are collected per job, and `policy` decides whether the
    /// batch aborts, reports, or substitutes a fallback output.
    /// Duplicated input vectors still share one simulation — and share
    /// its outcome, success or failure. An input of the wrong width is
    /// a failed job that is never solved or charged.
    ///
    /// # Errors
    ///
    /// [`FanOutError::Job`] under [`FailurePolicy::FailFast`] when any
    /// job fails; [`FanOutError::TooManyFailures`] under
    /// [`FailurePolicy::SkipAndReport`] when the failure budget is
    /// exceeded. Under [`FailurePolicy::Substitute`] the call never
    /// fails.
    pub fn try_mac_batch(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
        policy: &FailurePolicy<MacOutput>,
    ) -> Result<FanOutReport<MacOutput, CimError>, FanOutError<CimError>> {
        let jobs: Vec<(usize, Celsius)> = (0..inputs.len()).map(|i| (i, temp)).collect();
        self.run_jobs(inputs, &jobs, policy)
    }

    /// The batch body behind every engine batch entry point: one row
    /// MAC per `(input, temperature)` job, each its own policy job.
    fn run_jobs(
        &self,
        inputs: &[Vec<bool>],
        jobs: &[(usize, Celsius)],
        policy: &FailurePolicy<MacOutput>,
    ) -> Result<FanOutReport<MacOutput, CimError>, FanOutError<CimError>> {
        run_row_batch(
            self.array,
            self.parallel,
            inputs,
            jobs,
            1,
            |a: Celsius, b: Celsius| a.0.to_bits() == b.0.to_bits(),
            || (Workspace::new(), self.base.clone()),
            |(ws, ckt), x, t| {
                self.array.retarget_inputs(ckt, x)?;
                self.array.eval_row_transient(
                    ckt,
                    &self.outs,
                    self.acc,
                    &self.weights,
                    x,
                    t,
                    self.array.context(),
                    ws,
                )
            },
            |macs| macs[0].clone(),
            policy,
        )
    }

    /// The per-call reference this engine accelerates: one
    /// [`CimArray::run`] per job, sharing nothing but the array's
    /// context. Used by the
    /// equivalence tests and the throughput benchmark.
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::mac_batch`].
    pub fn mac_serial(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
    ) -> Result<Vec<MacOutput>, CimError> {
        inputs
            .iter()
            .map(|x| {
                self.array.run(
                    &MacRequest::new(x)
                        .weighted(&self.weights)
                        .at(temp)
                        .offsets(&self.offsets)
                        .path(MacPath::Transient),
                )
            })
            .collect()
    }
}

/// The one batch body behind [`ArrayEngine`]'s and
/// [`crate::Crossbar`]'s batch entry points.
///
/// Each of `jobs` is one row MAC on `array`'s hardware: the index of
/// the input vector it reads plus a `key` (a temperature, a crossbar
/// row) that `solve` turns into the simulation. Every run of `group`
/// consecutive row MACs is one job of the caller's `policy`; `gather`
/// folds its outputs into that job's value, and it fails with its first
/// failed row MAC.
///
/// A row MAC on an input of the wrong width is a failure that is never
/// scheduled; under [`FailurePolicy::FailFast`] it fails the batch
/// before any solve, span, event or budget charge. Row MACs with equal
/// inputs and keys `same` calls equal collapse onto one simulation — on
/// repetitive workloads (bit-serial NN inputs, level tables) this is
/// where the batch throughput comes from. The unique ones are solved
/// under one `cim.mac_batch` span and one [`Event::MacIssued`], each
/// charging one budget step, tolerating every failure: `policy` applies
/// after the scatter, so it counts requested jobs, not deduplicated
/// simulations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_row_batch<C, K, S, T>(
    array: &CimArray<C>,
    parallel: bool,
    inputs: &[Vec<bool>],
    jobs: &[(usize, K)],
    group: usize,
    same: impl Fn(K, K) -> bool,
    init: impl Fn() -> S + Sync,
    solve: impl Fn(&mut S, &[bool], K) -> Result<MacOutput, CimError> + Sync,
    gather: impl Fn(&[&MacOutput]) -> T,
    policy: &FailurePolicy<T>,
) -> Result<FanOutReport<T, CimError>, FanOutError<CimError>>
where
    C: CellDesign,
    K: Copy + Sync,
    T: Clone,
{
    let n = array.config().cells_per_row;
    let malformed = |i: usize| CimError::MismatchedOperands {
        weights: n,
        inputs: inputs[i].len(),
        cells_per_row: n,
    };
    if matches!(policy, FailurePolicy::FailFast) {
        if let Some(k) = jobs.iter().position(|&(i, _)| inputs[i].len() != n) {
            return Err(FanOutError::Job {
                index: k / group,
                error: JobError::Failed(malformed(jobs[k].0)),
            });
        }
    }
    let mut unique: Vec<(usize, K)> = Vec::new();
    let mut slot_of: Vec<Option<usize>> = Vec::with_capacity(jobs.len());
    for &(i, key) in jobs {
        if inputs[i].len() != n {
            slot_of.push(None);
            continue;
        }
        let found = unique
            .iter()
            .position(|&(j, u)| same(u, key) && inputs[j] == inputs[i]);
        slot_of.push(Some(found.unwrap_or_else(|| {
            unique.push((i, key));
            unique.len() - 1
        })));
    }
    let job_count = jobs.len() as u64;
    let solve_count = unique.len() as u64;
    let ctx = array.context();
    let batch_span = ctx.telemetry.span("cim.mac_batch");
    let batch_id = batch_span.id();
    ctx.telemetry.emit(|| Event::MacIssued {
        jobs: job_count,
        solves: solve_count,
    });
    let solved = try_fan_out(
        unique.len(),
        parallel,
        &FailurePolicy::SkipAndReport {
            max_failures: usize::MAX,
        },
        init,
        |state, u| {
            // Parent this worker-side solve under the issuing batch
            // span: fan-out workers run on their own threads, so the
            // thread-local parent chain must be bridged by id.
            let _solve_span = ctx.telemetry.span_under("cim.row_solve", batch_id);
            ctx.budget.check()?;
            ctx.budget.charge_steps(1)?;
            let (i, key) = unique[u];
            solve(state, &inputs[i], key)
        },
    )?;
    let results: Vec<Result<T, JobError<CimError>>> = jobs
        .chunks(group)
        .zip(slot_of.chunks(group))
        .map(|(row_macs, slots)| {
            let mut macs = Vec::with_capacity(slots.len());
            for (&(i, _), &u) in row_macs.iter().zip(slots) {
                match u {
                    Some(u) => macs.push(solved.results[u].as_ref().map_err(Clone::clone)?),
                    None => return Err(JobError::Failed(malformed(i))),
                }
            }
            Ok(gather(&macs))
        })
        .collect();
    settle(results, policy, &ctx.telemetry)
}

/// Applies the caller's `policy` to per-job batch results, reporting
/// substituted jobs as one [`Event::FaultSubstituted`].
pub(crate) fn settle<T: Clone>(
    results: Vec<Result<T, JobError<CimError>>>,
    policy: &FailurePolicy<T>,
    telemetry: &Telemetry,
) -> Result<FanOutReport<T, CimError>, FanOutError<CimError>> {
    let failures = results.iter().filter(|r| r.is_err()).count();
    let report = apply_policy(results, failures, policy)?;
    if matches!(policy, FailurePolicy::Substitute(_)) && report.failures > 0 {
        let substituted = report.failures as u64;
        telemetry.emit(|| Event::FaultSubstituted {
            substitute: substituted,
        });
    }
    Ok(report)
}

/// Folds a batch outcome under [`FailurePolicy::FailFast`] into plain
/// values: every value when the batch succeeded, else the first failed
/// job's error. A job that panicked re-raises its message on the
/// caller's thread.
pub(crate) fn fail_fast<T>(
    outcome: Result<FanOutReport<T, CimError>, FanOutError<CimError>>,
) -> Result<Vec<T>, CimError> {
    let error = match outcome {
        Ok(report) => return Ok(report.results.into_iter().filter_map(Result::ok).collect()),
        Err(FanOutError::Job { error, .. }) => error,
        Err(FanOutError::TooManyFailures { first, .. }) => *first,
    };
    match error {
        JobError::Failed(e) => Err(e),
        JobError::Panicked { message } => resume_unwind(Box::new(message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::TwoTransistorOneFefet;
    use crate::ArrayConfig;
    use ferrocim_units::Second;

    const ROOM: Celsius = Celsius(27.0);

    fn small_array() -> CimArray<TwoTransistorOneFefet> {
        let config = ArrayConfig {
            cells_per_row: 4,
            dt: Second(50e-12),
            ..ArrayConfig::paper_default()
        };
        CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
    }

    fn input_set() -> Vec<Vec<bool>> {
        vec![
            vec![false; 4],
            vec![true, false, true, false],
            vec![true; 4],
            vec![true, false, true, false], // duplicate of job 1
        ]
    }

    #[test]
    fn batch_is_bitwise_identical_to_per_call_runs() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set();
        let batch = engine.mac_batch(&inputs, ROOM).unwrap();
        let serial = engine.mac_serial(&inputs, ROOM).unwrap();
        assert_eq!(batch, serial);
        // The duplicated job must also reuse the identical result.
        assert_eq!(batch[1], batch[3]);
    }

    #[test]
    fn sequential_and_parallel_batches_agree() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true, true, false, true]).unwrap();
        let inputs = input_set();
        let par = engine.mac_batch(&inputs, ROOM).unwrap();
        let seq = engine
            .clone()
            .sequential()
            .mac_batch(&inputs, ROOM)
            .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn grid_matches_per_temperature_batches() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set()[..2].to_vec();
        let temps = [Celsius(0.0), Celsius(85.0)];
        let grid = engine.mac_batch_grid(&inputs, &temps).unwrap();
        assert_eq!(grid.len(), 2);
        for (t, row) in temps.iter().zip(&grid) {
            assert_eq!(row, &engine.mac_batch(&inputs, *t).unwrap());
        }
    }

    #[test]
    fn dimension_errors_are_typed() {
        let array = small_array();
        assert!(matches!(
            ArrayEngine::new(&array, &[true; 3]),
            Err(CimError::MismatchedOperands { .. })
        ));
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        assert!(matches!(
            engine.mac_batch(&[vec![true; 5]], ROOM),
            Err(CimError::MismatchedOperands { .. })
        ));
        assert!(matches!(
            engine.mac_batch_grid(&[vec![true; 4]], &[]),
            Err(CimError::EmptySweep { .. })
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        assert_eq!(engine.mac_batch(&[], ROOM).unwrap(), vec![]);
    }

    #[test]
    fn try_batch_matches_batch_when_clean() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set();
        let report = engine
            .try_mac_batch(
                &inputs,
                ROOM,
                &FailurePolicy::SkipAndReport { max_failures: 0 },
            )
            .unwrap();
        assert!(report.is_clean());
        let reference = engine.mac_batch(&inputs, ROOM).unwrap();
        let values: Vec<MacOutput> = report.values().cloned().collect();
        assert_eq!(values, reference);
    }

    #[test]
    fn try_batch_isolates_bad_inputs_per_policy() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        // Job 1 has the wrong width; jobs 0 and 2 are fine.
        let inputs = vec![vec![true; 4], vec![true; 7], vec![false; 4]];
        let report = engine
            .try_mac_batch(
                &inputs,
                ROOM,
                &FailurePolicy::SkipAndReport { max_failures: 1 },
            )
            .unwrap();
        assert_eq!(report.failures, 1);
        assert!(report.results[0].is_ok());
        assert!(matches!(
            report.results[1],
            Err(JobError::Failed(CimError::MismatchedOperands { .. }))
        ));
        let reference = engine
            .mac_batch(&[inputs[0].clone(), inputs[2].clone()], ROOM)
            .unwrap();
        assert_eq!(report.results[0].as_ref().unwrap(), &reference[0]);
        assert_eq!(report.results[2].as_ref().unwrap(), &reference[1]);
        // FailFast surfaces the same failure as a batch error.
        assert!(matches!(
            engine.try_mac_batch(&inputs, ROOM, &FailurePolicy::FailFast),
            Err(FanOutError::Job { index: 1, .. })
        ));
    }
}
