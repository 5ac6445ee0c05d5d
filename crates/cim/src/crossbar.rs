//! A multi-row CIM crossbar: programmable weight storage plus row-wise
//! MAC execution with a shared readout.
//!
//! [`CimArray`] models one row of hardware; a [`Crossbar`] stacks `m`
//! rows of stored weights over the same cell design and executes
//! digital matrix–vector products — the unit of work a neural-network
//! layer maps onto (a `m × n` weight tile multiplied by an `n`-element
//! binary input vector per step). Rows share the bit/source lines and
//! the ADC, as in the paper's Fig. 2/Fig. 6 organization.

use crate::array::{CimArray, MacPath, MacRequest};
use crate::cells::{CellDesign, CellWeight};
use crate::engine::{fail_fast, run_row_batch};
use crate::fault::{CellFault, FaultPlan};
use crate::transfer::Adc;
use crate::CimError;
use ferrocim_spice::{FailurePolicy, FanOutError, FanOutReport, RunContext, Workspace};
use ferrocim_telemetry::{Event, Telemetry};
use ferrocim_units::{Celsius, Joule, Volt};
use serde::{Deserialize, Serialize};

/// The result of one crossbar matrix–vector product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatVecOutput {
    /// Digital per-row MAC readouts.
    pub digital: Vec<usize>,
    /// The analog accumulation voltages the readouts were sliced from.
    pub analog: Vec<Volt>,
    /// Total energy across all row operations.
    pub energy: Joule,
}

/// A programmable `m × n` CIM weight tile.
#[derive(Debug, Clone)]
pub struct Crossbar<C> {
    array: CimArray<C>,
    rows: Vec<Vec<CellWeight>>,
    adc: Adc,
    faults: FaultPlan,
    /// Faulted hardware clones for rows the plan touches; fault-free
    /// rows stay `None` and share `array`.
    row_arrays: Vec<Option<CimArray<C>>>,
}

impl<C: CellDesign> Crossbar<C> {
    /// Creates a crossbar of `rows` rows over the given row hardware,
    /// with every weight erased ('0') and the readout calibrated over
    /// the 0–85 °C range.
    ///
    /// # Errors
    ///
    /// Propagates calibration-simulation failures, or
    /// [`CimError::InvalidConfig`] for a zero row count.
    pub fn new(array: CimArray<C>, rows: usize) -> Result<Self, CimError> {
        if rows == 0 {
            return Err(CimError::InvalidConfig {
                name: "rows",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        let adc = Adc::calibrate_over(&array, &ferrocim_spice::sweep::temperature_sweep(8))?;
        let n = array.config().cells_per_row;
        Ok(Crossbar {
            faults: FaultPlan::none(rows, n),
            row_arrays: (0..rows).map(|_| None).collect(),
            array,
            rows: vec![vec![CellWeight::Bit(false); n]; rows],
            adc,
        })
    }

    /// Replaces the whole [`RunContext`] on the row hardware, including
    /// faulted row clones, so every matrix–vector product runs under it:
    /// one budget step is charged per unique row-MAC job, solver-level
    /// charges and events land in the same pool and recorder, and each
    /// product emits one [`Event::MacIssued`] covering its row-MAC jobs
    /// (batch paths also report how many unique simulations were
    /// actually solved).
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.row_arrays = self
            .row_arrays
            .into_iter()
            .map(|ra| ra.map(|a| a.with_context(ctx.clone())))
            .collect();
        self.array = self.array.with_context(ctx);
        self
    }

    /// Replaces only the context's telemetry handle (see
    /// [`Crossbar::with_context`]).
    pub fn with_recorder(self, telemetry: Telemetry) -> Self {
        let ctx = RunContext {
            telemetry,
            ..self.array.context().clone()
        };
        self.with_context(ctx)
    }

    /// Installs a fault plan: every cell fault in `plan` is applied to
    /// the corresponding `(row, column)` cell of this crossbar, for
    /// both transient and analytic evaluation. Rows the plan leaves
    /// untouched keep sharing the original row hardware. Pass
    /// [`FaultPlan::none`] to clear previously installed faults.
    ///
    /// # Errors
    ///
    /// [`CimError::InvalidConfig`] when the plan's tile shape differs
    /// from this crossbar's `rows × columns`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, CimError>
    where
        C: Clone,
    {
        if plan.rows() != self.rows.len() || plan.cols() != self.columns() {
            return Err(CimError::InvalidConfig {
                name: "fault_plan_shape",
                value: plan.rows() as f64,
                requirement: "a tile shape matching the crossbar",
            });
        }
        self.row_arrays = (0..self.rows.len())
            .map(|r| {
                if plan.row_has_faults(r) {
                    self.array
                        .clone()
                        .with_faults(&plan.row_faults(r))
                        .map(Some)
                } else {
                    Ok(None)
                }
            })
            .collect::<Result<_, _>>()?;
        self.faults = plan;
        Ok(self)
    }

    /// The installed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The hardware used to evaluate one row: the shared fault-free
    /// array, or the row's faulted clone.
    fn row_array(&self, row: usize) -> &CimArray<C> {
        self.row_arrays[row].as_ref().unwrap_or(&self.array)
    }

    /// The per-column faults of one row, as installed.
    fn row_fault_vec(&self, row: usize) -> Vec<Option<CellFault>> {
        self.faults.row_faults(row)
    }

    /// The number of cells (columns) per row.
    pub fn columns(&self) -> usize {
        self.array.config().cells_per_row
    }

    /// The row hardware.
    pub fn array(&self) -> &CimArray<C> {
        &self.array
    }

    /// The stored weights of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[CellWeight] {
        &self.rows[row]
    }

    /// Programs one row with binary weights.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] if `weights` length
    /// differs from the column count.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn program_row(&mut self, row: usize, weights: &[bool]) -> Result<(), CimError> {
        if weights.len() != self.columns() {
            return Err(CimError::MismatchedOperands {
                weights: weights.len(),
                inputs: self.columns(),
                cells_per_row: self.columns(),
            });
        }
        self.rows[row] = weights.iter().map(|&b| CellWeight::Bit(b)).collect();
        Ok(())
    }

    /// Programs one row with multi-level weights.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] on a length mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn program_row_levels(
        &mut self,
        row: usize,
        weights: &[CellWeight],
    ) -> Result<(), CimError> {
        if weights.len() != self.columns() {
            return Err(CimError::MismatchedOperands {
                weights: weights.len(),
                inputs: self.columns(),
                cells_per_row: self.columns(),
            });
        }
        self.rows[row] = weights.to_vec();
        Ok(())
    }

    /// Executes the matrix–vector product of every stored row with the
    /// binary input vector at the given temperature (nominal devices),
    /// returning digital readouts, analog voltages, and total energy.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] for a wrong input
    /// length, or propagates simulation failures.
    pub fn matvec(&self, inputs: &[bool], temp: Celsius) -> Result<MatVecOutput, CimError> {
        if inputs.len() != self.columns() {
            return Err(CimError::MismatchedOperands {
                weights: self.columns(),
                inputs: inputs.len(),
                cells_per_row: self.columns(),
            });
        }
        let row_jobs = self.rows.len() as u64;
        let ctx = self.array.context();
        let _span = ctx.telemetry.span("cim.matvec");
        ctx.telemetry.emit(|| Event::MacIssued {
            jobs: row_jobs,
            solves: row_jobs,
        });
        let mut digital = Vec::with_capacity(self.rows.len());
        let mut analog = Vec::with_capacity(self.rows.len());
        let mut energy = 0.0;
        let mut ws = Workspace::new();
        for (r, weights) in self.rows.iter().enumerate() {
            ctx.budget.check()?;
            ctx.budget.charge_steps(1)?;
            let request = MacRequest::new(inputs)
                .weighted(weights)
                .at(temp)
                .path(MacPath::Analytic);
            let out = self.row_array(r).run_in(&request, &mut ws)?;
            digital.push(self.adc.quantize(out.v_acc));
            analog.push(out.v_acc);
            energy += out.energy.value();
        }
        Ok(MatVecOutput {
            digital,
            analog,
            energy: Joule(energy),
        })
    }

    /// Executes one matrix–vector product per input vector, fanning the
    /// `rows × inputs` row-MAC jobs across OS threads with per-thread
    /// solver workspaces and collapsing duplicate `(row, input)` jobs
    /// onto one simulation. Output `i` equals
    /// [`Crossbar::matvec`]`(&inputs[i], temp)` exactly.
    ///
    /// This is [`Crossbar::try_matvec_batch`] under
    /// [`FailurePolicy::FailFast`], folded to plain values.
    ///
    /// # Errors
    ///
    /// As [`Crossbar::matvec`].
    pub fn matvec_batch(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
    ) -> Result<Vec<MatVecOutput>, CimError> {
        fail_fast(self.try_matvec_batch(inputs, temp, &FailurePolicy::FailFast))
    }

    /// Fault-tolerant form of [`Crossbar::matvec_batch`]: each input
    /// vector is one job, which succeeds only when every one of its row
    /// MACs succeeds (failures include both typed errors and panics
    /// inside the solver). `policy` decides whether the batch aborts on
    /// the first failed input, reports failures per input, or
    /// substitutes a fallback output. An input of the wrong width is a
    /// failed job that is never solved or charged.
    ///
    /// # Errors
    ///
    /// [`FanOutError::Job`] under [`FailurePolicy::FailFast`] when any
    /// input fails; [`FanOutError::TooManyFailures`] under
    /// [`FailurePolicy::SkipAndReport`] when the failure budget is
    /// exceeded. Under [`FailurePolicy::Substitute`] the call never
    /// fails.
    pub fn try_matvec_batch(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
        policy: &FailurePolicy<MatVecOutput>,
    ) -> Result<FanOutReport<MatVecOutput, CimError>, FanOutError<CimError>> {
        // Row MACs collapse when their input vectors, stored weights
        // and per-row faults all match.
        let row_faults: Vec<Vec<Option<CellFault>>> = (0..self.rows.len())
            .map(|r| self.row_fault_vec(r))
            .collect();
        let jobs: Vec<(usize, usize)> = (0..inputs.len())
            .flat_map(|i| (0..self.rows.len()).map(move |r| (i, r)))
            .collect();
        run_row_batch(
            &self.array,
            true,
            inputs,
            &jobs,
            self.rows.len(),
            |s: usize, r: usize| self.rows[s] == self.rows[r] && row_faults[s] == row_faults[r],
            Workspace::new,
            |ws, x, r| {
                let request = MacRequest::new(x)
                    .weighted(&self.rows[r])
                    .at(temp)
                    .path(MacPath::Analytic);
                self.row_array(r).run_in(&request, ws)
            },
            // One input vector is one job from the policy's point of
            // view: its row MACs, read out and summed in row order.
            |macs| MatVecOutput {
                digital: macs.iter().map(|m| self.adc.quantize(m.v_acc)).collect(),
                analog: macs.iter().map(|m| m.v_acc).collect(),
                energy: Joule(macs.iter().fold(0.0, |e, m| e + m.energy.value())),
            },
            policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::TwoTransistorOneFefet;
    use crate::ArrayConfig;
    use ferrocim_spice::JobError;
    use ferrocim_units::Second;

    const ROOM: Celsius = Celsius(27.0);

    fn small_crossbar(rows: usize) -> Crossbar<TwoTransistorOneFefet> {
        let config = ArrayConfig {
            dt: Second(50e-12),
            ..ArrayConfig::paper_default()
        };
        let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
        Crossbar::new(array, rows).unwrap()
    }

    #[test]
    fn matvec_computes_binary_products_row_wise() {
        let mut xbar = small_crossbar(3);
        xbar.program_row(0, &[true; 8]).unwrap();
        xbar.program_row(1, &[true, false, true, false, true, false, true, false])
            .unwrap();
        // Row 2 stays erased.
        let inputs = [true, true, true, true, false, false, false, false];
        let out = xbar.matvec(&inputs, ROOM).unwrap();
        assert_eq!(out.digital, vec![4, 2, 0]);
        assert!(out.energy.value() > 0.0);
        assert!(out.analog[0] > out.analog[1]);
    }

    #[test]
    fn matvec_is_temperature_stable() {
        let mut xbar = small_crossbar(2);
        xbar.program_row(0, &[true, true, true, false, false, true, true, true])
            .unwrap();
        xbar.program_row(1, &[false, false, true, true, true, false, false, false])
            .unwrap();
        let inputs = [true; 8];
        let reference = xbar.matvec(&inputs, ROOM).unwrap().digital;
        for t in [0.0, 55.0, 85.0] {
            let got = xbar.matvec(&inputs, Celsius(t)).unwrap().digital;
            assert_eq!(got, reference, "readout drifted at {t} C");
        }
        assert_eq!(reference, vec![6, 3]);
    }

    #[test]
    fn multilevel_weights_scale_the_analog_output() {
        let mut xbar = small_crossbar(3);
        let full = vec![CellWeight::Level { level: 3, max: 3 }; 8];
        let two_thirds = vec![CellWeight::Level { level: 2, max: 3 }; 8];
        let third = vec![CellWeight::Level { level: 1, max: 3 }; 8];
        xbar.program_row_levels(0, &full).unwrap();
        xbar.program_row_levels(1, &two_thirds).unwrap();
        xbar.program_row_levels(2, &third).unwrap();
        let out = xbar.matvec(&[true; 8], ROOM).unwrap();
        // Analog outputs must be strictly ordered by the stored level.
        assert!(
            out.analog[0] > out.analog[1] && out.analog[1] > out.analog[2],
            "levels not ordered: {:?}",
            out.analog
        );
    }

    #[test]
    fn matvec_batch_matches_per_call_matvec() {
        let mut xbar = small_crossbar(2);
        xbar.program_row(0, &[true, true, true, false, false, true, true, true])
            .unwrap();
        xbar.program_row(1, &[false, false, true, true, true, false, false, false])
            .unwrap();
        let inputs: Vec<Vec<bool>> = vec![
            vec![true; 8],
            vec![true, false, true, false, true, false, true, false],
            vec![true; 8], // duplicate of job 0
        ];
        let batch = xbar.matvec_batch(&inputs, ROOM).unwrap();
        for (x, got) in inputs.iter().zip(&batch) {
            assert_eq!(got, &xbar.matvec(x, ROOM).unwrap());
        }
        assert_eq!(batch[0], batch[2]);
        assert!(matches!(
            xbar.matvec_batch(&[vec![true; 3]], ROOM),
            Err(CimError::MismatchedOperands { .. })
        ));
    }

    #[test]
    fn fault_plan_perturbs_only_faulted_rows() {
        let mut xbar = small_crossbar(2);
        xbar.program_row(0, &[true; 8]).unwrap();
        xbar.program_row(1, &[true; 8]).unwrap();
        let clean = xbar.matvec(&[true; 8], ROOM).unwrap();
        let plan = FaultPlan::none(2, 8)
            .with_fault(1, 0, CellFault::StuckAtHvt)
            .unwrap()
            .with_fault(1, 1, CellFault::DeadWordline)
            .unwrap();
        let faulted = xbar.clone().with_fault_plan(plan).unwrap();
        assert_eq!(faulted.fault_plan().fault_count(), 2);
        let out = faulted.matvec(&[true; 8], ROOM).unwrap();
        // Row 0 is untouched; row 1 loses exactly the two killed products.
        assert_eq!(out.digital[0], clean.digital[0]);
        assert_eq!(out.digital[1], clean.digital[1] - 2);
        // The batched path (whose dedup key includes faults — rows 0 and
        // 1 store identical weights but may not collapse) agrees.
        let batch = faulted.matvec_batch(&[vec![true; 8]], ROOM).unwrap();
        assert_eq!(batch[0], out);
        // And the fault-tolerant path returns the identical clean result.
        let report = faulted
            .try_matvec_batch(&[vec![true; 8]], ROOM, &FailurePolicy::FailFast)
            .unwrap();
        assert!(report.is_clean());
        assert_eq!(report.results[0].as_ref().unwrap(), &out);
    }

    #[test]
    fn fault_plan_shape_is_checked() {
        let xbar = small_crossbar(2);
        assert!(matches!(
            xbar.clone().with_fault_plan(FaultPlan::none(3, 8)),
            Err(CimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            xbar.with_fault_plan(FaultPlan::none(2, 4)),
            Err(CimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn try_matvec_batch_isolates_bad_inputs() {
        let mut xbar = small_crossbar(2);
        xbar.program_row(0, &[true; 8]).unwrap();
        let inputs = vec![vec![true; 8], vec![true; 3], vec![false; 8]];
        let report = xbar
            .try_matvec_batch(
                &inputs,
                ROOM,
                &FailurePolicy::SkipAndReport { max_failures: 1 },
            )
            .unwrap();
        assert_eq!(report.failures, 1);
        assert!(matches!(
            report.results[1],
            Err(JobError::Failed(CimError::MismatchedOperands { .. }))
        ));
        assert_eq!(
            report.results[0].as_ref().unwrap(),
            &xbar.matvec(&inputs[0], ROOM).unwrap()
        );
        assert_eq!(
            report.results[2].as_ref().unwrap(),
            &xbar.matvec(&inputs[2], ROOM).unwrap()
        );
        assert!(matches!(
            xbar.try_matvec_batch(&inputs, ROOM, &FailurePolicy::FailFast),
            Err(FanOutError::Job { index: 1, .. })
        ));
    }

    #[test]
    fn dimension_errors_are_typed() {
        let mut xbar = small_crossbar(1);
        assert!(matches!(
            xbar.program_row(0, &[true; 3]),
            Err(CimError::MismatchedOperands { .. })
        ));
        assert!(matches!(
            xbar.matvec(&[true; 5], ROOM),
            Err(CimError::MismatchedOperands { .. })
        ));
        let config = ArrayConfig::paper_default();
        let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
        assert!(matches!(
            Crossbar::new(array, 0),
            Err(CimError::InvalidConfig { .. })
        ));
    }
}
