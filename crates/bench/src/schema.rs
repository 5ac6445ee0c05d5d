//! Serde schemas for every artifact under `results/`.
//!
//! Each reproduction binary dumps its JSON through one of these types
//! instead of a private ad-hoc struct, and the tier-1 test
//! `tests/results_schema.rs` deserializes every checked-in
//! `results/*.json` back through the same types. A bin therefore cannot
//! silently drift its output shape away from what the checked-in
//! artifacts (and EXPERIMENTS.md) promise: renaming or retyping a field
//! fails the schema test until the artifact is regenerated.
//!
//! Naming convention: the type for `results/<name>.json` is listed next
//! to each definition. Roots that are JSON arrays are validated as
//! `Vec<Row>` of the row type given here.

use serde::{Deserialize, Serialize};

/// One row of `results/ablation_feedback.json` (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationFeedbackRow {
    /// Ablation variant label (for example `proposed` or `open-loop`).
    pub variant: String,
    /// Worst-case noise-margin ratio across adjacent level pairs.
    pub nmr_min: f64,
    /// Index of the level pair attaining `nmr_min`.
    pub nmr_min_index: usize,
    /// Whether any adjacent output ranges overlap.
    pub has_overlap: bool,
}

/// One MAC-level output range of `results/ablation_multilevel.json`
/// (root: array of per-configuration arrays of these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelRange {
    /// MAC output level.
    pub level: u8,
    /// Lower edge of the accumulated voltage range, in millivolts.
    pub lo_mv: f64,
    /// Upper edge of the accumulated voltage range, in millivolts.
    pub hi_mv: f64,
}

/// One row of `results/ablation_write_verify.json` (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteVerifyRow {
    /// Programming scheme label.
    pub scheme: String,
    /// Worst per-cell error in quantized levels.
    pub max_abs_error_levels: usize,
    /// Mean per-cell error in quantized levels.
    pub mean_abs_error_levels: f64,
    /// Mean verify iterations needed per programmed row.
    pub mean_verify_iterations_per_row: f64,
}

/// One curve of `results/fig1_fefet_iv.json` (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvCurve {
    /// Polarization state (`low_vt` / `high_vt`).
    pub state: String,
    /// Simulation temperature in Celsius.
    pub temp_c: f64,
    /// `(v_gs, log10(i_d))` samples along the sweep.
    pub points: Vec<(f64, f64)>,
}

/// One operating region of `results/fig3_cell_fluctuation.json`
/// (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionResult {
    /// Operating-region label (for example `subthreshold`).
    pub region: String,
    /// Read voltage applied to the cell, in volts.
    pub v_read: f64,
    /// Worst relative current fluctuation over the temperature sweep.
    pub worst_fluctuation: f64,
    /// The paper's reported fluctuation for the same region.
    pub paper_fluctuation: f64,
    /// `(temperature_c, relative_current)` samples.
    pub curve: Vec<(f64, f64)>,
}

/// Root of `results/fig4_baseline_overlap.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineOverlap {
    /// Worst-case noise-margin ratio across adjacent level pairs.
    pub nmr_min: f64,
    /// Index of the level pair attaining `nmr_min`.
    pub nmr_min_index: usize,
    /// Whether any adjacent output ranges overlap.
    pub has_overlap: bool,
    /// `(level, lo_mv, hi_mv)` output ranges.
    pub ranges_mv: Vec<(usize, f64, f64)>,
}

/// One cell variant of `results/fig7_proposed_cell.json` (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProposedCellRow {
    /// Cell structure label.
    pub cell: String,
    /// Relative fluctuation over the full temperature range.
    pub fluct_full_range: f64,
    /// Relative fluctuation over the warm sub-range.
    pub fluct_warm_range: f64,
    /// `(temperature_c, relative_current)` samples.
    pub curve: Vec<(f64, f64)>,
}

/// Root of `results/fig8_proposed_array.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProposedArraySummary {
    /// `(level_pair_index, nmr)` minimum over the full temperature range.
    pub nmr_min_full: (usize, f64),
    /// `(level_pair_index, nmr)` minimum over the warm sub-range.
    pub nmr_min_warm: (usize, f64),
    /// Whether any adjacent output ranges overlap.
    pub has_overlap: bool,
    /// `(level, lo_mv, hi_mv)` output ranges.
    pub ranges_mv: Vec<(usize, f64, f64)>,
    /// Per-level MAC energy in femtojoules.
    pub energy_per_mac_fj: Vec<f64>,
    /// Average MAC energy in femtojoules (paper: 3.14 fJ).
    pub average_energy_fj: f64,
    /// Energy efficiency in TOPS/W.
    pub tops_per_watt: f64,
    /// MAC latency in nanoseconds.
    pub latency_ns: f64,
}

/// One row-width sample of `results/fig9_process_variation.json`
/// (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariationPoint {
    /// Active cells per accumulated row.
    pub cells_per_row: usize,
    /// Worst relative MAC error across Monte-Carlo samples.
    pub max_relative_error: f64,
    /// Per-level probability of exact readout.
    pub correct_probability: Vec<f64>,
    /// Level-confusion matrix (rows: programmed, columns: read).
    pub confusion: Vec<Vec<f64>>,
}

/// One layer of `results/table1_vgg_structure.json` (root: array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VggLayerRow {
    /// Layer label.
    pub layer: String,
    /// Input feature-map shape.
    pub input_map: String,
    /// Output feature-map shape.
    pub output_map: String,
    /// Non-linearity applied after the layer.
    pub non_linearity: String,
}

/// Energy figure of a comparison row — mirrors
/// `ferrocim_cim::compare::EnergyFigure`, with the `Joule` newtype
/// widened to `f64` so the schema side derives `Deserialize`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnergyFigure {
    /// Joules per elementary MAC operation.
    PerOperation(f64),
    /// Joules per full network inference.
    PerInference(f64),
    /// Not reported.
    Unreported,
}

/// One row of `results/table2_summary.json` (root: array) — the owned
/// mirror of `ferrocim_cim::compare::ComparisonEntry`, whose
/// `&'static str` fields cannot implement `Deserialize`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Work label (citation key or "This work").
    pub work: String,
    /// Device technology (CMOS, FeFET, ReRAM, MTJ…).
    pub device: String,
    /// Process node label.
    pub process: String,
    /// Cell structure name.
    pub cell: String,
    /// Dataset evaluated, if any.
    pub dataset: Option<String>,
    /// Network architecture evaluated, if any.
    pub network: Option<String>,
    /// Reported classification accuracy, if any (fraction, 0–1).
    pub accuracy: Option<f64>,
    /// Reported energy figure.
    pub energy: EnergyFigure,
    /// Reported energy efficiency in TOPS/W, if any.
    pub tops_per_watt: Option<f64>,
}

impl From<&ferrocim_cim::compare::ComparisonEntry> for ComparisonRow {
    fn from(entry: &ferrocim_cim::compare::ComparisonEntry) -> ComparisonRow {
        use ferrocim_cim::compare::EnergyFigure as CimEnergy;
        ComparisonRow {
            work: entry.work.clone(),
            device: entry.device.to_string(),
            process: entry.process.to_string(),
            cell: entry.cell.to_string(),
            dataset: entry.dataset.map(str::to_string),
            network: entry.network.map(str::to_string),
            accuracy: entry.accuracy,
            energy: match entry.energy {
                CimEnergy::PerOperation(j) => EnergyFigure::PerOperation(j.0),
                CimEnergy::PerInference(j) => EnergyFigure::PerInference(j.0),
                CimEnergy::Unreported => EnergyFigure::Unreported,
            },
            tops_per_watt: entry.tops_per_watt,
        }
    }
}

/// Per-stepping-path statistics of `results/probe_adaptive.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathStats {
    /// Accepted waveform samples produced.
    pub samples: usize,
    /// Accepted integration steps.
    pub accepted: usize,
    /// Rejected (re-done) integration steps.
    pub rejected: usize,
    /// Steps that needed the convergence-rescue ladder.
    pub rescued: usize,
    /// Wall-clock time of the run in microseconds.
    pub wall_clock_us: f64,
    /// Final accumulated voltage in millivolts.
    pub v_acc_mv: f64,
}

/// Root of `results/probe_adaptive.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveProbe {
    /// Active cells per accumulated row.
    pub cells_per_row: usize,
    /// Programmed MAC level of the active cells.
    pub mac_level: usize,
    /// Simulated stop time in nanoseconds.
    pub t_stop_ns: f64,
    /// Fixed-path step size in picoseconds.
    pub fixed_dt_ps: f64,
    /// Adaptive-path local-truncation-error tolerance.
    pub lte_tol: f64,
    /// Fixed-step reference path.
    pub fixed: PathStats,
    /// Adaptive-step path under test.
    pub adaptive: PathStats,
    /// Endpoint disagreement between the paths in microvolts.
    pub endpoint_delta_uv: f64,
    /// Fixed-to-adaptive accepted-step ratio.
    pub step_ratio: f64,
    /// Fixed-to-adaptive wall-clock speedup.
    pub speedup: f64,
}

/// One row-width sample of `results/probe_sparse.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseWidthPoint {
    /// Cells per accumulated row at this sweep point.
    pub cells_per_row: usize,
    /// MNA unknowns of the row netlist (non-ground nodes plus
    /// voltage-source branch currents).
    pub unknowns: usize,
    /// Dense-backend DC solve wall clock in microseconds; `None` above
    /// the width where the dense path is still worth timing.
    pub dense_wall_us: Option<f64>,
    /// Sparse-backend DC solve wall clock in microseconds.
    pub sparse_wall_us: f64,
    /// Dense-to-sparse wall-clock ratio (`> 1` = sparse faster), where
    /// both backends ran.
    pub speedup: Option<f64>,
    /// Max-norm node-voltage disagreement between the backends, where
    /// both ran.
    pub max_delta_v: Option<f64>,
}

/// The VGG-scale single-row transient of `results/probe_sparse.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LargeRowMac {
    /// Cells in the simulated row.
    pub cells_per_row: usize,
    /// Accumulated output voltage in millivolts.
    pub v_acc_mv: f64,
    /// Digital ground truth of the MAC.
    pub expected: usize,
    /// End-to-end wall clock of the transient in milliseconds.
    pub wall_ms: f64,
    /// Sparse symbolic analyses run across the whole transient.
    pub symbolic_analyses: u64,
    /// Sparse numeric factorizations run across the whole transient.
    pub numeric_factorizations: u64,
}

/// Root of `results/probe_sparse.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseProbe {
    /// Dense-vs-sparse samples over the row-width sweep.
    pub widths: Vec<SparseWidthPoint>,
    /// The parity bound every `max_delta_v` is checked against.
    pub parity_bound: f64,
    /// Whether every measured `max_delta_v` stayed within the bound.
    pub parity_ok: bool,
    /// The end-to-end wide-row transient demonstration.
    pub large_row: LargeRowMac,
}

/// One expected-vs-observed counter of `results/probe_telemetry.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountCheck {
    /// Counter name.
    pub name: String,
    /// Count implied by the run's reports.
    pub expected: u64,
    /// Count observed by the aggregator.
    pub observed: u64,
}

/// Overhead measurement of `results/probe_telemetry.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overhead {
    /// Paired timing repetitions (each rep times one block of batches
    /// per side).
    pub reps: usize,
    /// MAC batches per timed block.
    pub batches_per_rep: usize,
    /// Jobs per MAC batch.
    pub jobs_per_batch: usize,
    /// Best per-batch time with telemetry off, in microseconds.
    pub off_us_per_batch: f64,
    /// Best per-batch time against a no-op recorder, in microseconds.
    pub noop_us_per_batch: f64,
    /// Dispatch overhead in percent: the median over the paired reps of
    /// each rep's (noop - off) / off ratio.
    pub overhead_pct: f64,
    /// The bound the probe enforces (2%).
    pub limit_pct: f64,
}

/// Overhead measurement of `results/probe_health.json`: the same DC
/// workload timed with certification off and on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthOverhead {
    /// Cells in the timed readout row.
    pub cells_per_row: usize,
    /// MNA unknowns of the row netlist.
    pub unknowns: usize,
    /// Paired timing repetitions (each rep times one multi-solve
    /// block per policy).
    pub reps: usize,
    /// Best per-solve DC wall clock with `HealthPolicy::off()`, in
    /// microseconds.
    pub off_us: f64,
    /// Best per-solve DC wall clock with the default policy, in
    /// microseconds.
    pub certified_us: f64,
    /// Certification overhead in percent: the median over the paired
    /// reps of each rep's (certified - off) / off ratio.
    pub overhead_pct: f64,
    /// The bound the probe enforces (8%).
    pub limit_pct: f64,
}

/// Certified quality of the healthy solve in
/// `results/probe_health.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertifiedQuality {
    /// Componentwise-relative backward error of the accepted solution.
    pub residual: f64,
    /// The tolerance it was certified against.
    pub residual_tol: f64,
    /// Iterative-refinement passes the final solve needed.
    pub refinement_passes: u32,
    /// Element growth of the final factorization.
    pub pivot_growth: f64,
}

/// The guardrail demonstration of `results/probe_health.json`: a solve
/// held to an impossible tolerance must walk the full refinement +
/// degradation ladder and then refuse with a typed error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardrailDemo {
    /// The unmeetable backward-error tolerance demanded.
    pub residual_tol: f64,
    /// Whether the solver refused with `UncertifiedSolve` (it must).
    pub refused: bool,
    /// Backward error reported by the refusal.
    pub reported_residual: f64,
    /// Hager condition estimate attached to the refusal, if computed.
    pub cond_estimate: Option<f64>,
    /// `SolveRefined` events observed during the walk.
    pub solves_refined: u64,
    /// `SolveDegraded` events observed during the walk.
    pub solves_degraded: u64,
}

/// Root of `results/probe_health.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthProbe {
    /// Certification overhead on the wide-row DC workload.
    pub overhead: HealthOverhead,
    /// Quality report of the certified wide-row solve.
    pub quality: CertifiedQuality,
    /// The impossible-tolerance refusal demonstration.
    pub guardrail: GuardrailDemo,
}

/// One load scenario of `results/probe_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeScenario {
    /// Scenario label (`overload`, `deadline`, `chaos`, `drain`,
    /// `surrogate`).
    pub name: String,
    /// Requests issued by the probe's client threads.
    pub requests: usize,
    /// `200` responses answered by a live solve.
    pub ok_live: usize,
    /// `200` responses answered by the certified surrogate fast path
    /// (`surrogate: true`, `degraded: false`).
    pub ok_surrogate: usize,
    /// `200` responses answered by the degraded fallback curve.
    pub ok_degraded: usize,
    /// Typed `429 Overloaded` sheds.
    pub shed: usize,
    /// Typed `504 Deadline Exceeded` responses.
    pub deadline_exceeded: usize,
    /// Transport-level failures (connection refused/reset before any
    /// response) — only legal in the drain scenario, after the
    /// listener has closed.
    pub refused: usize,
    /// Responses outside the typed taxonomy (must be zero).
    pub untyped: usize,
    /// Median client-observed latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds.
    pub p99_ms: f64,
}

/// The `serve_*` counters the probe's aggregator accumulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// Requests admitted past the bounded queue.
    pub admitted: u64,
    /// Requests shed (queue full or tenant quota).
    pub shed: u64,
    /// Backoff retries spent from the retry budget.
    pub retries: u64,
    /// Responses answered by the degraded fallback.
    pub degraded: u64,
    /// Circuit-breaker trip events.
    pub breaker_open: u64,
    /// Surrogate-store lookups that found a calibrated curve.
    pub surrogate_hits: u64,
    /// Surrogate-store lookups that calibrated a new curve.
    pub surrogate_misses: u64,
    /// Surrogate answers re-solved live by check mode.
    pub surrogate_checks: u64,
    /// Check-mode deviations beyond the certified envelope (must be 0).
    pub surrogate_check_failures: u64,
}

/// The gate bounds checked into `baselines/probe_serve.json`. Unlike
/// the trace-diff baselines, these are hand-set *limits*, not recorded
/// counter values: shed counts and retry counts are load-dependent, so
/// the gate pins the robustness contract (typed responses, bounded
/// tail latency, bounded shed rate) rather than exact numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeGateBounds {
    /// Maximum tolerated shed fraction in the overload scenario.
    pub max_shed_rate: f64,
    /// Maximum tolerated client-observed p99 in the overload scenario,
    /// milliseconds.
    pub max_p99_ms: f64,
    /// Minimum `200` responses the overload scenario must complete.
    pub min_ok: u64,
    /// Minimum fraction of the surrogate scenario's requests that must
    /// be answered by the surrogate fast path (`surrogate: true`).
    pub min_surrogate_rate: f64,
}

impl ServeGateBounds {
    /// The bounds checked into `baselines/probe_serve.json`, compiled into
    /// the probe so the file is their only spelling.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed bounds file.
    pub fn checked_in() -> Result<ServeGateBounds, serde_json::Error> {
        serde_json::from_str(include_str!("../../../baselines/probe_serve.json"))
    }
}

/// Root of `results/probe_serve.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeProbe {
    /// Per-scenario response censuses.
    pub scenarios: Vec<ServeScenario>,
    /// Aggregated `serve_*` counters across all scenarios.
    pub counters: ServeCounters,
    /// The gate bounds this run was checked against.
    pub gate: ServeGateBounds,
    /// Whether every gate bound held.
    pub gate_passed: bool,
}

/// Overhead of always-on flight recording in
/// `results/probe_observe.json`: the same DC workload timed against a
/// no-op recorder and a flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveOverhead {
    /// Cells in the timed readout row.
    pub cells_per_row: usize,
    /// MNA unknowns of the row netlist.
    pub unknowns: usize,
    /// Paired timing repetitions (each rep times one multi-solve
    /// block per recorder).
    pub reps: usize,
    /// Best per-solve wall clock recording into
    /// `ferrocim_telemetry::NoopRecorder`, in microseconds.
    pub noop_us: f64,
    /// Best per-solve wall clock recording into a flight-recorder
    /// ring, in microseconds.
    pub flight_us: f64,
    /// Events sitting in the ring after the timed reps (must be
    /// nonzero, or the timing never exercised the recorder).
    pub flight_events: usize,
    /// Flight-recording overhead in percent: the median over the
    /// paired reps of each rep's (flight - noop) / noop ratio, which
    /// discards load-burst outliers a best-of comparison would gate
    /// on.
    pub overhead_pct: f64,
    /// The bound the probe enforces (2%).
    pub limit_pct: f64,
}

/// The incident-dump demonstration of `results/probe_observe.json`: a
/// chaos-driven breaker trip must leave a parseable flight dump behind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveDump {
    /// MAC requests driven at the chaos server.
    pub requests: usize,
    /// Breaker trips the live aggregator counted.
    pub breaker_opens: u64,
    /// Automatic dumps the flight recorder wrote.
    pub dumps_written: u64,
    /// Path of the dump the probe parsed back.
    pub dump_path: String,
    /// Events recovered from the dump.
    pub dump_events: usize,
    /// `ServeBreakerOpen` events the replayed `trace summary` counted
    /// inside the dump (must cover the trip that triggered it).
    pub dump_serve_breaker_open: u64,
    /// Tenants in the dump's per-tenant rollup.
    pub dump_tenants: usize,
}

/// The label-cardinality demonstration of
/// `results/probe_observe.json`: more tenants than the cap must
/// collapse into `other`, never unbounded `/metrics` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveCardinality {
    /// The tenant cap the aggregator was configured with.
    pub tenant_cap: usize,
    /// Distinct tenants the probe drove through the server.
    pub tenants_driven: usize,
    /// Distinct tenant labels in the `ferrocim_serve_requests_total`
    /// family (at most `tenant_cap + 1`, counting `other`).
    pub distinct_request_series: usize,
    /// Whether the `other` overflow label appeared.
    pub other_present: bool,
    /// Whether per-tenant `_bucket` latency series were exposed.
    pub bucket_series_present: bool,
    /// Whether per-tenant `_sum` latency series were exposed.
    pub sum_series_present: bool,
    /// Whether per-tenant `_count` latency series were exposed.
    pub count_series_present: bool,
}

/// The gate bounds checked into `baselines/probe_observe.json`.
/// Hand-set limits like the serve gate: wall-clock overhead is
/// machine-dependent, so the gate pins the observability contract
/// (cheap recording, a parseable incident dump, bounded cardinality)
/// rather than exact numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveGateBounds {
    /// Maximum tolerated flight-recording overhead in percent.
    pub max_overhead_pct: f64,
    /// Minimum `ServeBreakerOpen` events the parsed dump must contain.
    pub min_dump_breaker_opens: u64,
    /// Maximum distinct tenant labels tolerated in `/metrics`.
    pub max_distinct_tenants: usize,
}

impl ObserveGateBounds {
    /// The bounds checked into `baselines/probe_observe.json`, compiled into
    /// the probe so the file is their only spelling.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed bounds file.
    pub fn checked_in() -> Result<ObserveGateBounds, serde_json::Error> {
        serde_json::from_str(include_str!("../../../baselines/probe_observe.json"))
    }
}

/// Root of `results/probe_observe.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveProbe {
    /// Flight-recording overhead on the wide-row DC workload.
    pub overhead: ObserveOverhead,
    /// The chaos-driven incident-dump demonstration.
    pub dump: ObserveDump,
    /// The tenant-cardinality demonstration.
    pub cardinality: ObserveCardinality,
    /// The gate bounds this run was checked against.
    pub gate: ObserveGateBounds,
    /// Whether every gate bound held.
    pub gate_passed: bool,
}

/// Calibration cost and certified envelope of
/// `results/probe_surrogate.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateCalibration {
    /// Calibrated curves in the store after the workload.
    pub curves: usize,
    /// Live solves spent calibrating the timed curve.
    pub solves: u64,
    /// Wall clock of the timed curve's calibration, milliseconds.
    pub wall_ms: f64,
    /// Certified per-query worst-case error bound, volts.
    pub envelope_max_v: f64,
    /// RMS deviation observed while probing the envelope, volts.
    pub envelope_rms_v: f64,
    /// Probe evaluations behind the envelope.
    pub envelope_probes: usize,
}

/// Cache-hit-vs-live timing comparison of
/// `results/probe_surrogate.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateSpeedup {
    /// Queries timed through each path.
    pub queries: usize,
    /// Mean live analytic solve time per query, microseconds.
    pub live_us_per_query: f64,
    /// Mean surrogate evaluation time per query, microseconds.
    pub surrogate_us_per_query: f64,
    /// Live-to-surrogate wall-clock ratio.
    pub speedup: f64,
    /// Worst `|v_surrogate − v_live|` across the timed queries, volts.
    pub max_abs_deviation_v: f64,
    /// Queries whose surrogate and live readouts disagreed.
    pub readout_mismatches: usize,
}

/// Check-mode audit of `results/probe_surrogate.json`: a seeded
/// subsample of surrogate answers re-solved through the live solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateCheckAudit {
    /// The configured sampling period (one in `every`).
    pub every: u64,
    /// Queries evaluated under check mode.
    pub queries: usize,
    /// Queries the policy selected for a live re-solve.
    pub checks: u64,
    /// Deviations beyond the certified envelope (must be 0).
    pub check_failures: u64,
}

/// Domain-refusal demonstration of `results/probe_surrogate.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateDomainDemo {
    /// Lower edge of the calibrated temperature domain, Celsius.
    pub lo_c: f64,
    /// Upper edge of the calibrated temperature domain, Celsius.
    pub hi_c: f64,
    /// The out-of-domain temperature the probe queried, Celsius.
    pub rejected_temp_c: f64,
    /// Whether the query was refused with the typed `OutOfDomain`
    /// error (it must be — the surrogate never extrapolates).
    pub rejected_typed: bool,
}

/// The gate bounds checked into `baselines/probe_surrogate.json`.
/// Hand-set limits like the serve gate: wall-clock ratios are
/// machine-dependent, so the gate pins the contract (a real speedup, a
/// sane envelope, zero check failures) rather than exact numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateGateBounds {
    /// Minimum tolerated live-to-surrogate speedup.
    pub min_speedup: f64,
    /// Maximum tolerated certified envelope, volts.
    pub max_envelope_v: f64,
    /// Maximum tolerated check-mode failures (0: the envelope is a
    /// promise, not a statistic).
    pub max_check_failures: u64,
}

impl SurrogateGateBounds {
    /// The bounds checked into `baselines/probe_surrogate.json`, compiled into
    /// the probe so the file is their only spelling.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed bounds file.
    pub fn checked_in() -> Result<SurrogateGateBounds, serde_json::Error> {
        serde_json::from_str(include_str!("../../../baselines/probe_surrogate.json"))
    }
}

/// Root of `results/probe_surrogate.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateProbe {
    /// Cells per row of the probed array.
    pub cells_per_row: usize,
    /// The calibration temperature grid, Celsius.
    pub grid_c: Vec<f64>,
    /// Calibration cost and the certified envelope.
    pub calibration: SurrogateCalibration,
    /// Cache-hit timing versus live analytic solves.
    pub speedup: SurrogateSpeedup,
    /// The seeded check-mode audit.
    pub check: SurrogateCheckAudit,
    /// The out-of-domain refusal demonstration.
    pub domain: SurrogateDomainDemo,
    /// The gate bounds this run was checked against.
    pub gate: SurrogateGateBounds,
    /// Whether every gate bound held.
    pub gate_passed: bool,
}

/// Root of `results/probe_telemetry.json` (single object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryProbe {
    /// Report-vs-aggregator consistency checks.
    pub checks: Vec<CountCheck>,
    /// Whether every check matched.
    pub consistent: bool,
    /// Overhead measurement (present only under `--overhead`).
    pub overhead: Option<Overhead>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_row_mirrors_the_cim_entry_serialization() {
        use ferrocim_cim::compare::{ComparisonEntry, EnergyFigure as CimEnergy};
        use ferrocim_units::Joule;
        let entry = ComparisonEntry {
            work: "This work".to_string(),
            device: "FeFET",
            process: "28nm",
            cell: "2T-1FeFET",
            dataset: Some("CIFAR-10"),
            network: None,
            accuracy: Some(0.9),
            energy: CimEnergy::PerOperation(Joule(3.14e-15)),
            tops_per_watt: Some(5100.0),
        };
        let mirrored = ComparisonRow::from(&entry);
        assert_eq!(
            serde_json::to_string(&entry).expect("entry"),
            serde_json::to_string(&mirrored).expect("mirror"),
            "the schema mirror must serialize byte-identically"
        );
        let text = serde_json::to_string(&mirrored).expect("serialize");
        let back: ComparisonRow = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, mirrored);
    }

    #[test]
    fn checked_in_gate_bounds_parse() {
        ServeGateBounds::checked_in().expect("baselines/probe_serve.json");
        ObserveGateBounds::checked_in().expect("baselines/probe_observe.json");
        SurrogateGateBounds::checked_in().expect("baselines/probe_surrogate.json");
    }

    #[test]
    fn tuple_heavy_schemas_round_trip() {
        let summary = ProposedArraySummary {
            nmr_min_full: (0, 0.21),
            nmr_min_warm: (1, 0.29),
            has_overlap: false,
            ranges_mv: vec![(0, 0.04, 5.6), (1, 6.8, 12.0)],
            energy_per_mac_fj: vec![3.1, 3.2],
            average_energy_fj: 3.15,
            tops_per_watt: 5100.0,
            latency_ns: 2.0,
        };
        let text = serde_json::to_string(&summary).expect("serialize");
        let back: ProposedArraySummary = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, summary);
    }
}
