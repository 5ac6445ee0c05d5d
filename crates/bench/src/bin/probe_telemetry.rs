//! Probe: the telemetry subsystem itself (DESIGN.md §12).
//!
//! Default mode runs an instrumented adaptive MAC-readout transient and
//! a fault-injecting Monte-Carlo sweep through an in-memory
//! [`Aggregator`] (teed into the `--trace` sink when one is given) and
//! checks the aggregated event counts bitwise against the simulator's
//! own reports (`StepReport`, `FanOutReport`). With `--overhead` it
//! additionally times the batched-MAC workload with telemetry off
//! versus a [`NoopRecorder`] attached — the full event-construction and
//! dispatch path with nothing behind it — and requires the median
//! paired overhead ([`paired_overhead`]) to stay under 2 %.
//!
//! Dumps `results/probe_telemetry.json`.

use ferrocim_bench::schema::{CountCheck, Overhead, TelemetryProbe};
use ferrocim_bench::timing::paired_overhead;
use ferrocim_bench::{dump_json, print_table, Trace};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, ArrayEngine, CimArray};
use ferrocim_spice::{AdaptiveOptions, FailurePolicy, MonteCarlo, TransientAnalysis};
use ferrocim_telemetry::{Aggregator, NoopRecorder, Recorder, Tee, Telemetry};
use ferrocim_units::Celsius;
use rand::Rng as _;
use std::sync::Arc;

/// The acceptance bound on the NoopRecorder dispatch overhead.
const OVERHEAD_LIMIT_PCT: f64 = 2.0;

/// Monte-Carlo samples in the consistency sweep.
const MC_RUNS: usize = 40;

fn check(name: &str, expected: u64, observed: u64) -> CountCheck {
    CountCheck {
        name: name.to_string(),
        expected,
        observed,
    }
}

/// Runs the instrumented transient + Monte-Carlo demo and returns the
/// report-vs-aggregator comparisons.
fn consistency(trace: &Trace) -> Result<Vec<CountCheck>, Box<dyn std::error::Error>> {
    let agg = Arc::new(Aggregator::new());
    // One handle feeds the in-memory aggregator and (when `--trace` was
    // given) the JSONL sink — a Telemetry handle is itself a Recorder.
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));

    let config = ArrayConfig::paper_default();
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?;
    let mac_level = config.cells_per_row / 2 + 1;
    let (weights, inputs) = mac_operands(config.cells_per_row, mac_level);
    let (ckt, _acc, t_stop) = array.readout_circuit(&weights, &inputs)?;
    let run = TransientAnalysis::over(&ckt, t_stop)
        .with_adaptive_options(AdaptiveOptions::for_duration(t_stop))
        .with_recorder(tele.clone())
        .run()?;
    let report = run.step_report();
    let after_transient = agg.counts();
    let mut checks = vec![
        check(
            "steps accepted == StepReport.accepted",
            report.accepted as u64,
            after_transient.steps_accepted,
        ),
        check(
            "steps rejected == StepReport.rejected",
            report.rejected as u64,
            after_transient.steps_rejected,
        ),
        check(
            "rescues succeeded == StepReport.rescued",
            report.rescued as u64,
            after_transient.rescues_succeeded,
        ),
    ];

    // A Monte-Carlo sweep where every fifth sample fails with a typed
    // error and is substituted, so the ok/failed split is non-trivial.
    let mc = MonteCarlo::new(MC_RUNS, 0xFE0F).with_recorder(tele.clone());
    let mc_report = mc
        .try_run(&FailurePolicy::Substitute(0.0f64), |run, rng| {
            if run % 5 == 0 {
                Err(format!("synthetic failure in run {run}"))
            } else {
                Ok(rng.random::<f64>())
            }
        })
        .map_err(|e| format!("fan-out failed: {e}"))?;
    let counts = agg.counts();
    checks.push(check(
        "mc runs started == runs",
        MC_RUNS as u64,
        counts.mc_runs_started,
    ));
    checks.push(check(
        "mc runs ok == runs - FanOutReport.failures",
        (MC_RUNS - mc_report.failures) as u64,
        counts.mc_runs_ok,
    ));
    checks.push(check(
        "mc runs failed == FanOutReport.failures",
        mc_report.failures as u64,
        counts.mc_runs_failed,
    ));
    Ok(checks)
}

/// Times a batched-MAC workload (16 jobs over 2 distinct patterns on
/// the 8-cell row) with telemetry off against a [`NoopRecorder`]
/// attached, through [`paired_overhead`].
fn overhead() -> Result<Overhead, Box<dyn std::error::Error>> {
    // Each batch fans out over threads, so single reps swing by tens of
    // percent on a loaded host; the gate needs the median of many pairs.
    const REPS: usize = 21;
    const BATCHES: usize = 3;
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?;
    let weights = [true, true, false, true, true, false, true, true];
    let a: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    let b: Vec<bool> = (0..8).map(|i| i < 5).collect();
    let inputs: Vec<Vec<bool>> = (0..16)
        .map(|j| if j % 2 == 0 { a.clone() } else { b.clone() })
        .collect();
    let noop_array = array.clone().with_recorder(Telemetry::to(NoopRecorder));
    let off_engine = ArrayEngine::new(&array, &weights)?;
    let noop_engine = ArrayEngine::new(&noop_array, &weights)?;
    let block = |engine: &ArrayEngine<'_, TwoTransistorOneFefet>| {
        (0..BATCHES).try_for_each(|_| engine.mac_batch(&inputs, Celsius(27.0)).map(drop))
    };
    let timing = paired_overhead(REPS, || block(&off_engine), || block(&noop_engine))?;
    Ok(Overhead {
        reps: REPS,
        batches_per_rep: BATCHES,
        jobs_per_batch: inputs.len(),
        off_us_per_batch: timing.base_best_s / BATCHES as f64 * 1e6,
        noop_us_per_batch: timing.test_best_s / BATCHES as f64 * 1e6,
        overhead_pct: timing.overhead_pct,
        limit_pct: OVERHEAD_LIMIT_PCT,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    let with_overhead = std::env::args().any(|a| a == "--overhead");
    println!("# Probe — telemetry count consistency and dispatch overhead\n");

    let checks = consistency(&trace)?;
    print_table(
        &["check", "expected", "observed", "status"],
        &checks
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    c.expected.to_string(),
                    c.observed.to_string(),
                    if c.expected == c.observed {
                        "ok".into()
                    } else {
                        "MISMATCH".into()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );
    let consistent = checks.iter().all(|c| c.expected == c.observed);

    let overhead = if with_overhead {
        let o = overhead()?;
        println!(
            "\nbatched-MAC dispatch overhead (NoopRecorder vs off, {} paired {}-batch blocks):",
            o.reps, o.batches_per_rep
        );
        println!("  off  : {:.1} us/batch", o.off_us_per_batch);
        println!("  noop : {:.1} us/batch", o.noop_us_per_batch);
        println!(
            "  median paired overhead = {:.3} % (limit {} %)",
            o.overhead_pct, o.limit_pct
        );
        Some(o)
    } else {
        None
    };

    let out = TelemetryProbe {
        checks,
        consistent,
        overhead,
    };
    let path = dump_json("probe_telemetry", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    if !out.consistent {
        return Err("telemetry counts diverged from the simulator's own reports".into());
    }
    if let Some(o) = &out.overhead {
        if o.overhead_pct >= o.limit_pct {
            return Err(format!(
                "telemetry dispatch overhead {:.3} % exceeds the {} % bound",
                o.overhead_pct, o.limit_pct
            )
            .into());
        }
    }
    Ok(())
}
