//! Probe: adaptive LTE-controlled stepping vs. the fixed-step baseline
//! on the paper-default MAC readout transient (DESIGN.md §11).
//!
//! Runs the same 8-cell 2T-1FeFET row readout netlist through both
//! stepping modes, reports accepted/rejected/rescued step counts and
//! wall-clock timings, and dumps `results/probe_adaptive.json`.

use ferrocim_bench::schema::{AdaptiveProbe, PathStats};
use ferrocim_bench::timing::best_of;
use ferrocim_bench::{dump_json, print_table};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray};
use ferrocim_spice::{AdaptiveOptions, Circuit, NodeId, TransientAnalysis};
use ferrocim_units::Second;

/// Wall-clock repetitions per stepping mode; the minimum is reported so
/// a background hiccup on one run does not skew the comparison.
const REPS: usize = 5;

/// Runs `analysis` best-of-[`REPS`] and summarises the last run,
/// returning its statistics and final `V_acc` in volts.
fn stepping_stats(
    analysis: &TransientAnalysis<'_>,
    ckt_acc: NodeId,
) -> Result<(PathStats, f64), ferrocim_spice::SpiceError> {
    let (best, run) = best_of(REPS, || analysis.run())?;
    let report = run.step_report();
    let v_acc = run.final_voltage(ckt_acc).value();
    Ok((
        PathStats {
            samples: run.times().len(),
            accepted: report.accepted,
            rejected: report.rejected,
            rescued: report.rescued,
            wall_clock_us: best * 1e6,
            v_acc_mv: v_acc * 1e3,
        },
        v_acc,
    ))
}

fn stats_row(label: &str, s: &PathStats) -> Vec<String> {
    vec![
        label.into(),
        s.samples.to_string(),
        s.accepted.to_string(),
        s.rejected.to_string(),
        s.rescued.to_string(),
        format!("{:.1}", s.wall_clock_us),
        format!("{:.3}", s.v_acc_mv),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!("# Probe — adaptive vs. fixed stepping on the MAC readout\n");
    let config = ArrayConfig::paper_default();
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?;
    // A mid-scale MAC level exercises both the charge and the share
    // phase with several cells active.
    let mac_level = config.cells_per_row / 2 + 1;
    let (weights, inputs) = mac_operands(config.cells_per_row, mac_level);
    let (ckt, acc, t_stop): (Circuit, NodeId, Second) = array.readout_circuit(&weights, &inputs)?;

    let opts = AdaptiveOptions::for_duration(t_stop);
    let (fixed, v_fixed) = stepping_stats(
        &TransientAnalysis::over(&ckt, t_stop)
            .with_fixed_step(config.dt)
            .with_recorder(trace.telemetry()),
        acc,
    )?;
    let (adaptive, v_adaptive) = stepping_stats(
        &TransientAnalysis::over(&ckt, t_stop)
            .with_adaptive_options(opts)
            .with_recorder(trace.telemetry()),
        acc,
    )?;

    print_table(
        &[
            "stepping",
            "samples",
            "accepted",
            "rejected",
            "rescued",
            "wall [us]",
            "V_acc [mV]",
        ],
        &[stats_row("fixed", &fixed), stats_row("adaptive", &adaptive)],
    );

    let endpoint_delta_uv = (v_adaptive - v_fixed).abs() * 1e6;
    let step_ratio = fixed.accepted as f64 / adaptive.accepted.max(1) as f64;
    let speedup = fixed.wall_clock_us / adaptive.wall_clock_us;
    println!("\nendpoint delta = {endpoint_delta_uv:.2} uV");
    println!("step ratio (fixed/adaptive accepted) = {step_ratio:.2}x");
    println!("wall-clock speedup = {speedup:.2}x");

    let out = AdaptiveProbe {
        cells_per_row: config.cells_per_row,
        mac_level,
        t_stop_ns: t_stop.value() * 1e9,
        fixed_dt_ps: config.dt.value() * 1e12,
        lte_tol: opts.lte_tol,
        fixed,
        adaptive,
        endpoint_delta_uv,
        step_ratio,
        speedup,
    };
    let path = dump_json("probe_adaptive", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    Ok(())
}
