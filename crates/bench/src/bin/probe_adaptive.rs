//! Probe: adaptive LTE-controlled stepping vs. the fixed-step baseline
//! on the paper-default MAC readout transient (DESIGN.md §11).
//!
//! Runs the same 8-cell 2T-1FeFET row readout netlist through both
//! stepping modes ([`adaptive_probe`]), reports accepted/rejected/
//! rescued step counts and best-of-5 wall-clock timings, and dumps
//! `results/probe_adaptive.json`.

use ferrocim_bench::schema::PathStats;
use ferrocim_bench::timing::best_of;
use ferrocim_bench::{adaptive_probe, dump_json, print_table};

/// Wall-clock repetitions per stepping mode; the minimum is reported so
/// a background hiccup on one run does not skew the comparison.
const REPS: usize = 5;

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
    let out = adaptive_probe(&trace.telemetry(), |analysis| {
        best_of(REPS, || analysis.run())
    })?;

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
        &[
            stats_row("fixed", &out.fixed),
            stats_row("adaptive", &out.adaptive),
        ],
    );
    println!("\nendpoint delta = {:.2} uV", out.endpoint_delta_uv);
    println!(
        "step ratio (fixed/adaptive accepted) = {:.2}x",
        out.step_ratio
    );
    println!("wall-clock speedup = {:.2}x", out.speedup);

    let path = dump_json("probe_adaptive", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    Ok(())
}
