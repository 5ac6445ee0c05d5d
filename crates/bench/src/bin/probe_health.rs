//! Probe: cost and teeth of the numerical-health layer (DESIGN.md §15).
//!
//! Two claims are measured on real workloads:
//!
//! 1. **Cost** — certifying every linear solve (backward-error check
//!    after each factor+solve) must stay under 8% wall-clock overhead
//!    on the 256-cell row DC readout, the widest workload the dense
//!    backend still times in `probe_sparse`. Both runs use a fresh
//!    workspace per repetition so the comparison includes the full
//!    symbolic + numeric cost, and the off/certified reps are
//!    interleaved so machine-load drift cannot inflate one side.
//! 2. **Teeth** — a solve held to an impossible backward-error
//!    tolerance must *refuse*: walk bounded iterative refinement, then
//!    the whole degradation ladder (fresh symbolic → alternate ordering
//!    → dense fallback, each emitting [`SolveDegraded`]), and come back
//!    with the typed `UncertifiedSolve` error instead of an unverified
//!    solution. The emitted counter events land in the `--trace` sink,
//!    so `trace summary --prometheus` and the bench gate see nonzero
//!    `solves_refined` / `solves_degraded` from this probe.
//!
//! Dumps `results/probe_health.json`.
//!
//! [`SolveDegraded`]: ferrocim_telemetry::Event::SolveDegraded

use ferrocim_bench::schema::{CertifiedQuality, GuardrailDemo, HealthOverhead, HealthProbe};
use ferrocim_bench::{dump_json, Trace};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray};
use ferrocim_spice::{
    Circuit, DcAnalysis, HealthPolicy, RunContext, SolverConfig, SpiceError, Workspace,
};
use ferrocim_telemetry::{Aggregator, Recorder, Tee, Telemetry};
use ferrocim_units::Farad;
use std::sync::Arc;
use std::time::Instant;

/// Row width of the timed DC workload (~1029 MNA unknowns).
const CELLS: usize = 256;

/// Best-of repetitions for each timing.
const REPS: usize = 9;

/// Certification overhead bound in percent.
const OVERHEAD_LIMIT_PCT: f64 = 8.0;

/// A row array scaled to `cells` columns, as in `probe_sparse`.
fn scaled_array(cells: usize) -> Result<CimArray<TwoTransistorOneFefet>, ferrocim_cim::CimError> {
    let base = ArrayConfig::paper_default();
    let config = ArrayConfig {
        cells_per_row: cells,
        c_acc: Farad(cells as f64 * base.c_o.value()),
        ..base
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config)
}

/// MNA unknowns of the netlist: non-ground nodes plus one branch
/// current per voltage source.
fn unknown_count(ckt: &Circuit) -> usize {
    let sources = ckt
        .elements()
        .iter()
        .filter(|el| matches!(el, ferrocim_spice::Element::VoltageSource { .. }))
        .count();
    ckt.node_count() - 1 + sources
}

/// Times the full DC Newton solve with certification off and on,
/// rep-interleaved so machine-load drift lands on both paths equally
/// (two back-to-back best-of blocks let a single slow stretch inflate
/// one side and fail the overhead bound spuriously). Returns the
/// best-of-[`REPS`] wall clocks in microseconds and the quality the
/// last certified repetition reported.
fn time_dc_pair(ckt: &Circuit) -> Result<(f64, f64, ferrocim_spice::SolveQuality), SpiceError> {
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut quality = None;
    for _ in 0..REPS {
        // A fresh workspace per rep so each timing includes the full
        // symbolic + numeric cost, not a warm rerun.
        let mut ws = Workspace::with_solver(SolverConfig::sparse());
        let start = Instant::now();
        DcAnalysis::new(ckt)
            .with_context(RunContext {
                health: HealthPolicy::off(),
                ..RunContext::default()
            })
            .solve_in(&mut ws)?;
        best_off = best_off.min(start.elapsed().as_secs_f64());
        let mut ws = Workspace::with_solver(SolverConfig::sparse());
        let start = Instant::now();
        DcAnalysis::new(ckt)
            .with_context(RunContext {
                health: HealthPolicy::default(),
                ..RunContext::default()
            })
            .solve_in(&mut ws)?;
        best_on = best_on.min(start.elapsed().as_secs_f64());
        quality = ws.last_solve_quality();
    }
    let quality = quality.expect("the default policy certifies every solve");
    Ok((best_off * 1e6, best_on * 1e6, quality))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Trace::from_args()?;
    println!("# Probe — numerical-health certification: cost and teeth\n");

    // Cost: the 256-cell row DC readout with certification off vs. on.
    let array = scaled_array(CELLS)?;
    let (weights, inputs) = mac_operands(CELLS, CELLS / 2 + 1);
    let (ckt, _acc, _t_stop) = array.readout_circuit(&weights, &inputs)?;
    let unknowns = unknown_count(&ckt);
    let (off_us, certified_us, quality) = time_dc_pair(&ckt)?;
    let overhead = HealthOverhead {
        cells_per_row: CELLS,
        unknowns,
        reps: REPS,
        off_us,
        certified_us,
        overhead_pct: (certified_us - off_us) / off_us * 100.0,
        limit_pct: OVERHEAD_LIMIT_PCT,
    };
    println!("{CELLS}-cell row DC readout ({unknowns} unknowns, best of {REPS}):");
    println!("  certification off : {off_us:.1} us");
    println!("  certification on  : {certified_us:.1} us");
    println!(
        "  overhead = {:.2} % (limit {} %)",
        overhead.overhead_pct, overhead.limit_pct
    );
    let policy = HealthPolicy::default();
    let quality = CertifiedQuality {
        residual: quality.residual,
        residual_tol: policy.residual_tol,
        refinement_passes: quality.refinement_passes,
        pivot_growth: quality.pivot_growth,
    };
    println!(
        "  certified: backward error {:.2e} (tol {:.0e}), {} refinement pass(es), \
         pivot growth {:.2}",
        quality.residual, quality.residual_tol, quality.refinement_passes, quality.pivot_growth
    );

    // Teeth: the paper-default row held to an unmeetable tolerance.
    // Refinement and ladder events are teed into the aggregator (for
    // the report below) and the `--trace` sink (for the bench gate).
    let agg = Arc::new(Aggregator::new());
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));
    let small = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?;
    let cells = ArrayConfig::paper_default().cells_per_row;
    let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
    let (small_ckt, _acc, _t_stop) = small.readout_circuit(&weights, &inputs)?;
    let strict = HealthPolicy {
        residual_tol: 1e-30,
        ..HealthPolicy::default()
    };
    let mut ws = Workspace::with_solver(SolverConfig::sparse());
    let refusal = DcAnalysis::new(&small_ckt)
        .with_context(RunContext {
            telemetry: tele,
            health: strict,
            ..RunContext::default()
        })
        .solve_in(&mut ws);
    let (refused, reported_residual, cond_estimate) = match refusal {
        Err(SpiceError::UncertifiedSolve {
            residual,
            cond_estimate,
        }) => (true, residual, cond_estimate),
        Err(other) => return Err(format!("expected UncertifiedSolve, got {other:?}").into()),
        Ok(_) => (false, f64::NAN, None),
    };
    let counts = agg.counts();
    let guardrail = GuardrailDemo {
        residual_tol: strict.residual_tol,
        refused,
        reported_residual,
        cond_estimate,
        solves_refined: counts.solves_refined,
        solves_degraded: counts.solves_degraded,
    };
    println!(
        "\n{cells}-cell row held to an impossible tolerance ({:.0e}):",
        strict.residual_tol
    );
    println!(
        "  refused = {}, reported backward error {:.2e}, cond estimate {}",
        guardrail.refused,
        guardrail.reported_residual,
        guardrail
            .cond_estimate
            .map_or("-".into(), |c| format!("{c:.2e}")),
    );
    println!(
        "  ladder walked: {} refined solves, {} degradations",
        guardrail.solves_refined, guardrail.solves_degraded
    );

    let out = HealthProbe {
        overhead,
        quality,
        guardrail,
    };
    let path = dump_json("probe_health", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    if !out.guardrail.refused {
        return Err("the solver accepted a solve it could not certify".into());
    }
    if out.guardrail.solves_refined == 0 || out.guardrail.solves_degraded == 0 {
        return Err("the refusal did not walk the refinement + degradation ladder".into());
    }
    if out.overhead.overhead_pct >= out.overhead.limit_pct {
        return Err(format!(
            "certification overhead {:.2} % exceeds the {} % bound",
            out.overhead.overhead_pct, out.overhead.limit_pct
        )
        .into());
    }
    Ok(())
}
