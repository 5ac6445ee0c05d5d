//! Probe: cost and teeth of the numerical-health layer (DESIGN.md §15).
//!
//! Two claims are measured on real workloads:
//!
//! 1. **Cost** — certifying every linear solve (backward-error check
//!    after each factor+solve) must stay under 8% wall-clock overhead
//!    on the 256-cell row DC readout, the widest workload the dense
//!    backend still times in `probe_sparse`. Every solve gets a fresh
//!    workspace so the comparison includes the full symbolic + numeric
//!    cost, and the gated figure is the paired-median estimator every
//!    wall-clock gate uses ([`paired_overhead`]).
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
use ferrocim_bench::timing::paired_overhead;
use ferrocim_bench::{dump_json, Trace};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray};
use ferrocim_spice::{
    Circuit, DcAnalysis, HealthPolicy, RunContext, SolverConfig, SpiceError, Workspace,
};
use ferrocim_telemetry::{Aggregator, Recorder, Tee, Telemetry};
use ferrocim_units::Farad;
use std::sync::Arc;

/// Row width of the timed DC workload (~1029 MNA unknowns).
const CELLS: usize = 256;

/// Paired timing repetitions; the gated overhead is the median of the
/// per-rep paired ratios. The certification overhead sits within a
/// few points of its bound, so the median needs more reps than
/// `probe_observe`'s to stay steady on a loaded host.
const REPS: usize = 21;

/// Solves per timed block, as in `probe_observe`.
const BLOCK: usize = 4;

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

/// Times the full DC Newton solve with certification off against
/// certification on through [`paired_overhead`], one [`BLOCK`]-solve
/// block per side and rep. Returns the best per-solve wall clocks in
/// microseconds, the median paired overhead in percent, and the
/// quality the last certified solve reported.
fn time_policies(
    ckt: &Circuit,
) -> Result<(f64, f64, f64, ferrocim_spice::SolveQuality), SpiceError> {
    let solve = |health: HealthPolicy| -> Result<Workspace, SpiceError> {
        // A fresh workspace per solve so each timing includes the full
        // symbolic + numeric cost, not a warm rerun.
        let mut ws = Workspace::with_solver(SolverConfig::sparse());
        DcAnalysis::new(ckt)
            .with_context(RunContext {
                health,
                ..RunContext::default()
            })
            .solve_in(&mut ws)?;
        Ok(ws)
    };
    let mut quality = None;
    let timing = paired_overhead(
        REPS,
        || (0..BLOCK).try_for_each(|_| solve(HealthPolicy::off()).map(drop)),
        || {
            for _ in 0..BLOCK {
                quality = solve(HealthPolicy::default())?.last_solve_quality();
            }
            Ok(())
        },
    )?;
    let quality = quality.expect("the default policy certifies every solve");
    Ok((
        timing.base_best_s / BLOCK as f64 * 1e6,
        timing.test_best_s / BLOCK as f64 * 1e6,
        timing.overhead_pct,
        quality,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Trace::from_args()?;
    println!("# Probe — numerical-health certification: cost and teeth\n");

    // Cost: the 256-cell row DC readout with certification off vs. on.
    let array = scaled_array(CELLS)?;
    let (weights, inputs) = mac_operands(CELLS, CELLS / 2 + 1);
    let (ckt, _acc, _t_stop) = array.readout_circuit(&weights, &inputs)?;
    let unknowns = unknown_count(&ckt);
    let (off_us, certified_us, overhead_pct, quality) = time_policies(&ckt)?;
    let overhead = HealthOverhead {
        cells_per_row: CELLS,
        unknowns,
        reps: REPS,
        off_us,
        certified_us,
        overhead_pct,
        limit_pct: OVERHEAD_LIMIT_PCT,
    };
    println!(
        "{CELLS}-cell row DC readout ({unknowns} unknowns, {REPS} paired {BLOCK}-solve blocks):"
    );
    println!("  certification off : {off_us:.1} us/solve");
    println!("  certification on  : {certified_us:.1} us/solve");
    println!(
        "  median paired overhead = {:.2} % (limit {} %)",
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
