//! Exact solver-work counts of the probe workloads.
//!
//! Each test runs one probe's counted workload once (plus one
//! `ArrayEngine` grid no probe covers), recording into an
//! [`Aggregator`], and asserts every counter the `trace diff` gate
//! compares ([`extract_metrics`]) by exact equality: the listed
//! counters at their value, every other gated counter at zero. The
//! counts are deterministic (seeded inputs, name-ordered fan-out
//! merges) and identical in debug and release builds, so any change is
//! a change in solver work: a broken deduplication, a looser step
//! control, a lost symbolic-analysis reuse.

use ferrocim_bench::{
    adaptive_probe, certification_refusal, fault_sweep, paper_row_mac, wide_row_mac,
};
use ferrocim_cim::cells::{OneFefetOneR, TwoTransistorOneFefet};
use ferrocim_cim::metrics::{EnergyReport, RangeTable};
use ferrocim_cim::{mac_operands, ArrayConfig, ArrayEngine, CimArray};
use ferrocim_spice::sweep::temperature_sweep;
use ferrocim_spice::{HealthPolicy, Workspace};
use ferrocim_telemetry::{Aggregator, Telemetry};
use ferrocim_traceview::extract_metrics;
use ferrocim_units::Celsius;
use std::error::Error;
use std::sync::Arc;

type Workload = Result<(), Box<dyn Error>>;

/// Runs `workload` against an aggregating telemetry handle and asserts
/// every gated counter: each `(name, value)` in `expected` exactly, and
/// every gated counter not listed at zero.
fn assert_counts(workload: impl FnOnce(&Telemetry) -> Workload, expected: &[(&str, u64)]) {
    let gated: Vec<&str> = extract_metrics(&[]).into_iter().map(|(n, _)| n).collect();
    for (name, _) in expected {
        assert!(gated.contains(name), "{name} is not a gated counter");
    }
    let agg = Arc::new(Aggregator::new());
    workload(&Telemetry::new(agg.clone())).expect("the workload runs");
    let got: Vec<(&str, u64)> = agg
        .counts()
        .entries()
        .filter(|(spec, _)| spec.gated)
        .map(|(spec, value)| (spec.name, value))
        .collect();
    let want: Vec<(&str, u64)> = gated
        .iter()
        .map(|&name| {
            let value = expected.iter().find(|(n, _)| *n == name).map_or(0, |e| e.1);
            (name, value)
        })
        .collect();
    assert_eq!(got, want);
}

/// The paper-default arrays: the proposed row's 27 °C energy report
/// and 18-point 0–85 °C level table, then the subthreshold 1FeFET-1R
/// baseline's level table (Fig. 8 and Fig. 4).
#[test]
fn array_level_tables_and_energy() {
    assert_counts(
        |tele| {
            let config = ArrayConfig::paper_default();
            let temps = temperature_sweep(18);
            let proposed = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?
                .with_recorder(tele.clone());
            EnergyReport::measure(&proposed, Celsius(27.0))?;
            RangeTable::measure(&proposed, &temps)?;
            let baseline =
                CimArray::new(OneFefetOneR::subthreshold(), config)?.with_recorder(tele.clone());
            RangeTable::measure(&baseline, &temps)?;
            Ok(())
        },
        &[
            ("newton_iters", 55092),
            ("newton_converged", 21195),
            ("steps_accepted", 21114),
            ("solver_solves", 55092),
        ],
    );
}

/// An `ArrayEngine` grid over repeated inputs and a repeated
/// temperature: 18 inputs (every MAC level of the paper-default row,
/// twice) × 4 temperatures (27 °C twice) are 72 MAC jobs but 27
/// distinct (input, temperature) row transients. No probe batches
/// through `ArrayEngine`, so this pins its deduplication here.
#[test]
fn array_engine_grid_solves_each_input_and_temperature_once() {
    assert_counts(
        |tele| {
            let config = ArrayConfig::paper_default();
            let cells = config.cells_per_row;
            let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?
                .with_recorder(tele.clone());
            let inputs: Vec<Vec<bool>> = (0..2)
                .flat_map(|_| (0..=cells).map(|k| mac_operands(cells, k).1))
                .collect();
            let temps = [Celsius(0.0), Celsius(27.0), Celsius(85.0), Celsius(27.0)];
            ArrayEngine::new(&array, &vec![true; cells])?.mac_batch_grid(&inputs, &temps)?;
            Ok(())
        },
        &[
            ("newton_iters", 25781),
            ("newton_converged", 9369),
            ("steps_accepted", 9342),
            ("mac_jobs", 72),
            ("mac_solves", 27),
            ("solver_solves", 25781),
        ],
    );
}

/// One fixed-step and one LTE-controlled readout transient
/// (`probe_adaptive` times each best-of-5).
#[test]
fn adaptive_and_fixed_stepping() {
    assert_counts(
        |tele| {
            adaptive_probe(tele, |analysis| Ok((0.0, analysis.run()?)))?;
            Ok(())
        },
        &[
            ("newton_iters", 2853),
            ("newton_converged", 993),
            ("steps_accepted", 537),
            ("steps_rejected", 24),
            ("solver_solves", 2853),
        ],
    );
}

/// The 4×8 crossbar fault sweep: 5 rates × 3 temperatures × 16 inputs
/// × 4 rows are 960 row-MAC jobs, of which the crossbar's (input, row)
/// deduplication leaves 900 solves.
#[test]
fn fault_sweep_batches() {
    assert_counts(
        |tele| fault_sweep(tele).map(drop),
        &[
            ("newton_iters", 1907969),
            ("newton_converged", 835328),
            ("steps_accepted", 832000),
            ("mac_jobs", 960),
            ("mac_solves", 900),
            ("solver_solves", 1907969),
        ],
    );
}

/// The 512-cell transient MAC: one symbolic analysis per switch phase
/// reused across every Newton iteration.
#[test]
fn wide_row_sparse_mac() {
    assert_counts(
        |tele| wide_row_mac(512, tele).map(drop),
        &[
            ("newton_iters", 1014),
            ("newton_converged", 347),
            ("steps_accepted", 346),
            ("solver_solves", 1014),
            ("solver_symbolic", 2),
        ],
    );
}

/// The impossible-tolerance solve walks refinement, the degradation
/// ladder and the rescue ladder, then refuses.
#[test]
fn certification_refusal_walks_the_ladders() {
    assert_counts(
        |tele| {
            let demo = certification_refusal(tele)?;
            assert!(demo.refused, "the uncertifiable solve was accepted");
            Ok(())
        },
        &[
            ("newton_iters", 5),
            ("rescue_attempts", 4),
            ("solver_solves", 8),
            ("solver_symbolic", 3),
            ("solves_refined", 8),
            ("solves_degraded", 3),
        ],
    );
}

/// The paper-default 8-cell transient MAC at 27 °C on the dense LU:
/// every solve that can show it picks the same pivots as the last full
/// factorization replays that factorization's plan, so full
/// factorizations run only where the stamped pattern grows or a pivot
/// choice changes.
#[test]
fn paper_row_dense_mac_replays_its_pivot_sequence() {
    let mut ws = Workspace::new();
    paper_row_mac(HealthPolicy::default(), &mut ws).expect("the MAC runs");
    assert_eq!(ws.dense_factor_counts(), Some((9, 1008)));
}
