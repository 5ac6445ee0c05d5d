//! Probe: sparse KLU-style MNA factorization vs. the dense LU baseline
//! over a row-width sweep (DESIGN.md §14).
//!
//! Builds the full-row MAC readout netlist at widths from the paper's
//! 8 cells up to a VGG-scale 512, DC-solves each through both
//! [`ferrocim_spice::SolverConfig`] backends, and reports wall clock,
//! the dense-to-sparse speedup, and the max-norm node-voltage parity.
//! The dense path is skipped above [`DENSE_LIMIT`] cells where its
//! cubic cost stops being worth timing; the sweep tops out with a
//! sparse-only 512-cell row plus one end-to-end 512-cell transient MAC
//! whose factor counters demonstrate the single symbolic analysis being
//! reused across every Newton iteration. Dumps
//! `results/probe_sparse.json`.

use ferrocim_bench::schema::{LargeRowMac, SparseProbe, SparseWidthPoint};
use ferrocim_bench::timing::best_of;
use ferrocim_bench::{dump_json, print_table};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray, MacRequest};
use ferrocim_spice::{Circuit, DcAnalysis, NodeId, SolverConfig, Workspace};
use ferrocim_units::Farad;
use std::time::Instant;

/// Row widths swept, from the paper's array to a VGG-scale layer row.
const WIDTHS: &[usize] = &[8, 16, 32, 64, 128, 256, 512];

/// Widest row the dense backend is timed at; past this its cubic
/// factorization dominates the probe's runtime without adding signal.
const DENSE_LIMIT: usize = 256;

/// Max-norm node-voltage disagreement tolerated between the backends.
const PARITY_BOUND: f64 = 1e-10;

/// A row array scaled to `cells` columns: `C_acc` grows with the row
/// (≈1 fF per cell, as the shared capacitor would in layout) and the
/// timestep stays at the paper default.
fn scaled_array(cells: usize) -> Result<CimArray<TwoTransistorOneFefet>, ferrocim_cim::CimError> {
    let base = ArrayConfig::paper_default();
    let config = ArrayConfig {
        cells_per_row: cells,
        c_acc: Farad(cells as f64 * base.c_o.value()),
        ..base
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config)
}

/// Every distinct node referenced by the circuit's elements (ground
/// excluded), for the parity comparison.
fn circuit_nodes(ckt: &Circuit) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = ckt
        .elements()
        .iter()
        .flat_map(|el| el.nodes())
        .filter(|n| !n.is_ground())
        .collect();
    nodes.sort();
    nodes.dedup();
    nodes
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!("# Probe — sparse vs. dense MNA factorization over row width\n");

    let mut widths = Vec::with_capacity(WIDTHS.len());
    let mut parity_ok = true;
    let mut rows = Vec::new();
    for &cells in WIDTHS {
        let array = scaled_array(cells)?;
        let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
        let (ckt, _acc, _t_stop) = array.readout_circuit(&weights, &inputs)?;
        let unknowns = unknown_count(&ckt);
        let reps = if cells <= 64 { 3 } else { 1 };
        // Best-of-`reps` full DC Newton solves per backend, each on a
        // fresh workspace so the timing includes the backend's full
        // symbolic + numeric cost, not a warm rerun.
        let best_dc_us = |config| {
            best_of(reps, || {
                DcAnalysis::new(&ckt).solve_in(&mut Workspace::with_solver(config))
            })
            .map(|(best_s, op)| (best_s * 1e6, op))
        };
        let (sparse_us, sparse_op) = best_dc_us(SolverConfig::sparse())?;
        let (dense_us, max_delta_v) = if cells <= DENSE_LIMIT {
            let (us, dense_op) = best_dc_us(SolverConfig::dense())?;
            let delta = circuit_nodes(&ckt)
                .iter()
                .map(|&n| (dense_op.voltage(n).value() - sparse_op.voltage(n).value()).abs())
                .fold(0.0f64, f64::max);
            parity_ok &= delta <= PARITY_BOUND;
            (Some(us), Some(delta))
        } else {
            (None, None)
        };
        let speedup = dense_us.map(|d| d / sparse_us);
        rows.push(vec![
            cells.to_string(),
            unknowns.to_string(),
            dense_us.map_or("-".into(), |u| format!("{u:.1}")),
            format!("{sparse_us:.1}"),
            speedup.map_or("-".into(), |s| format!("{s:.2}x")),
            max_delta_v.map_or("-".into(), |d| format!("{d:.2e}")),
        ]);
        widths.push(SparseWidthPoint {
            cells_per_row: cells,
            unknowns,
            dense_wall_us: dense_us,
            sparse_wall_us: sparse_us,
            speedup,
            max_delta_v,
        });
    }
    print_table(
        &[
            "cells",
            "unknowns",
            "dense [us]",
            "sparse [us]",
            "speedup",
            "max |dV|",
        ],
        &rows,
    );
    println!(
        "\nparity bound {PARITY_BOUND:.0e}: {}",
        if parity_ok { "ok" } else { "VIOLATED" }
    );

    // End-to-end: one VGG-scale row simulated as a single transient
    // MAC through the sparse backend. The factor counters prove the
    // symbolic analysis is reused across every Newton iteration and
    // step: one analysis per switch phase (the EN switches closing at
    // the share phase genuinely changes the matrix pattern) against
    // hundreds of numeric refactorizations.
    let cells = *WIDTHS.last().expect("widths non-empty");
    let array = scaled_array(cells)?.with_recorder(trace.telemetry());
    let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
    let request = MacRequest::new(&inputs).weights(&weights);
    let mut ws = Workspace::with_solver(SolverConfig::sparse());
    let start = Instant::now();
    let out = array.run_in(&request, &mut ws)?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (symbolic, numeric) = ws
        .sparse_factor_counts()
        .expect("the sparse backend was selected");
    println!(
        "\n{cells}-cell transient MAC: V_acc = {:.3} mV (expected count {}), \
         {wall_ms:.1} ms, {symbolic} symbolic / {numeric} numeric factorizations",
        out.v_acc.value() * 1e3,
        out.expected,
    );

    let probe = SparseProbe {
        widths,
        parity_bound: PARITY_BOUND,
        parity_ok,
        large_row: LargeRowMac {
            cells_per_row: cells,
            v_acc_mv: out.v_acc.value() * 1e3,
            expected: out.expected,
            wall_ms,
            symbolic_analyses: symbolic,
            numeric_factorizations: numeric,
        },
    };
    let path = dump_json("probe_sparse", &probe)?;
    println!("wrote {}", path.display());
    trace.finish()?;
    Ok(())
}
