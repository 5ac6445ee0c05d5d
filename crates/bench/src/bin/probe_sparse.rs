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
//! reused across every Newton iteration. One more row times the
//! paper-default 8-cell transient MAC ([`paper_row_mac`], the circuit
//! of every live solve) on both backends, ungated. Dumps
//! `results/probe_sparse.json`.

use ferrocim_bench::schema::{LargeRowMac, PaperRowMac, SparseProbe, SparseWidthPoint};
use ferrocim_bench::timing::best_of;
use ferrocim_bench::{dump_json, paper_row_mac, print_table, wide_row_mac, wide_row_readout};
use ferrocim_cim::{ArrayConfig, CimError};
use ferrocim_spice::{Circuit, DcAnalysis, HealthPolicy, NodeId, SolverConfig, Workspace};
use std::time::Instant;

/// Row widths swept, from the paper's array to a VGG-scale layer row.
const WIDTHS: &[usize] = &[8, 16, 32, 64, 128, 256, 512];

/// Widest row the dense backend is timed at; past this its cubic
/// factorization dominates the probe's runtime without adding signal.
const DENSE_LIMIT: usize = 256;

/// Max-norm node-voltage disagreement tolerated between the backends.
const PARITY_BOUND: f64 = 1e-10;

/// Timed repetitions of the paper-default row MAC per backend.
const ROW_REPS: usize = 15;

/// Times the paper-default row's transient MAC on a fresh workspace
/// per MAC (as a live request runs it), best of [`ROW_REPS`] per
/// backend, interleaving the backends rep by rep.
fn time_paper_row() -> Result<PaperRowMac, Box<dyn std::error::Error>> {
    let cells = ArrayConfig::paper_default().cells_per_row;
    let (_, unknowns) = wide_row_readout(cells)?;
    let mac = |config| -> Result<f64, CimError> {
        let start = Instant::now();
        paper_row_mac(HealthPolicy::default(), &mut Workspace::with_solver(config))?;
        Ok(start.elapsed().as_secs_f64() * 1e6)
    };
    let (mut dense_us, mut sparse_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROW_REPS {
        dense_us = dense_us.min(mac(SolverConfig::dense())?);
        sparse_us = sparse_us.min(mac(SolverConfig::sparse())?);
    }
    Ok(PaperRowMac {
        cells_per_row: cells,
        unknowns,
        dense_us_per_mac: dense_us,
        sparse_us_per_mac: sparse_us,
        speedup: dense_us / sparse_us,
    })
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!("# Probe — sparse vs. dense MNA factorization over row width\n");

    let mut widths = Vec::with_capacity(WIDTHS.len());
    let mut parity_ok = true;
    let mut rows = Vec::new();
    for &cells in WIDTHS {
        let (ckt, unknowns) = wide_row_readout(cells)?;
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
    let start = Instant::now();
    let (out, (symbolic, numeric)) = wide_row_mac(cells, &trace.telemetry())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\n{cells}-cell transient MAC: V_acc = {:.3} mV (expected count {}), \
         {wall_ms:.1} ms, {symbolic} symbolic / {numeric} numeric factorizations",
        out.v_acc.value() * 1e3,
        out.expected,
    );

    let paper_row = time_paper_row()?;
    println!(
        "\n{}-cell transient MAC ({} unknowns, fresh workspace per MAC, best of {ROW_REPS}): \
         dense {:.0} us, sparse {:.0} us, speedup {:.2}x",
        paper_row.cells_per_row,
        paper_row.unknowns,
        paper_row.dense_us_per_mac,
        paper_row.sparse_us_per_mac,
        paper_row.speedup,
    );

    let probe = SparseProbe {
        widths,
        paper_row,
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
