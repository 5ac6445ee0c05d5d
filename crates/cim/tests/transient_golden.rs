//! Bit-level golden of the full-row transient MAC path.
//!
//! Pins the exact `f64` bits of `v_acc`, the per-cell `C_o` voltages
//! and the supply energy of `MacPath::Transient` runs at 0, 27 and
//! 85 °C on two rows: a 32-cell row (133 MNA unknowns, which `Auto`
//! solves with the sparse LU) and the paper's 8-cell row (dense). Any
//! change to stamping order, solver arithmetic, capacitor-state
//! bookkeeping or per-source energy accounting shows up here as a bit
//! flip, so speed work on the Newton path has to leave these alone.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{ArrayConfig, CimArray, MacOutput, MacPath, MacRequest};
use ferrocim_spice::{HealthPolicy, RunContext};
use ferrocim_units::{Celsius, Farad};

const TEMPS_C: [f64; 3] = [0.0, 27.0, 85.0];

/// The pinned bits of one run: `v_acc`, energy, and an FNV-1a fold of
/// every cell voltage's bits in cell order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits {
    v_acc: u64,
    energy: u64,
    cells: u64,
}

fn bits_of(out: &MacOutput) -> Bits {
    let mut cells = 0xcbf2_9ce4_8422_2325u64;
    for v in &out.cell_voltages {
        for byte in v.value().to_bits().to_le_bytes() {
            cells ^= u64::from(byte);
            cells = cells.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Bits {
        v_acc: out.v_acc.value().to_bits(),
        energy: out.energy.value().to_bits(),
        cells,
    }
}

/// Runs one row at every temperature with a fixed mixed weight/input
/// pattern, so both stored states and both input levels are exercised.
fn run_row(config: ArrayConfig) -> Vec<Bits> {
    run_row_with(config, HealthPolicy::default())
}

/// [`run_row`] with every solve certified under `health`.
fn run_row_with(config: ArrayConfig, health: HealthPolicy) -> Vec<Bits> {
    let n = config.cells_per_row;
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)
        .unwrap()
        .with_context(RunContext {
            health,
            ..RunContext::default()
        });
    let weights: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let inputs: Vec<bool> = (0..n).map(|i| i % 4 != 1).collect();
    TEMPS_C
        .iter()
        .map(|&t| {
            let out = array
                .run(
                    &MacRequest::new(&inputs)
                        .weights(&weights)
                        .at(Celsius(t))
                        .path(MacPath::Transient),
                )
                .unwrap();
            assert_eq!(out.cell_voltages.len(), n);
            bits_of(&out)
        })
        .collect()
}

fn assert_golden(got: &[Bits], want: &[Bits]) {
    assert_eq!(
        got, want,
        "transient MAC bits moved; per temperature {TEMPS_C:?}: {got:#x?}"
    );
}

#[test]
fn sparse_32_cell_row_transient_is_bitwise_pinned() {
    let base = ArrayConfig::paper_default();
    let config = ArrayConfig {
        cells_per_row: 32,
        c_acc: Farad(32.0 * base.c_o.value()),
        ..base
    };
    assert_golden(
        &run_row(config),
        &[
            Bits {
                v_acc: 0x3f9a_e21d_7170_2c50,
                energy: 0x3cf6_9aab_92db_a3b9,
                cells: 0x3ab8_ddb9_2bbe_a08b,
            },
            Bits {
                v_acc: 0x3f9b_7403_b49a_5b18,
                energy: 0x3d10_4fa8_c843_0ebf,
                cells: 0x526c_a2b6_e33b_dd43,
            },
            Bits {
                v_acc: 0x3f9f_6867_a854_1eb0,
                energy: 0x3d3a_fc05_a145_d637,
                cells: 0xad9c_bf9c_8e3a_90c3,
            },
        ],
    );
}

#[test]
fn dense_paper_row_transient_is_bitwise_pinned() {
    assert_golden(
        &run_row(ArrayConfig::paper_default()),
        &[
            Bits {
                v_acc: 0x3f95_a93f_ee31_b570,
                energy: 0x3cd2_1079_9e13_875a,
                cells: 0x29d3_e2ef_df1c_a1c3,
            },
            Bits {
                v_acc: 0x3f96_0c2b_90ca_ec60,
                energy: 0x3cea_15ae_9107_8c94,
                cells: 0xc3ba_f27e_d340_1270,
            },
            Bits {
                v_acc: 0x3f9a_a744_73f0_3790,
                energy: 0x3d15_9da0_f3de_8a67,
                cells: 0xc9f5_7c13_c6f7_3c34,
            },
        ],
    );
}

/// Certification is transparent on the paper's 8-cell row (37 MNA
/// unknowns, dense LU): every Newton solve of the certified transient
/// is accepted untouched, so its bits equal the uncertified run's.
#[test]
fn dense_paper_row_transient_is_bitwise_unchanged_by_certification() {
    let config = ArrayConfig::paper_default();
    assert_golden(
        &run_row_with(config, HealthPolicy::default()),
        &run_row_with(config, HealthPolicy::off()),
    );
}
