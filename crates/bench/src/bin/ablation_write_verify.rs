//! **Ablation A6** — write-verify programming vs raw writes: repeats
//! the Fig. 9 Monte-Carlo with each '1' cell trimmed by the
//! program-verify loop (the paper's ref \[9\] technique) and compares the
//! readout-error profile.

use ferrocim_bench::schema::WriteVerifyRow;
use ferrocim_bench::{dump_json, print_table};
use ferrocim_cim::cells::{CellOffsets, CellWeight, TwoTransistorOneFefet};
use ferrocim_cim::program::{write_verify_row, WriteVerifyConfig};
use ferrocim_cim::transfer::Adc;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray, MacPath, MacRequest};
use ferrocim_device::variation::{GaussianSampler, VariationModel};
use ferrocim_spice::{FailurePolicy, MonteCarlo};
use ferrocim_units::Celsius;
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!("# Ablation — write-verify programming (paper ref [9]) vs raw writes\n");
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?
    .with_recorder(trace.telemetry());
    let adc = Adc::calibrate(&array, Celsius(27.0))?;
    let variation = VariationModel::paper_default();
    let n = array.config().cells_per_row;
    let runs = 60;
    let mut rows = Vec::new();
    for verify in [false, true] {
        let mc = MonteCarlo::new(runs, 0xA11CE).with_recorder(trace.telemetry());
        let samples = mc.try_run(&FailurePolicy::FailFast, |_, rng| {
            let mut sampler = GaussianSampler::new();
            let mut worst = 0usize;
            let mut total = 0.0f64;
            let mut iters = 0.0f64;
            for k in [2usize, 5, 8] {
                let (w, x) = mac_operands(n, k);
                let raw: Vec<CellOffsets> = (0..n)
                    .map(|_| CellOffsets {
                        fefet: variation.sample_fefet_offset(rng, &mut sampler),
                        m1: variation.sample_mosfet_offset(rng, &mut sampler),
                        m2: variation.sample_mosfet_offset(rng, &mut sampler),
                    })
                    .collect();
                let offsets = if verify {
                    let weights: Vec<CellWeight> = w.iter().map(|&b| CellWeight::Bit(b)).collect();
                    let (trimmed, outcomes) = write_verify_row(
                        array.cell(),
                        &weights,
                        &raw,
                        &WriteVerifyConfig::default(),
                    )?;
                    iters += outcomes.iter().map(|o| o.iterations as f64).sum::<f64>();
                    trimmed
                } else {
                    raw
                };
                let out = array.run(
                    &MacRequest::new(&x)
                        .weights(&w)
                        .at(Celsius(27.0))
                        .offsets(&offsets)
                        .path(MacPath::Analytic),
                )?;
                let read = adc.quantize(out.v_acc);
                worst = worst.max(read.abs_diff(k));
                total += read.abs_diff(k) as f64;
            }
            Ok::<_, ferrocim_cim::CimError>((worst, total / 3.0, iters / 3.0))
        })?;
        let mut worst = 0usize;
        let mut mean = 0.0;
        let mut iters = 0.0;
        for &(w, m, i) in samples.values() {
            worst = worst.max(w);
            mean += m / runs as f64;
            iters += i / runs as f64;
        }
        rows.push(WriteVerifyRow {
            scheme: if verify {
                "write-verify (ref [9])"
            } else {
                "raw write"
            }
            .into(),
            max_abs_error_levels: worst,
            mean_abs_error_levels: mean,
            mean_verify_iterations_per_row: iters,
        });
    }
    print_table(
        &[
            "scheme",
            "max |err| (levels)",
            "mean |err| (levels)",
            "verify iters/row",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    r.max_abs_error_levels.to_string(),
                    format!("{:.3}", r.mean_abs_error_levels),
                    format!("{:.2}", r.mean_verify_iterations_per_row),
                ]
            })
            .collect::<Vec<_>>(),
    );
    assert!(
        rows[1].mean_abs_error_levels < rows[0].mean_abs_error_levels,
        "write-verify must reduce the mean readout error"
    );
    let path = dump_json("ablation_write_verify", &rows)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    Ok(())
}
