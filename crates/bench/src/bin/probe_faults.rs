//! Fault-injection probe: readout accuracy and noise margin of the
//! proposed 2T-1FeFET crossbar as the cell fault rate grows
//! ([`fault_sweep`]). Rerunning the probe always prints the same table.

use ferrocim_bench::fault_sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!(
        "fault-rate sweep: 4x8 2T-1FeFET crossbar, seed 42, \
         16 input vectors x 3 temperatures"
    );
    println!("rate    faults  readout-acc  mean|err|  empirical NMR_min");
    for [rate, faults, accuracy, error, nmr] in fault_sweep(&trace.telemetry())? {
        println!("{rate:<7} {faults:<7} {accuracy:<12} {error:<10} {nmr}");
    }
    trace.finish()?;
    Ok(())
}
