//! `cimbench`: the ferrocim benchmark.
//!
//! Runs one seeded workload through the crates' public APIs, checks its
//! outputs, and prints a human-readable report followed, as the last
//! line of standard output, by one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics listed in
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer metrics.
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path cimbench/Cargo.toml --bin cimbench -- \
//!     --workload row_transient --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every time is host time. Simulated latency and energy are outputs of
//! the model, not metrics. `cimbench/WORKLOADS.md` records why each
//! workload exists and which metrics each layer should move.

mod mc_variation;
mod probe;
mod row_transient;
mod serve_mix;
mod vgg_cim;

use probe::{Layers, Probe};
use serde_json::Value;
use std::error::Error;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One rate window of the timed phase: a call into the workload's top
/// layer, or one round of the serve clients.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or failed their check.
    pub failed: u64,
    /// Host seconds.
    pub seconds: f64,
}

/// What one workload pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase, window by window.
    pub windows: Vec<Window>,
    /// Host milliseconds a caller waited for each call.
    pub call_ms: Vec<f64>,
    /// Share of checked outputs that equal their reference.
    pub agreement: f64,
    /// Per-layer values only the workload itself can compute.
    pub layers: Layers,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum()
    }

    /// The median window's rate of ok ops: a burst of load from outside
    /// the process that slows one window does not move it.
    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| (w.attempted - w.failed) as f64 / w.seconds)
            .collect();
        probe::median(&rates)
    }
}

/// One workload's entry point: set up `setup_reps` times, then run the
/// timed phase for about `seconds` host seconds.
type Workload = fn(&Probe, u64, f64, usize) -> Result<Outcome, Box<dyn Error>>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("row_transient", row_transient::run),
    ("mc_variation", mc_variation::run),
    ("vgg_cim", vgg_cim::run),
    ("serve_mix", serve_mix::run),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?.to_string();
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which is the single list of metric names and units.
fn declared(section: &str) -> Result<Vec<(String, String)>, Box<dyn Error>> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: Value = serde_json::from_str(&text)?;
    let Some(Value::Array(items)) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list").into());
    };
    items
        .iter()
        .map(|item| match (item.get("name"), item.get("unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed {section} entry {item:?}").into()),
        })
        .collect()
}

/// Prints the metrics of one `BENCHMARK.json` section, one per line
/// with its unit, and returns them as the fields of the result's
/// `metrics` object. A per-layer metric the workload does not reach
/// reads 0; an end-to-end metric must always be measured.
fn report(values: &Layers, section: &str) -> Result<String, Box<dyn Error>> {
    let declared = declared(section)?;
    if let Some(name) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {name} is measured but not declared in {section}").into());
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match values.get(name.as_str()) {
            Some(&value) => value,
            None if section == "per_layer" => 0.0,
            None => return Err(format!("metric {name} is declared but not measured").into()),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        println!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cimbench: {e}");
            eprintln!(
                "usage: cimbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("cimbench: {}: {e}", args.name);
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    // Fail before the long run if BENCHMARK.json is missing.
    declared("end_to_end")?;
    println!(
        "# cimbench {} seed {} ({} s, trace {}, {} threads)",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        probe::threads()
    );
    let (outcome, metrics, section) = if args.trace {
        // The untraced half gives the reference rate the traced half's
        // overhead is measured against.
        let half = args.seconds / 2.0;
        println!("## untraced pass");
        let plain = (args.workload)(&Probe::new(false), args.seed, half, 1)?;
        println!("## traced pass");
        let probe = Probe::new(true);
        let traced = (args.workload)(&probe, args.seed, half, 1)?;
        probe.write_spans();
        let mut layers = probe.layers();
        layers.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
        layers.insert(
            "telemetry.overhead",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
        );
        let mut merged = traced;
        merged.windows.extend(plain.windows);
        (merged, layers, "per_layer")
    } else {
        let outcome = (args.workload)(&Probe::new(false), args.seed, args.seconds, SETUP_REPS)?;
        let mut metrics = Layers::new();
        metrics.insert("setup_s", probe::median(&outcome.setup_s));
        metrics.insert("ops_per_s", outcome.ops_per_s());
        metrics.insert("call_p50_ms", probe::median(&outcome.call_ms));
        metrics.insert(
            "ok_share",
            (outcome.attempted() - outcome.failed()) as f64 / outcome.attempted().max(1) as f64,
        );
        metrics.insert("agreement", outcome.agreement);
        metrics.insert("peak_rss_mb", probe::peak_rss_mb());
        (outcome, metrics, "end_to_end")
    };
    println!(
        "  set-up repetitions [s]: {:?}, timed phase {:.3} s in {} windows",
        outcome.setup_s,
        outcome.windows.iter().map(|w| w.seconds).sum::<f64>(),
        outcome.windows.len()
    );
    if outcome.attempted() == 0 {
        return Err("no op completed in the timed phase".into());
    }
    let fields = report(&metrics, section)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{fields}}}}}",
        outcome.failed() == 0,
        outcome.attempted(),
        outcome.failed(),
    );
    Ok(())
}
