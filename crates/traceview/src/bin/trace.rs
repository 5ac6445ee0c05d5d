//! `trace` — analyze `ferrocim-telemetry` JSONL traces.
//!
//! ```text
//! trace summary <trace.jsonl> [--prometheus] [--tree]
//! trace diff <base> <new> [--threshold <pct>]
//! trace metrics <trace.jsonl> [-o <out.json>]
//! trace export --chrome <trace.jsonl> [-o <out.json>]
//! ```
//!
//! `diff` accepts a JSONL trace *or* a `trace metrics` baseline JSON on
//! either side; the latter is tiny and diffs cleanly in git, so it is
//! the form to keep a reference run in.
//!
//! Exit codes: 0 success (for `diff`: no regression), 1 regression
//! detected by `diff`, 2 usage or trace errors.

use ferrocim_traceview::{
    chrome_trace, diff_extracted, extract_metrics, has_regression, metrics_from_json, metrics_json,
    read_trace, render_deltas, Event, SpanTree, Summary, GATE_DEFAULT_THRESHOLD_PCT,
};
use std::process::ExitCode;

const USAGE: &str = "usage:
  trace summary <trace.jsonl> [--prometheus] [--tree]
  trace diff <base> <new> [--threshold <pct>]
  trace metrics <trace.jsonl> [-o <out.json>]
  trace export --chrome <trace.jsonl> [-o <out.json>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("summary") => cmd_summary(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Vec<Event>, String> {
    read_trace(path).map_err(|e| e.to_string())
}

/// Loads one `diff` operand: a `trace metrics` baseline JSON (a single
/// object covering exactly the gate metrics) or a JSONL trace. A file
/// that is neither reports the *trace* error, which carries line-level
/// corruption/mixed-version detail.
fn load_metrics(path: &str) -> Result<Vec<(&'static str, u64)>, String> {
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(doc) = serde_json::from_str::<serde_json::Value>(&text) {
            if let Ok(metrics) = metrics_from_json(&doc) {
                return Ok(metrics);
            }
        }
    }
    Ok(extract_metrics(&load(path)?))
}

fn cmd_summary(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut prometheus = false;
    let mut tree = false;
    for arg in args {
        match arg.as_str() {
            "--prometheus" => prometheus = true,
            "--tree" => tree = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let events = load(path)?;
    let summary = Summary::of(&events);
    if prometheus {
        print!("{}", summary.render_prometheus());
    } else {
        print!("{}", summary.render_text());
    }
    if tree {
        println!("\nspan tree:");
        print!("{}", SpanTree::build(&events).render_text());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = GATE_DEFAULT_THRESHOLD_PCT;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = iter.next().ok_or("--threshold needs a value")?;
                threshold = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad threshold {value:?}"))?;
            }
            other if !other.starts_with('-') => paths.push(other),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    let [base, new] = paths.as_slice() else {
        return Err(USAGE.to_string());
    };
    let report = diff_extracted(&load_metrics(base)?, &load_metrics(new)?, threshold);
    print!("{}", render_deltas(&report));
    if has_regression(&report) {
        eprintln!(
            "regression: a metric increased more than {threshold}%, or the \
             two sides disagree on which counters exist (see warnings above)"
        );
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut out_path = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" => out_path = Some(iter.next().ok_or("-o needs a path")?.clone()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let doc = metrics_json(&extract_metrics(&load(path)?));
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    match out_path {
        Some(out) => {
            std::fs::write(&out, format!("{text}\n")).map_err(|e| format!("write {out}: {e}"))?;
        }
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_export(args: &[String]) -> Result<ExitCode, String> {
    let mut chrome = false;
    let mut path = None;
    let mut out_path = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--chrome" => chrome = true,
            "-o" | "--output" => out_path = Some(iter.next().ok_or("-o needs a path")?.clone()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if !chrome {
        return Err(format!("export currently supports only --chrome\n{USAGE}"));
    }
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let events = load(path)?;
    let doc = chrome_trace(&SpanTree::build(&events));
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    match out_path {
        Some(out) => std::fs::write(&out, text).map_err(|e| format!("write {out}: {e}"))?,
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}
