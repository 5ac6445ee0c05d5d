//! Experiment harness shared by the figure/table reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation section (see DESIGN.md §4 for the index). This library
//! provides the common console-table/series formatting, the JSON
//! results dump used by EXPERIMENTS.md, the command-line flag parser,
//! and (in [`timing`]) the wall-clock estimators every probe times
//! through.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ferrocim_telemetry::{DetailLevel, Event, JsonlSink, Recorder as _, Telemetry};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

pub mod schema;
pub mod timing;

/// Prints an aligned console table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str| {
        let cells: Vec<String> = widths.iter().map(|w| sep.repeat(*w)).collect();
        format!("+-{}-+", cells.join("-+-"))
    };
    println!("{}", line("-"));
    let head: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("| {} |", head.join(" | "));
    println!("{}", line("-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", cells.join(" | "));
    }
    println!("{}", line("-"));
}

/// Prints an `(x, y)` series as a fixed-width two-column block plus a
/// crude ASCII sparkline, which is how the figure binaries render curves.
pub fn print_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) {
    println!("## {title}");
    if points.is_empty() {
        println!("  (no data)");
        return;
    }
    let y_min = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let y_max = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let span = (y_max - y_min).max(1e-30);
    const BARS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let spark: String = points
        .iter()
        .map(|p| {
            let t = ((p.1 - y_min) / span * (BARS.len() - 1) as f64).round() as usize;
            BARS[t.min(BARS.len() - 1)]
        })
        .collect();
    println!("  {y_label} vs {x_label}:  {spark}");
    for (x, y) in points {
        println!("  {x:>10.3}  {y:>14.6}");
    }
}

/// Where experiment JSON dumps land (`results/` at the workspace root,
/// overridable with `FERROCIM_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FERROCIM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serializes an experiment result to `results/<name>.json` so that
/// EXPERIMENTS.md can reference machine-readable outputs.
///
/// # Errors
///
/// Returns I/O errors from directory creation or the write.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    let text = serde_json::to_string_pretty(value)?;
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

/// Optional JSONL trace capture shared by every experiment binary.
///
/// `--trace <path>` (or `--trace=<path>`) on the command line opens a
/// [`JsonlSink`] there: the first recorded event is an
/// [`Event::Manifest`] naming the binary and its argument list, and the
/// run's telemetry streams after it. Without the flag the handle is
/// off, so the instrumentation sites the binaries thread it into cost
/// nothing.
///
/// `--trace-detail <off|reports|iterations>` selects the
/// [`DetailLevel`] of the handle (default `reports`); `iterations`
/// additionally records per-iteration Newton residuals and fine-grained
/// MAC spans, at a substantial trace-size cost.
#[derive(Debug)]
pub struct Trace {
    sink: Option<Arc<JsonlSink>>,
    telemetry: Telemetry,
}

impl Trace {
    /// Builds the trace from the process arguments.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from opening the sink, and `InvalidInput`
    /// when `--trace` is given without a path.
    pub fn from_args() -> std::io::Result<Trace> {
        let args: Vec<String> = std::env::args().collect();
        Trace::from_arg_list(&args)
    }

    /// [`Trace::from_args`] over an explicit argument list (with
    /// `argv[0]` first), split out so tests can drive it.
    ///
    /// # Errors
    ///
    /// See [`Trace::from_args`].
    pub fn from_arg_list(args: &[String]) -> std::io::Result<Trace> {
        let detail = match flag_value(args, "--trace-detail")? {
            Some(level) => DetailLevel::parse(level).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("--trace-detail expects off|reports|iterations, got {level:?}"),
                )
            })?,
            None => DetailLevel::Reports,
        };
        let Some(path) = flag_value(args, "--trace")? else {
            return Ok(Trace {
                sink: None,
                telemetry: Telemetry::off(),
            });
        };
        let sink = Arc::new(JsonlSink::create(path)?);
        let telemetry = Telemetry::new(sink.clone()).with_detail(detail);
        let bin = args
            .first()
            .map(|arg0| {
                std::path::Path::new(arg0)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| arg0.clone())
            })
            .unwrap_or_default();
        // The manifest goes through the sink directly so the header
        // lands even when `--trace-detail off` silences the handle.
        sink.record(&Event::Manifest {
            bin,
            args: args.iter().skip(1).cloned().collect(),
        });
        Ok(Trace {
            sink: Some(sink),
            telemetry,
        })
    }

    /// The handle to put in a run context's `telemetry` field (or pass
    /// to `with_recorder`) and to recorded entry points. Off when
    /// `--trace` was not given.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Whether a trace file is being written.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Flushes and atomically publishes the trace file, printing where
    /// it landed. A no-op without `--trace`.
    ///
    /// # Errors
    ///
    /// Returns the sink's first latched write error, or flush/rename
    /// failures.
    pub fn finish(self) -> std::io::Result<()> {
        if let Some(sink) = self.sink {
            let events = sink.events_written();
            let path = sink.finish()?;
            println!("wrote trace {} ({events} events)", path.display());
        }
        Ok(())
    }
}

/// The value of `--name value` or `--name=value` in `args` (with
/// `argv[0]` first), or `None` when the flag is absent.
///
/// # Errors
///
/// Returns `InvalidInput` when the flag is the last argument, with no
/// value after it.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> std::io::Result<Option<&'a str>> {
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        if arg == name {
            return match iter.next() {
                Some(value) => Ok(Some(value)),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{name} requires a value"),
                )),
            };
        }
        if let Some(value) = arg
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
        {
            return Ok(Some(value));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let result = std::panic::catch_unwind(|| {
            print_table(&["a", "b"], &[vec!["1".into()]]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn trace_is_off_without_the_flag() {
        let args = vec!["bench-bin".to_string(), "--other".to_string()];
        let trace = Trace::from_arg_list(&args).expect("no flag parses");
        assert!(!trace.is_on());
        assert!(!trace.telemetry().is_on());
        trace.finish().expect("off finish is a no-op");
    }

    #[test]
    fn trace_flag_without_path_is_rejected() {
        let args = vec!["bench-bin".to_string(), "--trace".to_string()];
        let err = Trace::from_arg_list(&args).expect_err("missing path");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn trace_writes_a_manifest_header() {
        let path =
            std::env::temp_dir().join(format!("ferrocim-bench-trace-{}.jsonl", std::process::id()));
        let args = vec![
            "/usr/bin/probe_x".to_string(),
            format!("--trace={}", path.display()),
            "--runs".to_string(),
            "5".to_string(),
        ];
        let trace = Trace::from_arg_list(&args).expect("sink opens");
        assert!(trace.is_on());
        trace.telemetry().record(&Event::McRunStarted { run: 0 });
        trace.finish().expect("finish");
        let events = ferrocim_telemetry::read_trace(&path).expect("readable");
        assert_eq!(
            events[0],
            Event::Manifest {
                bin: "probe_x".to_string(),
                args: vec![
                    format!("--trace={}", path.display()),
                    "--runs".to_string(),
                    "5".to_string(),
                ],
            }
        );
        assert_eq!(events[1], Event::McRunStarted { run: 0 });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_detail_selects_the_level() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let deep = dir.join(format!("ferrocim-bench-detail-deep-{pid}.jsonl"));
        let args = vec![
            "bench-bin".to_string(),
            format!("--trace={}", deep.display()),
            "--trace-detail".to_string(),
            "iterations".to_string(),
        ];
        let trace = Trace::from_arg_list(&args).expect("parses");
        assert!(trace.telemetry().wants_iterations());
        drop(trace);
        let _ = std::fs::remove_file(&deep);

        // `off` silences the handle but still writes the manifest
        // header, so the file remains a valid (near-empty) trace.
        let off = dir.join(format!("ferrocim-bench-detail-off-{pid}.jsonl"));
        let args = vec![
            "bench-bin".to_string(),
            format!("--trace={}", off.display()),
            "--trace-detail=off".to_string(),
        ];
        let trace = Trace::from_arg_list(&args).expect("parses");
        assert!(trace.is_on(), "the sink is open");
        assert!(!trace.telemetry().is_on(), "the handle is silenced");
        trace.finish().expect("finish");
        let events = ferrocim_telemetry::read_trace(&off).expect("readable");
        assert_eq!(events.len(), 1, "manifest only");
        assert!(matches!(events[0], Event::Manifest { .. }));
        let _ = std::fs::remove_file(&off);
    }

    #[test]
    fn trace_detail_rejects_unknown_levels() {
        let args = vec![
            "bench-bin".to_string(),
            "--trace-detail=verbose".to_string(),
        ];
        let err = Trace::from_arg_list(&args).expect_err("bad level");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let args = vec!["bench-bin".to_string(), "--trace-detail".to_string()];
        let err = Trace::from_arg_list(&args).expect_err("missing level");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn flag_value_reads_both_spellings_and_rejects_a_trailing_flag() {
        let argv = |rest: &[&str]| -> Vec<String> {
            std::iter::once("bench-bin")
                .chain(rest.iter().copied())
                .map(String::from)
                .collect()
        };
        for name in ["--trace", "--trace-detail", "--dump-dir"] {
            let err = flag_value(&argv(&["--other", name]), name).expect_err("no value");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{name}");
            let joined = format!("{name}=v");
            assert_eq!(
                flag_value(&argv(&[name, "v"]), name).expect(name),
                Some("v")
            );
            assert_eq!(flag_value(&argv(&[&joined]), name).expect(name), Some("v"));
            assert_eq!(flag_value(&argv(&["--other"]), name).expect(name), None);
        }
        let detail_only = argv(&["--trace-detail=off"]);
        assert_eq!(flag_value(&detail_only, "--trace").expect("absent"), None);
    }

    #[test]
    fn json_dump_round_trips() {
        let dir = std::env::temp_dir().join("ferrocim-test-results");
        std::env::set_var("FERROCIM_RESULTS_DIR", &dir);
        let path = dump_json("unit-test", &serde_json::json!({"x": 1})).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"x\": 1"));
        std::env::remove_var("FERROCIM_RESULTS_DIR");
    }
}
