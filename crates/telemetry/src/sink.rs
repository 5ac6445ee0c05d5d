//! Streaming JSONL trace files with a versioned schema.

use crate::event::{Event, TRACE_FORMAT};
use crate::recorder::Recorder;
use serde_json::Value;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead as _, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A buffered [`Recorder`] streaming one JSON object per line.
///
/// The file layout is versioned: the first line is a header object
/// carrying [`TRACE_FORMAT`], each following line is one [`Event`].
/// Writes go to `<path>.tmp`; [`JsonlSink::finish`] flushes and fsyncs
/// it, then atomically renames it onto `path`, so a crashed run never
/// leaves a half-written file at the advertised location.
///
/// `record` cannot return an error, so I/O failures are latched and
/// surfaced by `finish` (taking the write path down mid-run would
/// poison the simulation it is observing).
pub struct JsonlSink {
    path: PathBuf,
    tmp: PathBuf,
    state: Mutex<SinkState>,
}

struct SinkState {
    writer: Option<BufWriter<File>>,
    /// First latched write/serialize error, reported by `finish`.
    error: Option<String>,
    events: u64,
}

impl JsonlSink {
    /// Opens `<path>.tmp` for writing and emits the versioned header
    /// line. Parent directories are created as needed.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from directory creation, file creation, or
    /// the header write.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<JsonlSink> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = tmp_path(&path);
        let mut writer = BufWriter::new(File::create(&tmp)?);
        writeln!(writer, "{{\"format\":\"{TRACE_FORMAT}\"}}")?;
        Ok(JsonlSink {
            path,
            tmp,
            state: Mutex::new(SinkState {
                writer: Some(writer),
                error: None,
                events: 0,
            }),
        })
    }

    /// The final trace path (valid after [`JsonlSink::finish`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.state.lock().map(|s| s.events).unwrap_or(0)
    }

    /// Flushes the buffer, fsyncs the temporary file, and atomically
    /// renames it onto the final path (fsyncing the parent directory so
    /// the rename itself is durable). Idempotent: a second call is a
    /// no-op returning the path.
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, or flush/sync/rename
    /// failures.
    pub fn finish(&self) -> io::Result<PathBuf> {
        let mut state = self
            .state
            .lock()
            .map_err(|_| io::Error::other("telemetry sink lock poisoned"))?;
        if let Some(message) = state.error.take() {
            return Err(io::Error::other(message));
        }
        if let Some(mut writer) = state.writer.take() {
            writer.flush()?;
            writer.get_ref().sync_all()?;
            drop(writer);
            std::fs::rename(&self.tmp, &self.path)?;
            if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::File::open(parent).and_then(|dir| dir.sync_all())?;
            }
        }
        Ok(self.path.clone())
    }
}

impl Recorder for JsonlSink {
    fn record(&self, event: &Event) {
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        if state.error.is_some() {
            return;
        }
        let Some(writer) = state.writer.as_mut() else {
            return;
        };
        let outcome = serde_json::to_string(event)
            .map_err(|e| e.to_string())
            .and_then(|line| writeln!(writer, "{line}").map_err(|e| e.to_string()));
        match outcome {
            Ok(()) => state.events += 1,
            Err(message) => state.error = Some(message),
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Best-effort close for sinks dropped without `finish`; errors
        // here have nowhere to go.
        let _ = self.finish();
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JsonlSink({})", self.path.display())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Renders an event sequence as an in-memory `ferrocim-trace-v1` JSONL
/// document: the versioned header line followed by one event per line,
/// byte-identical to what [`JsonlSink`] would have written. Events that
/// fail to serialize (unreachable for the closed [`Event`] set) are
/// skipped rather than corrupting the document.
pub fn render_trace(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"format\":\"{TRACE_FORMAT}\"}}\n"));
    for event in events {
        if let Ok(line) = serde_json::to_string(event) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Writes an event sequence to `path` as a finished JSONL trace via
/// [`JsonlSink`] — same header, same atomic tmp+rename durability.
///
/// # Errors
///
/// Returns sink-creation and finish (flush/sync/rename) failures.
pub fn write_trace(path: impl Into<PathBuf>, events: &[Event]) -> io::Result<PathBuf> {
    let sink = JsonlSink::create(path)?;
    for event in events {
        sink.record(event);
    }
    sink.finish()
}

/// Typed failures of [`read_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The file could not be opened or read.
    Io {
        /// The trace path.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// A line failed to parse, or the header was malformed.
    Corrupt {
        /// The trace path.
        path: String,
        /// 1-based line number of the offending line.
        line: u64,
        /// What went wrong.
        detail: String,
    },
    /// The header declared an unsupported format version.
    BadFormat {
        /// The trace path.
        path: String,
        /// The declared format string.
        found: String,
    },
    /// A second header line appeared mid-file (e.g. two traces of
    /// different versions concatenated). Rejected with a typed error
    /// instead of deserializing the tail as garbage events.
    MixedVersion {
        /// The trace path.
        path: String,
        /// 1-based line number of the unexpected header.
        line: u64,
        /// The format string the mid-file header declared.
        found: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, message } => write!(f, "trace {path}: {message}"),
            TraceError::Corrupt { path, line, detail } => {
                write!(f, "trace {path} line {line}: {detail}")
            }
            TraceError::BadFormat { path, found } => write!(
                f,
                "trace {path}: format {found:?} (expected {TRACE_FORMAT:?})"
            ),
            TraceError::MixedVersion { path, line, found } => write!(
                f,
                "trace {path} line {line}: unexpected mid-file header \
                 with format {found:?} (mixed-version trace rejected)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Reads a finished JSONL trace back into its event sequence,
/// validating the versioned header.
///
/// # Errors
///
/// See [`TraceError`].
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<Event>, TraceError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let io_err = |e: io::Error| TraceError::Io {
        path: display.clone(),
        message: e.to_string(),
    };
    let file = File::open(path).map_err(io_err)?;
    let mut events = Vec::new();
    let mut header_seen = false;
    for (index, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(io_err)?;
        let number = index as u64 + 1;
        if line.trim().is_empty() {
            continue;
        }
        if !header_seen {
            let header: Value = serde_json::from_str(&line).map_err(|e| TraceError::Corrupt {
                path: display.clone(),
                line: number,
                detail: format!("bad header: {e}"),
            })?;
            match header.get("format") {
                Some(Value::String(format)) if format == TRACE_FORMAT => {}
                Some(Value::String(format)) => {
                    return Err(TraceError::BadFormat {
                        path: display,
                        found: format.clone(),
                    });
                }
                _ => {
                    return Err(TraceError::Corrupt {
                        path: display,
                        line: number,
                        detail: "header is missing the format field".to_string(),
                    });
                }
            }
            header_seen = true;
            continue;
        }
        let event: Event = serde_json::from_str(&line).map_err(|e| {
            // A line that is not an Event but *is* a header object
            // means two traces were concatenated (possibly of different
            // schema versions): reject with a typed error instead of
            // misreporting the tail as corruption.
            if let Ok(value) = serde_json::from_str::<Value>(&line) {
                if let Some(Value::String(found)) = value.get("format") {
                    return TraceError::MixedVersion {
                        path: display.clone(),
                        line: number,
                        found: found.clone(),
                    };
                }
            }
            TraceError::Corrupt {
                path: display.clone(),
                line: number,
                detail: e.to_string(),
            }
        })?;
        events.push(event);
    }
    if !header_seen {
        return Err(TraceError::Corrupt {
            path: display,
            line: 0,
            detail: "empty trace (no header line)".to_string(),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Telemetry;

    fn temp_trace(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ferrocim-telemetry-{name}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn trace_round_trips_and_renames_atomically() {
        let path = temp_trace("roundtrip");
        let sink = JsonlSink::create(&path).expect("create");
        let tele = Telemetry::to(sink);
        let events = vec![
            Event::McRunStarted { run: 0 },
            Event::StepAccepted {
                time: 1e-9,
                dt: 2e-12,
            },
            Event::McRunDone { run: 0, ok: true },
        ];
        for event in &events {
            tele.record(event);
        }
        // Until finish, only the .tmp file exists.
        assert!(!path.exists());
        drop(tele); // Drop finishes the sink.
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        let back = read_trace(&path).expect("read");
        assert_eq!(back, events);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finish_is_idempotent_and_counts_events() {
        let path = temp_trace("finish");
        let sink = JsonlSink::create(&path).expect("create");
        sink.record(&Event::NewtonIter { iteration: 1 });
        assert_eq!(sink.events_written(), 1);
        let first = sink.finish().expect("finish");
        let second = sink.finish().expect("finish again");
        assert_eq!(first, second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_trace_and_render_trace_match_the_sink_format() {
        let path = temp_trace("write-helper");
        let events = vec![
            Event::NewtonIter { iteration: 1 },
            Event::McRunDone { run: 0, ok: true },
        ];
        let written = write_trace(&path, &events).expect("write_trace");
        assert_eq!(written, path);
        let back = read_trace(&path).expect("read");
        assert_eq!(back, events);
        let on_disk = std::fs::read_to_string(&path).expect("read file");
        assert_eq!(render_trace(&events), on_disk);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_rejects_bad_format_and_garbage() {
        let path = temp_trace("garbage");
        std::fs::write(&path, "{\"format\":\"other-v9\"}\n").expect("write");
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::BadFormat { found, .. }) if found == "other-v9"
        ));
        std::fs::write(&path, "{\"format\":\"ferrocim-trace-v1\"}\nnot json\n").expect("write");
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::Corrupt { line: 2, .. })
        ));
        std::fs::write(&path, "").expect("write");
        assert!(matches!(read_trace(&path), Err(TraceError::Corrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_rejects_mixed_version_traces_with_typed_error() {
        let path = temp_trace("mixed");
        // A valid v1 trace with a forged v2 header concatenated
        // mid-file: typed MixedVersion, not generic Corrupt.
        std::fs::write(
            &path,
            "{\"format\":\"ferrocim-trace-v1\"}\n\
             {\"NewtonIter\":{\"iteration\":1}}\n\
             {\"format\":\"ferrocim-trace-v2\"}\n\
             {\"NewtonIter\":{\"iteration\":2}}\n",
        )
        .expect("write");
        match read_trace(&path) {
            Err(TraceError::MixedVersion { line, found, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(found, "ferrocim-trace-v2");
            }
            other => panic!("expected MixedVersion, got {other:?}"),
        }
        // Even a same-version duplicate header is a mixed trace.
        std::fs::write(
            &path,
            "{\"format\":\"ferrocim-trace-v1\"}\n{\"format\":\"ferrocim-trace-v1\"}\n",
        )
        .expect("write");
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::MixedVersion { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
