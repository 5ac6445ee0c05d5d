//! The flight recorder: a fixed-capacity, always-on event ring that
//! makes the recent past retroactively inspectable.
//!
//! JSONL tracing ([`JsonlSink`](crate::JsonlSink)) is pay-always: either
//! the run was started with a trace file, or the evidence is gone. The
//! [`FlightRecorder`] inverts that trade: every event is retained in a
//! bounded in-memory ring at near-zero cost, and only when something
//! interesting happens — a breaker trip, an SLO breach, an explicit
//! signal — is the ring dumped as a valid `ferrocim-trace-v1` document
//! that the `trace` CLI can summarize and diff like any other trace.
//!
//! # Design: per-thread segments + epoch stitch
//!
//! Writers never share a ring. Each recording thread gets its own
//! *segment* (a small mutex-guarded ring only that thread pushes to, so
//! the lock is uncontended in steady state), and every event is stamped
//! with a globally increasing *epoch* allocated under the segment lock.
//! A snapshot locks the segment registry (stalling new-thread
//! registration), then every segment ring at once, so no epoch can be
//! allocated mid-read; stitching is a sort by epoch. Eviction maintains
//! a global watermark — the highest evicted epoch plus one — and the
//! snapshot drops entries below it, which makes the result *gap-free*:
//! it is exactly the contiguous epoch range `[watermark, latest]`.

use crate::event::{Event, ServeOutcome};
use crate::recorder::Recorder;
use crate::sink::{render_trace, write_trace};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Locks a mutex, recovering from poisoning: the ring structures stay
/// consistent under a panicking writer (at worst one event is missing),
/// so a post-mortem snapshot — the whole point of a flight recorder —
/// must still be possible afterwards.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Conditions on which a configured [`FlightRecorder`] writes an
/// automatic dump of its ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpOn {
    /// A request finished in an error-shaped outcome
    /// ([`Event::ServeDone`] with `error`/`deadline`) or a surrogate
    /// certification check failed ([`Event::SurrogateCheck`] with
    /// `ok: false`).
    Error,
    /// The circuit breaker tripped open ([`Event::ServeBreakerOpen`]).
    BreakerOpen,
    /// The SLO burn-rate monitor latched a breach
    /// ([`Event::SloBreach`]).
    SloBreach,
    /// An explicit operator request via [`FlightRecorder::trigger`]
    /// (the process-signal hook: the binary's signal handler calls
    /// `trigger`, the recorder never installs OS handlers itself).
    Signal,
}

impl DumpOn {
    /// The reason slug embedded in auto-dump file names.
    pub fn label(self) -> &'static str {
        match self {
            DumpOn::Error => "error",
            DumpOn::BreakerOpen => "breaker_open",
            DumpOn::SloBreach => "slo_breach",
            DumpOn::Signal => "signal",
        }
    }
}

/// One stitched entry from a [`FlightRecorder::snapshot_entries`] call:
/// the event and the global epoch it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// The globally ordered record index (consecutive entries of a
    /// snapshot have consecutive epochs).
    pub epoch: u64,
    /// The recorded event.
    pub event: Event,
}

/// One thread's private ring.
#[derive(Debug, Default)]
struct Segment {
    ring: Mutex<VecDeque<(u64, Event)>>,
}

/// Allocator for process-unique recorder ids (the thread-local segment
/// registry is keyed on them, so two recorders never share segments).
static NEXT_FLIGHT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's segment per live recorder id.
    static THREAD_SEGMENTS: RefCell<Vec<(u64, Weak<Segment>)>> = const { RefCell::new(Vec::new()) };
}

/// Cap on dumps per recorder: once reached, triggers stop writing files
/// so a flapping breaker cannot fill the disk.
const MAX_DUMPS: u64 = 8;

/// A fixed-capacity, per-thread-segmented event ring implementing
/// [`Recorder`]: always on, bounded memory, retroactive dumps.
///
/// `capacity` bounds each writer thread's segment; the stitched
/// snapshot is the contiguous range of global epochs still retained by
/// every segment (older entries fall below the eviction watermark and
/// are dropped, exactly like a hardware flight recorder's loop tape).
///
/// # Example
///
/// ```
/// use ferrocim_telemetry::{Event, FlightRecorder, Recorder, Telemetry};
///
/// let flight = std::sync::Arc::new(FlightRecorder::new(128));
/// let tele = Telemetry::new(flight.clone());
/// tele.record(&Event::NewtonIter { iteration: 1 });
/// assert_eq!(flight.snapshot().len(), 1);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    id: u64,
    capacity: usize,
    /// Next global epoch; allocated under a segment lock so a snapshot
    /// holding every segment lock observes a stable frontier.
    epoch: AtomicU64,
    /// Eviction watermark: one past the highest epoch ever evicted.
    evicted: AtomicU64,
    segments: Mutex<Vec<Arc<Segment>>>,
    dump_dir: Option<PathBuf>,
    triggers: Vec<DumpOn>,
    dump_seq: AtomicU64,
    dump_errors: AtomicU64,
    last_dump: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` events per writer thread
    /// (clamped to at least one), with no dump triggers configured.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_FLIGHT_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            epoch: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            segments: Mutex::new(Vec::new()),
            dump_dir: None,
            triggers: Vec::new(),
            dump_seq: AtomicU64::new(0),
            dump_errors: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// Enables automatic dumps into `dir` whenever an event matching
    /// one of `triggers` is recorded. Dump files are named
    /// `flight-<seq>-<reason>.jsonl` and written with the same atomic
    /// tmp+rename discipline as [`JsonlSink`](crate::JsonlSink).
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>, triggers: &[DumpOn]) -> FlightRecorder {
        self.dump_dir = Some(dir.into());
        self.triggers = triggers.to_vec();
        self
    }

    /// The per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This thread's segment, registering one on first use.
    fn segment(&self) -> Arc<Segment> {
        THREAD_SEGMENTS.with(|cell| {
            let mut map = cell.borrow_mut();
            if let Some(segment) = map
                .iter()
                .find(|(id, _)| *id == self.id)
                .and_then(|(_, weak)| weak.upgrade())
            {
                return segment;
            }
            // First event from this thread (or the recorder that owned
            // a stale slot is gone): register a fresh segment.
            map.retain(|(id, weak)| *id != self.id && weak.strong_count() > 0);
            let segment = Arc::new(Segment::default());
            lock(&self.segments).push(segment.clone());
            map.push((self.id, Arc::downgrade(&segment)));
            segment
        })
    }

    /// The stitched ring contents in epoch order: the contiguous range
    /// of global epochs above the eviction watermark.
    pub fn snapshot_entries(&self) -> Vec<FlightEntry> {
        let registry = lock(&self.segments);
        // Holding the registry lock (no new segments) plus every ring
        // lock (no in-flight epoch allocations) freezes the frontier;
        // see the module docs for why this makes the result gap-free.
        let guards: Vec<MutexGuard<'_, VecDeque<(u64, Event)>>> =
            registry.iter().map(|segment| lock(&segment.ring)).collect();
        let watermark = self.evicted.load(Ordering::Acquire);
        let mut entries: Vec<FlightEntry> = guards
            .iter()
            .flat_map(|ring| ring.iter())
            .filter(|(epoch, _)| *epoch >= watermark)
            .map(|(epoch, event)| FlightEntry {
                epoch: *epoch,
                event: event.clone(),
            })
            .collect();
        drop(guards);
        drop(registry);
        entries.sort_by_key(|entry| entry.epoch);
        entries
    }

    /// The stitched ring contents in record order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.snapshot_entries()
            .into_iter()
            .map(|entry| entry.event)
            .collect()
    }

    /// Number of events a snapshot would currently return.
    pub fn len(&self) -> usize {
        self.snapshot_entries().len()
    }

    /// Whether the ring holds no retained events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the current snapshot as an in-memory
    /// `ferrocim-trace-v1` JSONL document (the `/debug/flight` body).
    pub fn render(&self) -> String {
        render_trace(&self.snapshot())
    }

    /// Dumps the current snapshot to `path` as a finished trace file
    /// (atomic tmp+rename, readable by `trace summary`).
    ///
    /// # Errors
    ///
    /// Returns file-creation and flush/sync/rename failures.
    pub fn dump_to(&self, path: impl Into<PathBuf>) -> io::Result<PathBuf> {
        write_trace(path, &self.snapshot())
    }

    /// Forces a dump now, named for `reason`, if a dump directory is
    /// configured and the dump cap has room. This is the hook a signal
    /// handler (or an operator endpoint) calls for [`DumpOn::Signal`];
    /// it does not require `reason` to be among the configured
    /// triggers. Returns the written path, or `None` when not
    /// configured, capped out, or failed (failures are counted in
    /// [`FlightRecorder::dump_errors`] — this path must never panic).
    pub fn trigger(&self, reason: DumpOn) -> Option<PathBuf> {
        let dir = self.dump_dir.as_ref()?;
        let seq = self
            .dump_seq
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |seq| {
                (seq < MAX_DUMPS).then_some(seq + 1)
            })
            .ok()?;
        let path = dir.join(format!("flight-{seq:03}-{}.jsonl", reason.label()));
        match self.dump_to(&path) {
            Ok(path) => {
                *lock(&self.last_dump) = Some(path.clone());
                Some(path)
            }
            Err(_) => {
                self.dump_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Automatic dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        let attempted = self.dump_seq.load(Ordering::Relaxed);
        attempted.saturating_sub(self.dump_errors.load(Ordering::Relaxed))
    }

    /// Dump attempts that failed with an I/O error (latched, never
    /// raised: `record` must not panic).
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors.load(Ordering::Relaxed)
    }

    /// The most recently written dump path, if any.
    pub fn last_dump(&self) -> Option<PathBuf> {
        lock(&self.last_dump).clone()
    }

    /// The configured dump directory, if any.
    pub fn dump_dir(&self) -> Option<&Path> {
        self.dump_dir.as_deref()
    }

    /// Maps an event to the auto-dump trigger it fires, if any.
    fn trigger_for(event: &Event) -> Option<DumpOn> {
        match event {
            Event::ServeBreakerOpen { .. } => Some(DumpOn::BreakerOpen),
            Event::SloBreach { .. } => Some(DumpOn::SloBreach),
            Event::ServeDone {
                outcome: ServeOutcome::Error | ServeOutcome::Deadline,
                ..
            } => Some(DumpOn::Error),
            Event::SurrogateCheck { ok: false, .. } => Some(DumpOn::Error),
            _ => None,
        }
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, event: &Event) {
        let segment = self.segment();
        {
            let mut ring = lock(&segment.ring);
            // Epoch allocation happens under the ring lock so a
            // snapshot holding every ring lock sees a frozen frontier
            // (no allocated-but-unpushed epochs).
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
            ring.push_back((epoch, event.clone()));
            if ring.len() > self.capacity {
                if let Some((evicted_epoch, _)) = ring.pop_front() {
                    self.evicted.fetch_max(evicted_epoch + 1, Ordering::AcqRel);
                }
            }
        }
        // The ring lock is released before dumping: a dump snapshots
        // every segment, including this one.
        if let Some(reason) = FlightRecorder::trigger_for(event) {
            if self.triggers.contains(&reason) {
                self.trigger(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServeBackendKind;
    use crate::sink::read_trace;

    fn iter_event(i: u64) -> Event {
        Event::NewtonIter { iteration: i }
    }

    #[test]
    fn ring_retains_the_last_capacity_events_in_order() {
        let flight = FlightRecorder::new(4);
        for i in 0..10 {
            flight.record(&iter_event(i));
        }
        let entries = flight.snapshot_entries();
        assert_eq!(entries.len(), 4);
        let epochs: Vec<u64> = entries.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![6, 7, 8, 9]);
        assert_eq!(
            flight.snapshot(),
            (6..10).map(iter_event).collect::<Vec<_>>()
        );
        assert_eq!(flight.len(), 4);
        assert!(!flight.is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let flight = FlightRecorder::new(0);
        assert_eq!(flight.capacity(), 1);
        flight.record(&iter_event(1));
        flight.record(&iter_event(2));
        assert_eq!(flight.snapshot(), vec![iter_event(2)]);
    }

    #[test]
    fn render_is_a_valid_trace_document() {
        let flight = FlightRecorder::new(8);
        flight.record(&iter_event(1));
        let text = flight.render();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"format\":\"ferrocim-trace-v1\"}"));
        let expected = serde_json::to_string(&iter_event(1)).expect("serialize");
        assert_eq!(lines.next(), Some(expected.as_str()));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn breaker_open_trigger_writes_a_readable_dump() {
        let dir = std::env::temp_dir().join(format!("ferrocim-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flight = FlightRecorder::new(16).with_dump_dir(&dir, &[DumpOn::BreakerOpen]);
        flight.record(&iter_event(1));
        flight.record(&Event::ServeBreakerOpen {
            window_failures: 5,
            window_size: 8,
            request_id: 7,
            tenant: "t".into(),
        });
        assert_eq!(flight.dumps_written(), 1);
        let path = flight.last_dump().expect("dump path");
        assert!(path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("file name")
            .contains("breaker_open"));
        let events = read_trace(&path).expect("dump is a valid trace");
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], Event::ServeBreakerOpen { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unconfigured_triggers_do_not_dump_and_caps_hold() {
        let dir = std::env::temp_dir().join(format!("ferrocim-flight-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Error events are not in the trigger set: no dump.
        let flight = FlightRecorder::new(8).with_dump_dir(&dir, &[DumpOn::SloBreach]);
        flight.record(&Event::ServeDone {
            request_id: 1,
            tenant: "t".into(),
            outcome: ServeOutcome::Error,
            backend: ServeBackendKind::None,
            latency_ms: 1.0,
        });
        assert_eq!(flight.dumps_written(), 0);
        // Manual triggers bypass the configured set but honor the cap.
        let flight = FlightRecorder::new(8).with_dump_dir(&dir, &[]);
        flight.record(&iter_event(1));
        for _ in 0..MAX_DUMPS {
            assert!(flight.trigger(DumpOn::Signal).is_some());
        }
        assert!(flight.trigger(DumpOn::Signal).is_none(), "cap reached");
        assert_eq!(flight.dumps_written(), MAX_DUMPS);
        assert_eq!(flight.dump_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_dump_dir_means_trigger_is_a_noop() {
        let flight = FlightRecorder::new(8);
        flight.record(&iter_event(1));
        assert!(flight.trigger(DumpOn::Signal).is_none());
        assert_eq!(flight.dumps_written(), 0);
    }
}
