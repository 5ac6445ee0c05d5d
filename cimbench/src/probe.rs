//! Instrumentation shared by every workload: the counters and spans the
//! crates already emit, host-time helpers, and output digests.
//!
//! Every run records counters through an [`Aggregator`], as the deployed
//! `ferrocim-serve` does, because the output checks read them (degraded
//! solves). A traced run additionally keeps the spans in memory, per span
//! name, through [`SpanTotals`]; the workloads wrap the public
//! `MacOracle` / `MacBackend` seams in timing adapters.

use ferrocim_telemetry::{Aggregator, Counts, Event, Recorder, Span, Tee, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-layer metric values by name, as listed in `BENCHMARK.json`.
pub type Layers = BTreeMap<&'static str, f64>;

/// Call count and busy time of every span name seen.
#[derive(Debug, Default)]
pub struct SpanTotals {
    state: Mutex<SpanState>,
}

#[derive(Debug, Default)]
struct SpanState {
    open: HashMap<u64, String>,
    closed: BTreeMap<String, (u64, f64)>,
}

impl SpanTotals {
    /// Busy seconds summed over every closed span called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.snapshot().get(name).map_or(0.0, |&(_, us)| us * 1e-6)
    }

    /// `(name, calls, busy microseconds)` for every closed span.
    pub fn snapshot(&self) -> BTreeMap<String, (u64, f64)> {
        self.state
            .lock()
            .expect("span table poisoned")
            .closed
            .clone()
    }
}

impl Recorder for SpanTotals {
    fn record(&self, event: &Event) {
        match event {
            Event::SpanBegin { id, name, .. } => {
                let mut state = self.state.lock().expect("span table poisoned");
                state.open.insert(*id, name.clone());
            }
            Event::SpanEnd { id, micros } => {
                let mut state = self.state.lock().expect("span table poisoned");
                if let Some(name) = state.open.remove(id) {
                    let entry = state.closed.entry(name).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += micros;
                }
            }
            _ => {}
        }
    }
}

/// The telemetry one workload pass records into.
pub struct Probe {
    /// Counters of every event the layers emit.
    pub aggregator: Arc<Aggregator>,
    /// Span totals; `Some` only in a traced pass.
    pub spans: Option<Arc<SpanTotals>>,
    /// The handle attached to every layer under test.
    pub telemetry: Telemetry,
}

impl Probe {
    /// Counters only (`traced == false`), or counters plus spans.
    pub fn new(traced: bool) -> Probe {
        let aggregator = Arc::new(Aggregator::new());
        if traced {
            let spans = Arc::new(SpanTotals::default());
            let telemetry = Telemetry::to(Tee::new(vec![
                aggregator.clone() as Arc<dyn Recorder>,
                spans.clone(),
            ]));
            Probe {
                aggregator,
                spans: Some(spans),
                telemetry,
            }
        } else {
            Probe {
                telemetry: Telemetry::new(aggregator.clone()),
                aggregator,
                spans: None,
            }
        }
    }

    /// Whether spans and timing adapters are recorded.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// A benchmark-side span around one call into a layer; it records
    /// nothing in an untraced pass.
    pub fn span(&self, name: &'static str) -> Option<Span<'_>> {
        self.traced().then(|| self.telemetry.span(name))
    }

    /// The per-layer metrics derivable from counters and spans alone.
    /// Layers a workload does not reach read 0.
    pub fn layers(&self) -> Layers {
        let c: Counts = self.aggregator.counts();
        let busy = |name: &str| self.spans.as_ref().map_or(0.0, |s| s.busy_s(name));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let transient_s = busy("spice.transient");
        let measure_s = busy("bench.transfer_measure");
        let sample_s = busy("cim.mac_sample");
        let forward_s = busy("nn.forward");
        let mut layers = Layers::new();
        layers.insert("spice.newton_iters", c.newton_iters as f64);
        layers.insert("spice.solver_solves", c.solver_solves as f64);
        layers.insert("spice.symbolic_analyses", c.solver_symbolic as f64);
        layers.insert("spice.symbolic_busy_s", busy("spice.solver.symbolic"));
        layers.insert("spice.steps_accepted", c.steps_accepted as f64);
        layers.insert("spice.steps_rejected", c.steps_rejected as f64);
        layers.insert("spice.solves_refined", c.solves_refined as f64);
        layers.insert("spice.solves_degraded", c.solves_degraded as f64);
        layers.insert("spice.rescue_attempts", c.rescue_attempts as f64);
        layers.insert("spice.transient_busy_s", transient_s);
        layers.insert(
            "spice.us_per_newton_iter",
            ratio(transient_s * 1e6, c.newton_iters as f64),
        );
        layers.insert("cim.mac_jobs", c.mac_jobs as f64);
        layers.insert("cim.mac_solves", c.mac_solves as f64);
        layers.insert(
            "cim.dedupe_ratio",
            ratio(c.mac_jobs as f64, c.mac_solves as f64),
        );
        layers.insert("cim.batch_busy_s", busy("bench.mac_batch_grid"));
        layers.insert("cim.measure_busy_s", measure_s);
        layers.insert("cim.sample_busy_s", sample_s);
        layers.insert(
            "cim.mc_parallel_eff",
            ratio(sample_s, threads() as f64 * measure_s),
        );
        layers.insert("nn.forward_busy_s", forward_s);
        layers.insert("nn.conv_busy_s", busy("cim.conv2d"));
        layers.insert("nn.linear_busy_s", busy("cim.linear"));
        layers.insert("serve.admitted", c.serve_admitted as f64);
        layers.insert("serve.shed", c.serve_shed as f64);
        layers.insert("serve.retries", c.serve_retries as f64);
        layers.insert("serve.degraded", c.serve_degraded as f64);
        layers.insert("serve.breaker_open", c.serve_breaker_open as f64);
        layers
    }

    /// Writes the span table to standard error (traced passes only).
    pub fn write_spans(&self) {
        if let Some(spans) = &self.spans {
            eprintln!("{:<28} {:>10} {:>12}", "span", "calls", "busy [s]");
            for (name, (calls, us)) in spans.snapshot() {
                eprintln!("{name:<28} {calls:>10} {:>12.6}", us * 1e-6);
            }
        }
    }
}

/// Worker threads the crates fan out over.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times, keeping the last result and every
/// duration in seconds.
pub fn repeat_setup<T, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = setup()?;
        times.push(since(start));
        // The previous instance is dropped outside the timed region.
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Median of `values`, the mean of the middle two for an even count
/// (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of a few standard percentiles that still has at least
/// ten samples beyond it, with its value; `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|pct| values.len() as f64 * (1.0 - pct / 100.0) >= 10.0)
        .map(|pct| (pct, percentile(values, pct)))
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: a digest of simulated outputs
/// that a speed-only change must leave unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64, for deriving independent per-op seeds from the run seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
