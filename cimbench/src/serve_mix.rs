//! `serve_mix`: an in-process `ferrocim-serve` (`CimBackend`,
//! `ServeConfig::default()`) driven over HTTP by a closed loop of one
//! client per core across [`TENANTS`] tenants.
//!
//! Every [`ROUND`] requests all clients meet at a barrier and send the
//! same never-seen weights at once (a surrogate miss, so calibration
//! writes to the store). Every [`LIVE_EVERY`]th request of a client's
//! round asks for `path: transient` (a live 8-cell solve); the rest are
//! analytic MACs on a hot set of weights calibrated during set-up
//! (surrogate hits). At 2 clients that is 94 % hits, 4 % live solves and
//! 2 % misses, the same in every round.
//! Temperatures are uniform over 0–85 °C. One op is one ok response;
//! one call is one HTTP request.

use crate::probe::{self, median, mix, since, tail, Digest, Probe};
use crate::{Outcome, Window};
use ferrocim_cim::{CimError, MacPath};
use ferrocim_serve::{
    http_request, CimBackend, MacBackend, ServeConfig, Server, Solution, SolveRequest,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::error::Error;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Row width the serve backend models (the paper's 8-cell row).
const CELLS: usize = 8;

/// Distinct tenants requests are spread over.
const TENANTS: usize = 8;

/// Hot weight vectors calibrated during set-up. Which inputs read back
/// wrong depends on the weights, so 16 keep `agreement` from varying
/// much from seed to seed.
const HOT: usize = 16;

/// Requests per round, over all clients; each round opens with one
/// miss per client.
const ROUND: usize = 100;

/// A client's request `i` of a round (the miss is request 0) is a live
/// transient solve when `i` is a multiple of this. Fixed positions keep
/// the work of every round the same, so round rates spread little.
const LIVE_EVERY: usize = 20;

/// Client socket timeout, far above any expected latency.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Live,
    Miss,
}

impl Class {
    const ALL: [Class; 3] = [Class::Hit, Class::Live, Class::Miss];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Live => "live",
            Class::Miss => "miss",
        }
    }
}

/// One request as the client saw it.
struct Sample {
    round: usize,
    class: Class,
    latency_ms: f64,
    temp_c: f64,
    /// Typed 200 with `ok: true` that passed every check.
    ok: bool,
    /// `readout - expected` of an ok response.
    readout_delta: i64,
    /// `v_acc` of an ok response, for the digest.
    v_acc: f64,
}

/// Host time the server spent inside each backend entry point.
#[derive(Default)]
struct BackendTimes {
    hit_ns: AtomicU64,
    hits: AtomicU64,
    calibrate_ns: AtomicU64,
    solve_ns: AtomicU64,
}

/// Times the public `MacBackend` seam around a [`CimBackend`].
struct TimedBackend {
    inner: Arc<CimBackend>,
    times: Arc<BackendTimes>,
}

impl MacBackend for TimedBackend {
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError> {
        let began = Instant::now();
        let solution = self.inner.solve(request);
        add_ns(&self.times.solve_ns, began);
        solution
    }

    fn surrogate(&self, request: &SolveRequest) -> Option<Solution> {
        if request.path != MacPath::Analytic {
            return self.inner.surrogate(request);
        }
        let misses = self.inner.mac_surrogate().counts().misses;
        let began = Instant::now();
        let answer = self.inner.surrogate(request);
        // Misses arrive in barrier-synchronised pairs with no hit in
        // flight, so a moved miss counter marks this call as a miss.
        if self.inner.mac_surrogate().counts().misses == misses {
            add_ns(&self.times.hit_ns, began);
            self.times.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            add_ns(&self.times.calibrate_ns, began);
        }
        answer
    }

    fn fallback(&self, request: &SolveRequest) -> Solution {
        self.inner.fallback(request)
    }

    fn cells_per_row(&self) -> usize {
        self.inner.cells_per_row()
    }
}

fn add_ns(total: &AtomicU64, began: Instant) {
    total.fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

fn bits(code: u8) -> Vec<bool> {
    (0..CELLS).map(|i| code >> i & 1 == 1).collect()
}

/// A running server and the backend behind it.
struct Served {
    server: Server,
    backend: Arc<CimBackend>,
    times: Arc<BackendTimes>,
}

/// Starts one server whose hot set is already calibrated.
fn set_up(probe: &Probe, hot: &[u8]) -> Result<Served, Box<dyn Error>> {
    let backend = Arc::new(CimBackend::new(probe.telemetry.clone(), 0)?);
    // The hot set is calibrated on one thread per core; the store is
    // concurrent and the keys are distinct.
    let chunk = hot.len().div_ceil(probe::threads());
    std::thread::scope(|scope| {
        let workers: Vec<_> = hot
            .chunks(chunk)
            .map(|codes| {
                let backend = &backend;
                scope.spawn(move || {
                    codes.iter().try_for_each(|&code| {
                        backend.mac_surrogate().curve_for(&bits(code)).map(drop)
                    })
                })
            })
            .collect();
        workers.into_iter().try_for_each(|worker| {
            worker
                .join()
                .expect("calibration thread panicked")
                .map_err(|e| format!("calibrating the hot set: {e}"))
        })
    })?;
    let times = Arc::new(BackendTimes::default());
    let served: Arc<dyn MacBackend> = if probe.traced() {
        Arc::new(TimedBackend {
            inner: backend.clone(),
            times: times.clone(),
        })
    } else {
        backend.clone()
    };
    let server = Server::start(
        ServeConfig::default(),
        served,
        probe.telemetry.clone(),
        probe.aggregator.clone(),
    )?;
    Ok(Served {
        server,
        backend,
        times,
    })
}

/// Sends one request and checks the response.
fn send(
    addr: std::net::SocketAddr,
    round: usize,
    class: Class,
    tenant: usize,
    weights: &[bool],
    rng: &mut StdRng,
) -> Sample {
    let inputs: Vec<bool> = (0..CELLS).map(|_| rng.random_bool(0.5)).collect();
    let temp_c: f64 = rng.random_range(0.0..=85.0);
    let path = if class == Class::Live {
        "transient"
    } else {
        "analytic"
    };
    let list = |v: &[bool]| {
        v.iter()
            .map(|&b| if b { "true" } else { "false" })
            .collect::<Vec<_>>()
            .join(",")
    };
    let body = format!(
        r#"{{"tenant":"t{tenant}","inputs":[{}],"weights":[{}],"temp_c":{temp_c},"path":"{path}"}}"#,
        list(&inputs),
        list(weights)
    );
    let expected = inputs
        .iter()
        .zip(weights)
        .filter(|&(&x, &w)| x && w)
        .count() as f64;
    let began = Instant::now();
    let response = http_request(addr, "POST", "/v1/mac", body.as_bytes(), CLIENT_TIMEOUT);
    let latency_ms = since(began) * 1e3;
    let doc = response
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json());
    let field = |name: &str| doc.as_ref().and_then(|d| d.get(name).cloned());
    let flag = |name: &str| matches!(field(name), Some(Value::Bool(true)));
    let number = |name: &str| match field(name) {
        Some(Value::Number(n)) => Some(n),
        _ => None,
    };
    let surrogate_ok = match class {
        Class::Hit => flag("surrogate") && number("attempts") == Some(0.0),
        Class::Miss => flag("surrogate"),
        Class::Live => !flag("surrogate"),
    };
    let ok =
        flag("ok") && !flag("degraded") && number("expected") == Some(expected) && surrogate_ok;
    let readout_delta = match (ok, number("readout")) {
        (true, Some(readout)) => (readout - expected) as i64,
        _ => 0,
    };
    let v_acc = number("v_acc").filter(|_| ok).unwrap_or(0.0);
    Sample {
        round,
        class,
        latency_ms,
        temp_c,
        ok,
        readout_delta,
        v_acc,
    }
}

pub fn run(probe: &Probe, seed: u64, seconds: f64, reps: usize) -> Result<Outcome, Box<dyn Error>> {
    // Every weight vector but all-ones (calibrated by the backend at
    // start-up) in seeded order: the first HOT are the hot set, the rest
    // are handed out, never twice, as misses.
    let mut codes: Vec<u8> = (0..u8::MAX).collect();
    codes.shuffle(&mut StdRng::seed_from_u64(mix(seed, u64::MAX)));
    let (hot, fresh) = codes.split_at(HOT);

    let mut setup_s = Vec::new();
    let mut kept: Option<Served> = None;
    for _ in 0..reps.max(1) {
        if let Some(served) = kept.take() {
            served.server.shutdown();
        }
        let began = Instant::now();
        kept = Some(set_up(probe, hot)?);
        setup_s.push(since(began));
    }
    let Served {
        server,
        backend,
        times,
    } = kept.expect("at least one set-up");
    let addr = server.addr();

    let clients = probe::threads();
    let per_round = (ROUND / clients).max(1);
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let round_starts = Mutex::new(Vec::new());
    let before = backend.mac_surrogate().counts();
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (barrier, stop, round_starts) = (&barrier, &stop, &round_starts);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix(seed, client as u64));
                    let mut samples = Vec::new();
                    for (round, miss) in fresh.iter().enumerate() {
                        // Every client agrees on when to stop: the
                        // barrier leader decides, then all re-meet.
                        if barrier.wait().is_leader() {
                            stop.store(since(start) >= seconds, Ordering::SeqCst);
                            round_starts
                                .lock()
                                .expect("round clock poisoned")
                                .push(Instant::now());
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let tenant = rng.random_range(0..TENANTS);
                        samples.push(send(
                            addr,
                            round,
                            Class::Miss,
                            tenant,
                            &bits(*miss),
                            &mut rng,
                        ));
                        for i in 1..per_round {
                            let class = if i % LIVE_EVERY == 0 {
                                Class::Live
                            } else {
                                Class::Hit
                            };
                            let tenant = rng.random_range(0..TENANTS);
                            let weights = bits(hot[rng.random_range(0..HOT)]);
                            samples.push(send(addr, round, class, tenant, &weights, &mut rng));
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    let after = backend.mac_surrogate().counts();
    let store_len = backend.mac_surrogate().store().len();
    server.shutdown();

    let samples: Vec<&Sample> = per_client.iter().flatten().collect();
    let miss_rounds = samples.iter().filter(|s| s.class == Class::Miss).count() / clients;
    let ok: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    let errors: Vec<&&&Sample> = ok.iter().filter(|s| s.readout_delta != 0).collect();
    let readout_err_share = errors.len() as f64 / ok.len().max(1) as f64;
    // One window per round, from its opening barrier to the next.
    let starts = round_starts.into_inner().expect("round clock poisoned");
    let windows = (0..miss_rounds)
        .map(|r| {
            let round: Vec<&&Sample> = samples.iter().filter(|s| s.round == r).collect();
            Window {
                attempted: round.len() as u64,
                failed: round.iter().filter(|s| !s.ok).count() as u64,
                seconds: starts
                    .get(r + 1)
                    .unwrap_or(&end)
                    .duration_since(starts[r])
                    .as_secs_f64(),
            }
        })
        .collect();
    let mut outcome = Outcome {
        setup_s,
        windows,
        call_ms: samples.iter().map(|s| s.latency_ms).collect(),
        agreement: 1.0 - readout_err_share,
        ..Outcome::default()
    };
    let latencies = |class: Class| -> Vec<f64> {
        ok.iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ms)
            .collect()
    };
    println!(
        "  {clients} closed-loop clients, {} requests, {} miss rounds",
        samples.len(),
        miss_rounds
    );
    for class in Class::ALL {
        let l = latencies(class);
        let tail = tail(&l).map_or("-".to_string(), |(p, v)| format!("p{p} {v:.3} ms"));
        println!(
            "  {:<4} p50 {:.3} ms over {} ok responses, tail {tail}",
            class.name(),
            median(&l),
            l.len()
        );
    }
    let hot_errors = errors.iter().filter(|s| s.temp_c >= 60.0).count();
    let plus_one = errors.iter().filter(|s| s.readout_delta == 1).count();
    println!(
        "  readout_err_share {readout_err_share:.4}: {} of {} ok responses read back != expected \
         ({hot_errors} at >= 60 C, {plus_one} as expected + 1); cause: CimBackend quantizes \
         with an ADC calibrated at 27 C",
        errors.len(),
        ok.len()
    );
    let mut digest = Digest::default();
    for client in &per_client {
        for s in client.iter().take(per_round) {
            digest.push(s.v_acc.to_bits());
            digest.push(s.readout_delta as u64);
            digest.push(u64::from(s.ok));
        }
    }
    println!("  digest v_acc and readouts of round 0: {digest}");

    if probe.traced() {
        let misses = after.misses - before.misses;
        let first_seen = miss_rounds as f64;
        let hit_lat = latencies(Class::Hit);
        let hit_calls = times.hits.load(Ordering::Relaxed).max(1) as f64;
        let hit_backend_ms = times.hit_ns.load(Ordering::Relaxed) as f64 * 1e-6 / hit_calls;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let layers = &mut outcome.layers;
        layers.insert("surrogate.hits", (after.hits - before.hits) as f64);
        layers.insert("surrogate.misses", misses as f64);
        layers.insert("surrogate.store_len", store_len as f64);
        layers.insert("surrogate.dup_calibrations", misses as f64 - first_seen);
        layers.insert(
            "surrogate.useful_calibration_ratio",
            if misses > 0 {
                first_seen / misses as f64
            } else {
                0.0
            },
        );
        layers.insert("surrogate.hit_busy_us", hit_backend_ms * 1e3);
        layers.insert(
            "surrogate.calibrate_busy_s",
            times.calibrate_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        layers.insert(
            "serve.solve_busy_s",
            times.solve_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        layers.insert("serve.outside_backend_ms", mean(&hit_lat) - hit_backend_ms);
        layers.insert("serve.hit_p50_ms", median(&hit_lat));
        layers.insert("serve.live_p50_ms", median(&latencies(Class::Live)));
        layers.insert("serve.miss_p50_ms", median(&latencies(Class::Miss)));
        layers.insert("serve.hit_tail_ms", tail(&hit_lat).map_or(0.0, |t| t.1));
        layers.insert(
            "serve.live_tail_ms",
            tail(&latencies(Class::Live)).map_or(0.0, |t| t.1),
        );
        layers.insert("serve.readout_err_share", readout_err_share);
    }
    Ok(outcome)
}
