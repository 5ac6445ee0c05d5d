//! Per-tenant circuit breaking over the solver path.
//!
//! The classic three-state machine: **closed** (solving normally,
//! outcomes recorded into a sliding window) → **open** (error rate over
//! the window tripped the threshold; all solves for the tenant are
//! answered from the degraded fallback for a cooldown period) →
//! **half-open** (after the cooldown, a limited number of probe solves
//! run live; success closes the breaker, failure re-opens it). Opening
//! the breaker converts a failing dependency from "every request eats a
//! full retry ladder against a broken solver" into "every request gets
//! a fast, explicitly-marked degraded answer".

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length, in recorded outcomes.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip
    /// (a single early failure must not open it).
    pub min_samples: usize,
    /// Error-rate threshold in `(0, 1]`; at or above it, the breaker
    /// opens.
    pub trip_error_rate: f64,
    /// How long the breaker stays open before probing.
    pub cooldown: Duration,
}

/// Live probes allowed concurrently while half-open.
const HALF_OPEN_PROBES: usize = 1;

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            trip_error_rate: 0.5,
            cooldown: Duration::from_millis(500),
        }
    }
}

/// The observable state of a breaker (for `/healthz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Solving normally.
    Closed,
    /// Failing fast to the degraded fallback.
    Open,
    /// Cooldown elapsed; probing the solver with limited live traffic.
    HalfOpen,
}

impl BreakerState {
    /// The lowercase name used in `/healthz` JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the breaker tells the caller to do with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Solve live (closed breaker).
    Allow,
    /// Solve live as a half-open probe; report the outcome faithfully.
    Probe,
    /// Do not touch the solver; answer from the fallback.
    Deny,
}

#[derive(Debug)]
enum State {
    Closed { outcomes: VecDeque<bool> },
    Open { until: Instant },
    HalfOpen { in_flight: usize },
}

/// A sliding-window circuit breaker; one per tenant.
///
/// All methods are callable from any worker thread.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
}

/// A breaker trip observation handed back to the caller so it can be
/// recorded as telemetry ([`ferrocim_telemetry::Event::ServeBreakerOpen`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripInfo {
    /// Failures in the window at the moment of the trip.
    pub window_failures: u64,
    /// Outcomes in the window at the moment of the trip.
    pub window_size: u64,
}

/// A point-in-time, read-only view of one breaker for the
/// `/debug/breakers` endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSnapshot {
    /// The state at the moment of the snapshot (cooldown advanced).
    pub state: BreakerState,
    /// Failures currently in the closed-state window (0 otherwise).
    pub window_failures: u64,
    /// Outcomes currently in the closed-state window (0 otherwise).
    pub window_size: u64,
    /// Milliseconds of cooldown left while open (0 otherwise).
    pub cooldown_remaining_ms: u64,
    /// Live probes in flight while half-open (0 otherwise).
    pub probes_in_flight: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: Mutex::new(State::Closed {
                outcomes: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Breaker state stays consistent under early unlock, so recover
        // from poisoning instead of wedging the tenant forever.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The current state, advancing open → half-open if the cooldown
    /// has elapsed.
    pub fn state(&self) -> BreakerState {
        let mut state = self.lock();
        self.advance(&mut state);
        match *state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// A consistent read of the whole breaker (state plus the
    /// state-specific detail a debugger wants), advancing open →
    /// half-open first so the view never shows a stale cooldown.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let mut state = self.lock();
        self.advance(&mut state);
        match &*state {
            State::Closed { outcomes } => BreakerSnapshot {
                state: BreakerState::Closed,
                window_failures: outcomes.iter().filter(|&&o| !o).count() as u64,
                window_size: outcomes.len() as u64,
                cooldown_remaining_ms: 0,
                probes_in_flight: 0,
            },
            State::Open { until } => BreakerSnapshot {
                state: BreakerState::Open,
                window_failures: 0,
                window_size: 0,
                cooldown_remaining_ms: until.saturating_duration_since(Instant::now()).as_millis()
                    as u64,
                probes_in_flight: 0,
            },
            State::HalfOpen { in_flight } => BreakerSnapshot {
                state: BreakerState::HalfOpen,
                window_failures: 0,
                window_size: 0,
                cooldown_remaining_ms: 0,
                probes_in_flight: *in_flight as u64,
            },
        }
    }

    fn advance(&self, state: &mut State) {
        if let State::Open { until } = *state {
            if Instant::now() >= until {
                *state = State::HalfOpen { in_flight: 0 };
            }
        }
    }

    /// Decides what one request may do. A [`BreakerDecision::Probe`]
    /// claims one of the half-open probe slots; the caller *must*
    /// report the probe's outcome via [`CircuitBreaker::record`] (a
    /// dropped probe is released by recording a failure).
    pub fn decide(&self) -> BreakerDecision {
        let mut state = self.lock();
        self.advance(&mut state);
        match &mut *state {
            State::Closed { .. } => BreakerDecision::Allow,
            State::Open { .. } => BreakerDecision::Deny,
            State::HalfOpen { in_flight } => {
                if *in_flight < HALF_OPEN_PROBES {
                    *in_flight += 1;
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Deny
                }
            }
        }
    }

    /// Records one live-solve outcome. Returns trip details at the
    /// moment the breaker transitions closed → open (and only then), so
    /// the caller can emit the telemetry event exactly once per trip.
    pub fn record(&self, ok: bool) -> Option<TripInfo> {
        let mut state = self.lock();
        self.advance(&mut state);
        match &mut *state {
            State::Closed { outcomes } => {
                outcomes.push_back(ok);
                while outcomes.len() > self.config.window {
                    outcomes.pop_front();
                }
                let failures = outcomes.iter().filter(|&&o| !o).count();
                let size = outcomes.len();
                if size >= self.config.min_samples
                    && failures as f64 / size as f64 >= self.config.trip_error_rate
                {
                    *state = State::Open {
                        until: Instant::now() + self.config.cooldown,
                    };
                    return Some(TripInfo {
                        window_failures: failures as u64,
                        window_size: size as u64,
                    });
                }
                None
            }
            State::Open { .. } => None,
            State::HalfOpen { .. } => {
                if ok {
                    // One healthy probe closes the breaker; the window
                    // restarts empty so stale failures don't re-trip it.
                    *state = State::Closed {
                        outcomes: VecDeque::new(),
                    };
                } else {
                    *state = State::Open {
                        until: Instant::now() + self.config.cooldown,
                    };
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 4,
            trip_error_rate: 0.5,
            cooldown: Duration::from_millis(10),
        }
    }

    #[test]
    fn trips_at_the_error_rate_and_not_before() {
        let b = CircuitBreaker::new(fast_config());
        assert!(b.record(false).is_none(), "below min_samples");
        assert!(b.record(true).is_none());
        assert!(b.record(false).is_none());
        let trip = b.record(false).expect("2/4 failures >= 50% trips");
        assert_eq!(trip.window_failures, 3);
        assert_eq!(trip.window_size, 4);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.decide(), BreakerDecision::Deny);
    }

    #[test]
    fn snapshot_reports_state_specific_detail() {
        let b = CircuitBreaker::new(fast_config());
        b.record(false);
        b.record(true);
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.window_failures, 1);
        assert_eq!(snap.window_size, 2);
        for _ in 0..4 {
            b.record(false);
        }
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::Open);
        assert!(snap.cooldown_remaining_ms <= 10, "bounded by the cooldown");
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.decide(), BreakerDecision::Probe);
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::HalfOpen);
        assert_eq!(snap.probes_in_flight, 1);
    }

    #[test]
    fn cooldown_leads_to_half_open_probe_then_close_or_reopen() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..4 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.decide(), BreakerDecision::Probe);
        assert_eq!(
            b.decide(),
            BreakerDecision::Deny,
            "only one concurrent probe"
        );
        // Failed probe re-opens; successful probe closes.
        assert!(b.record(false).is_none());
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.decide(), BreakerDecision::Probe);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.decide(), BreakerDecision::Allow);
    }
}
