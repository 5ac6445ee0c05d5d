//! `vgg_cim`: VGG-nano inference on seeded synthetic images with every
//! inner product read out through a `TransferModel` oracle measured at
//! 85 °C, through `CimNetwork::try_accuracy`.
//!
//! The bit-serial NN layer does nearly all the work; no solver runs in
//! the timed phase. One op is one image; one call is one
//! `try_accuracy` over [`CHUNK`] images.

use crate::probe::{self, mix, since, Digest, Layers, Probe};
use crate::{Outcome, Window};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::{TransferConfig, TransferModel};
use ferrocim_cim::{ArrayConfig, CimArray};
use ferrocim_nn::cim_exec::{CimMapping, CimNetwork, MacOracle};
use ferrocim_nn::data::Generator;
use ferrocim_nn::Tensor;
use ferrocim_spice::Budget;
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The trained VGG-nano checkpoint, relative to the repository root
/// (regenerate with the `train_network` binary).
const CHECKPOINT: &str = "cimbench/data/vgg_nano.json";

/// Images per `try_accuracy` call.
const CHUNK: usize = 8;

/// Distinct images generated per seed; calls cycle through them.
const POOL: usize = 512;

/// Calls whose correct-prediction counts enter the digest: few enough
/// to finish in any run.
const DIGEST_CALLS: usize = 8;

/// The oracle's operating temperature: the paper's hot corner.
const ORACLE_TEMP_C: f64 = 85.0;

/// The paper's CIM VGG accuracy on CIFAR-10; the synthetic data set
/// here is not CIFAR-10, so the two are printed side by side only.
const PAPER_ACCURACY: f64 = 0.8945;

/// Counts and times every readout of the wrapped oracle.
struct TimedOracle<'a, O> {
    inner: &'a O,
    reads: AtomicU64,
    busy_ns: AtomicU64,
}

impl<O> TimedOracle<'_, O> {
    fn charge(&self, reads: usize, began: Instant) {
        self.reads.fetch_add(reads as u64, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<O: MacOracle> MacOracle for TimedOracle<'_, O> {
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
        let began = Instant::now();
        let read = self.inner.read(true_count, rng);
        self.charge(1, began);
        read
    }

    fn read_batch(&self, true_counts: &[usize], out: &mut Vec<usize>, rng: &mut StdRng) {
        let began = Instant::now();
        self.inner.read_batch(true_counts, out, rng);
        self.charge(true_counts.len(), began);
    }

    fn cells_per_row(&self) -> usize {
        self.inner.cells_per_row()
    }
}

pub fn run(probe: &Probe, seed: u64, seconds: f64, reps: usize) -> Result<Outcome, Box<dyn Error>> {
    let images = Generator::new(seed).generate(POOL);
    let ((network, oracle), setup_s) = probe::repeat_setup(reps, || {
        let network = CimNetwork::map(&ferrocim_nn::io::load(CHECKPOINT)?, CimMapping::default())
            .with_recorder(probe.telemetry.clone());
        let array = CimArray::new(
            TwoTransistorOneFefet::paper_default(),
            ArrayConfig::paper_default(),
        )?
        .with_recorder(probe.telemetry.clone());
        let oracle = {
            let _span = probe.span("bench.transfer_measure");
            TransferModel::measure(
                &array,
                &TransferConfig::paper_default(Celsius(ORACLE_TEMP_C)),
            )?
        };
        Ok::<_, Box<dyn Error>>((network, oracle))
    })?;
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let hits = if probe.traced() {
        let timed = TimedOracle {
            inner: &oracle,
            reads: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        };
        let hits = timed_phase(
            probe,
            &network,
            &timed,
            &images,
            seed,
            seconds,
            &mut outcome,
        );
        let oracle_s = timed.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        let forward_s = probe.spans.as_ref().map_or(0.0, |s| s.busy_s("nn.forward"));
        let reads = timed.reads.load(Ordering::Relaxed) as f64;
        let layers: &mut Layers = &mut outcome.layers;
        layers.insert("nn.oracle_reads", reads);
        layers.insert("nn.oracle_busy_s", oracle_s);
        layers.insert("nn.self_s", forward_s - oracle_s);
        hits
    } else {
        timed_phase(
            probe,
            &network,
            &oracle,
            &images,
            seed,
            seconds,
            &mut outcome,
        )
    };
    report(&oracle, &hits, &outcome);
    Ok(outcome)
}

/// Runs `try_accuracy` calls for `seconds`, returning each successful
/// call's count of correctly classified images.
fn timed_phase<O: MacOracle>(
    probe: &Probe,
    network: &CimNetwork,
    oracle: &O,
    images: &ferrocim_nn::data::Dataset,
    seed: u64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Vec<usize> {
    let budget = Budget::unlimited();
    let mut hits = Vec::new();
    let mut correct = 0usize;
    let mut call = 0u64;
    let start = Instant::now();
    while since(start) < seconds {
        let at = (call as usize * CHUNK) % POOL;
        let inputs: &[Tensor] = &images.images[at..at + CHUNK];
        let labels = &images.labels[at..at + CHUNK];
        let began = Instant::now();
        let accuracy = {
            let _span = probe.span("bench.try_accuracy");
            network.try_accuracy(inputs, labels, oracle, mix(seed, call), &budget)
        };
        let mut window = Window {
            attempted: CHUNK as u64,
            failed: 0,
            seconds: since(began),
        };
        outcome.call_ms.push(window.seconds * 1e3);
        match accuracy {
            Ok(accuracy) => {
                let n = (accuracy * CHUNK as f64).round() as usize;
                correct += n;
                hits.push(n);
            }
            // An oracle fault or a worker panic loses every image of
            // the call.
            Err(_) => window.failed = CHUNK as u64,
        }
        outcome.windows.push(window);
        call += 1;
    }
    let predicted = outcome.attempted() - outcome.failed();
    outcome.agreement = correct as f64 / predicted.max(1) as f64;
    hits
}

fn report(oracle: &TransferModel, hits: &[usize], outcome: &Outcome) {
    // `try_accuracy` returns counts, not predictions, so the digest
    // covers the oracle's confusion matrix and the per-call counts.
    let mut digest = Digest::default();
    for p in oracle.confusion().iter().flatten() {
        digest.push(p.to_bits());
    }
    for &n in hits.iter().take(DIGEST_CALLS) {
        digest.push(n as u64);
    }
    println!(
        "  {} calls of {CHUNK} images, oracle measured at {ORACLE_TEMP_C} C",
        outcome.call_ms.len()
    );
    println!(
        "  fidelity: top-1 accuracy {:.2} % on synthetic images (paper: {:.2} % on CIFAR-10)",
        outcome.agreement * 100.0,
        PAPER_ACCURACY * 100.0
    );
    println!(
        "  digest oracle confusion and correct predictions of calls 0-{}: {digest}",
        DIGEST_CALLS - 1
    );
}
