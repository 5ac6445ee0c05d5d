//! Parity pins for the bit-serial CIM execution: seeded network outputs
//! and oracle RNG states are golden values, and `cim_dot` must match an
//! element-wise reference read for read, for any row geometry.

use ferrocim_nn::cim_exec::{cim_dot, CimMapping, CimNetwork, MacOracle};
use ferrocim_nn::data::Generator;
use ferrocim_nn::quant::{quantize_activations, quantize_weights, QuantizedWeights};
use ferrocim_nn::vgg::vgg_nano;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A stochastic oracle: every read draws once and lands on the true
/// count or one of its neighbours. It counts its reads and remembers a
/// fingerprint of the RNG state after the latest batch.
struct Jitter {
    width: usize,
    reads: AtomicUsize,
    rng_after: Mutex<u64>,
}

impl Jitter {
    fn new(width: usize) -> Self {
        Jitter {
            width,
            reads: AtomicUsize::new(0),
            rng_after: Mutex::new(0),
        }
    }

    fn rng_after(&self) -> u64 {
        *self.rng_after.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl MacOracle for Jitter {
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
        self.reads.fetch_add(1, Ordering::Relaxed);
        (true_count + rng.random_range(0..3))
            .saturating_sub(1)
            .min(self.width)
    }

    fn read_batch(&self, true_counts: &[usize], out: &mut Vec<usize>, rng: &mut StdRng) {
        out.clear();
        out.extend(true_counts.iter().map(|&c| self.read(c, rng)));
        *self.rng_after.lock().unwrap_or_else(|e| e.into_inner()) = rng.clone().random();
    }

    fn cells_per_row(&self) -> usize {
        self.width
    }
}

/// Output bit patterns, oracle reads and post-forward RNG fingerprint
/// of a seeded VGG-nano pass per image, recorded from the element-wise
/// partial-product loop.
const GOLDEN: [([u32; 10], usize, u64); 2] = [
    (
        [
            0xc09944ff, 0x3f5c7f49, 0xbf16cf4f, 0x3f8429d5, 0x4066996c, 0x404a949d, 0x4003959b,
            0x3f385441, 0x3f449b8a, 0xbf854bd7,
        ],
        0x18f74d,
        0x5016cf5b9ecd7a7d,
    ),
    (
        [
            0x40385387, 0x3fb030d6, 0x3f8c1c44, 0xbeeca40b, 0xbf5da71a, 0x40865375, 0x3f2ed7d1,
            0xbeb4cb26, 0x3d5a2e44, 0xc069b269,
        ],
        0x18b191,
        0x646d99dc655d1c08,
    ),
];

#[test]
fn seeded_vgg_nano_forward_is_pinned() {
    let net = vgg_nano(&mut StdRng::seed_from_u64(2024));
    let cim = CimNetwork::map(&net, CimMapping::default());
    let images = Generator::new(5).generate(2).images;
    let observed: Vec<([u32; 10], usize, u64)> = images
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let oracle = Jitter::new(8);
            let out = cim.forward(x, &oracle, 100 + i as u64);
            let mut bits = [0u32; 10];
            for (b, v) in bits.iter_mut().zip(out.data()) {
                *b = v.to_bits();
            }
            (
                bits,
                oracle.reads.load(Ordering::Relaxed),
                oracle.rng_after(),
            )
        })
        .collect();
    assert_eq!(observed, GOLDEN, "observed {observed:#x?}");
}

/// The partial-product decomposition counted one element at a time,
/// reading each count as soon as it is formed.
fn elementwise_dot(
    w: &QuantizedWeights,
    a: &[u8],
    mapping: &CimMapping,
    oracle: &Jitter,
    rng: &mut StdRng,
) -> i64 {
    let n = mapping.cells_per_row;
    let mut acc = 0i64;
    for (wc, ac) in w.values.chunks(n).zip(a.chunks(n)) {
        for wb in 0..w.magnitude_bits() {
            for ab in 0..mapping.activation_bits {
                let (mut pos, mut neg) = (0usize, 0usize);
                for (&wv, &av) in wc.iter().zip(ac) {
                    if (av >> ab) & 1 == 1 && (wv.unsigned_abs() >> wb) & 1 == 1 {
                        if wv > 0 {
                            pos += 1;
                        } else {
                            neg += 1;
                        }
                    }
                }
                let shift = u32::from(wb + ab);
                if pos > 0 {
                    acc += (oracle.read(pos, rng) as i64) << shift;
                }
                if neg > 0 {
                    acc -= (oracle.read(neg, rng) as i64) << shift;
                }
            }
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `cim_dot` reads the same counts in the same order as the
    /// element-wise reference, so a stochastic oracle returns the same
    /// integer and leaves the RNG in the same state.
    #[test]
    fn cim_dot_matches_elementwise_reference(
        cells_per_row in 1usize..=64,
        weight_bits in 2u8..=8,
        activation_bits in 1u8..=8,
        extra in 1usize..64,
        rows in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The last chunk is partial (1..row width cells) whenever the
        // row is wider than one cell.
        let len = rows * cells_per_row + 1 + extra % (cells_per_row - 1).max(1);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..len).map(|_| data_rng.random_range(-1.0..1.0)).collect();
        let a: Vec<f32> = (0..len).map(|_| data_rng.random_range(0.0..1.0)).collect();
        let qw = quantize_weights(&w, weight_bits);
        let qa = quantize_activations(&a, activation_bits);
        let mapping = CimMapping { weight_bits, activation_bits, cells_per_row };
        let oracle = Jitter::new(cells_per_row);

        let mut packed_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let packed = cim_dot(&qw, &qa.values, &mapping, &oracle, &mut packed_rng);
        let packed_reads = oracle.reads.swap(0, Ordering::Relaxed);
        let mut ref_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let reference = elementwise_dot(&qw, &qa.values, &mapping, &oracle, &mut ref_rng);
        let ref_reads = oracle.reads.load(Ordering::Relaxed);

        prop_assert_eq!(packed, reference);
        prop_assert_eq!(packed_reads, ref_reads);
        prop_assert_eq!(packed_rng.random::<u64>(), ref_rng.random::<u64>());
    }
}
