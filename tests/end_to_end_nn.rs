//! Cross-crate integration tests for the NN pipeline: synthetic data →
//! training → quantization → CIM-mapped inference with circuit-derived
//! noise, at sizes small enough for the test suite.

use ferrocim::cim::cells::TwoTransistorOneFefet;
use ferrocim::cim::transfer::{TransferConfig, TransferModel};
use ferrocim::cim::{ArrayConfig, CimArray};
use ferrocim::device::variation::VariationModel;
use ferrocim::nn::cim_exec::{CimMapping, CimNetwork, IdealMac, MacOracle};
use ferrocim::nn::data::Generator;
use ferrocim::nn::layers::{Layer, Linear};
use ferrocim::nn::{try_train, Network, TrainConfig};
use ferrocim::units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny two-layer MLP on downsampled synthetic images trains fast and
/// exercises the whole pipeline.
fn small_mlp_and_data() -> (Network, Vec<ferrocim::nn::Tensor>, Vec<usize>) {
    let ds = Generator::new(11).generate(300);
    // Downsample 32x32x3 → 8x8x3 by 4x4 average pooling, flatten.
    let inputs: Vec<ferrocim::nn::Tensor> = ds
        .images
        .iter()
        .map(|img| {
            let mut out = vec![0.0f32; 3 * 8 * 8];
            for c in 0..3 {
                for y in 0..8 {
                    for x in 0..8 {
                        let mut acc = 0.0;
                        for dy in 0..4 {
                            for dx in 0..4 {
                                acc += img.at3(c, 4 * y + dy, 4 * x + dx);
                            }
                        }
                        out[(c * 8 + y) * 8 + x] = acc / 16.0;
                    }
                }
            }
            ferrocim::nn::Tensor::from_vec(&[3 * 8 * 8], out)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let net = Network::new(vec![
        Layer::Linear(Linear::new(192, 48, &mut rng)),
        Layer::Relu,
        Layer::Linear(Linear::new(48, 10, &mut rng)),
    ]);
    (net, inputs, ds.labels)
}

#[test]
fn mlp_trains_on_synthetic_data_and_survives_cim_mapping() {
    let (mut net, inputs, labels) = small_mlp_and_data();
    let stats = try_train(
        &mut net,
        &inputs,
        &labels,
        &TrainConfig {
            epochs: 30,
            learning_rate: 0.05,
            batch_size: 16,
            ..TrainConfig::default()
        },
    )
    .expect("trains");
    let clean = stats.last().unwrap().train_accuracy;
    assert!(clean > 0.8, "clean accuracy {clean}");
    // Quantized execution through ideal CIM rows barely degrades.
    let cim = CimNetwork::map(&net, CimMapping::default());
    let ideal = cim.accuracy(&inputs, &labels, &IdealMac(8), 3);
    assert!(
        ideal > clean - 0.1,
        "ideal-CIM accuracy {ideal} vs clean {clean}"
    );
}

#[test]
fn transfer_model_at_room_temperature_is_mostly_correct() {
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .unwrap();
    let config = TransferConfig {
        samples_per_level: 40,
        ..TransferConfig::paper_default(Celsius(27.0))
    };
    let model = TransferModel::measure(&array, &config).unwrap();
    // The zero level must be read perfectly (it anchors sparse layers),
    // and every level's expectation must be close to the truth.
    assert!(model.correct_probability(0) > 0.95);
    for k in 0..=8 {
        let bias = (model.expected(k) - k as f64).abs();
        assert!(bias < 1.0, "level {k} biased by {bias}");
    }
    // The paper's Fig. 9 scale: max error well below full scale.
    assert!(model.max_relative_error() <= 0.5);
}

#[test]
fn transfer_model_without_variation_is_error_free_at_reference() {
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .unwrap();
    let config = TransferConfig {
        variation: VariationModel::none(),
        samples_per_level: 3,
        ..TransferConfig::paper_default(Celsius(27.0))
    };
    let model = TransferModel::measure(&array, &config).unwrap();
    for k in 0..=8 {
        assert_eq!(
            model.correct_probability(k),
            1.0,
            "nominal level {k} must read exactly"
        );
    }
    // And its oracle read-back is the identity.
    let mut rng = StdRng::seed_from_u64(0);
    for k in 0..=8 {
        assert_eq!(model.read(k, &mut rng), k);
    }
}

#[test]
fn hotter_transfer_models_are_no_better_than_room_temperature() {
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .unwrap();
    let measure = |t: f64| {
        let config = TransferConfig {
            samples_per_level: 30,
            ..TransferConfig::paper_default(Celsius(t))
        };
        let m = TransferModel::measure(&array, &config).unwrap();
        (0..=8).map(|k| m.correct_probability(k)).sum::<f64>() / 9.0
    };
    let room = measure(27.0);
    let hot = measure(85.0);
    // The ADC is calibrated at 27 C, so other temperatures can only be
    // equal or worse on average.
    assert!(hot <= room + 0.1, "hot {hot} vs room {room}");
    assert!(room > 0.5, "room-temperature correctness {room}");
}

#[test]
fn replica_tracking_outperforms_global_thresholds_at_the_cold_corner() {
    // Regression for the systematic readout bias: with one global
    // threshold set, the 0 °C levels sit at the edges of their decision
    // windows and variation pushes them across; replica tracking
    // re-centres them.
    use ferrocim::cim::transfer::AdcTracking;
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .unwrap();
    let measure = |tracking: AdcTracking| {
        let config = TransferConfig {
            samples_per_level: 30,
            tracking,
            ..TransferConfig::paper_default(Celsius(0.0))
        };
        let m = TransferModel::measure(&array, &config).unwrap();
        // Mean absolute readout bias across levels.
        (0..=8)
            .map(|k| (m.expected(k) - k as f64).abs())
            .sum::<f64>()
            / 9.0
    };
    let global = measure(AdcTracking::Global);
    let replica = measure(AdcTracking::Replica);
    assert!(
        replica < global,
        "replica bias {replica} must beat global bias {global}"
    );
    assert!(
        replica < 0.15,
        "replica tracking keeps readouts unbiased: {replica}"
    );
}
