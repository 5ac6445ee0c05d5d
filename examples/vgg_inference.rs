//! Hardware-in-the-loop inference: trains a small VGG on the synthetic
//! dataset, maps it onto simulated 2T-1FeFET rows, and compares clean
//! vs CIM accuracy at several temperatures — a condensed version of the
//! paper's Sec. IV-B evaluation. Runs in a couple of minutes.
//!
//! ```sh
//! cargo run --release --example vgg_inference
//! ```

use ferrocim::cim::cells::TwoTransistorOneFefet;
use ferrocim::cim::transfer::{TransferConfig, TransferModel};
use ferrocim::cim::{ArrayConfig, CimArray};
use ferrocim::nn::cim_exec::{CimMapping, CimNetwork, IdealMac};
use ferrocim::nn::data::Generator;
use ferrocim::nn::vgg::vgg_nano;
use ferrocim::nn::{try_train, TrainConfig};
use ferrocim::units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train_set = Generator::new(1).generate(1000);
    let test_set = Generator::new(999).generate(250);
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = vgg_nano(&mut rng);
    println!("training VGG-nano ({} params)...", net.parameter_count());
    let stats = try_train(
        &mut net,
        &train_set.images,
        &train_set.labels,
        &TrainConfig {
            epochs: 20,
            learning_rate: 0.01,
            ..TrainConfig::default()
        },
    )?;
    println!(
        "final train accuracy: {:.3}",
        stats.last().map(|s| s.train_accuracy).unwrap_or(0.0)
    );
    let clean = net.accuracy(&test_set.images, &test_set.labels);
    println!("clean test accuracy:          {clean:.3}");

    let cim = CimNetwork::map(&net, CimMapping::default());
    let ideal = cim.accuracy(&test_set.images, &test_set.labels, &IdealMac(8), 11);
    println!("4-bit quantized (ideal rows): {ideal:.3}");

    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?;
    for temp_c in [0.0, 27.0, 85.0] {
        let model =
            TransferModel::measure(&array, &TransferConfig::paper_default(Celsius(temp_c)))?;
        let acc = cim.accuracy(&test_set.images, &test_set.labels, &model, 13);
        println!("CIM rows at {temp_c:>4} C:           {acc:.3}");
    }
    Ok(())
}
