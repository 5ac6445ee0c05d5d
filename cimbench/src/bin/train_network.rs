//! Regenerates the VGG-nano checkpoint the `vgg_cim` workload loads.
//!
//! The network is trained once, offline, so that the benchmark's
//! set-up measures loading and mapping a network rather than training
//! one. Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path cimbench/Cargo.toml \
//!     --bin train_network -- cimbench/data/vgg_nano.json
//! ```
//!
//! The recipe (data seed, initialisation seed, epochs, learning rate)
//! is the one `table2_summary` uses for the paper's accuracy row. The
//! thread count is pinned so the checkpoint does not depend on the
//! host's core count.

use ferrocim_nn::data::Generator;
use ferrocim_nn::vgg::vgg_nano;
use ferrocim_nn::{io, try_train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: train_network <checkpoint.json>")?;
    let train_set = Generator::new(1).generate(1500);
    let mut net = vgg_nano(&mut StdRng::seed_from_u64(7));
    let stats = try_train(
        &mut net,
        &train_set.images,
        &train_set.labels,
        &TrainConfig {
            epochs: 24,
            learning_rate: 0.01,
            threads: 2,
            ..TrainConfig::default()
        },
    )?;
    if let Some(last) = stats.last() {
        eprintln!(
            "epoch {}: loss {:.3}, train accuracy {:.3}",
            last.epoch, last.loss, last.train_accuracy
        );
    }
    io::save(&net, &path)?;
    Ok(())
}
