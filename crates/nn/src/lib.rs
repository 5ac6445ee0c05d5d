//! A minimal CNN stack with CIM-array-backed execution, for the paper's
//! Sec. IV-B evaluation: VGG on CIFAR-10-class data, with every inner
//! product routed through the simulated 2T-1FeFET row and its measured
//! temperature/variation error statistics.
//!
//! * [`tensor::Tensor`] — dense `f32` tensors (CHW images).
//! * [`layers`] / [`network`] — Conv/Pool/Linear/ReLU/Dropout layers with
//!   full backprop and a data-parallel SGD trainer.
//! * [`vgg`] — the paper's Table I VGG and the trainable "VGG-nano".
//! * [`data`] — the synthetic CIFAR-10 substitute (see DESIGN.md).
//! * [`quant`] — fixed-point weight/activation quantization.
//! * [`cim_exec`] — bit-serial mapping of every MAC onto 8-cell CIM rows
//!   through a [`cim_exec::MacOracle`] (ideal, or the measured
//!   `TransferModel` of `ferrocim-cim`).
//!
//! # Example: quantized inference through an ideal CIM row
//!
//! ```
//! use ferrocim_nn::cim_exec::{CimMapping, CimNetwork, IdealMac};
//! use ferrocim_nn::data::Generator;
//! use ferrocim_nn::vgg::vgg_nano;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = vgg_nano(&mut rng);
//! let cim = CimNetwork::map(&net, CimMapping::default());
//! let ds = Generator::new(1).generate(1);
//! let class = cim.predict(&ds.images[0], &IdealMac(8), 42);
//! assert!(class < 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cim_exec;
pub mod data;
pub mod io;
pub mod layers;
pub mod metrics;
pub mod network;
pub mod quant;
pub mod tensor;
pub mod vgg;

pub use network::{
    try_train, try_train_recorded, EpochStats, Network, Optimizer, TrainConfig, TrainError,
};
pub use tensor::Tensor;

/// Re-exported telemetry handle: [`try_train_recorded`] takes one, and
/// [`cim_exec::CimNetwork::with_recorder`] /
/// [`cim_exec::FaultTolerant::with_recorder`] accept one (see
/// [`ferrocim_telemetry`] for recorders, aggregation, and trace sinks).
pub use ferrocim_telemetry::Telemetry;
