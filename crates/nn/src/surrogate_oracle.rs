//! A [`MacOracle`] answered by the calibrated surrogate store.
//!
//! [`crate::cim_exec::CimNetwork`] issues millions of row readouts per
//! accuracy sweep; routing each through a live analytic solve is what
//! the surrogate exists to avoid. [`SurrogateOracle`] pins the oracle's
//! operating point (all-ones programmed weights — the level-transfer
//! convention every readout oracle in this crate uses — at one fixed
//! temperature), eagerly calibrates that single key at construction,
//! and then answers every `read` from the curve: a handful of float
//! ops, no netlists, no Newton iterations.
//!
//! Unlike [`ferrocim_cim::transfer::TransferModel`] — which samples a
//! measured confusion matrix and is therefore stochastic — the
//! surrogate oracle returns the *nominal* quantized readout and ignores
//! its RNG argument. It models the deterministic temperature-dependent
//! transfer of a healthy (or explicitly faulted) row, with the
//! surrogate's certified error envelope bounding how far its analog
//! answer can sit from a live solve.

use crate::cim_exec::MacOracle;
use ferrocim_cim::cells::CellDesign;
use ferrocim_cim::mac_operands;
use ferrocim_surrogate::{MacSurrogate, SurrogateError};
use ferrocim_units::Celsius;
use rand::rngs::StdRng;

/// A deterministic readout oracle backed by one calibrated curve.
#[derive(Debug)]
pub struct SurrogateOracle<C> {
    surrogate: MacSurrogate<C>,
    /// All-ones programmed weights (the oracle's single key).
    weights: Vec<bool>,
    /// Input pattern for every true count `0..=n`, precomputed.
    patterns: Vec<Vec<bool>>,
    temp: Celsius,
}

impl<C: CellDesign> SurrogateOracle<C> {
    /// Builds the oracle and eagerly calibrates its key, so `read` is
    /// infallible afterwards.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::OutOfDomain`] when `temp` lies outside the
    /// surrogate's calibrated grid, plus any live-calibration failure.
    pub fn new(surrogate: MacSurrogate<C>, temp: Celsius) -> Result<Self, SurrogateError> {
        let (lo, hi) = surrogate.domain_c();
        if !(temp.value() >= lo && temp.value() <= hi) {
            return Err(SurrogateError::OutOfDomain {
                temp_c: temp.value(),
                lo_c: lo,
                hi_c: hi,
            });
        }
        let n = surrogate.cells_per_row();
        let (weights, _) = mac_operands(n, 0);
        surrogate.curve_for(&weights)?;
        let patterns = (0..=n).map(|k| mac_operands(n, k).1).collect();
        Ok(SurrogateOracle {
            surrogate,
            weights,
            patterns,
            temp,
        })
    }

    /// The wrapped surrogate (counters, store, array).
    pub fn surrogate(&self) -> &MacSurrogate<C> {
        &self.surrogate
    }

    /// The fixed operating temperature.
    pub fn temp(&self) -> Celsius {
        self.temp
    }
}

impl<C: CellDesign> MacOracle for SurrogateOracle<C> {
    fn read(&self, true_count: usize, _rng: &mut StdRng) -> usize {
        let k = true_count.min(self.patterns.len() - 1);
        // The key was calibrated and the temperature domain-checked at
        // construction, so evaluation cannot fail; the ideal readout is
        // a defensive dead branch, not a policy.
        match self
            .surrogate
            .evaluate(&self.weights, &self.patterns[k], self.temp)
        {
            Ok(answer) => answer.readout,
            Err(_) => k,
        }
    }

    fn cells_per_row(&self) -> usize {
        self.patterns.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cim_exec::{CimMapping, CimNetwork, IdealMac};
    use crate::layers::{Layer, Linear};
    use crate::network::Network;
    use crate::tensor::Tensor;
    use ferrocim_cim::cells::TwoTransistorOneFefet;
    use ferrocim_cim::transfer::Adc;
    use ferrocim_cim::{ArrayConfig, CimArray, MacPath, MacRequest};
    use ferrocim_units::Second;
    use rand::SeedableRng;

    fn surrogate() -> MacSurrogate<TwoTransistorOneFefet> {
        let config = ArrayConfig {
            cells_per_row: 8,
            dt: Second(100e-12),
            ..ArrayConfig::paper_default()
        };
        let array =
            CimArray::new(TwoTransistorOneFefet::paper_default(), config).expect("valid config");
        MacSurrogate::new(array, &[Celsius(0.0), Celsius(27.0), Celsius(85.0)]).expect("valid grid")
    }

    #[test]
    fn oracle_matches_adc_quantized_live_solves_at_a_grid_temperature() {
        let temp = Celsius(27.0);
        let oracle = SurrogateOracle::new(surrogate(), temp).expect("in-domain");
        let adc = Adc::calibrate(oracle.surrogate().array(), temp).expect("calibrates");
        let mut rng = StdRng::seed_from_u64(0);
        for k in 0..=8 {
            let (weights, inputs) = mac_operands(8, k);
            let live = oracle
                .surrogate()
                .array()
                .run(
                    &MacRequest::new(&inputs)
                        .weights(&weights)
                        .at(temp)
                        .path(MacPath::Analytic),
                )
                .expect("live solve");
            assert_eq!(
                oracle.read(k, &mut rng),
                adc.quantize(live.v_acc),
                "true count {k}"
            );
        }
        // Counts above the row width clamp instead of panicking.
        assert_eq!(oracle.read(99, &mut rng), oracle.read(8, &mut rng));
    }

    #[test]
    fn oracle_rejects_out_of_domain_temperatures() {
        assert!(matches!(
            SurrogateOracle::new(surrogate(), Celsius(120.0)),
            Err(SurrogateError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn network_inference_through_the_oracle_matches_ideal_at_room() {
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(16, 4, &mut rng);
        let net = Network::new(vec![Layer::Linear(lin)]);
        let cim = CimNetwork::map(&net, CimMapping::default());
        let x = Tensor::from_vec(&[16], vec![0.5; 16]);
        let oracle = SurrogateOracle::new(surrogate(), Celsius(27.0)).expect("in-domain");
        let via_surrogate = cim.forward(&x, &oracle, 7);
        let ideal = cim.forward(&x, &IdealMac(8), 7);
        // At room temperature the paper-default design reads every
        // level correctly, so the surrogate-backed inference must equal
        // the ideal readout path exactly.
        assert_eq!(via_surrogate.data(), ideal.data());
        // The whole forward pass costs exactly one calibration.
        assert_eq!(oracle.surrogate().counts().misses, 1);
        assert!(oracle.surrogate().counts().hits > 0);
    }
}
