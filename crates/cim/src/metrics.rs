//! Array-level figures of merit: MAC output-range tables over
//! temperature, the Noise Margin Rate of the paper's Eqs. (2)–(3), and
//! energy-efficiency summaries.

use crate::array::{mac_operands, CimArray};
use crate::cells::CellDesign;
use crate::CimError;
use ferrocim_units::{Celsius, Joule, Second, Volt};
use serde::{Deserialize, Serialize};

/// The output-voltage range `[lo, hi]` observed for one MAC value over a
/// temperature sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutputRange {
    /// The MAC value this range belongs to.
    pub mac: usize,
    /// Lowest observed `V_acc`.
    pub lo: Volt,
    /// Highest observed `V_acc`.
    pub hi: Volt,
}

/// Per-MAC output ranges of an array over a temperature sweep — the
/// data behind the paper's Fig. 4 (baseline, overlapping) and Fig. 8(a)
/// (proposed, non-overlapping).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeTable {
    ranges: Vec<OutputRange>,
}

impl RangeTable {
    /// Measures the ranges of `MAC = 0..=n` for an array over a set of
    /// temperatures, using the fast analytic evaluation path with
    /// nominal cells.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::EmptySweep`] for an empty temperature list,
    /// or propagates simulation failures.
    pub fn measure<C: CellDesign>(
        array: &CimArray<C>,
        temps: &[Celsius],
    ) -> Result<RangeTable, CimError> {
        if temps.is_empty() {
            return Err(CimError::EmptySweep {
                what: "temperatures",
            });
        }
        let n = array.config().cells_per_row;
        let mut lo = vec![f64::INFINITY; n + 1];
        let mut hi = vec![f64::NEG_INFINITY; n + 1];
        for &t in temps {
            let levels = array.level_voltages(t)?;
            for (k, v) in levels.iter().enumerate() {
                lo[k] = lo[k].min(v.value());
                hi[k] = hi[k].max(v.value());
            }
        }
        let ranges = (0..=n)
            .map(|k| OutputRange {
                mac: k,
                lo: Volt(lo[k]),
                hi: Volt(hi[k]),
            })
            .collect();
        Ok(RangeTable { ranges })
    }

    /// Measures ranges like [`RangeTable::measure`], additionally
    /// inflating each level's range by `±z · σ_k`, where `σ_k` is the
    /// accumulated per-level standard deviation from device variation
    /// (`σ_k² = gain² (k σ_on² + (n−k) σ_off²)`). An array whose
    /// variation-aware `NMR_min` is positive keeps its levels separated
    /// under *both* temperature drift and `±zσ` process variation.
    ///
    /// # Errors
    ///
    /// As [`RangeTable::measure`].
    pub fn measure_with_variation<C: CellDesign>(
        array: &CimArray<C>,
        temps: &[Celsius],
        variation: &ferrocim_device::variation::VariationModel,
        z: f64,
    ) -> Result<RangeTable, CimError> {
        if temps.is_empty() {
            return Err(CimError::EmptySweep {
                what: "temperatures",
            });
        }
        let n = array.config().cells_per_row;
        let gain = array.config().sharing_gain();
        let mut lo = vec![f64::INFINITY; n + 1];
        let mut hi = vec![f64::NEG_INFINITY; n + 1];
        for &t in temps {
            let levels = array.level_voltages(t)?;
            let (s_on, s_off) = array.cell_sigma(t, variation)?;
            for (k, v) in levels.iter().enumerate() {
                let sigma = gain
                    * (k as f64 * s_on.value().powi(2) + (n - k) as f64 * s_off.value().powi(2))
                        .sqrt();
                lo[k] = lo[k].min(v.value() - z * sigma);
                hi[k] = hi[k].max(v.value() + z * sigma);
            }
        }
        let ranges = (0..=n)
            .map(|k| OutputRange {
                mac: k,
                lo: Volt(lo[k]),
                hi: Volt(hi[k]),
            })
            .collect();
        Ok(RangeTable { ranges })
    }

    /// Builds a table from precomputed ranges (for custom sweeps that
    /// also include variation, or for tests).
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not consecutive MAC values starting at 0.
    pub fn from_ranges(ranges: Vec<OutputRange>) -> RangeTable {
        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(r.mac, i, "ranges must cover MAC = 0..=n in order");
        }
        RangeTable { ranges }
    }

    /// The per-MAC ranges, indexed by MAC value.
    pub fn ranges(&self) -> &[OutputRange] {
        &self.ranges
    }

    /// The highest representable MAC value `n`.
    pub fn max_mac(&self) -> usize {
        self.ranges.len() - 1
    }

    /// The Noise Margin Rate of the paper's Eq. (2):
    ///
    /// ```text
    /// NMR_i = (LV_{i+1} − HV_i) / (HV_i − LV_i)
    /// ```
    ///
    /// Positive values mean the `MAC = i` and `MAC = i+1` ranges are
    /// separated; negative values mean they overlap.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` exceeds the table's maximum MAC value.
    pub fn nmr(&self, i: usize) -> f64 {
        let this = &self.ranges[i];
        let next = &self.ranges[i + 1];
        let gap = next.lo.value() - this.hi.value();
        let width = (this.hi.value() - this.lo.value()).max(1e-12);
        gap / width
    }

    /// The worst-case NMR and its index — Eq. (3):
    /// `NMR_min = min{NMR_i}`.
    ///
    /// Returns `(i, NMR_i)` for the minimizing level pair. A positive
    /// value certifies that no two adjacent MAC outputs overlap anywhere
    /// in the sweep. A degenerate single-level table has no adjacent
    /// pair and reports `(0, f64::INFINITY)`.
    pub fn nmr_min(&self) -> (usize, f64) {
        let mut min = (0, f64::INFINITY);
        for i in 0..self.max_mac() {
            let nmr = self.nmr(i);
            if nmr < min.1 {
                min = (i, nmr);
            }
        }
        min
    }

    /// `true` if any pair of adjacent MAC output ranges overlaps — the
    /// failure mode of the paper's Fig. 4.
    pub fn has_overlap(&self) -> bool {
        self.nmr_min().1 < 0.0
    }
}

/// Energy summary of an array across all MAC values — Fig. 8(b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy per operation for each MAC value `0..=n`.
    pub per_mac: Vec<Joule>,
    /// Mean energy per MAC operation.
    pub average: Joule,
    /// Energy efficiency in TOPS/W at the paper's operation count
    /// (`n` multiplications + 1 accumulation per MAC).
    pub tops_per_watt: f64,
    /// The MAC latency used.
    pub latency: Second,
}

impl EnergyReport {
    /// Measures the per-MAC-value operation energy of an array at one
    /// temperature using the full-row transient (supply energy
    /// integrals).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn measure<C: CellDesign>(
        array: &CimArray<C>,
        temp: Celsius,
    ) -> Result<EnergyReport, CimError> {
        let n = array.config().cells_per_row;
        let requests: Vec<crate::MacRequest> = (0..=n)
            .map(|k| {
                let (w, x) = mac_operands(n, k);
                crate::MacRequest::new(&x).weights(&w).at(temp)
            })
            .collect();
        let per_mac: Vec<Joule> = array
            .run_all(&requests)?
            .into_iter()
            .map(|out| out.energy)
            .collect();
        let average = Joule(per_mac.iter().map(|e| e.value()).sum::<f64>() / per_mac.len() as f64);
        let tops_per_watt = average.tops_per_watt(n as f64 + 1.0);
        Ok(EnergyReport {
            per_mac,
            average,
            tops_per_watt,
            latency: array.config().latency(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(levels: &[(f64, f64)]) -> RangeTable {
        RangeTable::from_ranges(
            levels
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| OutputRange {
                    mac: i,
                    lo: Volt(lo),
                    hi: Volt(hi),
                })
                .collect(),
        )
    }

    #[test]
    fn nmr_matches_hand_calculation() {
        // Level 0: [0.00, 0.01], level 1: [0.02, 0.03]:
        // NMR_0 = (0.02 - 0.01) / (0.01 - 0.00) = 1.0.
        let t = table(&[(0.00, 0.01), (0.02, 0.03)]);
        assert!((t.nmr(0) - 1.0).abs() < 1e-9);
        assert!(!t.has_overlap());
    }

    #[test]
    fn overlap_gives_negative_nmr() {
        let t = table(&[(0.00, 0.02), (0.015, 0.03)]);
        assert!(t.nmr(0) < 0.0);
        assert!(t.has_overlap());
    }

    #[test]
    fn nmr_min_finds_the_worst_pair() {
        let t = table(&[(0.0, 0.01), (0.02, 0.03), (0.032, 0.04), (0.08, 0.09)]);
        let (idx, val) = t.nmr_min();
        assert_eq!(idx, 1); // gap 0.002 over width 0.01 → 0.2, the smallest
        assert!((val - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ranges must cover")]
    fn from_ranges_validates_order() {
        let _ = RangeTable::from_ranges(vec![OutputRange {
            mac: 3,
            lo: Volt(0.0),
            hi: Volt(1.0),
        }]);
    }

    #[test]
    fn zero_width_range_does_not_divide_by_zero() {
        let t = table(&[(0.01, 0.01), (0.02, 0.03)]);
        assert!(t.nmr(0).is_finite());
        assert!(t.nmr(0) > 0.0);
    }
}
