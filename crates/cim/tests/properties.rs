//! Property-based tests of the CIM layer: metric algebra and the
//! physical invariants of the charge-domain MAC.

use ferrocim_cim::metrics::{OutputRange, RangeTable};
use ferrocim_cim::{ArrayConfig, ReadBias};
use ferrocim_units::{Farad, Second, Volt};
use proptest::prelude::*;

/// Builds a valid ascending range table from positive gaps/widths.
fn table_from(widths: &[f64], gaps: &[f64]) -> RangeTable {
    let mut lo = 0.0;
    let mut ranges = Vec::new();
    for (i, w) in widths.iter().enumerate() {
        ranges.push(OutputRange {
            mac: i,
            lo: Volt(lo),
            hi: Volt(lo + w),
        });
        if i < gaps.len() {
            lo += w + gaps[i];
        }
    }
    RangeTable::from_ranges(ranges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// NMR_i is positive exactly when the inter-level gap is positive,
    /// and scales linearly with the gap.
    #[test]
    fn nmr_sign_matches_gap_sign(
        (widths, gaps) in (2usize..10).prop_flat_map(|n| (
            prop::collection::vec(1e-4f64..1e-2, n),
            prop::collection::vec(-5e-3f64..5e-3, n - 1),
        )),
    ) {
        let table = table_from(&widths, &gaps);
        for (i, &gap) in gaps.iter().enumerate() {
            let nmr = table.nmr(i);
            prop_assert_eq!(nmr > 0.0, gap > 0.0, "level {} gap {} nmr {}", i, gap, nmr);
            // Eq. (2): NMR_i = gap / width_i exactly.
            prop_assert!((nmr - gap / widths[i]).abs() < 1e-9);
        }
    }

    /// NMR_min picks the global minimum and `has_overlap` agrees with
    /// its sign.
    #[test]
    fn nmr_min_is_the_minimum(
        (widths, gaps) in (3usize..9).prop_flat_map(|n| (
            prop::collection::vec(1e-4f64..1e-2, n),
            prop::collection::vec(-5e-3f64..5e-3, n - 1),
        )),
    ) {
        let table = table_from(&widths, &gaps);
        let (idx, val) = table.nmr_min();
        for i in 0..table.max_mac() {
            prop_assert!(table.nmr(i) >= val - 1e-15);
        }
        prop_assert!((table.nmr(idx) - val).abs() < 1e-15);
        prop_assert_eq!(table.has_overlap(), val < 0.0);
    }

    /// The charge-sharing gain of Eq. (1) is in (0, 1) and decreases
    /// with larger accumulation capacitors.
    #[test]
    fn sharing_gain_bounds(
        n in 1usize..32,
        c_o in 0.1f64..10.0,   // fF
        c_acc in 0.1f64..50.0, // fF
    ) {
        let config = ArrayConfig {
            cells_per_row: n,
            c_o: Farad(c_o * 1e-15),
            c_acc: Farad(c_acc * 1e-15),
            t_charge: Second(5e-9),
            t_settle: Second(0.4e-9),
            t_share: Second(1.5e-9),
            dt: Second(20e-12),
        };
        let g = config.sharing_gain();
        prop_assert!(g > 0.0 && g < 1.0, "gain {g}");
        let bigger = ArrayConfig {
            c_acc: Farad(2.0 * c_acc * 1e-15),
            ..config
        };
        prop_assert!(bigger.sharing_gain() < g);
        // Eq. (1) exactly: C_o / (n·C_o + C_acc).
        let expected = c_o / (n as f64 * c_o + c_acc);
        prop_assert!((g - expected).abs() < 1e-12);
    }

    /// Read-bias helper: the WL voltage reflects the input bit, and the
    /// read voltage is the on-level minus the source-line level.
    #[test]
    fn read_bias_algebra(
        v_sl in 0.0f64..0.5,
        v_read in 0.1f64..1.5,
    ) {
        let bias = ReadBias {
            v_bl: Volt(1.2),
            v_sl: Volt(v_sl),
            v_wl_on: Volt(v_sl + v_read),
            v_wl_off: Volt(0.0),
        };
        prop_assert!((bias.v_read().value() - v_read).abs() < 1e-12);
        prop_assert_eq!(bias.wl_for(true), bias.v_wl_on);
        prop_assert_eq!(bias.wl_for(false), bias.v_wl_off);
    }
}

mod batch {
    use ferrocim_cim::cells::TwoTransistorOneFefet;
    use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray, MacPath, MacRequest};
    use ferrocim_units::{Celsius, Second};
    use proptest::prelude::*;

    proptest! {
        // Full transients are expensive; a handful of random batches
        // over a small row already exercises the dedupe, retarget, and
        // scatter paths.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// `ArrayEngine::mac_batch` must agree with looping
        /// `CimArray::run` over the same jobs to 1e-12 (they are in
        /// fact bitwise identical) for any weights, inputs — with
        /// duplicates — and temperature.
        #[test]
        fn mac_batch_matches_per_call_runs(
            weights in prop::collection::vec(any::<bool>(), 4),
            inputs in prop::collection::vec(prop::collection::vec(any::<bool>(), 4), 1..4),
            dup in 0usize..3,
            temp_c in prop::sample::select(vec![0.0, 27.0, 85.0]),
        ) {
            let config = ArrayConfig {
                cells_per_row: 4,
                dt: Second(100e-12),
                ..ArrayConfig::paper_default()
            };
            let array =
                CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
            // Duplicate one job so the dedupe path always runs.
            let mut inputs = inputs;
            inputs.push(inputs[dup % inputs.len()].clone());
            let temp = Celsius(temp_c);
            let engine = ArrayEngine::new(&array, &weights).unwrap();
            let batch = engine.mac_batch(&inputs, temp).unwrap();
            prop_assert_eq!(batch.len(), inputs.len());
            for (x, got) in inputs.iter().zip(&batch) {
                let solo = array
                    .run(
                        &MacRequest::new(x)
                            .weights(&weights)
                            .at(temp)
                            .path(MacPath::Transient),
                    )
                    .unwrap();
                prop_assert!(
                    (got.v_acc.value() - solo.v_acc.value()).abs() < 1e-12,
                    "v_acc {} vs {}", got.v_acc.value(), solo.v_acc.value()
                );
                prop_assert!(
                    (got.energy.value() - solo.energy.value()).abs()
                        < 1e-12 * solo.energy.value().abs().max(1e-30),
                    "energy {} vs {}", got.energy.value(), solo.energy.value()
                );
                prop_assert_eq!(got, &solo);
            }
        }
    }
}

/// `CimArray::run_all` shares one workspace and one per-cell cache
/// across its requests; every output must still be bitwise the one
/// `CimArray::run` gives for that request alone.
mod run_all_parity {
    use ferrocim_cim::cells::{CellOffsets, CellWeight, TwoTransistorOneFefet};
    use ferrocim_cim::{ArrayConfig, CellFault, CimArray, MacPath, MacRequest};
    use ferrocim_units::{Celsius, Second, Volt};
    use proptest::prelude::*;

    const CELLS: usize = 4;

    fn weight() -> impl Strategy<Value = CellWeight> {
        (any::<bool>(), any::<bool>(), 0u8..=3).prop_map(|(multi_level, bit, level)| {
            if multi_level {
                CellWeight::Level { level, max: 3 }
            } else {
                CellWeight::Bit(bit)
            }
        })
    }

    fn fault() -> impl Strategy<Value = Option<CellFault>> {
        prop::sample::select(vec![
            None,
            None,
            None,
            Some(CellFault::StuckAtLvt),
            Some(CellFault::StuckAtHvt),
            Some(CellFault::DeadWordline),
            Some(CellFault::OpenDevice),
            Some(CellFault::ShortDevice),
        ])
    }

    /// Few distinct offsets, so cells repeat across requests.
    fn offsets() -> impl Strategy<Value = Option<Vec<CellOffsets>>> {
        let pick = prop::sample::select(vec![
            CellOffsets::NOMINAL,
            CellOffsets {
                fefet: Volt(0.03),
                ..CellOffsets::NOMINAL
            },
            CellOffsets {
                fefet: Volt(-0.02),
                m1: Volt(0.01),
                m2: Volt(-0.015),
            },
        ]);
        (any::<bool>(), prop::collection::vec(pick, CELLS))
            .prop_map(|(varied, offsets)| varied.then_some(offsets))
    }

    fn request() -> impl Strategy<Value = MacRequest> {
        (
            prop::collection::vec(weight(), CELLS),
            prop::collection::vec(any::<bool>(), CELLS),
            // Repeated grid temperatures plus distinct draws.
            (
                any::<bool>(),
                prop::sample::select(vec![0.0, 27.0, 85.0]),
                0.0f64..85.0,
            )
                .prop_map(|(on_grid, grid, free)| if on_grid { grid } else { free }),
            offsets(),
            // One request in four runs the full-row transient.
            prop::sample::select(vec![
                MacPath::Analytic,
                MacPath::Analytic,
                MacPath::Analytic,
                MacPath::Transient,
            ]),
        )
            .prop_map(|(weights, inputs, temp_c, offsets, path)| {
                let request = MacRequest::new(&inputs)
                    .weighted(&weights)
                    .at(Celsius(temp_c))
                    .path(path);
                match offsets {
                    Some(o) => request.offsets(&o),
                    None => request,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn run_all_is_bitwise_equal_to_looping_run(
            faults in prop::collection::vec(fault(), CELLS),
            requests in prop::collection::vec(request(), 1..6),
            dup in 0usize..6,
        ) {
            let config = ArrayConfig {
                cells_per_row: CELLS,
                dt: Second(100e-12),
                ..ArrayConfig::paper_default()
            };
            let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)
                .unwrap()
                .with_faults(&faults)
                .unwrap();
            // Repeat one request so some cache hits span requests.
            let mut requests = requests;
            requests.push(requests[dup % requests.len()].clone());
            let batch = array.run_all(&requests).unwrap();
            prop_assert_eq!(batch.len(), requests.len());
            for (request, got) in requests.iter().zip(&batch) {
                let solo = array.run(request).unwrap();
                let bits = |v: &[Volt]| v.iter().map(|x| x.value().to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(got.v_acc.value().to_bits(), solo.v_acc.value().to_bits());
                prop_assert_eq!(got.energy.value().to_bits(), solo.energy.value().to_bits());
                prop_assert_eq!(bits(&got.cell_voltages), bits(&solo.cell_voltages));
                prop_assert_eq!(got, &solo);
            }
        }
    }
}

/// The paper's central claim: on the tuned 2T-1FeFET row, the
/// accumulated voltage rises strictly with the MAC count at every
/// temperature in 0–85 °C, so adjacent output levels never overlap
/// (NMR_min > 0).
mod monotonic_mac {
    use ferrocim_cim::cells::TwoTransistorOneFefet;
    use ferrocim_cim::{mac_operands, ArrayConfig, ArrayEngine, CimArray, MacPath, MacRequest};
    use ferrocim_units::Celsius;
    use proptest::prelude::*;

    fn paper_row() -> CimArray<TwoTransistorOneFefet> {
        CimArray::new(
            TwoTransistorOneFefet::paper_default(),
            ArrayConfig::paper_default(),
        )
        .unwrap()
    }

    /// The `0..=n` MAC-count input vectors against all-'1' weights.
    fn count_inputs(n: usize) -> Vec<Vec<bool>> {
        (0..=n).map(|k| mac_operands(n, k).1).collect()
    }

    fn assert_strictly_rising(v_acc: &[f64], temp_c: f64) -> Result<(), proptest::TestCaseError> {
        for (k, pair) in v_acc.windows(2).enumerate() {
            prop_assert!(
                pair[1] > pair[0],
                "v_acc({}) = {} V !> v_acc({}) = {} V at {} C",
                k + 1,
                pair[1],
                k,
                pair[0],
                temp_c
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn analytic_v_acc_rises_strictly_with_mac_count(temp_c in 0.0f64..85.0) {
            let array = paper_row();
            let n = array.config().cells_per_row;
            let weights = vec![true; n];
            let v_acc: Vec<f64> = count_inputs(n)
                .iter()
                .map(|x| {
                    array
                        .run(
                            &MacRequest::new(x)
                                .weights(&weights)
                                .at(Celsius(temp_c))
                                .path(MacPath::Analytic),
                        )
                        .unwrap()
                        .v_acc
                        .value()
                })
                .collect();
            assert_strictly_rising(&v_acc, temp_c)?;
        }
    }

    proptest! {
        // Full transients are expensive: one batched grid per case over
        // the paper's corners plus two drawn temperatures.
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn transient_v_acc_rises_strictly_with_mac_count(
            drawn in prop::collection::vec(0.0f64..85.0, 2),
        ) {
            let array = paper_row();
            let n = array.config().cells_per_row;
            let engine = ArrayEngine::new(&array, &vec![true; n]).unwrap();
            let temps: Vec<Celsius> = [0.0, 27.0, 85.0]
                .into_iter()
                .chain(drawn)
                .map(Celsius)
                .collect();
            let grid = engine.mac_batch_grid(&count_inputs(n), &temps).unwrap();
            for (temp, row) in temps.iter().zip(&grid) {
                let v_acc: Vec<f64> = row.iter().map(|out| out.v_acc.value()).collect();
                assert_strictly_rising(&v_acc, temp.0)?;
            }
        }
    }
}
