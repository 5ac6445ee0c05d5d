//! Bit-level golden of the device small-signal evaluation.
//!
//! Pins the exact `f64` bits of `ids`, `gm` and `gds` from
//! `MosfetModel::evaluate_shifted` and `Fefet::evaluate` over a fixed
//! grid: `V_DS` below, at and above zero (the negative side exercises the
//! source/drain flip), 0/27/85 °C, threshold offsets of 0 and ±54 mV
//! (the paper's σ_VT) and, for the FeFET, polarizations −1, 0 and +1.
//! Any reassociation of the threshold, thermal-voltage or specific-current
//! arithmetic shows up here as a bit flip, so work that moves
//! temperature-only terms out of the per-bias evaluation must leave
//! these alone.

use ferrocim_device::{Fefet, FefetParams, MosfetModel, MosfetParams, SmallSignal};
use ferrocim_units::{Celsius, Volt};

const TEMPS_C: [f64; 3] = [0.0, 27.0, 85.0];
const VGS: [f64; 3] = [0.2, 0.35, 0.9];
const VDS: [f64; 5] = [-0.6, -0.15, 0.0, 0.15, 0.6];
const OFFSETS: [f64; 3] = [-0.054, 0.0, 0.054];
const POLARIZATIONS: [f64; 3] = [-1.0, 0.0, 1.0];

fn render(out: &mut String, prefix: &str, s: SmallSignal) {
    out.push_str(&format!(
        "{prefix} {:016x} {:016x} {:016x}\n",
        s.ids.value().to_bits(),
        s.gm.value().to_bits(),
        s.gds.value().to_bits()
    ));
}

fn rendered() -> String {
    let mut out = String::new();
    let mosfet = MosfetModel::new(MosfetParams::nmos_14nm());
    for t in TEMPS_C {
        for dv in OFFSETS {
            for vgs in VGS {
                for vds in VDS {
                    let s = mosfet.evaluate_shifted(Volt(vgs), Volt(vds), Celsius(t), Volt(dv));
                    render(
                        &mut out,
                        &format!("mos t={t} dv={dv} vgs={vgs} vds={vds}"),
                        s,
                    );
                }
            }
        }
    }
    let mut fefet = Fefet::new(FefetParams::paper_default());
    for p in POLARIZATIONS {
        fefet.set_polarization(p);
        for dv in OFFSETS {
            fefet.set_vth_offset(Volt(dv));
            for t in TEMPS_C {
                for vgs in VGS {
                    for vds in VDS {
                        let s = fefet.evaluate(Volt(vgs), Volt(vds), Celsius(t));
                        render(
                            &mut out,
                            &format!("fefet p={p} dv={dv} t={t} vgs={vgs} vds={vds}"),
                            s,
                        );
                    }
                }
            }
        }
    }
    out
}

#[test]
fn small_signal_bits_match_the_golden_file() {
    let got = rendered();
    let want = include_str!("golden/small_signal_bits.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first differing line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
