//! Property-based tests of the circuit solver: physical invariants that
//! must hold for *any* valid circuit, not just hand-picked examples.

use ferrocim_spice::{Circuit, DcAnalysis, Element, NodeId, SwitchSchedule, TransientAnalysis};
use ferrocim_units::{Celsius, Farad, Ohm, Second, Volt};
use proptest::prelude::*;

/// Builds a random resistor network: `n` internal nodes, a source on
/// node 1, and a set of resistor edges guaranteeing connectivity (a
/// chain plus random chords).
fn resistor_network(n: usize, chord_targets: &[usize], resistances: &[f64], v_src: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| ckt.node(&format!("n{i}"))).collect();
    ckt.add(Element::vdc("V1", nodes[0], NodeId::GROUND, Volt(v_src)))
        .expect("add source");
    let mut r_iter = resistances.iter().cycle();
    // Chain guaranteeing connectivity to ground.
    for i in 0..n {
        let next = if i + 1 < n {
            nodes[i + 1]
        } else {
            NodeId::GROUND
        };
        ckt.add(Element::resistor(
            format!("Rchain{i}"),
            nodes[i],
            next,
            Ohm(*r_iter.next().expect("cycle")),
        ))
        .expect("add chain resistor");
    }
    // Random chords.
    for (k, &target) in chord_targets.iter().enumerate() {
        let a = nodes[k % n];
        let b = if target % (n + 1) == n {
            NodeId::GROUND
        } else {
            nodes[target % (n + 1)]
        };
        if a == b {
            continue;
        }
        ckt.add(Element::resistor(
            format!("Rchord{k}"),
            a,
            b,
            Ohm(*r_iter.next().expect("cycle")),
        ))
        .expect("add chord resistor");
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KCL: at the solved operating point of any resistor network, the
    /// net current into every non-source node is (near) zero.
    #[test]
    fn kcl_holds_at_dc_solution(
        n in 2usize..8,
        chords in prop::collection::vec(0usize..9, 0..6),
        rs in prop::collection::vec(1e2f64..1e6, 4..10),
        v in -2.0f64..2.0,
    ) {
        let ckt = resistor_network(n, &chords, &rs, v);
        let op = DcAnalysis::new(&ckt).solve().expect("dc");
        // For every internal node, sum resistor currents.
        for i in 1..n {
            let node = ckt.find_node(&format!("n{i}")).expect("node exists");
            let vn = op.voltage(node).value();
            let mut net = 0.0;
            for e in ckt.elements() {
                if let Element::Resistor { a, b, resistance, .. } = e {
                    if *a == node {
                        net += (vn - op.voltage(*b).value()) / resistance.value();
                    } else if *b == node {
                        net += (vn - op.voltage(*a).value()) / resistance.value();
                    }
                }
            }
            prop_assert!(net.abs() < 1e-9 + 1e-6 * vn.abs(), "node n{i} residual {net}");
        }
    }

    /// Superposition: doubling the only source doubles every node
    /// voltage in a linear network.
    #[test]
    fn linear_network_scales_with_source(
        n in 2usize..6,
        chords in prop::collection::vec(0usize..7, 0..4),
        rs in prop::collection::vec(1e3f64..1e5, 4..8),
        v in 0.1f64..2.0,
    ) {
        let ckt1 = resistor_network(n, &chords, &rs, v);
        let ckt2 = resistor_network(n, &chords, &rs, 2.0 * v);
        let op1 = DcAnalysis::new(&ckt1).solve().expect("dc1");
        let op2 = DcAnalysis::new(&ckt2).solve().expect("dc2");
        for i in 0..n {
            let node = ckt1.find_node(&format!("n{i}")).expect("node");
            let v1 = op1.voltage(node).value();
            let v2 = op2.voltage(node).value();
            prop_assert!((v2 - 2.0 * v1).abs() < 1e-9 + 1e-6 * v1.abs());
        }
    }

    /// Charge conservation: sharing between two floating capacitors
    /// preserves total charge for any initial voltages and sizes.
    #[test]
    fn charge_sharing_conserves_charge(
        v1 in -1.0f64..1.0,
        v2 in -1.0f64..1.0,
        c1 in 0.5f64..4.0, // fF
        c2 in 0.5f64..4.0,
    ) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let (c1, c2) = (c1 * 1e-15, c2 * 1e-15);
        ckt.add(Element::Capacitor {
            name: "C1".into(),
            a,
            b: NodeId::GROUND,
            capacitance: Farad(c1),
            initial: Some(Volt(v1)),
        }).expect("add");
        ckt.add(Element::Capacitor {
            name: "C2".into(),
            a: b,
            b: NodeId::GROUND,
            capacitance: Farad(c2),
            initial: Some(Volt(v2)),
        }).expect("add");
        ckt.add(Element::switch(
            "S",
            a,
            b,
            SwitchSchedule::open().then_at(Second(0.5e-9), true),
        )).expect("add");
        let res = TransientAnalysis::over(&ckt, Second(4e-9)).with_fixed_step(Second(2e-12))
            .at(Celsius(27.0))
            .run()
            .expect("transient");
        let q_before = c1 * v1 + c2 * v2;
        let q_after = c1 * res.final_voltage(a).value() + c2 * res.final_voltage(b).value();
        prop_assert!(
            (q_after - q_before).abs() < 1e-17 + 0.02 * q_before.abs(),
            "charge {q_before} -> {q_after}"
        );
        // And both plates equalized.
        prop_assert!((res.final_voltage(a).value() - res.final_voltage(b).value()).abs() < 5e-3);
    }

    /// The transient of a driven RC settles to the DC solution.
    #[test]
    fn transient_settles_to_dc(
        r in 1e2f64..1e4,
        c in 0.1f64..2.0, // pF
        v in 0.1f64..1.5,
    ) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(v))).expect("add");
        ckt.add(Element::resistor("R", vin, out, Ohm(r))).expect("add");
        ckt.add(Element::Capacitor {
            name: "C".into(),
            a: out,
            b: NodeId::GROUND,
            capacitance: Farad(c * 1e-12),
            initial: Some(Volt(0.0)),
        }).expect("add");
        let tau = r * c * 1e-12;
        let res = TransientAnalysis::over(&ckt, Second(10.0 * tau)).with_fixed_step(Second(tau / 50.0))
            .run()
            .expect("transient");
        let dc = DcAnalysis::new(&ckt).solve().expect("dc");
        prop_assert!(
            (res.final_voltage(out).value() - dc.voltage(out).value()).abs() < 0.01 * v,
            "transient {} vs dc {}",
            res.final_voltage(out).value(),
            dc.voltage(out).value()
        );
    }
}

mod fault_tolerant_fan_out {
    use super::*;
    use ferrocim_spice::{FailurePolicy, FanOutError, JobError, MonteCarlo, SpiceError};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::convert::Infallible;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For every failure policy and failure pattern, the jobs that
        /// succeed under `try_run` produce results bitwise identical to
        /// a clean `FailFast` sweep with the same seed: fault tolerance
        /// must never perturb healthy work.
        #[test]
        fn try_run_successes_match_run_bitwise(
            runs in 1usize..12,
            seed in any::<u64>(),
            fail_mask in prop::collection::vec(any::<bool>(), 12),
            policy_kind in 0u8..3,
            parallel in any::<bool>(),
        ) {
            let mut mc = MonteCarlo::new(runs, seed);
            if !parallel {
                mc = mc.sequential();
            }
            let clean: Vec<f64> = mc
                .try_run(&FailurePolicy::FailFast, |_, rng| {
                    Ok::<_, Infallible>(rng.random::<f64>())
                })
                .expect("infallible jobs")
                .values()
                .copied()
                .collect();
            let policy = match policy_kind {
                0 => FailurePolicy::FailFast,
                1 => FailurePolicy::SkipAndReport { max_failures: runs },
                _ => FailurePolicy::Substitute(f64::NEG_INFINITY),
            };
            let job = |run: usize, rng: &mut StdRng| -> Result<f64, SpiceError> {
                // Draw before deciding to fail, so failing jobs consume
                // the same stream prefix as their healthy counterparts.
                let v = rng.random::<f64>();
                if fail_mask[run] {
                    Err(SpiceError::NoConvergence {
                        iterations: 1,
                        residual: 1.0,
                    })
                } else {
                    Ok(v)
                }
            };
            let first_failure = fail_mask[..runs].iter().position(|&f| f);
            match mc.try_run(&policy, job) {
                Ok(report) => {
                    prop_assert_eq!(report.results.len(), runs);
                    prop_assert_eq!(
                        report.failures,
                        fail_mask[..runs].iter().filter(|&&f| f).count()
                    );
                    for run in 0..runs {
                        if fail_mask[run] {
                            match &policy {
                                FailurePolicy::Substitute(fallback) => prop_assert_eq!(
                                    report.results[run].as_ref().ok().map(|v| v.to_bits()),
                                    Some(fallback.to_bits())
                                ),
                                _ => prop_assert!(matches!(
                                    report.results[run],
                                    Err(JobError::Failed(SpiceError::NoConvergence { .. }))
                                )),
                            }
                        } else {
                            // The healthy job's value is bit-for-bit the
                            // clean sweep's value.
                            prop_assert_eq!(
                                report.results[run].as_ref().ok().map(|v| v.to_bits()),
                                Some(clean[run].to_bits())
                            );
                        }
                    }
                    if matches!(policy, FailurePolicy::FailFast) {
                        prop_assert_eq!(first_failure, None);
                    }
                }
                Err(FanOutError::Job { index, .. }) => {
                    prop_assert!(matches!(policy, FailurePolicy::FailFast));
                    prop_assert_eq!(Some(index), first_failure);
                }
                Err(e) => prop_assert!(false, "unexpected batch error {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backend parity: the sparse KLU-style solver and the dense LU
    /// reference must agree to 1e-10 max-norm on any random network —
    /// including resistances spanning nine decades and extra voltage
    /// sources, whose zero-diagonal branch rows are the pathological
    /// pivot case the sparse factorization must pivot through just
    /// like the dense one.
    #[test]
    fn sparse_and_dense_backends_agree_on_random_networks(
        n in 2usize..10,
        chords in prop::collection::vec(0usize..11, 0..8),
        rs in prop::collection::vec(1e0f64..1e9, 4..12),
        v in -2.0f64..2.0,
        tie in 0usize..7,
    ) {
        use ferrocim_spice::{FillOrdering, RunContext, SolverConfig};
        let mut ckt = resistor_network(n, &chords, &rs, v);
        // A second source on an internal node adds another branch row
        // (zero diagonal) somewhere in the middle of the matrix.
        if n >= 3 {
            let a = ckt
                .find_node(&format!("n{}", 1 + tie % (n - 1)))
                .expect("node exists");
            ckt.add(Element::vdc("V2", a, NodeId::GROUND, Volt(0.25 * v)))
                .expect("add second source");
        }
        let dense = DcAnalysis::new(&ckt)
            .with_context(RunContext {
                solver: Some(SolverConfig::dense()),
                ..RunContext::default()
            })
            .solve()
            .expect("dense dc");
        for ordering in [FillOrdering::MinDegree, FillOrdering::Natural] {
            let config = SolverConfig::sparse().with_ordering(ordering);
            let sparse = DcAnalysis::new(&ckt)
                .with_context(RunContext {
                    solver: Some(config),
                    ..RunContext::default()
                })
                .solve()
                .expect("sparse dc");
            for i in 0..n {
                let node = ckt.find_node(&format!("n{i}")).expect("node");
                let dv = (dense.voltage(node).value()
                    - sparse.voltage(node).value())
                    .abs();
                prop_assert!(
                    dv <= 1e-10,
                    "node n{i} disagrees by {dv:e} ({ordering:?})"
                );
            }
        }
    }
}

/// Stamps `entries` into `s` as one assembly and solves it.
fn stamp_and_solve(
    s: &mut ferrocim_spice::SparseLu,
    entries: &[(usize, usize, f64)],
    b: &[f64],
) -> Vec<u64> {
    use ferrocim_spice::{LinearSystem, Telemetry};
    s.clear();
    for &(r, c, v) in entries {
        s.add(r, c, v);
    }
    let mut x = Vec::new();
    s.solve_into(b, &mut x, &Telemetry::off())
        .expect("diagonally dominant system");
    x.iter().map(|v| v.to_bits()).collect()
}

/// A fresh solver stamped once with `entries`: the bits of its first
/// (symbolic + numeric) solve and of a second, refactor-only solve.
fn fresh_solves(
    n: usize,
    ordering: ferrocim_spice::FillOrdering,
    entries: &[(usize, usize, f64)],
    b: &[f64],
) -> (Vec<u64>, Vec<u64>, u64) {
    use ferrocim_spice::{LinearSystem, SparseLu, Telemetry};
    let mut s = SparseLu::with_dim(n).with_ordering(ordering);
    for &(r, c, v) in entries {
        s.add(r, c, v);
    }
    let (mut first, mut second) = (Vec::new(), Vec::new());
    s.solve_into(b, &mut first, &Telemetry::off())
        .expect("diagonally dominant system");
    s.solve_into(b, &mut second, &Telemetry::off())
        .expect("diagonally dominant system");
    let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect();
    (bits(first), bits(second), s.symbolic_analyses())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Stamp replay is invisible: one `SparseLu` reused across
    /// assemblies that stamp the same entries in the same order, in a
    /// shuffled order, and as a common prefix followed by a divergence
    /// (and then with one coordinate that is new after sealing) solves
    /// bitwise like a fresh solver stamped once, with the same number
    /// of symbolic analyses. Values are small integers (diagonally
    /// dominant), so every slot sums exactly in any order and a stamp
    /// added into the wrong slot always shows.
    #[test]
    fn stamp_replay_matches_hashed_stamping(
        n in 5usize..12,
        extras in prop::collection::vec((0usize..12, 0usize..12, -8i32..=8), 0..16),
        swaps in prop::collection::vec((0usize..64, 0usize..64), 1..32),
        split in 0usize..64,
        grow in (0usize..144, -8i32..=8),
    ) {
        use ferrocim_spice::FillOrdering;
        let mut base: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, i, 256.0 + i as f64)).collect();
        base.extend(extras.iter().map(|&(r, c, v)| (r % n, c % n, f64::from(v))));
        let len = base.len();
        let mut shuffled = base.clone();
        for &(i, j) in &swaps {
            shuffled.swap(i % len, j % len);
        }
        let k = split % (len + 1);
        let mut diverged = base[..k].to_vec();
        diverged.extend(base[k..].iter().rev());
        // The first coordinate at or after `grow.0` the pattern lacks
        // (n² > n + 16, so one always exists).
        let new_coord = (0..n * n)
            .map(|d| ((grow.0 + d) % (n * n) / n, (grow.0 + d) % n))
            .find(|&(r, c)| !base.iter().any(|&(br, bc, _)| (br, bc) == (r, c)))
            .expect("a free coordinate");
        let new_entry = (new_coord.0, new_coord.1, f64::from(grow.1));
        let mut grown = base.clone();
        grown.push(new_entry);
        let mut grown_shuffled = shuffled.clone();
        grown_shuffled.insert(k, new_entry);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();

        for ordering in [FillOrdering::MinDegree, FillOrdering::Natural] {
            let (a_first, a_refactor, a_sym) = fresh_solves(n, ordering, &base, &b);
            let (g_first, g_refactor, g_sym) = fresh_solves(n, ordering, &grown, &b);
            let mut s = ferrocim_spice::SparseLu::with_dim(n).with_ordering(ordering);
            prop_assert_eq!(stamp_and_solve(&mut s, &base, &b), a_first.clone());
            for (name, entries) in [
                ("same order", &base),
                ("same order again", &base),
                ("shuffled", &shuffled),
                ("shuffled again", &shuffled),
                ("prefix then divergence", &diverged),
                ("back to the base order", &base),
            ] {
                prop_assert_eq!(
                    stamp_and_solve(&mut s, entries, &b),
                    a_refactor.clone(),
                    "{} ({:?})", name, ordering
                );
                prop_assert_eq!(s.symbolic_analyses(), a_sym);
            }
            prop_assert_eq!(stamp_and_solve(&mut s, &grown, &b), g_first);
            prop_assert_eq!(s.symbolic_analyses(), a_sym + g_sym);
            for entries in [&grown, &grown_shuffled, &grown] {
                prop_assert_eq!(stamp_and_solve(&mut s, entries, &b), g_refactor.clone());
            }
            prop_assert_eq!(s.symbolic_analyses(), a_sym + g_sym);
        }
    }
}
