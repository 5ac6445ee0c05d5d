//! Property-based tests of the numerical-health layer: invariants that
//! must hold for *any* system, not just hand-picked examples.

use ferrocim_spice::{
    certify_solution, DenseLu, HealthPolicy, LinearSystem, Matrix, SparseLu, Telemetry,
};
use ferrocim_telemetry::SolverBackend;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stamps a strictly diagonally dominant `n`×`n` system from the
/// proptest-supplied off-diagonal pool: well-conditioned by
/// construction, so certification must never need refinement.
fn stamp_dominant(system: &mut dyn LinearSystem, n: usize, off: &[f64], boost: f64) {
    system.clear();
    let mut k = 0usize;
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i == j {
                continue;
            }
            let v = off[k % off.len()];
            k += 1;
            if v != 0.0 {
                system.add(i, j, v);
                row_sum += v.abs();
            }
        }
        system.add(i, i, row_sum + boost);
    }
}

/// A value that poisons a system: NaN or an infinity.
const POISON: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// A random finite value over twelve decades, zero one time in ten.
fn random_value(rng: &mut StdRng) -> f64 {
    if rng.random_bool(0.1) {
        return 0.0;
    }
    let mag = 10f64.powi(rng.random_range(-6i32..6));
    (rng.random::<f64>() * 2.0 - 1.0) * mag
}

/// The reference backward error of `x`: the certification formula
/// written out over the full-scan oracle primitives (`matvec_into`,
/// `inf_norm`). Returns it with the raw residual `b − A·x`.
fn reference_backward_error(
    system: &mut dyn LinearSystem,
    b: &[f64],
    x: &[f64],
) -> (f64, Vec<f64>) {
    let mut resid = vec![0.0; system.dim()];
    system.matvec_into(x, &mut resid);
    let mut rmax = 0.0f64;
    for (rk, &bk) in resid.iter_mut().zip(b) {
        *rk = bk - *rk;
        rmax = rmax.max(rk.abs());
    }
    let xmax = x.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let bmax = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let be = if resid.iter().any(|v| !v.is_finite()) || !xmax.is_finite() {
        f64::INFINITY
    } else {
        let scale = system.inf_norm() * xmax + bmax;
        match (scale == 0.0, rmax == 0.0) {
            (true, true) => 0.0,
            (true, false) => f64::INFINITY,
            (false, _) => rmax / scale,
        }
    };
    (be, resid)
}

fn abs_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|a| a.abs().to_bits()).collect()
}

/// Checks one fused certification pass of `x` against the full-scan
/// oracle, bit for bit.
fn check_scan(
    system: &mut dyn LinearSystem,
    b: &[f64],
    x: &[f64],
    label: &str,
) -> Result<(), proptest::TestCaseError> {
    let backend = system.backend();
    let mut resid = vec![0.0; system.dim()];
    let scan = system.residual_scan(b, x, &mut resid);
    let (want_be, want_resid) = reference_backward_error(system, b, x);
    prop_assert_eq!(
        scan.backward_error().to_bits(),
        want_be.to_bits(),
        "{:?} {}: backward error {} vs reference {}",
        backend,
        label,
        scan.backward_error(),
        want_be
    );
    prop_assert_eq!(
        scan.a_inf.to_bits(),
        system.inf_norm().to_bits(),
        "{:?} {}: ‖A‖∞",
        backend,
        label
    );
    prop_assert_eq!(
        scan.a_max.to_bits(),
        system.max_abs().to_bits(),
        "{:?} {}: max|a|",
        backend,
        label
    );
    // The dense pass does not form the products of a non-finite `x`
    // (the residual is non-finite either way, and the verdict above is
    // already ∞); everywhere else the residual matches up to the sign
    // of exact zeros.
    if x.iter().all(|v| v.is_finite()) || backend == SolverBackend::Sparse {
        prop_assert_eq!(
            abs_bits(&resid),
            abs_bits(&want_resid),
            "{:?} {}: |b − A·x|",
            backend,
            label
        );
    } else {
        prop_assert!(!scan.finite, "{:?} {}: non-finite x", backend, label);
    }
    Ok(())
}

/// The pivot-growth numerator by a full scan of a reference dense
/// factorization of the stamped entries, or `None` when it is singular.
fn reference_u_max(entries: &[(usize, usize, f64)], b: &[f64]) -> Option<f64> {
    let n = b.len();
    let mut lu = Matrix::zeros(n);
    for &(r, c, v) in entries {
        lu.add(r, c, v);
    }
    let (mut rhs, mut perm, mut out) = (Vec::new(), Vec::new(), Vec::new());
    lu.solve_into(b, &mut rhs, &mut perm, &mut out).ok()?;
    let mut u_max = 0.0f64;
    for (k, &p) in perm.iter().enumerate() {
        for c in k..n {
            u_max = u_max.max(lu.get(p, c).abs());
        }
    }
    Some(u_max)
}

/// One element of an MNA-like test system.
#[derive(Debug, Clone, Copy)]
enum Element {
    /// A conductance between two unknowns: four stamps.
    Conductance(usize, usize),
    /// A conductance to ground: one diagonal stamp.
    Leak(usize),
    /// A voltage-source branch row `v` coupled to unknown `a`: two
    /// stamps and no diagonal, so `v` can only be pivoted by row swaps.
    Branch(usize, usize),
    /// A transconductance: one stamp at `(row, col)`.
    Transconductance(usize, usize),
}

impl Element {
    fn stamp(self, value: f64, entries: &mut Vec<(usize, usize, f64)>) {
        match self {
            Element::Conductance(a, b) => {
                entries.extend([(a, a, value), (b, b, value), (a, b, -value), (b, a, -value)])
            }
            Element::Leak(a) => entries.push((a, a, value)),
            Element::Branch(v, a) => entries.extend([(v, a, value), (a, v, value)]),
            Element::Transconductance(r, c) => entries.push((r, c, value)),
        }
    }
}

/// A random MNA-like element list over `n` unknowns: a leak on most
/// node rows, random couplings, and the last `n / 5` unknowns as
/// voltage-source branch rows.
fn mna_elements(n: usize, density: f64, rng: &mut StdRng) -> Vec<Element> {
    let nodes = n - n / 5;
    let mut elements = Vec::new();
    for a in 0..nodes {
        if rng.random_bool(0.8) {
            elements.push(Element::Leak(a));
        }
        for b in a + 1..nodes {
            if rng.random_bool(density) {
                elements.push(Element::Conductance(a, b));
            }
        }
    }
    for v in nodes..n {
        elements.push(Element::Branch(v, rng.random_range(0..nodes)));
    }
    elements
}

/// Bits of `v` with every exact zero read as `+0.0` and every NaN as
/// one NaN: what "bitwise equal up to the sign of exact zeros" compares.
fn canonical_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|&a| {
            if a == 0.0 {
                0
            } else if a.is_nan() {
                f64::NAN.to_bits()
            } else {
                a.to_bits()
            }
        })
        .collect()
}

/// How the values of one replay-test round differ from the last.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Every value moves by at most 0.05 %: the pivot order holds.
    Drift,
    /// Each branch takes its node's assembled diagonal, negated or
    /// not: the two rows tie in that column.
    Tie,
    /// Fresh values: the pivot order may flip.
    Jump,
    /// One stamp or right-hand-side entry is NaN or ±∞.
    Poison,
    /// Every stamp of one row is zero.
    Singular,
}

impl Change {
    /// Drift three times as often as each other change.
    const ALL: [Change; 7] = [
        Change::Drift,
        Change::Drift,
        Change::Drift,
        Change::Tie,
        Change::Jump,
        Change::Poison,
        Change::Singular,
    ];
}

/// Applies `change` to `values` (one per element; a jump also sizes
/// them to `elements`) and returns the stamps, in element order, and a
/// right-hand side.
fn next_round(
    change: Change,
    n: usize,
    elements: &[Element],
    values: &mut Vec<f64>,
    rng: &mut StdRng,
) -> (Vec<(usize, usize, f64)>, Vec<f64>) {
    let stamps = |values: &[f64]| {
        let mut entries = Vec::new();
        for (&e, &v) in elements.iter().zip(values) {
            e.stamp(v, &mut entries);
        }
        entries
    };
    match change {
        Change::Drift => {
            for v in values.iter_mut() {
                *v *= 1.0 + 1e-3 * (rng.random::<f64>() - 0.5);
            }
        }
        Change::Tie => {
            let entries = stamps(values);
            for (&e, v) in elements.iter().zip(values.iter_mut()) {
                if let Element::Branch(_, a) = e {
                    let diagonal = entries
                        .iter()
                        .filter(|&&(r, c, _)| r == a && c == a)
                        .fold(0.0, |sum, &(_, _, d)| sum + d);
                    *v = if rng.random_bool(0.5) {
                        diagonal
                    } else {
                        -diagonal
                    };
                }
            }
        }
        _ => {
            values.clear();
            values.extend((0..elements.len()).map(|_| random_value(rng).abs() + 1e-3));
        }
    }
    let mut entries = stamps(values);
    let mut b: Vec<f64> = (0..n).map(|_| random_value(rng)).collect();
    match change {
        _ if entries.is_empty() => {}
        Change::Poison => {
            let value = POISON[rng.random_range(0..POISON.len())];
            if rng.random_bool(0.5) {
                let at = rng.random_range(0..entries.len());
                entries[at].2 = value;
            } else {
                let at = rng.random_range(0..b.len());
                b[at] = value;
            }
        }
        Change::Singular => {
            let row = entries[rng.random_range(0..entries.len())].0;
            for entry in entries.iter_mut().filter(|e| e.0 == row) {
                entry.2 = 0.0;
            }
        }
        _ => {}
    }
    (entries, b)
}

/// Restamps `dense` with `entries`, solves, and compares everything the
/// solve leaves behind with a full factorization of the same stamps.
fn check_replay_round(
    dense: &mut DenseLu,
    entries: &[(usize, usize, f64)],
    b: &[f64],
    rng: &mut StdRng,
) -> Result<(), String> {
    let n = dense.dim();
    let mut reference = Matrix::zeros(n);
    dense.clear();
    for &(r, c, v) in entries {
        reference.add(r, c, v);
        dense.add(r, c, v);
    }
    let (mut rhs, mut perm, mut want) = (Vec::new(), Vec::new(), Vec::new());
    let want_u = reference.solve_into(b, &mut rhs, &mut perm, &mut want);
    let mut got = Vec::new();
    let got_err = dense.solve_into(b, &mut got, &Telemetry::off()).err();
    let compare = |what: &str, got: &[f64], want: &[f64]| {
        if canonical_bits(got) == canonical_bits(want) {
            Ok(())
        } else {
            Err(format!("{what}: {got:?} vs {want:?}"))
        }
    };
    if got_err.as_ref() != want_u.as_ref().err() {
        return Err(format!("outcome {got_err:?} vs {want_u:?}"));
    }
    let want_u = want_u.ok();
    if dense.max_abs_u().map(f64::to_bits) != want_u.map(f64::to_bits) {
        return Err(format!("max|U| {:?} vs {want_u:?}", dense.max_abs_u()));
    }
    if want_u.is_none() {
        return Ok(());
    }
    compare("x", &got, &want)?;
    let c: Vec<f64> = (0..n).map(|_| random_value(rng)).collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    dense.resolve_into(&c, &mut got);
    reference.solve_factored(&c, &perm, &mut rhs, &mut want);
    compare("resolve", &got, &want)?;
    dense.solve_transposed_into(&c, &mut got);
    reference.solve_transposed_factored(&c, &perm, &mut rhs, &mut want);
    compare("transposed solve", &got, &want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused certification pass equals the full-scan oracle bit for
    /// bit on both backends: random sparsity (including never-stamped
    /// rows), repeated stamps, several assemblies on one system with a
    /// new position appearing in the last, and NaN/±∞ poison in the
    /// matrix, the right-hand side or `x`.
    #[test]
    fn fused_certification_pass_matches_the_full_scan_oracle(
        n in 1usize..41,
        density in 0.02f64..1.0,
        rounds in 2usize..5,
        poison in 0usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zero_row = rng.random_range(0..n + 2);
        let mut pattern = Vec::new();
        for r in (0..n).filter(|&r| r != zero_row) {
            pattern.push((r, r));
            for c in 0..n {
                if c != r && rng.random_bool(density) {
                    pattern.push((r, c));
                }
            }
        }
        let fresh = (0..n * n)
            .map(|p| (p / n, p % n))
            .find(|rc| !pattern.contains(rc));
        let tele = Telemetry::off();
        let policy = HealthPolicy::default();
        let mut dense = DenseLu::with_dim(n);
        let mut sparse = SparseLu::with_dim(n);
        for round in 0..rounds {
            let last = round + 1 == rounds;
            let mut entries: Vec<(usize, usize, f64)> = pattern
                .iter()
                .map(|&(r, c)| {
                    let v = random_value(&mut rng);
                    (r, c, if r == c { v + 4.0 * v.signum() } else { v })
                })
                .collect();
            if !entries.is_empty() {
                // MNA stamps one position more than once.
                let (r, c, _) = entries[rng.random_range(0..entries.len())];
                entries.push((r, c, random_value(&mut rng)));
            }
            if let (true, Some((r, c))) = (last, fresh) {
                entries.push((r, c, random_value(&mut rng)));
            }
            let mut b: Vec<f64> = (0..n).map(|_| random_value(&mut rng)).collect();
            let mut x: Vec<f64> = (0..n).map(|_| random_value(&mut rng)).collect();
            if last && poison > 0 {
                let value = POISON[poison % 3];
                match poison {
                    1..=3 if !entries.is_empty() => {
                        let at = rng.random_range(0..entries.len());
                        entries[at].2 = value;
                    }
                    4 | 5 => b[rng.random_range(0..n)] = value,
                    _ => x[rng.random_range(0..n)] = value,
                }
            }
            for system in [&mut dense as &mut dyn LinearSystem, &mut sparse] {
                system.clear();
                for &(r, c, v) in &entries {
                    system.add(r, c, v);
                }
                let mut solved = Vec::new();
                let factored = system.solve_into(&b, &mut solved, &tele).is_ok();
                check_scan(system, &b, &x, "random x")?;
                if !factored {
                    prop_assert_eq!(system.max_abs_u(), None);
                    continue;
                }
                check_scan(system, &b, &solved, "solution")?;
                let u_max = system.max_abs_u().expect("factored");
                if system.backend() == SolverBackend::Dense {
                    prop_assert_eq!(
                        reference_u_max(&entries, &b).map(f64::to_bits),
                        Some(u_max.to_bits()),
                        "dense max|U|"
                    );
                }
                if let Ok(quality) = certify_solution(system, &b, &mut solved, &policy) {
                    let a_max = system.max_abs();
                    let growth = if a_max > 0.0 { u_max / a_max } else { 1.0 };
                    prop_assert_eq!(quality.pivot_growth.to_bits(), growth.to_bits());
                }
            }
        }
    }

    /// Refinement parity: on a well-conditioned system the certified
    /// solve is the *same* solve — certification must report zero
    /// refinement passes and leave the solution bitwise untouched, on
    /// both solver backends.
    #[test]
    fn certification_is_bitwise_transparent_when_healthy(
        n in 2usize..10,
        off in prop::collection::vec(-0.5f64..0.5, 4..40),
        boost in 1.0f64..4.0,
        rhs in prop::collection::vec(-10.0f64..10.0, 10),
    ) {
        let tele = Telemetry::off();
        let policy = HealthPolicy::default();
        let b: Vec<f64> = (0..n).map(|i| rhs[i % rhs.len()]).collect();

        for dense in [true, false] {
            let mut d;
            let mut s;
            let system: &mut dyn LinearSystem = if dense {
                d = DenseLu::with_dim(n);
                &mut d
            } else {
                s = SparseLu::with_dim(n);
                &mut s
            };
            stamp_dominant(system, n, &off, boost);

            let mut plain = Vec::new();
            system.solve_into(&b, &mut plain, &tele).expect("plain solve");

            // Re-stamp and solve again with certification on top.
            stamp_dominant(system, n, &off, boost);
            let mut certified = Vec::new();
            system
                .solve_into(&b, &mut certified, &tele)
                .expect("certified solve");
            let quality = certify_solution(system, &b, &mut certified, &policy)
                .expect("well-conditioned system must certify");

            prop_assert_eq!(
                quality.refinement_passes, 0,
                "backend {:?}: spurious refinement", system.backend()
            );
            prop_assert!(
                quality.residual <= policy.residual_tol,
                "backend {:?}: residual {} over tolerance",
                system.backend(),
                quality.residual
            );
            prop_assert_eq!(
                certified.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "backend {:?}: certification perturbed an acceptable solution",
                system.backend()
            );
        }
    }

    /// The dense LU's plan replay equals a full factorization of the
    /// same stamps (`Matrix::solve_into` on a copy) bit for bit, up to
    /// the sign of exact zeros: the result or error, `max|U|`, and
    /// re-solves through the factors (`resolve_into`,
    /// `solve_transposed_into`). One `DenseLu` solves MNA-like systems
    /// over and over while the values drift (the pivot order holds),
    /// tie, jump (it may flip), carry NaN or ±∞, or leave a row zero
    /// (singular), and a new position is stamped part-way through.
    #[test]
    fn dense_plan_replay_matches_the_full_factorization(
        n in 1usize..41,
        density in 0.02f64..0.5,
        rounds in 2usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut elements = mna_elements(n, density, &mut rng);
        let mut values = Vec::new();
        let grow_at = rng.random_range(1..rounds + 1);
        let mut dense = DenseLu::with_dim(n);
        for round in 0..rounds {
            if round == grow_at {
                // A position the pattern has never seen.
                let mut stamped = Vec::new();
                for &e in &elements {
                    e.stamp(0.0, &mut stamped);
                }
                let fresh: Vec<usize> = (0..n * n)
                    .filter(|&p| !stamped.iter().any(|&(r, c, _)| r * n + c == p))
                    .collect();
                if !fresh.is_empty() {
                    let p = fresh[rng.random_range(0..fresh.len())];
                    elements.push(Element::Transconductance(p / n, p % n));
                }
            }
            let change = if round == 0 || values.len() < elements.len() {
                Change::Jump
            } else {
                Change::ALL[rng.random_range(0..Change::ALL.len())]
            };
            let (entries, b) = next_round(change, n, &elements, &mut values, &mut rng);
            check_replay_round(&mut dense, &entries, &b, &mut rng)
                .map_err(|e| {
                    proptest::TestCaseError::fail(format!("round {round} ({change:?}): {e}"))
                })?;
        }
        prop_assert_eq!(
            dense.full_factorizations() + dense.replayed_factorizations(),
            rounds as u64
        );
    }
}
