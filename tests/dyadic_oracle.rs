//! Differential test of `Dyadic`'s in-place accumulation.
//!
//! The certificate prover and checker form every Lagrangian term with
//! `Dyadic::add_product` (`self += a·b` over two `f64`s) and
//! `Dyadic::add_scaled` (`self += d·b`), which align, add or subtract and
//! canonicalize inside the accumulator's own limbs. `Dyadic::add`, `sub`
//! and `mul` build every result afresh and are the reference. A random
//! sequence of fused steps, of both signs, must leave the same value as the
//! same sequence run through the reference after every step, and must order
//! the same as the reference against a third drawn value.
//!
//! The draws cover ±0, subnormals down to 5e-324, values near `f64::MAX`
//! (products then span more than 4,000 bits, so exponent gaps pass 2,000),
//! all-ones mantissas, whose shifted limbs carry across limb boundaries,
//! exact cancellation back to zero, accumulations of thousands of terms, and
//! `add_scaled` operands too long for its stack buffer. A failing case is
//! shrunk on its dvs-check tape and printed as its sequence of steps.

use std::panic::{catch_unwind, AssertUnwindSafe};

use compile_time_dvs::cert::dyadic::Dyadic;
use compile_time_dvs::check::{shrink_tape, Gen};

/// One accumulation step.
#[derive(Debug, Clone)]
enum Step {
    /// `acc += a·b`, or `acc −= a·b` (fused as `add_product(-a, b)`).
    Product { a: f64, b: f64, sub: bool },
    /// `acc += d·b`, or `acc −= d·b` (fused as `add_scaled(d, -b)`), where
    /// `d` is the exact sum of the products in `terms`.
    Scaled {
        terms: Vec<(f64, f64)>,
        b: f64,
        sub: bool,
    },
}

/// A case: each step with the value the accumulator is ordered against
/// after it.
type Case = Vec<(Step, f64)>;

fn dy(v: f64) -> Dyadic {
    Dyadic::from_f64(v).expect("finite draw")
}

const FRAC: u64 = 1 << 52;

/// A finite `f64` from one of the kernel's edge classes; a zeroed tape
/// entry draws `+0.0`.
fn value(g: &mut Gen) -> f64 {
    let neg = g.below(2) == 1;
    let mag = match g.below(7) {
        // Small integers, zero included: sums of these cancel exactly.
        0 => g.below(5) as f64,
        // Zero or a subnormal, down to 5e-324.
        1 => f64::from_bits(g.below(FRAC)),
        // The top two binades, up to f64::MAX.
        2 => f64::from_bits((g.range(0x7fd, 0x7fe) << 52) | g.below(FRAC)),
        // An all-ones mantissa at any exponent.
        3 => f64::from_bits((g.range(0, 0x7fe) << 52) | (FRAC - 1)),
        4 => *g.choose(&[5e-324, f64::MIN_POSITIVE, f64::MAX, 1.0, 0.5]),
        // Any exponent.
        5 => f64::from_bits((g.range(0, 0x7fe) << 52) | g.below(FRAC)),
        // Within 2^±40 of one, where the certificates' values live.
        _ => f64::from_bits((g.range(1023 - 40, 1023 + 40) << 52) | g.below(FRAC)),
    };
    if neg {
        -mag
    } else {
        mag
    }
}

fn step(g: &mut Gen) -> Step {
    let sub = g.below(2) == 1;
    if g.chance(0.6) {
        Step::Product {
            a: value(g),
            b: value(g),
            sub,
        }
    } else {
        Step::Scaled {
            terms: (0..g.range(1, 4)).map(|_| (value(g), value(g))).collect(),
            b: value(g),
            sub,
        }
    }
}

fn flip(s: &Step) -> Step {
    match s.clone() {
        Step::Product { a, b, sub } => Step::Product { a, b, sub: !sub },
        Step::Scaled { terms, b, sub } => Step::Scaled {
            terms,
            b,
            sub: !sub,
        },
    }
}

fn gen_case(g: &mut Gen) -> Case {
    let len = if g.chance(0.95) {
        g.range(1, 40)
    } else {
        g.range(1_000, 3_000)
    };
    let mut steps: Vec<Step> = Vec::new();
    for _ in 0..len {
        // Now and then repeat or undo the previous step, so that carries
        // out of the top limb and borrows across limbs come up often.
        let s = match steps.last() {
            Some(prev) if !g.chance(0.8) => {
                if g.chance(0.5) {
                    prev.clone()
                } else {
                    flip(prev)
                }
            }
            _ => step(g),
        };
        steps.push(s);
    }
    // Half the cases then take every step back in reverse, ending at an
    // exact zero.
    if !g.chance(0.5) {
        let back: Vec<Step> = steps.iter().rev().map(flip).collect();
        steps.extend(back);
    }
    steps.into_iter().map(|s| (s, value(g))).collect()
}

/// What a passing case reached, for the coverage asserts.
#[derive(Default)]
struct Reached {
    /// Steps that brought a non-zero accumulator back to exactly zero.
    cancellations: usize,
    /// `add_scaled` operands of at least 16 limbs (the `Vec` path).
    long_operands: usize,
}

/// `floor(log2 |v|)` of a non-zero finite `f64`.
fn ilog2(v: f64) -> i64 {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    if biased == 0 {
        -1074 + 63 - i64::from((bits & (FRAC - 1)).leading_zeros())
    } else {
        biased - 1023
    }
}

/// Runs `case` through both paths: `Err` names the first step at which the
/// fused accumulator left the reference.
fn run(case: &[(Step, f64)]) -> Result<Reached, String> {
    let mut reached = Reached::default();
    let (mut fused, mut reference) = (Dyadic::zero(), Dyadic::zero());
    for (k, (s, probe)) in case.iter().enumerate() {
        let was_zero = fused.is_zero();
        match s {
            Step::Product { a, b, sub } => {
                let p = dy(*a).mul(&dy(*b));
                if *sub {
                    fused.add_product(-a, *b);
                    reference = reference.sub(&p);
                } else {
                    fused.add_product(*a, *b);
                    reference = reference.add(&p);
                }
            }
            Step::Scaled { terms, b, sub } => {
                let d = terms
                    .iter()
                    .fold(Dyadic::zero(), |d, &(x, y)| d.add(&dy(x).mul(&dy(y))));
                let top = terms.iter().filter(|(x, y)| *x != 0.0 && *y != 0.0);
                let logs: Vec<i64> = top.map(|&(x, y)| ilog2(x) + ilog2(y)).collect();
                if let (Some(hi), Some(lo)) = (logs.iter().max(), logs.iter().min()) {
                    // Distinct leading exponents cannot cancel, so a span
                    // of 1,100 bits leaves at least 17 limbs.
                    reached.long_operands += usize::from(hi - lo >= 1_100);
                }
                let p = d.mul(&dy(*b));
                if *sub {
                    fused.add_scaled(&d, -b);
                    reference = reference.sub(&p);
                } else {
                    fused.add_scaled(&d, *b);
                    reference = reference.add(&p);
                }
            }
        }
        if fused != reference {
            return Err(format!(
                "step {k}: fused {fused:?} != reference {reference:?}"
            ));
        }
        reached.cancellations += usize::from(!was_zero && fused.is_zero());
        // The fused path orders against the probe by subtracting it.
        let mut diff = fused.clone();
        diff.add_product(-probe, 1.0);
        let want = reference.cmp_val(&dy(*probe));
        if diff.signum().cmp(&0) != want {
            return Err(format!(
                "step {k}: fused order {:?} vs {probe:e}, reference {want:?}",
                diff.signum().cmp(&0)
            ));
        }
        if fused.cmp_val(&dy(*probe)) != want {
            return Err(format!("step {k}: cmp_val of the fused value vs {probe:e}"));
        }
    }
    Ok(reached)
}

/// `run` on the case `tape` generates, with a panic counted as a failure.
fn replay(tape: &[u64]) -> Result<Reached, String> {
    let case = gen_case(&mut Gen::replay(tape.to_vec()));
    catch_unwind(AssertUnwindSafe(|| run(&case)))
        .unwrap_or_else(|_| Err("the fused path panicked".into()))
}

#[test]
fn fused_accumulation_matches_the_reference_operations() {
    let cases: u64 = if cfg!(debug_assertions) { 300 } else { 3_000 };
    let (mut cancellations, mut long_operands, mut long_cases) = (0, 0, 0);
    for seed in 0..cases {
        let mut g = Gen::from_seed(seed ^ 0xd1ad_1c0a);
        let case = gen_case(&mut g);
        long_cases += usize::from(case.len() >= 1_000);
        match replay(g.tape()) {
            Ok(r) => {
                cancellations += r.cancellations;
                long_operands += r.long_operands;
            }
            Err(first) => {
                let shrunk = shrink_tape(g.tape(), |t| replay(t).is_err(), 2_000).tape;
                let small = gen_case(&mut Gen::replay(shrunk.clone()));
                let why = replay(&shrunk).err().unwrap_or_default();
                panic!(
                    "seed {seed}: {first}\nshrunk to {} steps: {why}\n{small:#?}",
                    small.len()
                );
            }
        }
    }
    assert!(
        cancellations >= 10 && long_operands >= 10 && long_cases >= 3,
        "coverage: {cancellations} cancellations to zero, {long_operands} long \
         add_scaled operands, {long_cases} long accumulations"
    );
}

#[test]
fn edge_values_match_the_reference_operations() {
    let edges = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::from_bits(FRAC - 1),
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        f64::from_bits((1023 << 52) | (FRAC - 1)),
        f64::MAX,
        -f64::MAX,
    ];
    let mut case = Case::new();
    for &a in &edges {
        for &b in &edges {
            case.push((Step::Product { a, b, sub: false }, a));
            case.push((
                Step::Scaled {
                    terms: vec![(a, b), (f64::MAX, 5e-324)],
                    b,
                    sub: true,
                },
                b,
            ));
        }
    }
    let back: Case = case.iter().rev().map(|(s, p)| (flip(s), *p)).collect();
    case.extend(back);
    let r = run(&case).unwrap_or_else(|e| panic!("{e}"));
    assert!(r.cancellations >= 1, "the mirrored sequence ends at zero");
}
