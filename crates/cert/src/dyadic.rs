//! Exact dyadic-rational arithmetic over `f64` inputs.
//!
//! Every finite `f64` is exactly `±mant × 2^exp` with an integer mantissa,
//! so sums and products of `f64`-derived values stay inside the dyadic
//! rationals — no denominators other than powers of two ever appear. The
//! certificate checker only needs `+`, `−`, `×` and comparison (the
//! Lagrangian bound is linear in its inputs and never divides), which lets
//! [`Dyadic`] be far simpler than a full `BigRational`: an arbitrary-width
//! integer mantissa plus a binary exponent.
//!
//! `i128` is not wide enough: a product of three 53-bit mantissas already
//! needs ~159 bits, and row-activity sums accumulate thousands of such
//! terms, so the mantissa is a little-endian `Vec<u64>` limb string.
//!
//! Two kinds of operation share that representation. [`Dyadic::add_product`]
//! (`self += a·b` over two `f64`s) and [`Dyadic::add_scaled`] (`self += d·b`)
//! accumulate in place: they align, add or subtract and canonicalize inside
//! `self`'s own limbs, so a Lagrangian term `dⱼ −= yᵢ·aᵢⱼ` allocates
//! nothing once `dⱼ` has grown to its width. The value-returning
//! [`Dyadic::add`], [`Dyadic::sub`] and [`Dyadic::mul`] build fresh
//! mantissas; they serve the few once-per-certificate values and are the
//! reference the in-place kernel is tested against (`tests/dyadic_oracle.rs`).

use std::cmp::Ordering;

/// An exact dyadic rational `(-1)^neg · mant · 2^exp`.
///
/// Canonical form: zero is the empty mantissa with `neg = false` and
/// `exp = 0`; any non-zero value has an odd mantissa (trailing zero bits
/// are folded into the exponent), so the derived equality is value
/// equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dyadic {
    neg: bool,
    /// Little-endian base-2⁶⁴ limbs; no zero limbs at the top.
    mant: Vec<u64>,
    exp: i64,
}

impl Dyadic {
    /// The exact zero.
    #[must_use]
    pub fn zero() -> Self {
        Dyadic {
            neg: false,
            mant: Vec::new(),
            exp: 0,
        }
    }

    /// Exact conversion from a finite `f64`. `None` for NaN/±∞.
    #[must_use]
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Self::zero());
        }
        let bits = v.to_bits();
        let neg = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (m, e) = if biased == 0 {
            // Subnormal: no implicit leading bit.
            (frac, -1074i64)
        } else {
            (frac | (1 << 52), biased - 1075)
        };
        Some(Self::new(neg, vec![m], e))
    }

    /// Exact conversion from an integer.
    #[must_use]
    pub fn from_i64(v: i64) -> Self {
        if v == 0 {
            return Self::zero();
        }
        Self::new(v < 0, vec![v.unsigned_abs()], 0)
    }

    /// Canonicalizing constructor: strips zero limbs and trailing zero
    /// bits so equal values have equal representations.
    fn new(neg: bool, mut mant: Vec<u64>, exp: i64) -> Self {
        while mant.last() == Some(&0) {
            mant.pop();
        }
        if mant.is_empty() {
            return Self::zero();
        }
        let tz = trailing_zero_bits(&mant);
        let mant = shr_bits(&mant, tz);
        Dyadic {
            neg,
            mant,
            exp: exp + tz as i64,
        }
    }

    /// `true` iff the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.mant.is_empty()
    }

    /// `-1`, `0` or `+1`.
    #[must_use]
    pub fn signum(&self) -> i32 {
        if self.mant.is_empty() {
            0
        } else if self.neg {
            -1
        } else {
            1
        }
    }

    /// Exact negation.
    #[must_use]
    pub fn neg_val(&self) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        Dyadic {
            neg: !self.neg,
            mant: self.mant.clone(),
            exp: self.exp,
        }
    }

    /// Exact sum.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        // Align both mantissas to the smaller exponent.
        let e = self.exp.min(other.exp);
        let a = shl_bits(
            &self.mant,
            usize::try_from(self.exp - e).expect("aligned shift"),
        );
        let b = shl_bits(
            &other.mant,
            usize::try_from(other.exp - e).expect("aligned shift"),
        );
        if self.neg == other.neg {
            Self::new(self.neg, mag_add(&a, &b), e)
        } else {
            match mag_cmp(&a, &b) {
                Ordering::Equal => Self::zero(),
                Ordering::Greater => Self::new(self.neg, mag_sub(&a, &b), e),
                Ordering::Less => Self::new(other.neg, mag_sub(&b, &a), e),
            }
        }
    }

    /// Exact difference.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg_val())
    }

    /// Exact product.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        Self::new(
            self.neg != other.neg,
            mag_mul(&self.mant, &other.mant),
            self.exp + other.exp,
        )
    }

    /// Exact three-way comparison by value.
    #[must_use]
    pub fn cmp_val(&self, other: &Self) -> Ordering {
        match (self.signum(), other.signum()) {
            (a, b) if a != b => a.cmp(&b),
            (0, 0) => Ordering::Equal,
            _ => match self.sub(other).signum() {
                -1 => Ordering::Less,
                0 => Ordering::Equal,
                _ => Ordering::Greater,
            },
        }
    }

    /// `self += a·b`, exactly, accumulated in place; panics unless `a` and
    /// `b` are finite. The two 53-bit mantissas multiply in a `u128`, and
    /// `self −= a·b` is `add_product(-a, b)`, since negating an `f64` is
    /// exact.
    pub fn add_product(&mut self, a: f64, b: f64) {
        let (Some((na, ma, ea)), Some((nb, mb, eb))) = (split(a), split(b)) else {
            return;
        };
        let p = u128::from(ma) * u128::from(mb);
        let limbs = [p as u64, (p >> 64) as u64];
        let len = if limbs[1] == 0 { 1 } else { 2 };
        self.accumulate(na != nb, &limbs[..len], ea + eb);
    }

    /// `self += d·b`, exactly, accumulated in place; panics unless `b` is
    /// finite. The limb product is formed on the stack unless `d` is
    /// longer than `STACK_LIMBS − 1` limbs.
    pub fn add_scaled(&mut self, d: &Dyadic, b: f64) {
        let Some((nb, mb, eb)) = split(b).filter(|_| !d.is_zero()) else {
            return;
        };
        let n = d.mant.len() + 1;
        let mut stack = [0u64; STACK_LIMBS];
        let mut heap = Vec::new();
        let prod = if n <= STACK_LIMBS {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        let mut carry = 0u64;
        for (out, &x) in prod.iter_mut().zip(&d.mant) {
            let t = u128::from(x) * u128::from(mb) + u128::from(carry);
            *out = t as u64;
            carry = (t >> 64) as u64;
        }
        prod[n - 1] = carry;
        let len = if carry == 0 { n - 1 } else { n };
        self.accumulate(d.neg != nb, &prod[..len], d.exp + eb);
    }

    /// The in-place core: `self += (−1)^neg · m · 2^e` for a magnitude `m`
    /// with a non-zero top limb. `self` is shifted left only when the
    /// addend's exponent is the smaller one; otherwise the addend's
    /// shifted limbs are read on the fly.
    fn accumulate(&mut self, neg: bool, m: &[u64], e: i64) {
        if self.is_zero() {
            (self.neg, self.exp) = (neg, e);
        } else if e < self.exp {
            let k = usize::try_from(self.exp - e).expect("aligned shift");
            shl_in_place(&mut self.mant, k);
            self.exp = e;
        }
        let b = Shifted::new(m, usize::try_from(e - self.exp).expect("aligned shift"));
        let a = &mut self.mant;
        let sub = self.neg != neg;
        if sub && b.exceeds(a) {
            // |b| > |a|: a = b − a, and the sum takes the addend's sign.
            a.resize(b.len, 0);
            let mut borrow = false;
            for (i, x) in a.iter_mut().enumerate() {
                (*x, borrow) = add_limb(b.limb(i), *x, borrow, true);
            }
            self.neg = neg;
        } else {
            // a ± b, stopping once b's limbs and the carry (or borrow) end.
            a.resize(a.len().max(b.len), 0);
            let mut carry = false;
            for (i, x) in a.iter_mut().enumerate().skip(b.limbs) {
                (*x, carry) = add_limb(*x, b.limb(i), carry, sub);
                if !carry && i + 1 >= b.len {
                    break;
                }
            }
            if carry {
                a.push(1);
            }
        }
        self.canonicalize();
    }

    /// Drops top zero limbs and folds trailing zero bits into `exp`, in
    /// place, so the derived `==` stays value equality.
    fn canonicalize(&mut self) {
        while self.mant.last() == Some(&0) {
            self.mant.pop();
        }
        if self.mant.is_empty() {
            (self.neg, self.exp) = (false, 0);
            return;
        }
        let tz = trailing_zero_bits(&self.mant);
        self.mant.drain(..tz / 64);
        let bits = tz % 64;
        if bits > 0 {
            let m = &mut self.mant;
            for i in 0..m.len() {
                m[i] = (m[i] >> bits) | m.get(i + 1).map_or(0, |&x| x << (64 - bits));
            }
            if m.last() == Some(&0) {
                m.pop();
            }
        }
        self.exp += tz as i64;
    }

    /// Nearest-ish `f64` for diagnostics only: rounds the top 53 mantissa
    /// bits; over/underflow saturates to `±inf`/`0`.
    #[must_use]
    pub fn to_f64_lossy(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let bl = bit_len(&self.mant);
        let shift = bl.saturating_sub(53);
        let top = shr_bits(&self.mant, shift);
        debug_assert!(top.len() == 1);
        let e = self.exp + shift as i64;
        let mag = top[0] as f64 * pow2(e);
        if self.neg {
            -mag
        } else {
            mag
        }
    }
}

/// Limbs of an [`Dyadic::add_scaled`] product kept on the stack.
const STACK_LIMBS: usize = 16;

/// A finite non-zero `f64` as `(negative, odd mantissa, exponent)`; `None`
/// for ±0. Subnormals decompose as in [`Dyadic::from_f64`].
fn split(v: f64) -> Option<(bool, u64, i64)> {
    assert!(v.is_finite(), "finite value");
    if v == 0.0 {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    // A biased exponent of 0 (subnormal) has no implicit bit.
    let m = (bits & ((1u64 << 52) - 1)) | (u64::from(biased != 0) << 52);
    let e = biased.max(1) - 1075;
    let tz = m.trailing_zeros();
    Some((bits >> 63 == 1, m >> tz, e + i64::from(tz)))
}

/// `x + y + carry`, or `x − y − borrow` when `sub`, with the carry or
/// borrow out.
fn add_limb(x: u64, y: u64, carry: bool, sub: bool) -> (u64, bool) {
    if sub {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(carry));
        (d, b1 | b2)
    } else {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        (s, c1 | c2)
    }
}

/// A magnitude `m · 2^shift`, read limb by limb without being built.
struct Shifted<'a> {
    m: &'a [u64],
    /// Whole zero limbs below `m`.
    limbs: usize,
    bits: u32,
    /// Limbs up to and including the top non-zero one.
    len: usize,
}

impl<'a> Shifted<'a> {
    fn new(m: &'a [u64], shift: usize) -> Self {
        let (limbs, bits) = (shift / 64, (shift % 64) as u32);
        let spill = bits > 0 && m[m.len() - 1] >> (64 - bits) != 0;
        let len = limbs + m.len() + usize::from(spill);
        Shifted {
            m,
            limbs,
            bits,
            len,
        }
    }

    fn limb(&self, i: usize) -> u64 {
        // Indices below `limbs` wrap past the end of `m` and read as 0.
        let k = i.wrapping_sub(self.limbs);
        let lo = self.m.get(k).map_or(0, |&x| x << self.bits);
        let hi = self.m.get(k.wrapping_sub(1));
        lo | hi.and_then(|&x| x.checked_shr(64 - self.bits)).unwrap_or(0)
    }

    /// `true` when this magnitude is larger than `a` (no top zero limbs).
    fn exceeds(&self, a: &[u64]) -> bool {
        if self.len != a.len() {
            return self.len > a.len();
        }
        (0..a.len())
            .rev()
            .map(|i| (self.limb(i), a[i]))
            .find(|(b, x)| b != x)
            .is_some_and(|(b, x)| b > x)
    }
}

/// `a << k` in place.
fn shl_in_place(a: &mut Vec<u64>, k: usize) {
    let (limbs, bits) = (k / 64, k % 64);
    if bits > 0 {
        a.push(0);
        for i in (1..a.len()).rev() {
            a[i] = (a[i] << bits) | (a[i - 1] >> (64 - bits));
        }
        a[0] <<= bits;
        if a.last() == Some(&0) {
            a.pop();
        }
    }
    a.resize(a.len() + limbs, 0);
    a.rotate_right(limbs);
}

/// `2^e` as an `f64`, saturating outside the representable range.
fn pow2(e: i64) -> f64 {
    if e > 1100 {
        f64::INFINITY
    } else if e < -1150 {
        0.0
    } else {
        // Split so even near-extreme exponents stay representable
        // intermediate values.
        let half = e / 2;
        2f64.powi(half as i32) * 2f64.powi((e - half) as i32)
    }
}

fn bit_len(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

fn trailing_zero_bits(a: &[u64]) -> usize {
    let mut bits = 0;
    for &limb in a {
        if limb == 0 {
            bits += 64;
        } else {
            return bits + limb.trailing_zeros() as usize;
        }
    }
    bits
}

fn shr_bits(a: &[u64], k: usize) -> Vec<u64> {
    let (limbs, bits) = (k / 64, k % 64);
    if limbs >= a.len() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() - limbs);
    for i in limbs..a.len() {
        let mut v = a[i] >> bits;
        if bits > 0 && i + 1 < a.len() {
            v |= a[i + 1] << (64 - bits);
        }
        out.push(v);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

fn shl_bits(a: &[u64], k: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let (limbs, bits) = (k / 64, k % 64);
    let mut out = vec![0u64; limbs];
    if bits == 0 {
        out.extend_from_slice(a);
        return out;
    }
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << bits) | carry);
        carry = limb >> (64 - bits);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i].cmp(&b[i]);
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len().max(b.len());
    let mut out = Vec::with_capacity(n + 1);
    let mut carry = 0u64;
    for i in 0..n {
        let x = *a.get(i).unwrap_or(&0) as u128;
        let y = *b.get(i).unwrap_or(&0) as u128;
        let s = x + y + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a − b`, requiring `a ≥ b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &x) in a.iter().enumerate() {
        let y = *b.get(i).unwrap_or(&0);
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0, "mag_sub requires a >= b");
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: f64) -> Dyadic {
        Dyadic::from_f64(v).unwrap()
    }

    #[test]
    fn from_f64_round_trips_assorted_values() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.25,
            1e-300,
            -1e300,
            f64::MIN_POSITIVE,
            5e-324, // subnormal
            2f64.powi(52) + 1.0,
            123_456_789.123_456_78,
        ] {
            assert_eq!(d(v).to_f64_lossy(), v, "round trip of {v}");
        }
        assert!(Dyadic::from_f64(f64::NAN).is_none());
        assert!(Dyadic::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn equal_values_have_equal_representations() {
        assert_eq!(d(2.0), Dyadic::from_i64(2));
        assert_eq!(d(0.5).add(&d(0.5)), Dyadic::from_i64(1));
        assert_eq!(d(-0.0), Dyadic::zero());
    }

    #[test]
    fn arithmetic_is_exact_where_f64_is_not() {
        // 0.1 + 0.2 != 0.3 in f64; the exact dyadic sum sees the
        // difference even though both round to similar doubles.
        let exact = d(0.1).add(&d(0.2));
        assert_ne!(exact, d(0.3));
        assert_eq!(exact.cmp_val(&d(0.3)), Ordering::Greater);
        // to_f64_lossy truncates: good to ~1 ulp, diagnostics only.
        assert!((exact.to_f64_lossy() - 0.3).abs() < 1e-15);
        // (a+b)·c distributes exactly.
        let (a, b, c) = (d(1e-17), d(3.7), d(-2.5e12));
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    #[test]
    fn products_of_three_mantissas_exceed_i128() {
        let big = d(2f64.powi(52) + 1.0);
        let p = big.mul(&big).mul(&big);
        // 159-bit mantissa survives and compares correctly.
        assert_eq!(p.cmp_val(&big.mul(&big)), Ordering::Greater);
        assert_eq!(p.sub(&p), Dyadic::zero());
    }

    #[test]
    fn comparisons_across_magnitudes_and_signs() {
        assert_eq!(d(1e-300).cmp_val(&d(1e300)), Ordering::Less);
        assert_eq!(d(-1e-300).cmp_val(&d(1e-300)), Ordering::Less);
        assert_eq!(d(-5.0).cmp_val(&d(-7.0)), Ordering::Greater);
        assert_eq!(d(3.5).cmp_val(&d(3.5)), Ordering::Equal);
        assert_eq!(Dyadic::zero().cmp_val(&d(-1e-308)), Ordering::Greater);
    }

    #[test]
    fn long_alternating_sum_cancels_exactly() {
        let mut acc = Dyadic::zero();
        for i in 0..1000 {
            let v = d(0.1 * (i as f64 + 1.0));
            acc = acc.add(&v);
            acc = acc.sub(&v);
        }
        assert!(acc.is_zero());
    }

    #[test]
    fn signum_and_negation() {
        assert_eq!(d(2.5).neg_val().signum(), -1);
        assert_eq!(Dyadic::zero().neg_val().signum(), 0);
        assert_eq!(d(1.0).sub(&d(1.0)).signum(), 0);
    }
}
