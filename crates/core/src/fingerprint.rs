//! Canonical content hashing for compile requests.
//!
//! The serve daemon keys its solve cache by *content*: two requests that
//! would run the exact same profile → filter → MILP pipeline must hash to
//! the same 64-bit digest, and any semantic difference (a different ladder
//! point, tail fraction, certify toggle, deadline, workload) must change
//! it. The hasher is a hand-rolled FNV-1a over a canonical byte encoding —
//! no `std::hash::Hasher` involvement, because `Hash` implementations are
//! allowed to change between compiler releases while cache keys should
//! only depend on bytes we feed in deliberately.
//!
//! Floats are hashed by their IEEE-754 bit pattern (`to_bits`), so `0.02`
//! always hashes the same way and `-0.0`/`0.0` are distinct; every
//! variable-length field is prefixed with its length so concatenations
//! cannot collide (`"ab" + "c"` vs `"a" + "bc"`).

/// A 64-bit FNV-1a hasher over a canonical byte encoding.
///
/// ```
/// use dvs_compiler::fingerprint::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_str("gsm/encode");
/// h.write_u64(3);
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write_str("gsm/encode");
/// h2.write_u64(3);
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes (no length prefix — compose with the typed
    /// writers for collision-safe encodings).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string with a length prefix.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current digest. The hasher may keep absorbing afterwards.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn length_prefixes_prevent_concatenation_collisions() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_signed_zero() {
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
