//! FNV-1a fingerprinting for bit-exact outcome comparison.
//!
//! The benchmark harness and the scheduler both need to prove that two
//! simulated outcomes are *identical to the bit* — across executor
//! policies, hosts and runs. [`Fnv`] is the shared incremental hasher:
//! fold in every `u64`/`f64` of an outcome (floats by exact bit
//! pattern, so `0.0` and `-0.0` differ) and compare digests.

const PRIME: u64 = 0x100_0000_01b3;

/// `PRIME^k` for `k` in `0..=8`: `k` zero bytes fold as one multiply.
const PRIME_POW: [u64; 9] = {
    let (mut pow, mut k) = ([1u64; 9], 1);
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Incremental FNV-1a hasher for outcome fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in raw bytes — the FNV-1a primitive every other writer
    /// lowers onto.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold in one u64, little-endian (its high zero bytes at once).
    pub fn write_u64(&mut self, v: u64) {
        let n = 8 - v.leading_zeros() as usize / 8;
        self.write_bytes(&v.to_le_bytes()[..n]);
        self.0 = self.0.wrapping_mul(PRIME_POW[8 - n]);
    }

    /// Fold in one f64's exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Fold in one usize (widened to u64, so 32- and 64-bit hosts
    /// agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Fold in a string: its length, then its UTF-8 bytes — the length
    /// prefix keeps `("ab","c")` and `("a","bc")` distinct when strings
    /// are hashed back to back.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        let mut a = Fnv::new();
        a.write_f64(0.0);
        let mut b = Fnv::new();
        b.write_f64(-0.0); // same value, different bits — must differ
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write_f64(0.0);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn str_writes_are_length_prefixed() {
        let mut a = Fnv::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        // write_u64 is write_bytes over the LE encoding.
        let mut c = Fnv::new();
        c.write_u64(0x0102_0304_0506_0708);
        let mut d = Fnv::new();
        d.write_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(c.finish(), d.finish());
    }

    /// The byte-wise fold `write_u64` stands for.
    fn bytewise(h: &Fnv, v: u64) -> u64 {
        let mut h = *h;
        h.write_bytes(&v.to_le_bytes());
        h.finish()
    }

    #[test]
    fn write_u64_is_the_byte_wise_fold() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let seeded = (0..2000).map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Every byte length, not only full-width draws.
            s >> (s % 64)
        });
        let fixed = [0, 1, 0xff, 0x100, 1 << 56, u64::MAX];
        let mut h = Fnv::new();
        for v in fixed
            .into_iter()
            .chain((0..64).map(|k| 1 << k))
            .chain(seeded)
        {
            let want = bytewise(&h, v);
            h.write_u64(v);
            assert_eq!(h.finish(), want, "{v:#x}");
        }
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
