//! The workspace's two hashes.
//!
//! * FNV-1a-64, the one content hash: compile provenance keys, design
//!   fingerprints and progress-stream digests all fold their bytes through
//!   [`fnv1a`]. [`Fnv1aWriter`] is the same hash as a [`fmt::Write`] sink,
//!   so a value's formatted rendering can be hashed without allocating it.
//! * [`splitmix64`], the one counter hash: seeded draws that depend only
//!   on `(seed, counter)`, never on call order — the fault plan's link
//!   errors and the job server's retry jitter.

use std::fmt;

/// The FNV-1a-64 offset basis: the state a fresh hash starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a-64 `state`. `fnv1a(FNV1A_OFFSET, b)`
/// hashes `b`; passing an earlier result as `state` continues that hash,
/// so a digest can be built up field by field.
pub fn fnv1a(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(state, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

/// An [`fmt::Write`] sink that folds every byte written into an FNV-1a-64
/// state: `write!(h, "{v:?}")` then [`Fnv1aWriter::finish`] equals
/// `fnv1a(FNV1A_OFFSET, format!("{v:?}").bytes())`, without the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1aWriter(u64);

impl Fnv1aWriter {
    /// A fresh hash, starting from [`FNV1A_OFFSET`].
    pub const fn new() -> Self {
        Self(FNV1A_OFFSET)
    }

    /// The hash of every byte written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1aWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1aWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.bytes());
        Ok(())
    }
}

/// The SplitMix64 output for `counter` under `seed`: the `counter + 1`-th
/// value of a SplitMix64 generator seeded with `seed`. A pure function of
/// its inputs, so seeded draws replay exactly whatever order they are
/// made in.
pub fn splitmix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first outputs of SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0, 1), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(0, 2), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn matches_the_reference_vectors_and_continues() {
        assert_eq!(fnv1a(FNV1A_OFFSET, *b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
        let foobar = fnv1a(FNV1A_OFFSET, *b"foobar");
        assert_eq!(foobar, 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, *b"foo"), *b"bar"), foobar);
    }

    #[test]
    fn writer_hashes_the_formatted_bytes_in_any_chunking() {
        use std::fmt::Write;
        assert_eq!(Fnv1aWriter::new().finish(), FNV1A_OFFSET);
        let mut a = Fnv1aWriter::default();
        a.write_str("a").unwrap();
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv1aWriter::new();
        for chunk in ["f", "", "oo", "ba", "r"] {
            foobar.write_str(chunk).unwrap();
        }
        assert_eq!(foobar.finish(), 0x8594_4171_f739_67e8);
        let v = (1u64, "two", [3.5f64, -0.0], Some(FNV1A_OFFSET));
        let mut h = Fnv1aWriter::new();
        write!(h, "{v:?}").unwrap();
        assert_eq!(h.finish(), fnv1a(FNV1A_OFFSET, format!("{v:?}").bytes()));
    }
}
