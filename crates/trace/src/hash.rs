//! FNV-1a-64, the workspace's one content hash: compile provenance keys,
//! design fingerprints and progress-stream digests all fold their bytes
//! through [`fnv1a`].

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors_and_continues() {
        assert_eq!(fnv1a(FNV1A_OFFSET, *b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
        let foobar = fnv1a(FNV1A_OFFSET, *b"foobar");
        assert_eq!(foobar, 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, *b"foo"), *b"bar"), foobar);
    }
}
