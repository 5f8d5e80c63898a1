//! Collection strategies (subset of `proptest::collection`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::Range;

/// Generates `Vec`s whose length is uniform in `len` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// Strategy produced by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.len.end - self.len.start;
        let n = self.len.start + rng.below(span);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn lengths_stay_in_range() {
        let mut rng = TestRng::from_name("vec-len");
        let s = vec(Just(0u8), 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn zero_length_is_reachable() {
        let mut rng = TestRng::from_name("vec-zero");
        let s = vec(Just(0u8), 0..3);
        assert!((0..100).any(|_| s.generate(&mut rng).is_empty()));
    }
}
