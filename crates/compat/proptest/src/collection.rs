//! Collection strategies.

use crate::{Strategy, TestRng};
use rand::Rng;
use std::ops::Range;

/// A strategy producing `Vec`s with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.random_range(self.size.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
