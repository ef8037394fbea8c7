//! Jackknife variance over ensemble predictions (paper Sec. IV-A).
//!
//! Given the per-tree predictions `p = (p_1, …, p_n)` of a random
//! forest at a candidate point, the `i`-th jackknife sample `x_i` is the
//! mean of `p` with `p_i` removed, and
//!
//! ```text
//!            Σ_{i=1}^{n} (x_p − x_i)²
//!     σ²  =  ────────────────────────        (x_p = mean of p)
//!                     n − 1
//! ```
//!
//! ACCLAiM selects the candidate with the highest σ² as its next
//! training point (filling the model's largest understanding gap) and
//! sums σ² over all candidates as its test-set-free convergence signal
//! (Sec. IV-C).

/// Jackknife variance of a set of ensemble predictions.
///
/// Returns 0 for fewer than two predictions (no resampling possible).
pub fn jackknife_variance(predictions: &[f64]) -> f64 {
    let n = predictions.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = predictions.iter().sum::<f64>() / nf;
    // x_i = (n*mean − p_i)/(n−1)  ⇒  mean − x_i = (p_i − mean)/(n−1).
    let sum_sq: f64 = predictions
        .iter()
        .map(|&p| {
            let d = (p - mean) / (nf - 1.0);
            d * d
        })
        .sum();
    sum_sq / (nf - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Direct transliteration of the paper's procedure, for cross-checking.
    fn naive_jackknife(p: &[f64]) -> f64 {
        let n = p.len() as f64;
        let x_p = p.iter().sum::<f64>() / n;
        let sum: f64 = (0..p.len())
            .map(|i| {
                let x_i = (p.iter().sum::<f64>() - p[i]) / (n - 1.0);
                (x_p - x_i) * (x_p - x_i)
            })
            .sum();
        sum / (n - 1.0)
    }

    #[test]
    fn matches_hand_computed_example() {
        // p = [1, 2, 3]: mean 2; jackknife samples x = [2.5, 2.0, 1.5];
        // deviations [−0.5, 0, 0.5] ⇒ Σ = 0.5; σ² = 0.25.
        let v = jackknife_variance(&[1.0, 2.0, 3.0]);
        assert!((v - 0.25).abs() < 1e-12, "v={v}");
    }

    #[test]
    fn constant_predictions_have_zero_variance() {
        assert_eq!(jackknife_variance(&[7.0; 10]), 0.0);
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(jackknife_variance(&[]), 0.0);
        assert_eq!(jackknife_variance(&[42.0]), 0.0);
    }

    #[test]
    fn disagreement_increases_variance() {
        let tight = jackknife_variance(&[10.0, 10.1, 9.9, 10.05]);
        let loose = jackknife_variance(&[5.0, 15.0, 2.0, 18.0]);
        assert!(loose > 100.0 * tight);
    }

    proptest! {
        #[test]
        fn closed_form_matches_naive_definition(
            p in proptest::collection::vec(-1e6f64..1e6, 2..64),
        ) {
            let fast = jackknife_variance(&p);
            let slow = naive_jackknife(&p);
            let scale = fast.abs().max(slow.abs()).max(1e-12);
            prop_assert!((fast - slow).abs() / scale < 1e-9, "{fast} vs {slow}");
        }

        #[test]
        fn variance_is_nonnegative_and_shift_invariant(
            p in proptest::collection::vec(-1e3f64..1e3, 2..64),
            shift in -1e3f64..1e3,
        ) {
            let v = jackknife_variance(&p);
            prop_assert!(v >= 0.0);
            let shifted: Vec<f64> = p.iter().map(|x| x + shift).collect();
            let vs = jackknife_variance(&shifted);
            prop_assert!((v - vs).abs() < 1e-6 * v.max(1.0), "shift changed variance");
        }

        #[test]
        fn scaling_scales_variance_quadratically(
            p in proptest::collection::vec(-1e3f64..1e3, 2..32),
            k in 0.1f64..10.0,
        ) {
            let v = jackknife_variance(&p);
            let scaled: Vec<f64> = p.iter().map(|x| k * x).collect();
            let vk = jackknife_variance(&scaled);
            prop_assert!((vk - k * k * v).abs() < 1e-6 * vk.max(1.0));
        }
    }
}
