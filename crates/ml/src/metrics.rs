//! Regression and selection-quality metrics.
//!
//! Besides standard regression metrics, this module implements the
//! paper's *average slowdown* (Sec. II-C-2): the mean over test points
//! of `t(selected algorithm) / t(optimal algorithm)`. An autotuner is
//! "converged" when its average slowdown is at most 1.03.

/// Mean squared error.
pub fn mse(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len());
    assert!(!truth.is_empty());
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / truth.len() as f64
}

/// Mean absolute error.
pub fn mae(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len());
    assert!(!truth.is_empty());
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// Coefficient of determination (1 = perfect; can be negative).
pub fn r2(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len());
    assert!(!truth.is_empty());
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// The paper's convergence threshold on average slowdown.
pub const CONVERGENCE_SLOWDOWN: f64 = 1.03;

/// Average slowdown of a set of selections.
///
/// Each element pairs the true time of the *selected* algorithm with the
/// true time of the *optimal* algorithm at that point.
pub fn average_slowdown(selected_vs_optimal: &[(f64, f64)]) -> f64 {
    assert!(!selected_vs_optimal.is_empty());
    selected_vs_optimal
        .iter()
        .map(|&(sel, opt)| {
            debug_assert!(opt > 0.0, "optimal time must be positive");
            sel / opt
        })
        .sum::<f64>()
        / selected_vs_optimal.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_predictions() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(mse(&t, &t), 0.0);
        assert_eq!(mae(&t, &t), 0.0);
        assert_eq!(r2(&t, &t), 1.0);
    }

    #[test]
    fn known_errors() {
        let t = [0.0, 0.0];
        let p = [1.0, -1.0];
        assert_eq!(mse(&t, &p), 1.0);
        assert_eq!(mae(&t, &p), 1.0);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!((r2(&t, &p) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_selections_have_slowdown_one() {
        let s = [(2.0, 2.0), (5.0, 5.0)];
        assert_eq!(average_slowdown(&s), 1.0);
    }

    #[test]
    fn suboptimal_selections_raise_slowdown() {
        let s = [(2.0, 2.0), (10.0, 5.0)];
        assert_eq!(average_slowdown(&s), 1.5);
        assert!(average_slowdown(&s) > CONVERGENCE_SLOWDOWN);
    }

    proptest! {
        #[test]
        fn slowdown_is_at_least_one_when_optimal_is_truly_optimal(
            pairs in proptest::collection::vec((1.0f64..1e6, 1.0f64..1e6), 1..50),
        ) {
            // Force sel >= opt by ordering each pair.
            let fixed: Vec<(f64, f64)> = pairs
                .into_iter()
                .map(|(a, b)| (a.max(b), a.min(b)))
                .collect();
            prop_assert!(average_slowdown(&fixed) >= 1.0 - 1e-12);
        }

        #[test]
        fn mse_dominates_squared_mae(
            t in proptest::collection::vec(-1e3f64..1e3, 1..50),
            p in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let n = t.len().min(p.len());
            let (t, p) = (&t[..n], &p[..n]);
            // Jensen: mae² <= mse.
            prop_assert!(mae(t, p).powi(2) <= mse(t, p) + 1e-9);
        }
    }
}
