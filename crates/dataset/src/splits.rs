//! Train/test sampling utilities, including the non-P2 test sets of the
//! paper's Sec. III-B (Fig. 5): "All P2", "Non-P2 Nodes", and "Non-P2
//! Message Size".

use crate::space::{FeatureSpace, Point};
use rand::seq::SliceRandom;
use rand::Rng;

/// A uniformly random subset covering `fraction` of the grid (at least
/// one point).
pub fn random_fraction<R: Rng + ?Sized>(
    space: &FeatureSpace,
    fraction: f64,
    rng: &mut R,
) -> Vec<Point> {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let mut pts = space.points();
    pts.shuffle(rng);
    let keep = ((pts.len() as f64 * fraction).round() as usize).clamp(1, pts.len());
    pts.truncate(keep);
    pts
}

/// The full P2 grid as a test set ("All P2" in Fig. 5).
pub fn p2_test_set(space: &FeatureSpace) -> Vec<Point> {
    space.points()
}

/// A random non-P2 value strictly between `lo` and `hi` (exclusive),
/// avoiding powers of two. Returns `None` when no such value exists.
pub fn random_non_p2_between<R: Rng + ?Sized>(lo: u64, hi: u64, rng: &mut R) -> Option<u64> {
    if hi <= lo + 1 {
        return None;
    }
    // Rejection-sample; the density of powers of two is tiny.
    for _ in 0..64 {
        let v = rng.random_range(lo + 1..hi);
        if !v.is_power_of_two() {
            return Some(v);
        }
    }
    None
}

/// Test set with random non-P2 node counts (P2 ppn and message sizes),
/// mirroring Fig. 5's "Non-P2 Nodes" set.
pub fn nonp2_nodes_test_set<R: Rng + ?Sized>(
    space: &FeatureSpace,
    per_size: usize,
    rng: &mut R,
) -> Vec<Point> {
    let min_nodes = *space.nodes.first().expect("non-empty") as u64;
    let max_nodes = space.max_nodes() as u64;
    let mut out = Vec::new();
    for &ppn in &space.ppns {
        for &m in &space.msg_sizes {
            for _ in 0..per_size {
                if let Some(n) = random_non_p2_between(min_nodes, max_nodes, rng) {
                    out.push(Point::new(n as u32, ppn, m));
                }
            }
        }
    }
    out
}

/// Test set with random non-P2 message sizes (P2 nodes and ppn),
/// mirroring Fig. 5's "Non-P2 Message Size" set.
pub fn nonp2_msg_test_set<R: Rng + ?Sized>(
    space: &FeatureSpace,
    per_grid_point: usize,
    rng: &mut R,
) -> Vec<Point> {
    let min_m = *space.msg_sizes.first().expect("non-empty");
    let max_m = *space.msg_sizes.last().expect("non-empty");
    let mut out = Vec::new();
    for &nodes in &space.nodes {
        for &ppn in &space.ppns {
            for _ in 0..per_grid_point {
                if let Some(m) = random_non_p2_between(min_m, max_m, rng) {
                    out.push(Point::new(nodes, ppn, m));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn random_fraction_sizes() {
        let space = FeatureSpace::tiny();
        let mut r = rng();
        assert_eq!(random_fraction(&space, 1.0, &mut r).len(), space.len());
        assert_eq!(random_fraction(&space, 0.5, &mut r).len(), space.len() / 2);
        // Never empty.
        assert_eq!(random_fraction(&space, 0.0, &mut r).len(), 1);
    }

    #[test]
    fn random_fraction_has_no_duplicates() {
        let space = FeatureSpace::tiny();
        let pts = random_fraction(&space, 0.8, &mut rng());
        let set: std::collections::HashSet<Point> = pts.iter().copied().collect();
        assert_eq!(set.len(), pts.len());
    }

    #[test]
    fn non_p2_between_avoids_powers() {
        let mut r = rng();
        for _ in 0..200 {
            let v = random_non_p2_between(8, 1 << 20, &mut r).unwrap();
            assert!(v > 8 && v < (1 << 20));
            assert!(!v.is_power_of_two(), "{v}");
        }
        assert_eq!(random_non_p2_between(4, 5, &mut r), None);
        // 2..4 contains only {3}, which is non-P2.
        assert_eq!(random_non_p2_between(2, 4, &mut r), Some(3));
    }

    #[test]
    fn nonp2_nodes_points_have_nonp2_node_counts() {
        let space = FeatureSpace::tiny();
        let pts = nonp2_nodes_test_set(&space, 2, &mut rng());
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(!p.nodes.is_power_of_two(), "{p}");
            assert!(p.ppn.is_power_of_two());
            assert!(p.msg_bytes.is_power_of_two());
            assert!(p.nodes > 2 && p.nodes < 8);
        }
    }

    #[test]
    fn nonp2_msg_points_have_nonp2_sizes() {
        let space = FeatureSpace::tiny();
        let pts = nonp2_msg_test_set(&space, 3, &mut rng());
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(!p.msg_bytes.is_power_of_two(), "{p}");
            assert!(p.nodes.is_power_of_two());
            assert!(p.msg_bytes > 64 && p.msg_bytes < 4_096);
        }
    }
}
