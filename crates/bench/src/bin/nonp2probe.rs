//! Calibration probe: how much does the best algorithm change between
//! non-P2 message sizes and their nearest P2 anchors?
use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_dataset::{splits, Point};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let (db, space) = simulation_env();
    let c = Collective::Bcast;
    let mut rng = StdRng::seed_from_u64(5);
    let pts = splits::nonp2_msg_test_set(&space, 2, &mut rng);
    let mut slow = 0.0;
    let mut flips = 0;
    let mut worst: Vec<(f64, Point)> = Vec::new();
    for &p in &pts {
        // Nearest P2 anchor in log space.
        let anchor = (p.msg_bytes as f64).log2().round() as u32;
        let ap = Point::new(p.nodes, p.ppn, 1u64 << anchor);
        let (best_at_anchor, _) = db.best(c, ap);
        let s = db.slowdown(p, best_at_anchor);
        slow += s;
        if s > 1.01 {
            flips += 1;
        }
        worst.push((s, p));
    }
    worst.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!(
        "carryover slowdown on non-P2 msg set: {:.4} ({} affected of {})",
        slow / pts.len() as f64,
        flips,
        pts.len()
    );
    for (s, p) in worst.iter().take(8) {
        let (b, _) = db.best(c, *p);
        println!("  {p}: carryover slowdown {s:.2}, true best {}", b.name());
    }
}
