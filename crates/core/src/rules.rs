//! Selection-rule generation and the MPICH-style JSON tuning file
//! (paper Sec. V, Fig. 9).
//!
//! ACCLAiM's deliverable is an edited MPICH algorithm-selection file: a
//! *complete* list of logic rules ("if msg_size <= 32 use binomial")
//! that must be *pruned* so no two consecutive rules select the same
//! algorithm. Rule boundaries come from the model's selections over the
//! P2 grid, refined by re-querying the model at the non-P2 midpoint `B`
//! between the last old-selection point `A` and the first new-selection
//! point `C` — preserving the model's non-P2 knowledge in the file.

use crate::model::PerfModel;
use acclaim_collectives::{mpich_default, Algorithm, Collective};
use acclaim_dataset::{FeatureSpace, Point};
use serde::{Deserialize, Serialize};

/// One selection rule: applies to message sizes up to and including
/// `max_msg_bytes` (`None` = unbounded, the mandatory final rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Inclusive upper bound, `None` for the catch-all.
    pub max_msg_bytes: Option<u64>,
    /// The algorithm selected under this rule.
    pub algorithm: Algorithm,
}

/// The ordered rules for one (nodes, ppn) context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleSet {
    /// Node count this context was generated for.
    pub nodes: u32,
    /// PPN this context was generated for.
    pub ppn: u32,
    /// Rules ordered by ascending bound; the last has no bound.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Select the algorithm for a message size.
    ///
    /// Panics if the rule set is incomplete (no catch-all), which
    /// [`generate_rules`] never produces.
    pub fn select(&self, msg_bytes: u64) -> Algorithm {
        self.rules
            .iter()
            .find(|r| r.max_msg_bytes.is_none_or(|b| msg_bytes <= b))
            .expect("complete rule set")
            .algorithm
    }

    /// Every input resolves: the final rule is unbounded and bounds
    /// ascend strictly.
    pub fn is_complete(&self) -> bool {
        let Some(last) = self.rules.last() else {
            return false;
        };
        last.max_msg_bytes.is_none()
            && self.rules[..self.rules.len() - 1]
                .iter()
                .all(|r| r.max_msg_bytes.is_some())
            && self
                .rules
                .windows(2)
                .all(|w| match (w[0].max_msg_bytes, w[1].max_msg_bytes) {
                    (Some(a), Some(b)) => a < b,
                    (Some(_), None) => true,
                    _ => false,
                })
    }

    /// No two consecutive rules resolve to the same algorithm
    /// (minimizing selection delay, Sec. V).
    pub fn is_pruned(&self) -> bool {
        self.rules
            .windows(2)
            .all(|w| w[0].algorithm != w[1].algorithm)
    }
}

/// The rule table for one collective over a (nodes, ppn) grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveRules {
    /// The collective this table serves.
    pub collective: Collective,
    /// One rule set per grid (nodes, ppn) context.
    pub contexts: Vec<RuleSet>,
}

impl CollectiveRules {
    /// Select for an arbitrary point: the exact (nodes, ppn) context if
    /// present, otherwise the nearest context in log space (production
    /// jobs land between grid values).
    pub fn select(&self, point: Point) -> Algorithm {
        let ctx = self
            .contexts
            .iter()
            .min_by(|a, b| {
                let d = |c: &RuleSet| {
                    let dn = (c.nodes as f64).log2() - (point.nodes as f64).log2();
                    let dp = (c.ppn as f64).log2() - (point.ppn as f64).log2();
                    dn * dn + dp * dp
                };
                d(a).total_cmp(&d(b))
            })
            .expect("at least one context");
        ctx.select(point.msg_bytes)
    }
}

/// Generate the pruned, complete rule table from a trained model
/// (Fig. 9's A/B/C construction).
pub fn generate_rules(model: &PerfModel, space: &FeatureSpace) -> CollectiveRules {
    let mut contexts = Vec::with_capacity(space.nodes.len() * space.ppns.len());
    for &nodes in &space.nodes {
        for &ppn in &space.ppns {
            contexts.push(generate_context(model, space, nodes, ppn));
        }
    }
    CollectiveRules {
        collective: model.collective(),
        contexts,
    }
}

fn generate_context(model: &PerfModel, space: &FeatureSpace, nodes: u32, ppn: u32) -> RuleSet {
    let sizes = &space.msg_sizes;
    let mut rules: Vec<Rule> = Vec::new();
    let mut current = model.select(Point::new(nodes, ppn, sizes[0]));
    let mut last_size = sizes[0];
    for &c_size in &sizes[1..] {
        let sel = model.select(Point::new(nodes, ppn, c_size));
        if sel != current {
            // A = last point with the old selection, C = first with the
            // new; B = the (typically non-P2) midpoint, re-queried.
            let b_size = last_size + (c_size - last_size) / 2;
            let alg_b = model.select(Point::new(nodes, ppn, b_size));
            rules.push(Rule {
                max_msg_bytes: Some(last_size),
                algorithm: current,
            });
            rules.push(Rule {
                max_msg_bytes: Some(c_size - 1),
                algorithm: alg_b,
            });
            current = sel;
        }
        last_size = c_size;
    }
    rules.push(Rule {
        max_msg_bytes: None,
        algorithm: current,
    });
    prune(&mut rules);
    RuleSet { nodes, ppn, rules }
}

/// Merge consecutive rules selecting the same algorithm (the later rule
/// absorbs the earlier one's range).
fn prune(rules: &mut Vec<Rule>) {
    rules.dedup_by(|later, earlier| {
        // dedup_by sees (later, earlier) and drops `later` on true; we
        // instead want to keep the *later* bound, so copy it backward.
        if earlier.algorithm == later.algorithm {
            earlier.max_msg_bytes = later.max_msg_bytes;
            true
        } else {
            false
        }
    });
}

/// The full tuning file ACCLAiM hands to MPICH (one table per tuned
/// collective; untuned collectives fall back to the default heuristic).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TuningFile {
    /// Tables for the tuned collectives.
    pub collectives: Vec<CollectiveRules>,
}

impl TuningFile {
    /// Look up a tuned selection, if this collective was tuned.
    pub fn select(&self, collective: Collective, point: Point) -> Option<Algorithm> {
        self.collectives
            .iter()
            .find(|c| c.collective == collective)
            .map(|c| c.select(point))
    }

    /// Serialize in the MPICH-flavored JSON layout (human-readable
    /// algorithm names, nested contexts).
    pub fn to_mpich_json(&self) -> serde_json::Value {
        use serde_json::{json, Value};
        let collectives: Vec<Value> = self
            .collectives
            .iter()
            .map(|table| {
                let contexts: Vec<Value> = table
                    .contexts
                    .iter()
                    .map(|ctx| {
                        let rules: Vec<Value> = ctx
                            .rules
                            .iter()
                            .map(|r| match r.max_msg_bytes {
                                Some(b) => json!({
                                    "max_msg_size": b,
                                    "algorithm": r.algorithm.name(),
                                }),
                                None => json!({ "algorithm": r.algorithm.name() }),
                            })
                            .collect();
                        json!({ "nodes": ctx.nodes, "ppn": ctx.ppn, "rules": rules })
                    })
                    .collect();
                json!({ "collective": table.collective.name(), "contexts": contexts })
            })
            .collect();
        json!({ "generated_by": "ACCLAiM", "collectives": collectives })
    }

    /// Parse the MPICH-flavored JSON layout back.
    pub fn from_mpich_json(value: &serde_json::Value) -> Result<TuningFile, String> {
        let tables = value
            .get("collectives")
            .and_then(|v| v.as_array())
            .ok_or("missing 'collectives' array")?;
        let mut collectives = Vec::with_capacity(tables.len());
        for t in tables {
            let cname = t
                .get("collective")
                .and_then(|v| v.as_str())
                .ok_or("missing collective name")?;
            let collective =
                Collective::parse(cname).ok_or_else(|| format!("unknown collective {cname}"))?;
            let mut contexts = Vec::new();
            for ctx in t
                .get("contexts")
                .and_then(|v| v.as_array())
                .ok_or("missing contexts")?
            {
                let nodes = ctx.get("nodes").and_then(|v| v.as_u64()).ok_or("nodes")? as u32;
                let ppn = ctx.get("ppn").and_then(|v| v.as_u64()).ok_or("ppn")? as u32;
                let mut rules = Vec::new();
                for r in ctx.get("rules").and_then(|v| v.as_array()).ok_or("rules")? {
                    let aname = r
                        .get("algorithm")
                        .and_then(|v| v.as_str())
                        .ok_or("algorithm")?;
                    let algorithm = Algorithm::parse(collective, aname)
                        .ok_or_else(|| format!("unknown algorithm {cname}.{aname}"))?;
                    rules.push(Rule {
                        max_msg_bytes: r.get("max_msg_size").and_then(|v| v.as_u64()),
                        algorithm,
                    });
                }
                contexts.push(RuleSet { nodes, ppn, rules });
            }
            collectives.push(CollectiveRules {
                collective,
                contexts,
            });
        }
        Ok(TuningFile { collectives })
    }
}

/// Runtime selector combining a tuning file with the MPICH default
/// heuristic for untuned collectives — the library-side dispatch MPICH
/// performs when `MPIR_CVAR_..._JSON_FILE` points at ACCLAiM's output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TunedSelector {
    file: TuningFile,
}

impl TunedSelector {
    /// A selector over a tuning file.
    pub fn new(file: TuningFile) -> Self {
        TunedSelector { file }
    }

    /// The wrapped tuning file.
    pub fn file(&self) -> &TuningFile {
        &self.file
    }

    /// Select the algorithm for a call site.
    pub fn select(&self, collective: Collective, point: Point) -> Algorithm {
        self.file
            .select(collective, point)
            .unwrap_or_else(|| mpich_default(collective, point.ranks(), point.msg_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainingSample;
    use acclaim_dataset::{BenchmarkDatabase, DatasetConfig};
    use acclaim_ml::ForestConfig;

    fn trained_model(collective: Collective) -> PerfModel {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let space = FeatureSpace::tiny();
        let mut samples = Vec::new();
        for p in space.points() {
            for &a in collective.algorithms() {
                samples.push(TrainingSample {
                    point: p,
                    algorithm: a,
                    time_us: db.time(a, p),
                });
            }
        }
        PerfModel::fit(
            collective,
            &samples,
            &ForestConfig {
                n_trees: 16,
                ..ForestConfig::for_n_features(4)
            },
        )
    }

    #[test]
    fn generated_rules_are_complete_and_pruned() {
        let model = trained_model(Collective::Bcast);
        let table = generate_rules(&model, &FeatureSpace::tiny());
        assert_eq!(table.contexts.len(), 3 * 2);
        for ctx in &table.contexts {
            assert!(ctx.is_complete(), "{ctx:?}");
            assert!(ctx.is_pruned(), "{ctx:?}");
        }
    }

    #[test]
    fn rules_reproduce_model_selections_on_the_grid() {
        let model = trained_model(Collective::Reduce);
        let space = FeatureSpace::tiny();
        let table = generate_rules(&model, &space);
        for p in space.points() {
            assert_eq!(
                table.select(p),
                model.select(p),
                "rule/model mismatch at {p}"
            );
        }
    }

    #[test]
    fn rule_set_select_honors_boundaries() {
        let rs = RuleSet {
            nodes: 4,
            ppn: 2,
            rules: vec![
                Rule {
                    max_msg_bytes: Some(100),
                    algorithm: Algorithm::BcastBinomial,
                },
                Rule {
                    max_msg_bytes: Some(1_000),
                    algorithm: Algorithm::BcastScatterRingAllgather,
                },
                Rule {
                    max_msg_bytes: None,
                    algorithm: Algorithm::BcastScatterRecursiveDoublingAllgather,
                },
            ],
        };
        assert!(rs.is_complete() && rs.is_pruned());
        assert_eq!(rs.select(100), Algorithm::BcastBinomial);
        assert_eq!(rs.select(101), Algorithm::BcastScatterRingAllgather);
        assert_eq!(
            rs.select(1_001),
            Algorithm::BcastScatterRecursiveDoublingAllgather
        );
    }

    #[test]
    fn incomplete_and_unpruned_sets_are_detected() {
        let no_catch_all = RuleSet {
            nodes: 2,
            ppn: 1,
            rules: vec![Rule {
                max_msg_bytes: Some(10),
                algorithm: Algorithm::BcastBinomial,
            }],
        };
        assert!(!no_catch_all.is_complete());
        let dup = RuleSet {
            nodes: 2,
            ppn: 1,
            rules: vec![
                Rule {
                    max_msg_bytes: Some(10),
                    algorithm: Algorithm::BcastBinomial,
                },
                Rule {
                    max_msg_bytes: None,
                    algorithm: Algorithm::BcastBinomial,
                },
            ],
        };
        assert!(!dup.is_pruned());
    }

    #[test]
    fn prune_merges_consecutive_duplicates() {
        let mut rules = vec![
            Rule {
                max_msg_bytes: Some(8),
                algorithm: Algorithm::ReduceBinomial,
            },
            Rule {
                max_msg_bytes: Some(64),
                algorithm: Algorithm::ReduceBinomial,
            },
            Rule {
                max_msg_bytes: None,
                algorithm: Algorithm::ReduceScatterGather,
            },
        ];
        prune(&mut rules);
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].max_msg_bytes, Some(64), "later bound wins");
    }

    #[test]
    fn nearest_context_serves_off_grid_points() {
        let model = trained_model(Collective::Bcast);
        let space = FeatureSpace::tiny();
        let table = generate_rules(&model, &space);
        // 5 nodes sits between grid contexts 4 and 8; selection must
        // come from one of them without panicking.
        let a = table.select(Point::new(5, 2, 512));
        assert_eq!(a.collective(), Collective::Bcast);
    }

    #[test]
    fn mpich_json_round_trips() {
        let model = trained_model(Collective::Bcast);
        let table = generate_rules(&model, &FeatureSpace::tiny());
        let file = TuningFile {
            collectives: vec![table],
        };
        let json = file.to_mpich_json();
        let text = serde_json::to_string_pretty(&json).unwrap();
        assert!(text.contains("\"collective\": \"bcast\""));
        let parsed = TuningFile::from_mpich_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, file);
    }

    #[test]
    fn tuned_selector_falls_back_to_defaults() {
        let selector = TunedSelector::default();
        let p = Point::new(16, 4, 1 << 20);
        assert_eq!(
            selector.select(Collective::Allreduce, p),
            mpich_default(Collective::Allreduce, p.ranks(), p.msg_bytes)
        );
    }

    #[test]
    fn tuned_selector_uses_the_file_when_present() {
        let model = trained_model(Collective::Bcast);
        let space = FeatureSpace::tiny();
        let table = generate_rules(&model, &space);
        let selector = TunedSelector::new(TuningFile {
            collectives: vec![table],
        });
        for p in space.points() {
            assert_eq!(selector.select(Collective::Bcast, p), model.select(p));
        }
    }
}
