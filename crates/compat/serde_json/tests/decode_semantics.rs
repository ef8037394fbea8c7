//! The decode rules every typed read in the workspace relies on (serve
//! wire lines, store entries, tuning files, dataset snapshots):
//!
//! - unknown keys are skipped, at any depth;
//! - a repeated struct field keeps its last value;
//! - integral floats (`2.0`, `1e3`) fill integer fields;
//! - a missing `Option` field is an error (only `#[serde(default)]`
//!   fields may be absent);
//! - torn text and trailing characters are errors;
//! - an enum is a unit variant's name or an object with exactly one
//!   entry, the variant.
//!
//! Random `Query` and `Tune` requests also survive an encode, decode,
//! encode cycle byte for byte.

use acclaim_collectives::Collective;
use acclaim_core::{
    AcclaimConfig, CollectionStrategy, CriterionConfig, LearnerConfig, SelectionPolicy,
    SlowdownThreshold, VarianceConvergence,
};
use acclaim_dataset::{DatasetConfig, FeatureSpace, Point};
use acclaim_serve::protocol::{decode_request, encode_request, WireRequest};
use acclaim_serve::{Priority, QueryRequest, TuneRequest};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Inner {
    n: u32,
    tag: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Outer {
    id: u64,
    inner: Inner,
    ratio: f64,
    #[serde(default)]
    extra: Vec<i32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Op {
    Ping,
    Put { key: String },
    Pair(u8, u8),
    Wrap(Inner),
}

fn outer(id: u64, n: u32) -> Outer {
    Outer {
        id,
        inner: Inner { n, tag: None },
        ratio: 0.5,
        extra: vec![],
    }
}

#[test]
fn unknown_keys_are_skipped_at_any_depth() {
    let text = r#"{"zz":{"a":[1,{"b":null}],"c":"A"},"id":7,
        "inner":{"n":1,"deep":{"x":[[[]]],"y":-2.5e-3},"tag":null},
        "ratio":0.5,"tail":[true,false,"s"]}"#;
    assert_eq!(from_str::<Outer>(text).unwrap(), outer(7, 1));
    // An unknown key's value must still be well-formed JSON.
    let bad = r#"{"zz":[1,],"id":7,"inner":{"n":1,"tag":null},"ratio":0.5}"#;
    assert!(from_str::<Outer>(bad).is_err());
}

#[test]
fn unknown_nested_keys_in_a_wire_request_are_skipped() {
    let request = WireRequest::Query {
        request: fixed_query(),
    };
    let line = encode_request(&request);
    assert_eq!(line.matches("\"learner\":{").count(), 1);
    let padded = line.replacen(
        "\"learner\":{",
        "\"learner\":{\"retired\":{\"knob\":[1,{\"x\":null}],\"on\":true},",
        1,
    );
    let decoded = decode_request(&padded).unwrap();
    assert_eq!(encode_request(&decoded), line);
}

#[test]
fn a_repeated_field_keeps_its_last_value() {
    let text = r#"{"id":1,"inner":{"n":1,"tag":"a","n":2},"ratio":0.5,"id":9}"#;
    let back: Outer = from_str(text).unwrap();
    assert_eq!(back.id, 9);
    assert_eq!(back.inner.n, 2);
    assert_eq!(back.inner.tag.as_deref(), Some("a"));
}

#[test]
fn integral_floats_fill_integer_fields() {
    let text = r#"{"id":1e3,"inner":{"n":2.0,"tag":null},"ratio":3,"extra":[-4.0]}"#;
    let back: Outer = from_str(text).unwrap();
    assert_eq!((back.id, back.inner.n, back.ratio), (1000, 2, 3.0));
    assert_eq!(back.extra, vec![-4]);
    assert_eq!(from_str::<i32>("-2.0").unwrap(), -2);
    assert_eq!(from_str::<u64>("0.0").unwrap(), 0);
    for bad in ["2.5", "-1", "1e-1", "4294967296"] {
        assert!(from_str::<u32>(bad).is_err(), "{bad} decoded into u32");
    }
}

#[test]
fn a_missing_option_field_is_an_error() {
    let e = from_str::<Outer>(r#"{"id":1,"inner":{"n":1},"ratio":0.5}"#).unwrap_err();
    assert!(e.to_string().contains("missing field `tag`"), "{e}");
    // A `#[serde(default)]` field may be absent.
    let back: Outer = from_str(r#"{"id":1,"inner":{"n":1,"tag":null},"ratio":0.5}"#).unwrap();
    assert_eq!(back, outer(1, 1));
}

#[test]
fn torn_text_and_trailing_characters_are_errors() {
    let mut value = outer(3, 4);
    value.inner.tag = Some("t\"ag".into());
    value.extra = vec![-1, 2];
    let text = to_string(&value).unwrap();
    for end in 0..text.len() {
        assert!(from_str::<Outer>(&text[..end]).is_err(), "{}", &text[..end]);
        assert!(from_str::<Value>(&text[..end]).is_err(), "{}", &text[..end]);
    }
    for tail in ["x", " {}", ",", "]", "}", " 1"] {
        let long = format!("{text}{tail}");
        assert!(from_str::<Outer>(&long).is_err(), "{long}");
        assert!(from_str::<Value>(&long).is_err(), "{long}");
    }
    assert_eq!(from_str::<Outer>(&format!(" {text} \n")).unwrap(), value);
}

#[test]
fn enums_are_a_name_or_a_single_entry_object() {
    assert_eq!(from_str::<Op>(r#""Ping""#).unwrap(), Op::Ping);
    assert_eq!(
        from_str::<Op>(r#"{"Put":{"key":"k"}}"#).unwrap(),
        Op::Put { key: "k".into() }
    );
    assert_eq!(from_str::<Op>(r#"{"Pair":[1,2]}"#).unwrap(), Op::Pair(1, 2));
    assert_eq!(
        from_str::<Op>(r#"{"Wrap":{"n":5,"tag":"x"}}"#).unwrap(),
        Op::Wrap(Inner {
            n: 5,
            tag: Some("x".into())
        })
    );
    for bad in [
        r#""Put""#,
        r#""Nope""#,
        r#"{"Ping":null}"#,
        r#"{"Nope":1}"#,
        r#"{}"#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,2,3]}"#,
        r#"{"Put":{"key":"a"},"Pair":[1,2]}"#,
        "null",
        "[]",
    ] {
        assert!(from_str::<Op>(bad).is_err(), "accepted {bad}");
    }
}

/// An enum object naming its variant twice is rejected, not collapsed
/// to its last entry.
#[test]
fn an_enum_object_with_a_repeated_variant_is_rejected() {
    assert!(from_str::<Op>(r#"{"Put":{"key":"a"},"Put":{"key":"b"}}"#).is_err());
    let line = encode_request(&WireRequest::Query {
        request: fixed_query(),
    });
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap();
    let doubled = format!("{{{inner},{inner}}}");
    assert!(decode_request(&line).is_ok());
    assert!(decode_request(&doubled).is_err(), "accepted {doubled}");
}

fn fixed_query() -> QueryRequest {
    QueryRequest {
        dataset: DatasetConfig::tiny(),
        config: AcclaimConfig::new(FeatureSpace::tiny()),
        collective: Collective::Allreduce,
        point: Point::new(4, 2, 65536),
    }
}

/// The knobs a random request varies.
#[derive(Debug, Clone)]
struct QueryAxes {
    dataset: usize,
    dataset_seed: u64,
    learner: usize,
    learner_seed: u64,
    nonp2_every: Option<usize>,
    explore_every: Option<usize>,
    criterion: usize,
    parallel: bool,
    collective: usize,
    nodes: Vec<u32>,
    ppns: Vec<u32>,
    msg_sizes: Vec<u64>,
    fraction: f64,
    point: (u32, u32, u64),
}

fn query_axes() -> impl Strategy<Value = QueryAxes> {
    (
        (0usize..3, 0u64..u64::MAX, 0usize..3, 0u64..u64::MAX),
        (0usize..12, 0usize..12, 0usize..3, 0u32..2),
        (
            vec(1u32..4096, 1..6),
            vec(1u32..128, 1..4),
            vec(1u64..u64::MAX, 1..8),
        ),
        (
            0usize..64,
            1e-12f64..1.0,
            (1u32..1 << 20, 1u32..1 << 10, 1u64..u64::MAX),
        ),
    )
        .prop_map(
            |(
                (dataset, dataset_seed, learner, learner_seed),
                (nonp2, explore, criterion, parallel),
                (nodes, ppns, msg_sizes),
                (collective, fraction, point),
            )| QueryAxes {
                dataset,
                dataset_seed,
                learner,
                learner_seed,
                nonp2_every: nonp2.checked_sub(2),
                explore_every: explore.checked_sub(2),
                criterion,
                parallel: parallel == 1,
                collective,
                nodes,
                ppns,
                msg_sizes,
                fraction,
                point,
            },
        )
}

fn query_request(axes: QueryAxes) -> QueryRequest {
    let mut dataset = match axes.dataset {
        0 => DatasetConfig::tiny(),
        1 => DatasetConfig::simulation(),
        _ => DatasetConfig::production(),
    };
    dataset.seed = axes.dataset_seed;
    let space = FeatureSpace::new(axes.nodes, axes.ppns, axes.msg_sizes);
    let mut config = AcclaimConfig::new(space);
    config.learner = match axes.learner {
        0 => LearnerConfig::acclaim(),
        1 => LearnerConfig::acclaim_sequential(),
        _ => LearnerConfig::fact(),
    };
    config.learner.seed = axes.learner_seed;
    config.learner.nonp2_every = axes.nonp2_every;
    config.learner.explore_every = axes.explore_every;
    config.learner.strategy = match axes.parallel {
        true => CollectionStrategy::Parallel,
        false => CollectionStrategy::Sequential,
    };
    config.learner.criterion = match axes.criterion {
        0 => CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, axes.fraction)),
        1 => CriterionConfig::TestSlowdown {
            threshold: SlowdownThreshold::paper_default(),
            test_fraction: axes.fraction,
        },
        _ => CriterionConfig::MaxPoints(axes.collective),
    };
    if axes.dataset_seed & 1 == 1 {
        config.learner.policy = SelectionPolicy::Random;
    }
    let (nodes, ppn, msg_bytes) = axes.point;
    QueryRequest {
        dataset,
        config,
        collective: Collective::ALL[axes.collective % Collective::ALL.len()],
        point: Point::new(nodes.max(1), ppn.max(1), msg_bytes.max(1)),
    }
}

fn round_trips_byte_for_byte(request: WireRequest) {
    let line = encode_request(&request);
    let decoded = decode_request(&line).unwrap();
    assert_eq!(encode_request(&decoded), line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_query_requests_round_trip_byte_for_byte(axes in query_axes()) {
        let request = query_request(axes.clone());
        round_trips_byte_for_byte(WireRequest::Observe {
            request: request.clone(),
            algorithm: format!("algo\"{}\u{1F600}", axes.collective),
            observed_us: axes.fraction * 1e6,
        });
        round_trips_byte_for_byte(WireRequest::Query { request });
    }

    #[test]
    fn random_tune_requests_round_trip_byte_for_byte(
        axes in query_axes(),
        picks in vec(0usize..64, 0..6),
    ) {
        let QueryRequest { dataset, config, .. } = query_request(axes.clone());
        let priority = [Priority::Low, Priority::Normal, Priority::High][axes.collective % 3];
        let collectives = picks
            .iter()
            .map(|&i| Collective::ALL[i % Collective::ALL.len()])
            .collect();
        round_trips_byte_for_byte(WireRequest::Tune {
            request: TuneRequest {
                dataset,
                config,
                collectives,
                priority,
            },
        });
    }
}
