//! The `LSI_QUERY_LOG` record, pinned: field names and the `path`
//! value for every way the scoring plan can serve a top-`z` query.
//!
//! The log sink is chosen once per process from the environment, so
//! this binary holds a single test that arms it before the first query.

use std::collections::BTreeSet;

use lsi_core::{BatchQuery, IndexPolicy, LsiModel, LsiOptions, Precision};
use lsi_obs::Json;
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

const WORDS: [&str; 12] = [
    "apple", "banana", "cherry", "grape", "fig", "kiwi", "lemon", "mango", "olive", "peach",
    "plum", "quince",
];

fn build(corpus: Corpus) -> LsiModel {
    let options = LsiOptions {
        k: 2,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::none(),
        svd_seed: 5,
    };
    LsiModel::build(&corpus, &options).unwrap().0
}

/// 200 documents with spread-out scores: the f32 certificate passes.
fn varied() -> LsiModel {
    let mut state = 0x1234_5678_9ABCu64;
    let docs = (0..200)
        .map(|i| {
            let words: Vec<&str> = (0..6)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    WORDS[(state % WORDS.len() as u64) as usize]
                })
                .collect();
            Document::new(format!("v{i}"), words.join(" "))
        })
        .collect();
    build(Corpus { docs })
}

/// Two groups of 80 identical documents: the top scores tie across
/// more documents than the over-fetch holds, so the f32 certificate
/// must fail.
fn tied() -> LsiModel {
    let docs = (0..160)
        .map(|i| {
            let text = if i % 2 == 0 {
                "apple banana cherry"
            } else {
                "grape fig kiwi"
            };
            Document::new(format!("t{i}"), text)
        })
        .collect();
    build(Corpus { docs })
}

fn record(line: &str) -> (BTreeSet<String>, String) {
    let rec = lsi_obs::parse_json(line).unwrap();
    let Json::Obj(fields) = &rec else {
        panic!("not an object: {line}");
    };
    let path = rec.get("path").and_then(Json::as_str).unwrap().to_string();
    (fields.iter().map(|(k, _)| k.clone()).collect(), path)
}

fn keys(extra: &[&str]) -> BTreeSet<String> {
    let common = [
        "trace_id",
        "kind",
        "n_docs",
        "project_us",
        "sweep_us",
        "precision",
        "z",
        "path",
        "results",
        "top_score",
        "margin",
        "total_us",
    ];
    common.iter().chain(extra).map(|k| k.to_string()).collect()
}

#[test]
fn every_plan_path_writes_its_pinned_record() {
    let dir = std::env::temp_dir().join(format!("lsi-querylog-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("query.jsonl");
    std::env::set_var("LSI_QUERY_LOG", &log);

    let exact = varied();
    let mut compressed = exact.clone();
    compressed.set_precision(Precision::F32);
    let mut pruned = exact.clone();
    pruned
        .set_index_policy(IndexPolicy::Pruned { nprobe: 1 })
        .unwrap();
    let mut tied_f32 = tied();
    tied_f32.set_precision(Precision::F32);
    let mut tied_pruned = tied_f32.clone();
    tied_pruned
        .set_index_policy(IndexPolicy::Pruned { nprobe: 999 })
        .unwrap();

    exact.query_top("apple banana", 5).unwrap();
    compressed.query_top("apple banana", 5).unwrap();
    tied_f32.query_top("apple", 5).unwrap();
    pruned.query_top("apple banana", 5).unwrap();
    tied_pruned.query_top("apple", 5).unwrap();
    let batch = ["apple banana", "grape fig"]
        .iter()
        .map(|t| BatchQuery {
            text: t.to_string(),
            z: 5,
            ctx: None,
        })
        .collect::<Vec<_>>();
    for r in exact.query_top_batch(batch) {
        r.unwrap();
    }

    let text = std::fs::read_to_string(&log).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let records: Vec<(BTreeSet<String>, String)> = text.lines().map(record).collect();
    let probe = ["nprobe", "probe_us", "lists_probed", "survivors"];
    let want: Vec<(BTreeSet<String>, &str)> = vec![
        (keys(&[]), "exact"),
        (keys(&["candidates", "rerank_us"]), "compressed"),
        (keys(&["candidates", "fallback_us"]), "fallback"),
        (keys(&probe), "pruned"),
        (
            keys(&[&probe[..], &["candidates", "fallback_us"]].concat()),
            "fallback",
        ),
        (keys(&["batch"]), "batch"),
        (keys(&["batch"]), "batch"),
    ];
    assert_eq!(records.len(), want.len(), "{text}");
    for ((got_keys, got_path), (want_keys, want_path)) in records.iter().zip(&want) {
        assert_eq!(got_path, want_path, "{text}");
        assert_eq!(got_keys, want_keys, "path {got_path}: {text}");
    }
}
