//! The scoring plan's equivalence contract at a size that reaches the
//! packed GEMM: a coalesced batch, and a multi-facet query, return
//! exactly — ids, order and cosine bits — what their single-query
//! references return.
//!
//! Both hold only if the per-query GEMV performs exactly the coalesced
//! `V Q̂` GEMM's operations for every element once the operands are
//! large enough to be packed and tiled (a few-document model never gets
//! there), and the f32 path's exact re-rank does the same.

use lsi_core::{BatchQuery, Combine, LsiModel, LsiOptions, MultiQuery, Precision, RankedList};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

const N_DOCS: usize = 4000;
const K: usize = 64;
const N_QUERIES: usize = 16;
const THEMES: usize = 24;
const WORDS_PER_THEME: usize = 16;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn word(theme: usize, w: usize) -> String {
    format!("t{theme}w{w}")
}

/// Documents mixing a primary and a secondary theme, words drawn with a
/// skew toward each theme's first words, so scores spread out rather
/// than collapsing onto theme centroids.
fn corpus() -> Corpus {
    let mut state = 0x5EED_CAFE_F00Du64;
    let docs = (0..N_DOCS)
        .map(|i| {
            let primary = (xorshift(&mut state) % THEMES as u64) as usize;
            let secondary = (xorshift(&mut state) % THEMES as u64) as usize;
            let len = 12 + (xorshift(&mut state) % 12) as usize;
            let words: Vec<String> = (0..len)
                .map(|_| {
                    let theme = if xorshift(&mut state) & 3 == 0 {
                        secondary
                    } else {
                        primary
                    };
                    let a = xorshift(&mut state) % WORDS_PER_THEME as u64;
                    let b = xorshift(&mut state) % WORDS_PER_THEME as u64;
                    word(theme, a.min(b) as usize)
                })
                .collect();
            Document::new(format!("d{i}"), words.join(" "))
        })
        .collect();
    Corpus { docs }
}

fn model() -> LsiModel {
    let options = LsiOptions {
        k: K,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: 11,
    };
    LsiModel::build(&corpus(), &options).unwrap().0
}

fn queries() -> Vec<String> {
    let mut state = 0xBADD_F00D_1234u64;
    (0..N_QUERIES)
        .map(|_| {
            let len = 2 + (xorshift(&mut state) % 5) as usize;
            (0..len)
                .map(|_| {
                    let theme = (xorshift(&mut state) % THEMES as u64) as usize;
                    word(
                        theme,
                        (xorshift(&mut state) % WORDS_PER_THEME as u64) as usize,
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn assert_bitwise(got: &RankedList, want: &RankedList, ctx: &str) {
    assert_eq!(got.matches.len(), want.matches.len(), "{ctx}");
    for (a, b) in got.matches.iter().zip(&want.matches) {
        assert_eq!(a.doc, b.doc, "{ctx}");
        assert_eq!(
            a.cosine.to_bits(),
            b.cosine.to_bits(),
            "{ctx}: doc {}",
            a.doc
        );
    }
}

#[test]
fn coalesced_batch_equals_per_query_top_bitwise() {
    let m = model();
    assert_eq!((m.n_docs(), m.k()), (N_DOCS, K));
    let texts = queries();
    let batch: Vec<BatchQuery> = texts
        .iter()
        .map(|t| BatchQuery {
            text: t.clone(),
            z: 10,
            ctx: None,
        })
        .collect();
    let got = m.query_top_batch(batch);
    assert_eq!(got.len(), texts.len());
    for (text, r) in texts.iter().zip(got) {
        let solo = m.query_top(text, 10).unwrap();
        assert_bitwise(&r.unwrap(), &solo, text);
    }
}

#[test]
fn exact_multi_facet_top_equals_f32_bitwise() {
    let exact = model();
    let mut f32_model = exact.clone();
    f32_model.set_precision(Precision::F32);
    let texts = queries();
    for pair in texts.chunks(2) {
        let facets: Vec<&str> = pair.iter().map(String::as_str).collect();
        let q = MultiQuery::from_texts(&exact, &facets).unwrap();
        for combine in [
            Combine::Max,
            Combine::Mean,
            Combine::Density { sharpness: 4.0 },
        ] {
            let want = exact.query_multi_top(&q, combine, 10).unwrap();
            let got = f32_model.query_multi_top(&q, combine, 10).unwrap();
            assert_bitwise(&got, &want, &format!("{facets:?} {combine:?}"));
        }
    }
}
