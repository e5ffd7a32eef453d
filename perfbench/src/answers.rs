//! In-process ground truth: the same database file loaded with
//! `lsi-core`, and the checks that compare the program's answers to it.

use std::path::Path;

use lsi_core::{IndexPolicy, LsiModel, Precision, RankedList};
use lsi_obs::Json;

/// Top-`z` answer: `(doc id, cosine)` in rank order.
pub type Answer = Vec<(String, f64)>;

pub fn to_answer(ranked: &RankedList) -> Answer {
    ranked
        .matches
        .iter()
        .map(|m| (m.id.to_string(), m.cosine))
        .collect()
}

/// Read and parse a database file, as `lsi` does.
pub fn load(db: &Path) -> Result<LsiModel, String> {
    let text = std::fs::read_to_string(db).map_err(|e| format!("read {}: {e}", db.display()))?;
    LsiModel::from_json(&text).map_err(|e| format!("load {}: {e}", db.display()))
}

/// `query_top` for every query, under the model's own settings.
pub fn answers(model: &LsiModel, queries: &[String], z: usize) -> Result<Vec<Answer>, String> {
    queries
        .iter()
        .map(|q| {
            model
                .query_top(q, z)
                .map(|r| to_answer(&r))
                .map_err(|e| format!("in-process query_top({q:?}): {e}"))
        })
        .collect()
}

/// Switch `model` to the exact f64 scan (no index, no compressed
/// store): the ground truth recall is measured against.
pub fn make_exact(model: &mut LsiModel) -> Result<(), String> {
    model
        .set_index_policy(IndexPolicy::Exact)
        .map_err(|e| format!("exact policy: {e}"))?;
    model.set_precision(Precision::Exact);
    Ok(())
}

/// Parse a `/query` reply body into an answer.
pub fn parse_served(body: &[u8]) -> Option<Answer> {
    let doc = lsi_obs::parse_json(std::str::from_utf8(body).ok()?).ok()?;
    let Some(Json::Arr(results)) = doc.get("results") else {
        return None;
    };
    results
        .iter()
        .map(|r| {
            Some((
                r.get("id")?.as_str()?.to_string(),
                r.get("score")?.as_f64()?,
            ))
        })
        .collect()
}

/// Largest cosine difference two answers may show and still agree.
/// The daemon may score a query inside a coalesced GEMM while
/// `query_top` runs a GEMV; the two sum the k products in different
/// orders, which moves the last few bits of a cosine (about 1e-15 at
/// k = 128). A different id or rank, or a larger difference, is a
/// wrong answer.
pub const SCORE_TOLERANCE: f64 = 1e-12;

/// How `got` compares with `want`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Same ids in the same order, identical score bits.
    Bitwise,
    /// Same ids in the same order, scores within [`SCORE_TOLERANCE`].
    WithinTolerance,
    Different,
}

pub fn compare(got: &Answer, want: &Answer) -> Agreement {
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| g.0 != w.0) {
        return Agreement::Different;
    }
    let mut bitwise = true;
    for ((_, g), (_, w)) in got.iter().zip(want) {
        if (g - w).abs() > SCORE_TOLERANCE {
            return Agreement::Different;
        }
        bitwise &= g.to_bits() == w.to_bits();
    }
    if bitwise {
        Agreement::Bitwise
    } else {
        Agreement::WithinTolerance
    }
}

/// `lsi query` stdout for an answer (`{cosine:.4}\t{id}` per line).
pub fn cli_text(a: &Answer) -> String {
    if a.is_empty() {
        return "(no documents matched)\n".into();
    }
    a.iter().map(|(id, s)| format!("{s:.4}\t{id}\n")).collect()
}

/// Share of `exact`'s ids that `got` contains.
pub fn recall(got: &Answer, exact: &Answer) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact
        .iter()
        .filter(|(id, _)| got.iter().any(|(g, _)| g == id))
        .count();
    hit as f64 / exact.len() as f64
}
