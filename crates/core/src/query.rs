//! Query projection and cosine ranking.
//!
//! Eq. 6 of the paper: a query is "a vector of words ... multiplied by
//! the appropriate term weights", projected as `q̂ = qᵀ U_k Σ_k⁻¹`, then
//! "compared to all existing document vectors, and the documents ranked
//! by their similarity (nearness) to the query. One common measure of
//! similarity is the cosine ... Typically the z closest documents or all
//! documents exceeding some cosine threshold are returned."

use std::cmp::Ordering;
use std::sync::Arc;

use lsi_linalg::ops;
use rayon::prelude::*;

use crate::batch::{BatchQuery, QueryBatch};
use crate::index::IndexPolicy;
use crate::model::LsiModel;
use crate::plan::{single, Request};
use crate::querylog::{self, QueryLog};
use crate::{Error, Result};

/// One retrieved document.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Row index in `V_k`.
    pub doc: usize,
    /// Document id (shared with the model — cloning a match is cheap).
    pub id: Arc<str>,
    /// Cosine similarity to the query.
    pub cosine: f64,
}

/// A ranked retrieval result.
#[derive(Debug, Clone, Default)]
pub struct RankedList {
    /// Matches, best first.
    pub matches: Vec<Match>,
}

impl RankedList {
    /// Keep only matches with cosine at or above `threshold` (the
    /// paper's Figure 6 uses 0.85, Table 4 uses 0.40).
    pub fn at_threshold(&self, threshold: f64) -> RankedList {
        RankedList {
            matches: self
                .matches
                .iter()
                .filter(|m| m.cosine >= threshold)
                .cloned()
                .collect(),
        }
    }

    /// Keep the top `z` matches.
    pub fn top(&self, z: usize) -> RankedList {
        RankedList {
            matches: self.matches.iter().take(z).cloned().collect(),
        }
    }

    /// Document ids in rank order.
    pub fn ids(&self) -> Vec<&str> {
        self.matches.iter().map(|m| m.id.as_ref()).collect()
    }

    /// Rank position (0-based) of a document id, if present.
    pub fn rank_of(&self, id: &str) -> Option<usize> {
        self.matches.iter().position(|m| m.id.as_ref() == id)
    }
}

/// Descending by score, ties broken by ascending document index — the
/// full-ranking order, the same one every top-`z` selection keys on.
pub(crate) fn by_score_desc(scores: &[f64]) -> impl Fn(&usize, &usize) -> Ordering + '_ {
    // `unwrap_or(Equal)` instead of `expect`: scores are guarded at the
    // sweep boundary, but a comparator must never panic — a NaN
    // that slips through degrades the ordering, not the process.
    move |&a: &usize, &b: &usize| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.cmp(&b))
    }
}

impl LsiModel {
    /// Weight a raw term-count vector and project it into the factor
    /// space: `q̂ = qᵀ U_k Σ_k⁻¹` (Eq. 6). The counts must be over the
    /// model's *SVD-derived* term rows (folded-in terms participate via
    /// their rows of `U` as well — the vector length must equal
    /// [`LsiModel::n_terms`]).
    pub fn project_counts(&self, counts: &[f64]) -> Result<Vec<f64>> {
        if counts.len() != self.n_terms() {
            return Err(Error::Inconsistent {
                context: format!(
                    "query vector has {} entries but the model indexes {} terms",
                    counts.len(),
                    self.n_terms()
                ),
            });
        }
        lsi_obs::add_flops((2 * self.k() + 2) as f64 * counts.len() as f64);
        // Weight: local transform on counts, stored global weights.
        // Folded-in terms (if any) carry global weight 1.
        let mut weighted = Vec::with_capacity(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            let g = self.global_weights.get(i).copied().unwrap_or(1.0);
            weighted.push(self.weighting.local.apply(c) * g);
        }
        // q^T U_k (k independent vocabulary-length dots — matvec_t
        // splits them across the pool for large vocabularies), then
        // divide by sigma.
        let mut qhat = ops::matvec_t(&self.u, &weighted)?;
        for (q, &s) in qhat.iter_mut().zip(self.s.iter()) {
            if s > 0.0 {
                *q /= s;
            }
        }
        Ok(qhat)
    }

    /// Tokenize `text` against the vocabulary — including terms added
    /// later by folding-in or SVD-updating — and project it (Eq. 6).
    pub fn project_text(&self, text: &str) -> Result<Vec<f64>> {
        let mut counts = self.vocab.count_vector(text);
        counts.resize(self.n_terms(), 0.0);
        if !self.folded_terms.is_empty() {
            for tok in lsi_text::tokenize(text) {
                if self.vocab.index_of(&tok).is_none() {
                    if let Some(p) = self.folded_terms.iter().position(|t| *t == tok) {
                        counts[self.vocab.len() + p] += 1.0;
                    }
                }
            }
        }
        self.project_counts(&counts)
    }

    pub(crate) fn make_match(&self, j: usize, cosine: f64) -> Match {
        Match {
            doc: j,
            id: self.doc_ids[j].clone(),
            cosine,
        }
    }

    /// Rank all documents by cosine to the projected query vector.
    pub fn rank_projected(&self, qhat: &[f64]) -> Result<RankedList> {
        let scores = self.cosines_all(&[qhat])?;
        Ok(self.rank_all(&scores))
    }

    /// Every document, ranked by `scores` (one per document).
    pub(crate) fn rank_all(&self, scores: &[f64]) -> RankedList {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(by_score_desc(scores));
        self.ranked(order.into_iter().map(|j| (j, scores[j])))
    }

    /// The `z` best documents for a projected query, without sorting
    /// the full collection. "Typically the z closest documents ... are
    /// returned" — this is the entry point for that typical case. It
    /// runs the scoring plan (`crate::plan`): under a reduced
    /// [`crate::Precision`] a compressed sweep, an exact f64 re-rank of
    /// the `max(4z, 64)` over-fetched candidates and, for f32, a margin
    /// certificate that keeps the answer bit-identical to the exact
    /// scan (falling back to it when certification fails); under a
    /// pruned [`IndexPolicy`] the same stages over the probed
    /// lists' survivors.
    pub fn rank_projected_top(&self, qhat: &[f64], z: usize) -> Result<RankedList> {
        let mut req = Request::top(qhat, z, QueryLog::off());
        single(self.rank_top(std::slice::from_mut(&mut req), self.index_policy))
    }

    /// Query by free text: project and rank.
    pub fn query(&self, text: &str) -> Result<RankedList> {
        let _span = lsi_obs::span("query");
        let mut qlog = QueryLog::begin("full", None);
        qlog.num("n_docs", self.n_docs() as f64);
        let t0 = std::time::Instant::now();
        let t_proj = querylog::timer();
        let qhat = self.project_text(text)?;
        qlog.done(t_proj, "project_us");
        qlog.str("path", "full");
        let ranked = self.rank_projected(&qhat)?;
        lsi_obs::count("query.count", 1);
        lsi_obs::observe("query.time.us", t0.elapsed().as_secs_f64() * 1e6);
        qlog.finish(&ranked);
        Ok(ranked)
    }

    /// Query by free text, returning only the top `z` documents
    /// (partition + partial sort instead of a full ranking).
    pub fn query_top(&self, text: &str, z: usize) -> Result<RankedList> {
        self.query_top_with(text, z, None)
    }

    /// [`LsiModel::query_top`] with a per-call probe-depth override:
    /// `Some(n)` routes through the trained cluster index at depth `n`
    /// regardless of the persisted [`IndexPolicy`] (the serve
    /// degradation ladder narrows retrieval without mutating the
    /// model), `None` follows the policy. An override with no trained
    /// index falls through to the policy path — [`LsiModel::train_index`]
    /// prepares the index up front.
    pub fn query_top_with(
        &self,
        text: &str,
        z: usize,
        nprobe_override: Option<usize>,
    ) -> Result<RankedList> {
        let queries = vec![BatchQuery {
            text: text.to_string(),
            z,
            ctx: None,
        }];
        single(self.query_top_batch(QueryBatch {
            queries,
            policy: nprobe_override.map(|nprobe| IndexPolicy::Pruned { nprobe }),
        }))
    }

    /// Rank documents against an existing *document* (query-by-example;
    /// relevance feedback replaces the query with relevant documents'
    /// vectors, §5.1).
    pub fn query_by_doc(&self, doc: usize) -> Result<RankedList> {
        let _span = lsi_obs::span("query");
        lsi_obs::count("query.count", 1);
        if doc >= self.n_docs() {
            return Err(Error::Inconsistent {
                context: format!("document {doc} out of range ({} docs)", self.n_docs()),
            });
        }
        let mut qlog = QueryLog::begin("doc", None);
        qlog.num("n_docs", self.n_docs() as f64);
        qlog.str("path", "full");
        // One contiguous copy of the (strided) document row, as the
        // GEMV operand — the per-row scoring itself is allocation-free.
        let qhat = self.doc_row(doc).to_vec();
        let ranked = self.rank_projected(&qhat)?;
        qlog.finish(&ranked);
        Ok(ranked)
    }

    /// Rank the model's *terms* by cosine to the projected vector —
    /// "there is no reason that similar terms could not be returned"
    /// (§5.4, automatic thesaurus).
    pub fn nearest_terms(&self, qhat: &[f64], z: usize) -> Result<Vec<(usize, String, f64)>> {
        if qhat.len() != self.k() {
            return Err(Error::Inconsistent {
                context: "projected vector dimension mismatch".to_string(),
            });
        }
        // One cosine per term row of U — independent, so split across
        // the pool (the thesaurus sweep touches every vocabulary term).
        let mut scored: Vec<(usize, String, f64)> = (0..self.n_terms())
            .into_par_iter()
            .map(|i| {
                let name = if i < self.vocab.len() {
                    self.vocab.term(i).to_string()
                } else {
                    self.folded_terms[i - self.vocab.len()].clone()
                };
                (i, name, self.u.row_view(i).cosine_slice(qhat))
            })
            .collect();
        scored.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(z);
        Ok(scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LsiOptions;
    use lsi_text::{Corpus, ParsingRules, TermWeighting};

    fn model() -> LsiModel {
        let corpus = Corpus::from_pairs([
            ("cars1", "car engine wheel motor car"),
            ("cars2", "automobile engine motor chassis"),
            ("cars3", "car automobile driver wheel"),
            ("zoo1", "elephant lion zebra elephant"),
            ("zoo2", "lion zebra giraffe elephant"),
            ("zoo3", "zebra giraffe lion safari"),
        ]);
        let options = LsiOptions {
            k: 2,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 3,
        };
        LsiModel::build(&corpus, &options).unwrap().0
    }

    #[test]
    fn query_retrieves_topically_related_docs_first() {
        let m = model();
        let ranked = m.query("car motor").unwrap();
        let top3: Vec<&str> = ranked.ids().into_iter().take(3).collect();
        for id in ["cars1", "cars2", "cars3"] {
            assert!(top3.contains(&id), "expected {id} in top 3, got {top3:?}");
        }
    }

    #[test]
    fn synonymy_bridged_without_shared_words() {
        // Query "automobile" should rank cars1 (which never contains
        // the word "automobile") above all zoo documents.
        let m = model();
        let ranked = m.query("automobile").unwrap();
        let cars1 = ranked.rank_of("cars1").unwrap();
        for zoo in ["zoo1", "zoo2", "zoo3"] {
            assert!(
                cars1 < ranked.rank_of(zoo).unwrap(),
                "cars1 should outrank {zoo}"
            );
        }
    }

    #[test]
    fn threshold_and_top_filtering() {
        let m = model();
        let ranked = m.query("elephant lion").unwrap();
        let all = ranked.matches.len();
        assert_eq!(all, 6);
        assert_eq!(ranked.top(2).matches.len(), 2);
        let high = ranked.at_threshold(0.9);
        assert!(high.matches.len() < all);
        for mt in &high.matches {
            assert!(mt.cosine >= 0.9);
        }
    }

    #[test]
    fn ranked_list_is_sorted_descending() {
        let m = model();
        let ranked = m.query("zebra").unwrap();
        for w in ranked.matches.windows(2) {
            assert!(w[0].cosine >= w[1].cosine);
        }
    }

    #[test]
    fn query_by_doc_returns_self_first() {
        let m = model();
        let ranked = m.query_by_doc(0).unwrap();
        assert_eq!(ranked.matches[0].doc, 0);
        assert!((ranked.matches[0].cosine - 1.0).abs() < 1e-9);
        assert!(m.query_by_doc(99).is_err());
    }

    #[test]
    fn unknown_words_yield_zero_projection() {
        let m = model();
        let qhat = m.project_text("xylophone quux").unwrap();
        assert!(qhat.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn projection_dimension_checks() {
        let m = model();
        assert!(m.project_counts(&[1.0]).is_err());
        assert!(m.rank_projected(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn nearest_terms_finds_cohyponyms() {
        let m = model();
        let qhat = m.project_text("elephant").unwrap();
        let terms = m.nearest_terms(&qhat, 4).unwrap();
        let names: Vec<&str> = terms.iter().map(|(_, n, _)| n.as_str()).collect();
        assert!(names.contains(&"elephant"));
        // Its neighbours are zoo words, not car words.
        for n in &names {
            assert!(
                !["car", "engine", "motor", "wheel", "automobile", "chassis", "driver"]
                    .contains(n),
                "unexpected car-domain term {n} near elephant"
            );
        }
    }

    #[test]
    fn top_z_selection_matches_full_ranking() {
        // The select_nth fast path must return exactly the head of the
        // fully sorted list — same docs, same cosines, same order.
        let m = model();
        let qhat = m.project_text("car lion").unwrap();
        let full = m.rank_projected(&qhat).unwrap();
        for z in [1usize, 3, 6, 10] {
            let top = m.rank_projected_top(&qhat, z).unwrap();
            assert_eq!(top.matches.len(), z.min(full.matches.len()));
            for (a, b) in top.matches.iter().zip(full.matches.iter()) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.cosine, b.cosine);
            }
        }
    }

    #[test]
    fn scoring_is_bit_reproducible_across_repeats() {
        // Scoring runs on the pool (GEMV row spans, projection column
        // dots); the determinism contract says repeated queries return
        // identical bits no matter how the spans are scheduled.
        let m = model();
        let first = m.query("automobile engine").unwrap();
        for _ in 0..10 {
            let again = m.query("automobile engine").unwrap();
            assert_eq!(first.matches.len(), again.matches.len());
            for (a, b) in first.matches.iter().zip(again.matches.iter()) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.cosine, b.cosine);
            }
        }
    }

    #[test]
    fn pruned_at_full_probe_depth_is_bit_identical_to_exact() {
        use crate::Precision;
        for precision in [Precision::Exact, Precision::F32, Precision::I8] {
            let mut m = model();
            m.set_precision(precision);
            let qhat = m.project_text("car lion").unwrap();
            let exact = m.rank_projected_top(&qhat, 4).unwrap();
            m.set_index_policy(IndexPolicy::Pruned {
                nprobe: m.index_n_lists().unwrap_or(0).max(1),
            })
            .unwrap();
            // nprobe above n_lists clamps; every doc survives.
            m.set_index_policy(IndexPolicy::Pruned { nprobe: 999 }).unwrap();
            let pruned = m.rank_projected_top(&qhat, 4).unwrap();
            assert_eq!(pruned.matches.len(), exact.matches.len());
            for (a, b) in pruned.matches.iter().zip(exact.matches.iter()) {
                assert_eq!(a.doc, b.doc, "precision {precision:?}");
                assert_eq!(
                    a.cosine.to_bits(),
                    b.cosine.to_bits(),
                    "precision {precision:?} doc {}",
                    a.doc
                );
            }
        }
    }

    #[test]
    fn pruned_matches_carry_exact_scores_and_rank_consistently() {
        let mut m = model();
        let qhat = m.project_text("zebra giraffe").unwrap();
        let full = m.rank_projected(&qhat).unwrap();
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 1 }).unwrap();
        let pruned = m.rank_projected_top(&qhat, 3).unwrap();
        assert!(!pruned.matches.is_empty());
        // Every pruned match's cosine is the exact f64 cosine for that
        // doc, and pruned order respects the full ranking's order.
        for w in pruned.matches.windows(2) {
            assert!(w[0].cosine >= w[1].cosine);
        }
        for mt in &pruned.matches {
            let exact = full
                .matches
                .iter()
                .find(|f| f.doc == mt.doc)
                .expect("pruned doc exists");
            assert_eq!(mt.cosine.to_bits(), exact.cosine.to_bits());
        }
    }

    #[test]
    fn exact_policy_ignores_the_index_machinery() {
        let mut m = model();
        let qhat = m.project_text("engine").unwrap();
        let before = m.rank_projected_top(&qhat, 3).unwrap();
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 2 }).unwrap();
        m.set_index_policy(IndexPolicy::Exact).unwrap();
        let after = m.rank_projected_top(&qhat, 3).unwrap();
        for (a, b) in after.matches.iter().zip(before.matches.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.cosine.to_bits(), b.cosine.to_bits());
        }
    }

    #[test]
    fn rank_of_and_ids_agree() {
        let m = model();
        let ranked = m.query("giraffe").unwrap();
        let ids = ranked.ids();
        for (pos, id) in ids.iter().enumerate() {
            assert_eq!(ranked.rank_of(id), Some(pos));
        }
        assert_eq!(ranked.rank_of("missing"), None);
    }
}
