//! The scoring plan: the one staged pipeline behind every top-`z`
//! entry point.
//!
//! Eq. 6 is a single operation — project the query, take the cosine
//! against every document vector, return "the z closest documents" —
//! and every way of serving it runs the same stages:
//!
//! 1. **Candidates** — every document ([`Candidates::All`]), or the
//!    survivors of the cluster index's probed lists
//!    ([`Candidates::Rows`], DESIGN.md §3h).
//! 2. **Sweep** — one [`Sweep`] of the candidates against every facet
//!    of every request in the plan: the *reference* f64 sweep — a GEMV
//!    for one column, the coalesced GEMM for a batch or several facets,
//!    the same per-element operations either way — or the f32/i8
//!    replica (§3f). The `core.query.score` failpoint fires here and
//!    nowhere else.
//! 3. **Over-fetch select** — a reference sweep selects the top-z
//!    directly; otherwise the best `c = max(4z, 64)` candidates. Every
//!    selection keys on (score, doc id).
//! 4. **Margin certificate** — the sweep kind's error bound, scaled by
//!    [`Combine::lipschitz`], marks the over-fetched prefix that can
//!    still hold a top-z document; when it ends inside the over-fetch,
//!    the result is bit-identical to the reference sweep's.
//! 5. **Exact re-rank** — each facet's f64 cosine for that prefix,
//!    through the GEMV's own per-row arithmetic, then the [`Combine`].
//! 6. **Fallback** — when the certificate fails, or the sweep went
//!    non-finite, the reference sweep over the same candidates serves
//!    the request.
//!
//! The path follows from state the model already holds — precision,
//! index policy and trained index, batch size, and the caller's probe
//! override — and every path returns the reference sweep's answer
//! (i8 excepted, which trades the certificate for an eighth of the
//! bytes), so a served score never depends on which other requests
//! shared its batch.

use std::borrow::Cow;

use lsi_linalg::{ops, vecops, DenseMatrix};
use lsi_sparse::nnz_balanced_spans;
use rayon::prelude::*;

use crate::compressed::{
    f32_cosine_error_bound, CompressedStore, OVER_FETCH_FACTOR, OVER_FETCH_FLOOR,
};
use crate::index::{ClusterIndex, IndexPolicy};
use crate::model::LsiModel;
use crate::multiquery::Combine;
use crate::query::RankedList;
use crate::querylog::{self, QueryLog};
use crate::{Error, Result};

/// Order-reversing monotone map from an f64 score to a u64 sort key:
/// ascending key order is descending score order, with every distinct
/// bit pattern (including -0.0 vs +0.0) kept distinct. Branchless —
/// the key build runs once per document per query, and data-dependent
/// branches on scores are unpredictable there (every query is a fresh
/// pattern). Finiteness is guarded before every selection; a NaN that
/// slipped through would rank first, not panic.
#[inline]
pub(crate) fn desc_key_f64(s: f64) -> u64 {
    let b = s.to_bits();
    let mask = ((b as i64) >> 63) as u64;
    !(b ^ (mask | 0x8000_0000_0000_0000))
}

/// Indices of the best `z` of `0..n` under `key_of` (ascending key =
/// better; ties broken by ascending index), sorted best-first. This is
/// the one selection implementation: probe lists, over-fetched
/// candidates and every final top-`z` see identical tie handling.
///
/// The selection runs on plain integer (key, index) pairs via
/// `select_nth_unstable` rather than on an indirect score comparator:
/// branchless partitioning is immune to the branch-predictor misses
/// that dominate comparator-based selection here, where every query
/// presents a fresh, unlearnable comparison pattern (measured ~4x on
/// topic-clustered scores).
///
/// When `z` is much smaller than `n` (the serving case: top-10 of tens
/// of thousands), even one materialized `(key, index)` pair per
/// document costs more than the selection itself, so a bounded-scan
/// path keeps only the best `z` pairs seen so far and compares each new
/// key against the current worst. The replace branch is taken
/// ~`z·ln(n/z)` times in expectation (dozens, not thousands), so it
/// stays predictor-friendly despite being data-dependent. Both paths
/// order by the same `(key, index)` pairs, so results — including tie
/// handling — are identical.
pub(crate) fn select_top_by<K: Ord + Copy>(
    n: usize,
    z: usize,
    key_of: impl Fn(usize) -> K,
) -> Vec<usize> {
    let z = z.min(n);
    if z == 0 {
        return Vec::new();
    }
    // Threshold: the bounded scan's replace step is O(z), so it wins
    // while z stays a sliver of n; past that the partition amortizes
    // better. 1/32 keeps the worst-case replace traffic (n/32 · z)
    // at or under one full keyed materialization.
    if z <= 64 && n >= 32 * z {
        let mut kept: Vec<(K, u32)> = (0..z).map(|i| (key_of(i), i as u32)).collect();
        kept.sort_unstable();
        // `kept` stays sorted ascending; worst kept pair is last.
        for i in z..n {
            let key = key_of(i);
            // Scanning in ascending index order means a tie on key can
            // never displace an earlier index, so strict key comparison
            // against the worst kept pair is exactly pair comparison.
            if key < kept[z - 1].0 {
                let pair = (key, i as u32);
                let pos = kept.partition_point(|&p| p < pair);
                kept.pop();
                kept.insert(pos, pair);
            }
        }
        return kept.into_iter().map(|(_, i)| i as usize).collect();
    }
    let mut keyed: Vec<(K, u32)> = (0..n).map(|i| (key_of(i), i as u32)).collect();
    if z < n {
        keyed.select_nth_unstable(z - 1);
        keyed.truncate(z);
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i as usize).collect()
}

/// The documents a plan scores.
pub(crate) enum Candidates {
    /// Every document: the contiguous kernels, and no id list.
    All,
    /// The survivors of the probed cluster lists, with the pool shards
    /// (`ids[a..b]` per span) balanced over the list sizes.
    Rows {
        /// Document ids, list by list.
        ids: Vec<u32>,
        /// Shard boundaries into `ids`.
        spans: Vec<(usize, usize)>,
    },
}

impl Candidates {
    /// How many documents the sweep scores.
    pub(crate) fn len(&self, n_docs: usize) -> usize {
        match self {
            Candidates::All => n_docs,
            Candidates::Rows { ids, .. } => ids.len(),
        }
    }

    /// Document id at sweep position `pos`.
    fn doc(&self, pos: usize) -> usize {
        match self {
            Candidates::All => pos,
            Candidates::Rows { ids, .. } => ids[pos] as usize,
        }
    }

    /// Sweep positions of the best `z` scores, best first, keyed on
    /// (score, doc id) — for `All` the doc id is the position.
    fn select(&self, scores: &[f64], z: usize) -> Vec<usize> {
        match self {
            Candidates::All => {
                select_top_by(scores.len(), z, |i| (desc_key_f64(scores[i]), i as u32))
            }
            Candidates::Rows { ids, .. } => {
                select_top_by(scores.len(), z, |i| (desc_key_f64(scores[i]), ids[i]))
            }
        }
    }
}

/// Apply `f` to every shard of a survivor list on the pool and
/// concatenate in order. Shard boundaries move with the pool size, but
/// each row is scored by the same per-row arithmetic wherever it lands,
/// so the output is bit-identical across thread counts.
pub(crate) fn over_spans<T: Send>(
    ids: &[u32],
    spans: &[(usize, usize)],
    f: impl Fn(&[u32]) -> Result<Vec<T>> + Sync,
) -> Result<Vec<T>> {
    let parts: Vec<Result<Vec<T>>> = (0..spans.len())
        .into_par_iter()
        .map(|s| f(&ids[spans[s].0..spans[s].1]))
        .collect();
    let mut out = Vec::with_capacity(ids.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

/// The arithmetic of a plan's sweep stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// The reference: f64 cosines through a GEMV for one column and the
    /// coalesced `V Q̂` GEMM for several. `ops::matvec` replays the
    /// GEMM's per-element operations, so a score never depends on how
    /// many columns shared the sweep.
    F64,
    /// The f32 replica.
    F32,
    /// The scaled-i8 replica.
    I8,
}

impl Sweep {
    /// Bound on |sweep cosine − reference cosine| for the certificate;
    /// `None` for the reference itself and for i8, whose quantization
    /// bound would be vacuous.
    fn margin(self, k: usize) -> Option<f64> {
        match self {
            Sweep::F32 => Some(f32_cosine_error_bound(k)),
            Sweep::F64 | Sweep::I8 => None,
        }
    }
}

/// One top-`z` request in a plan: its facet vectors, how they fuse, and
/// its query-log record.
pub(crate) struct Request<'q> {
    pub(crate) facets: Vec<&'q [f64]>,
    pub(crate) combine: Combine,
    pub(crate) z: usize,
    pub(crate) log: QueryLog,
}

impl<'q> Request<'q> {
    /// A single-vector request.
    pub(crate) fn top(qhat: &'q [f64], z: usize, log: QueryLog) -> Request<'q> {
        Request {
            facets: vec![qhat],
            combine: Combine::Max,
            z,
            log,
        }
    }
}

/// The one result of a single-request plan.
pub(crate) fn single(mut results: Vec<Result<RankedList>>) -> Result<RankedList> {
    results.pop().unwrap_or_else(|| {
        Err(Error::Inconsistent {
            context: "scoring plan returned no result".into(),
        })
    })
}

/// `raw / (‖d‖·‖q‖)`, with the zero-norm guard every path shares (a
/// facet with no mass, or a zero document vector, scores 0).
fn cosine(raw: f64, dnorm: f64, qnorm: f64) -> f64 {
    if qnorm > 0.0 && dnorm > 0.0 {
        raw / (dnorm * qnorm)
    } else {
        0.0
    }
}

/// Fuse column-major per-facet scores (`len × nf`) into one score per
/// row; one facet is the identity.
pub(crate) fn fuse(cols: &[f64], nf: usize, combine: Combine) -> Cow<'_, [f64]> {
    if nf == 1 {
        return Cow::Borrowed(cols);
    }
    let len = cols.len() / nf.max(1);
    let mut row = vec![0.0; nf];
    Cow::Owned(
        (0..len)
            .map(|j| {
                for f in 0..nf {
                    row[f] = cols[f * len + j];
                }
                combine.combine(&row)
            })
            .collect(),
    )
}

impl LsiModel {
    /// Serve projected top-`z` requests under `policy` (the persisted
    /// one, or the caller's override). A pruned policy with a trained
    /// index sweeps each request's own probed survivors; otherwise all
    /// requests share one plan over every document. When that shared
    /// sweep fails each request is re-served alone, so a batch is a
    /// scheduling unit, not a failure domain.
    pub(crate) fn rank_top(
        &self,
        reqs: &mut [Request],
        policy: IndexPolicy,
    ) -> Vec<Result<RankedList>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        if let (Some(index), IndexPolicy::Pruned { nprobe }) = (self.index.as_ref(), policy) {
            return reqs
                .iter_mut()
                .map(|req| {
                    let cands = self.probe(index, nprobe, req)?;
                    single(self.run(&cands, std::slice::from_mut(req), false)?)
                })
                .collect();
        }
        match self.run(&Candidates::All, reqs, false) {
            Ok(ranked) => ranked,
            Err(e) if reqs.len() == 1 => vec![Err(e)],
            Err(_) => reqs
                .iter_mut()
                .map(|req| single(self.run(&Candidates::All, std::slice::from_mut(req), false)?))
                .collect(),
        }
    }

    /// Candidate stage for a pruned query: score the ~√n centroids,
    /// keep the `nprobe` best lists, and shard their concatenated
    /// postings across the pool by list size (two spans per worker).
    /// Every selection downstream ties-breaks on doc id, so the
    /// survivor order is invisible in the output. Falls back to
    /// [`Candidates::All`] when the index cannot route the query (stale
    /// factor shape, non-finite centroid scores, empty lists).
    fn probe(&self, index: &ClusterIndex, nprobe: usize, req: &mut Request) -> Result<Candidates> {
        let k = self.k();
        // A multi-facet request has no single probe vector: it sweeps
        // every document.
        let qhat = match req.facets.as_slice() {
            [q] if q.len() == k && k > 0 && self.n_docs() > 0 && index.k() == k => *q,
            _ => return Ok(Candidates::All),
        };
        let n_lists = index.n_lists();
        req.log.num("nprobe", nprobe as f64);
        let t = querylog::timer();
        let cscores = {
            let _span = lsi_obs::span("index.probe");
            // One dot per centroid list, plus the top-`nprobe` pick.
            lsi_obs::add_flops((2 * k + 1) as f64 * n_lists as f64);
            index.centroid_scores(qhat)?
        };
        if !cscores.iter().all(|s| s.is_finite()) {
            return Ok(Candidates::All);
        }
        let mut lists = select_top_by(n_lists, nprobe.max(1), |l| {
            (desc_key_f64(cscores[l]), l as u32)
        });
        // Ascending list order keeps the survivor walk as monotone as
        // the partition allows.
        lists.sort_unstable();
        let mut ids: Vec<u32> = Vec::new();
        let mut indptr = vec![0usize];
        for &l in &lists {
            ids.extend_from_slice(index.list(l));
            indptr.push(ids.len());
        }
        req.log.done(t, "probe_us");
        lsi_obs::count("index.lists.count", lists.len() as u64);
        lsi_obs::count("index.survivors.count", ids.len() as u64);
        req.log.num("lists_probed", lists.len() as f64);
        req.log.num("survivors", ids.len() as f64);
        if ids.is_empty() {
            return Ok(Candidates::All);
        }
        let spans = nnz_balanced_spans(&indptr, rayon::current_num_threads() * 2)
            .into_iter()
            .map(|(l0, l1)| (indptr[l0], indptr[l1]))
            .collect();
        Ok(Candidates::Rows { ids, spans })
    }

    /// Run the plan for `reqs` over `cands`: one sweep for all of them
    /// (the reference sweep when `reference`), then each request's own
    /// select, re-rank, certificate and fallback. The outer `Err` is a
    /// failed shared sweep; the inner results are per request.
    fn run(
        &self,
        cands: &Candidates,
        reqs: &mut [Request],
        reference: bool,
    ) -> Result<Vec<Result<RankedList>>> {
        let facets: Vec<&[f64]> = reqs.iter().flat_map(|r| r.facets.iter().copied()).collect();
        let kind = match (&self.compressed, reference) {
            (Some(CompressedStore::F32 { .. }), false) => Sweep::F32,
            (Some(CompressedStore::I8 { .. }), false) => Sweep::I8,
            _ => Sweep::F64,
        };
        let t = querylog::timer();
        let swept = self.sweep(kind, cands, &facets);
        let m = reqs.len();
        let path = match (cands, kind) {
            (Candidates::Rows { .. }, _) => "pruned",
            _ if m > 1 => "batch",
            (_, Sweep::F32 | Sweep::I8) => "compressed",
            _ => "exact",
        };
        for req in reqs.iter_mut() {
            req.log.done(t, "sweep_us");
            req.log.str("precision", self.precision().name());
            req.log.num("z", req.z as f64);
            req.log.str("path", path);
            if m > 1 {
                req.log.num("batch", m as f64);
            }
        }
        let scores = match swept {
            Ok(scores) => scores,
            Err(Error::NonFinite { .. }) if kind != Sweep::F64 => {
                lsi_obs::warn!(
                    "{kind:?} candidate sweep produced non-finite scores; \
                     falling back to the f64 sweep"
                );
                return Ok(reqs.iter_mut().map(|r| self.fallback(cands, r)).collect());
            }
            Err(e) => return Err(e),
        };
        let len = cands.len(self.n_docs());
        let mut col = 0;
        Ok(reqs
            .iter_mut()
            .map(|req| {
                let nf = req.facets.len();
                let fused = fuse(&scores[col * len..(col + nf) * len], nf, req.combine);
                col += nf;
                if kind == Sweep::F64 {
                    let order = cands.select(&fused, req.z);
                    return Ok(self.ranked(order.into_iter().map(|p| (cands.doc(p), fused[p]))));
                }
                self.rerank(kind, cands, req, &fused)
            })
            .collect())
    }

    /// Sweep stage: the cosine of every candidate against every facet,
    /// column-major (`len × facets.len()`). The one site of the
    /// `core.query.score` failpoint. Non-finite output is a typed
    /// [`Error::NonFinite`]; after an approximate sweep the plan falls
    /// back instead of surfacing it.
    fn sweep(&self, kind: Sweep, cands: &Candidates, facets: &[&[f64]]) -> Result<Vec<f64>> {
        let k = self.k();
        if let Some(f) = facets.iter().find(|f| f.len() != k) {
            return Err(Error::Inconsistent {
                context: format!(
                    "projected query has {} dimensions but the model has {k} factors",
                    f.len()
                ),
            });
        }
        let (n, nf) = (self.n_docs(), facets.len());
        let len = cands.len(n);
        let qnorms: Vec<f64> = facets.iter().map(|f| vecops::nrm2(f)).collect();
        let _span = lsi_obs::span("score.sweep");
        lsi_obs::count("query.facets.count", nf as u64);
        let (entry_bytes, passes) = match (kind, cands) {
            (Sweep::F64, Candidates::All) => (8, 1),
            (Sweep::F64, _) => (8, nf),
            (Sweep::F32, _) => (4, nf),
            (Sweep::I8, _) => (1, nf),
        };
        lsi_obs::add_bytes((len * k * entry_bytes * passes) as f64);
        lsi_obs::add_flops(((2 * k + 3) * len * nf) as f64);
        let mut scores = match (kind, cands, &self.compressed) {
            (Sweep::F32 | Sweep::I8, _, Some(store)) => store
                .approx_scores(facets, &qnorms, cands)?
                .into_iter()
                .map(f64::from)
                .collect(),
            (_, Candidates::All, _) => {
                let mut raw = match facets {
                    // One column: skip the GEMM's operand packing, which
                    // would copy all of V for a single right-hand side.
                    [f] => ops::matvec(&self.v, f)?,
                    _ => {
                        let q = DenseMatrix::from_col_major(k, nf, facets.concat())?;
                        ops::matmul(&self.v, &q)?.into_data()
                    }
                };
                for (col, &qn) in raw.chunks_mut(n.max(1)).zip(&qnorms) {
                    for (s, &dn) in col.iter_mut().zip(&self.doc_norms) {
                        *s = cosine(*s, dn, qn);
                    }
                }
                raw
            }
            (_, Candidates::Rows { ids, spans }, _) => {
                let mut out = Vec::with_capacity(len * nf);
                for (f, &qn) in facets.iter().zip(&qnorms) {
                    out.extend(over_spans(ids, spans, |rows| {
                        let rows: Vec<usize> = rows.iter().map(|&d| d as usize).collect();
                        self.exact_cosines_rows(&rows, f, qn)
                    })?);
                }
                out
            }
        };
        lsi_fault::poison(lsi_fault::points::CORE_QUERY_SCORE, &mut scores).map_err(|e| {
            Error::Inconsistent {
                context: e.to_string(),
            }
        })?;
        if scores.iter().all(|s| s.is_finite()) {
            Ok(scores)
        } else {
            Err(Error::NonFinite {
                context: "cosine scores (query scoring boundary)".into(),
            })
        }
    }

    /// Every document's f64 cosine against every facet, one column per
    /// facet: the reference sweep of the full-ranking entry points.
    pub(crate) fn cosines_all(&self, facets: &[&[f64]]) -> Result<Vec<f64>> {
        self.sweep(Sweep::F64, &Candidates::All, facets)
    }

    /// Over-fetch select, margin certificate and exact re-rank for one
    /// request after an approximate sweep (`approx` is its fused sweep
    /// score per candidate); the fallback when the certificate fails.
    ///
    /// The certificate: every sweep score lies within `b` (the kind's
    /// bound times the combine's Lipschitz constant) of its reference
    /// score, so the z best sweep scores all have reference scores of at
    /// least `a_z − b`, where `a_z` is the z-th best sweep score. A
    /// document whose sweep score is below `a_z − 2b` therefore scores
    /// strictly below z others and cannot be in the top-z. Only the
    /// over-fetched prefix at or above that threshold needs the exact
    /// re-rank, and the answer is the reference sweep's when the prefix
    /// ends inside the over-fetch (every excluded candidate scores at
    /// most the worst selected one) or the over-fetch holds every
    /// candidate. Ties at the threshold keep the prefix growing, and a
    /// prefix that reaches the end of a partial over-fetch falls back.
    /// i8 has no useful bound: it re-ranks every over-fetched candidate
    /// and is not certified.
    fn rerank(
        &self,
        kind: Sweep,
        cands: &Candidates,
        req: &mut Request,
        approx: &[f64],
    ) -> Result<RankedList> {
        let (len, k, nf) = (approx.len(), self.k(), req.facets.len());
        let z = req.z.min(len);
        if z == 0 {
            return Ok(RankedList::default());
        }
        let c = z
            .saturating_mul(OVER_FETCH_FACTOR)
            .max(OVER_FETCH_FLOOR)
            .min(len);
        let mut picked = cands.select(approx, c);
        lsi_obs::count("score.candidates.count", c as u64);
        req.log.num("candidates", c as f64);
        if let Some(b) = kind.margin(k) {
            let threshold = approx[picked[z - 1]] - 2.0 * b * req.combine.lipschitz();
            let prefix = picked.partition_point(|&p| approx[p] >= threshold);
            if prefix == c && c < len {
                return self.fallback(cands, req);
            }
            picked.truncate(prefix);
        }
        let t = querylog::timer();
        // Ascending doc order keeps the batched kernel's column walks
        // prefetch-friendly; the selection below re-sorts by score.
        let mut docs: Vec<usize> = picked.iter().map(|&p| cands.doc(p)).collect();
        docs.sort_unstable();
        let r = docs.len();
        let exact = {
            let _span = lsi_obs::span("score.rerank");
            lsi_obs::add_bytes((r * k * 8 * nf) as f64);
            lsi_obs::add_flops(((2 * k + 3) * r * nf) as f64);
            let mut cols = Vec::with_capacity(r * nf);
            for facet in &req.facets {
                cols.extend(self.exact_cosines_rows(&docs, facet, vecops::nrm2(facet))?);
            }
            fuse(&cols, nf, req.combine).into_owned()
        };
        req.log.done(t, "rerank_us");
        if !exact.iter().all(|s| s.is_finite()) {
            return Err(Error::NonFinite {
                context: "cosine scores (query scoring boundary)".into(),
            });
        }
        lsi_obs::count("score.rerank.count", r as u64);
        let order = select_top_by(r, z, |i| (desc_key_f64(exact[i]), docs[i] as u32));
        Ok(self.ranked(order.into_iter().map(|i| (docs[i], exact[i]))))
    }

    /// Fallback stage: the reference f64 sweep over the same candidates
    /// — for a pruned query that is the survivors, never the whole
    /// collection.
    fn fallback(&self, cands: &Candidates, req: &mut Request) -> Result<RankedList> {
        lsi_obs::count("score.rerank.fallback.count", 1);
        let t = querylog::timer();
        let ranked = self
            .run(cands, std::slice::from_mut(req), true)
            .and_then(single);
        req.log.str("path", "fallback");
        req.log.done(t, "fallback_us");
        ranked
    }

    /// Exact f64 cosines for a batch of document rows against `qhat`,
    /// each bit-identical to the reference sweep's score for that row:
    /// the column-outer subset GEMV ([`ops::matvec_rows`]) replays the
    /// GEMV's (and so the GEMM's) arithmetic per row. Sort `rows` ascending — the
    /// batched walk is prefetch-friendly in that order, where scattered
    /// single-row walks over a matrix the candidate sweep just evicted
    /// cost more than the sweep itself.
    pub(crate) fn exact_cosines_rows(
        &self,
        rows: &[usize],
        qhat: &[f64],
        qnorm: f64,
    ) -> Result<Vec<f64>> {
        let mut raws = ops::matvec_rows(&self.v, qhat, rows)?;
        for (raw, &j) in raws.iter_mut().zip(rows) {
            *raw = cosine(*raw, self.doc_norms[j], qnorm);
        }
        Ok(raws)
    }

    /// A ranked list from (doc, cosine) pairs, best first.
    pub(crate) fn ranked(&self, hits: impl Iterator<Item = (usize, f64)>) -> RankedList {
        RankedList {
            matches: hits.map(|(j, s)| self.make_match(j, s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_bounds_follow_the_sweep_kind() {
        // The reference sweep needs none and i8 has no useful one.
        assert!(Sweep::F64.margin(16).is_none());
        assert!(Sweep::I8.margin(16).is_none());
        assert!(Sweep::F32.margin(16).is_some_and(|b| b > 0.0));
    }

    #[test]
    fn fuse_is_the_identity_for_one_facet_and_combines_rows_otherwise() {
        let one = [0.5, -0.25];
        assert!(matches!(fuse(&one, 1, Combine::Mean), Cow::Borrowed(_)));
        // Column-major 2 rows x 2 facets.
        let two = [0.5, -0.25, 0.1, 0.75];
        assert_eq!(fuse(&two, 2, Combine::Max).as_ref(), &[0.5, 0.75]);
    }
}
