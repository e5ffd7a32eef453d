//! The traced run's in-process replay: the calls the `lsi` commands
//! make, each timed as a span around one crate's public function, on
//! the run's own inputs and database files.

use std::io::Write as _;
use std::path::Path;

use lsi_core::{BatchQuery, IndexPolicy, LsiModel};
use lsi_sparse::ops::DualFormat;
use lsi_svd::{robust_svd, LanczosOptions, RobustOptions};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting, Vocabulary};

use crate::inputs::{K, NPROBE, TOP};
use crate::stats::median;
use crate::trace::Tracer;

/// The seed `lsi index` passes to the Lanczos driver.
const SVD_SEED: u64 = 0x5EED;

/// Parse a `id<TAB>text` file the way `lsi` does.
pub fn read_tsv(path: &Path) -> Result<Corpus, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut corpus = Corpus::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (id, body) = line
            .split_once('\t')
            .ok_or_else(|| format!("{}: expected id<TAB>text", path.display()))?;
        corpus.push(Document::new(id.trim(), body.trim()));
    }
    Ok(corpus)
}

/// Write-path layer seconds.
#[derive(Debug, Default)]
pub struct WritePath {
    pub vocab_s: f64,
    pub weight_s: f64,
    pub lanczos_s: f64,
    pub gram_applies: u64,
    pub load_s: f64,
    pub train_s: f64,
    pub fold_s: f64,
    pub update_s: f64,
    pub save_s: f64,
}

/// Replay `lsi index`, `lsi add --method fold` and `lsi add --method
/// update` layer by layer: parse and weight the corpus, run the SVD,
/// then load the indexed database, retrain its cluster index, fold in
/// and SVD-update the two batches, and save the result to `save_to`.
pub fn write_path(
    tr: &mut Tracer,
    corpus: &Path,
    fold: &Path,
    update: &Path,
    db0: &Path,
    save_to: &Path,
    pruned: bool,
) -> Result<WritePath, String> {
    let mut out = WritePath::default();
    {
        let (docs, _) = tr.coarse("text.read", |_| read_tsv(corpus));
        let docs = docs?;
        let ((vocab, counts), s) = tr.coarse("text.vocab", |_| {
            let vocab = Vocabulary::build(&docs, &ParsingRules::default());
            let counts = vocab.count_matrix(&docs);
            (vocab, counts)
        });
        out.vocab_s = s;
        drop(vocab);
        let (weighted, s) = tr.coarse("text.weight", |_| {
            TermWeighting::log_entropy().apply(&counts)
        });
        out.weight_s = s;
        let k = K.min(counts.nrows()).min(counts.ncols());
        let (svd, s) = tr.coarse("svd.lanczos", |_| {
            let op = DualFormat::from_csc(weighted.matrix.clone());
            let opts = RobustOptions {
                lanczos: LanczosOptions {
                    seed: SVD_SEED,
                    ..RobustOptions::default().lanczos
                },
                ..Default::default()
            };
            robust_svd(&op, k, &opts)
        });
        out.lanczos_s = s;
        let (_, report) = svd.map_err(|e| format!("robust_svd: {e}"))?;
        out.gram_applies = report.gram.calls;
    }

    let (model, s) = tr.coarse("core.persist.load", |_| crate::answers::load(db0));
    let mut model = model?;
    out.load_s = s;
    // Drop the loaded index so training runs from scratch, then put
    // the database's own policy back.
    model
        .set_index_policy(IndexPolicy::Exact)
        .map_err(|e| e.to_string())?;
    let (r, s) = tr.coarse("core.index.train", |_| model.train_index());
    r.map_err(|e| format!("train_index: {e}"))?;
    out.train_s = s;
    let policy = if pruned {
        IndexPolicy::Pruned { nprobe: NPROBE }
    } else {
        IndexPolicy::Exact
    };
    model.set_index_policy(policy).map_err(|e| e.to_string())?;

    let fold_docs = read_tsv(fold)?;
    let (r, s) = tr.coarse("core.update.fold", |_| model.fold_in_documents(&fold_docs));
    r.map_err(|e| format!("fold_in_documents: {e}"))?;
    out.fold_s = s;

    let update_docs = read_tsv(update)?;
    let (r, s) = tr.coarse("core.update.svd_update", |_| {
        let d = model.vocabulary().count_matrix(&update_docs);
        let ids: Vec<String> = update_docs.docs.iter().map(|d| d.id.clone()).collect();
        model.svd_update_documents(&d, &ids)
    });
    r.map_err(|e| format!("svd_update_documents: {e}"))?;
    out.update_s = s;

    let (r, s) = tr.coarse("core.persist.save", |_| -> Result<(), String> {
        let json = model.to_json().map_err(|e| e.to_string())?;
        let mut f = std::fs::File::create(save_to).map_err(|e| e.to_string())?;
        f.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
        f.sync_all().map_err(|e| e.to_string())
    });
    r.map_err(|e| format!("save: {e}"))?;
    out.save_s = s;
    Ok(out)
}

/// Query-path layer timings, medians over the query stream.
#[derive(Debug, Default)]
pub struct QueryPath {
    pub project_us: f64,
    pub rank_top_us: f64,
    pub query_top_us: f64,
    pub batch2_us: f64,
    pub batch8_us: f64,
}

/// Time `project_text`, `rank_projected_top`, `query_top` and
/// `query_top_batch` (batches of 2 and 8) on every query of the stream.
pub fn query_path(
    tr: &mut Tracer,
    model: &LsiModel,
    queries: &[String],
) -> Result<QueryPath, String> {
    // Warm caches and the pool before timing.
    for q in queries.iter().take(64) {
        model.query_top(q, TOP).map_err(|e| e.to_string())?;
    }
    let mut project = Vec::with_capacity(queries.len());
    let mut rank = Vec::with_capacity(queries.len());
    let mut whole = Vec::with_capacity(queries.len());
    for q in queries {
        let (qhat, s) = tr.leaf("core.project", || model.project_text(q));
        let qhat = qhat.map_err(|e| e.to_string())?;
        project.push(s * 1e6);
        let (r, s) = tr.leaf("core.rank_top", || model.rank_projected_top(&qhat, TOP));
        r.map_err(|e| e.to_string())?;
        rank.push(s * 1e6);
        let (r, s) = tr.leaf("core.query_top", || model.query_top(q, TOP));
        r.map_err(|e| e.to_string())?;
        whole.push(s * 1e6);
    }
    let mut batch_us = |size: usize| -> Result<f64, String> {
        let mut per_query = Vec::new();
        for chunk in queries.chunks_exact(size) {
            let batch: Vec<BatchQuery> = chunk
                .iter()
                .map(|q| BatchQuery {
                    text: q.clone(),
                    z: TOP,
                    ctx: None,
                })
                .collect();
            let (results, s) = tr.leaf(&format!("core.batch.{size}"), || {
                model.query_top_batch(batch)
            });
            for r in results {
                r.map_err(|e| e.to_string())?;
            }
            per_query.push(s * 1e6 / size as f64);
        }
        Ok(median(&per_query))
    };
    Ok(QueryPath {
        project_us: median(&project),
        rank_top_us: median(&rank),
        query_top_us: median(&whole),
        batch2_us: batch_us(2)?,
        batch8_us: batch_us(8)?,
    })
}

/// Survivors swept per query and the share of queries that fell back
/// from the f32 certificate, from `LSI_QUERY_LOG` records. A record
/// without `survivors` swept every document.
pub fn query_log_counts(log: &Path) -> (f64, f64, usize) {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let mut n = 0usize;
    let mut survivors = 0.0;
    let mut fallbacks = 0usize;
    for line in text.lines() {
        let Ok(rec) = lsi_obs::parse_json(line) else {
            continue;
        };
        let lsi_obs::Json::Obj(fields) = &rec else {
            continue;
        };
        n += 1;
        let num = |k: &str| rec.get(k).and_then(lsi_obs::Json::as_f64);
        survivors += num("survivors").or_else(|| num("n_docs")).unwrap_or(0.0);
        let pos = |k: &str| fields.iter().position(|(f, _)| f == k);
        // A failed certificate inside the pruned path re-runs the f64
        // survivor sweep after the re-rank, so `sweep_us` is set again
        // after `rerank_us`.
        let refell = matches!((pos("rerank_us"), pos("sweep_us")), (Some(r), Some(s)) if s > r);
        if rec.get("path").and_then(lsi_obs::Json::as_str) == Some("fallback") || refell {
            fallbacks += 1;
        }
    }
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    (survivors / n as f64, fallbacks as f64 / n as f64, n)
}
