//! Structured per-query log: one JSON line per served query.
//!
//! This is the record the `lsi serve` daemon emits per request; the
//! one-shot entry points ([`LsiModel::query`], [`LsiModel::query_top`],
//! [`LsiModel::query_by_doc`]) emit it too, so the schema is shared
//! between one-shot CLI runs and the daemon.
//!
//! [`LsiModel::query`]: crate::LsiModel::query
//! [`LsiModel::query_top`]: crate::LsiModel::query_top
//! [`LsiModel::query_by_doc`]: crate::LsiModel::query_by_doc
//!
//! Armed by `LSI_QUERY_LOG=<path>` (append) or `LSI_QUERY_LOG=-` /
//! `stderr` (stderr), read once per process. Disarmed cost is one
//! `OnceLock` load plus an `Option` check per call site — the same
//! budget as the failpoint fast path (DESIGN.md §3g).
//!
//! Schema (one compact JSON object per line; fields absent when the
//! path that produces them did not run):
//!
//! ```json
//! {"trace_id":"q1234-7","kind":"top","n_docs":2000,"z":10,
//!  "precision":"f32","path":"pruned","nprobe":8,"lists_probed":8,
//!  "survivors":1180,"candidates":64,"probe_us":2.3,
//!  "project_us":8.1,"sweep_us":41.2,"rerank_us":12.9,
//!  "results":10,"top_score":0.93,"margin":0.04,"total_us":78.5}
//! ```
//!
//! Every top-`z` query runs the one scoring plan (`crate::plan`), and
//! `path` names what actually served it:
//!
//! * `exact` — the reference f64 sweep of every document, no re-rank;
//! * `compressed` — an f32/i8 sweep of every document, then the exact
//!   re-rank of the over-fetched `candidates` (`rerank_us`);
//! * `batch` — the query shared one coalesced sweep with others
//!   (`batch` is how many); on an f32 model `candidates`/`rerank_us`
//!   follow as for `compressed`;
//! * `pruned` — the cluster index served it: `nprobe` is the requested
//!   probe depth, `lists_probed` the clamped number of lists probed,
//!   `survivors` the docs swept, and `probe_us` the centroid scan;
//!   `candidates`/`rerank_us` are present when the survivor sweep was
//!   approximate;
//! * `fallback` — an approximate sweep ran, but its certificate failed
//!   or its output went non-finite, so the reference f64 sweep over the
//!   *same* candidates served it; `fallback_us` carries that sweep. A
//!   pruned fallback keeps the index fields (`survivors` etc.) and
//!   sweeps only the survivors, never the whole collection; its
//!   `sweep_us` is that survivor sweep's, written again last;
//! * `full` — the full-sort entry points (`query`, `query_by_doc`).
//!
//! `margin` is the top-1 − top-2 exact cosine gap.
//!
//! `trace_id` defaults to a per-process `q<pid>-<seq>`; a serving
//! layer passes a [`RequestCtx`] with each batched query so the
//! daemon's query-log lines join with its access-log lines on the
//! request id, and `wait_us` (time spent queued before scoring) rides
//! along with the phase timings.
//! Only successfully served queries are logged; errors surface through
//! the usual typed-error path and event log instead.
//!
//! Each query owns its record while it runs, so concurrent queries —
//! and the queries of one coalesced batch — never interleave fields;
//! the final line write is serialized by a sink mutex.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use lsi_obs::Json;

use crate::query::RankedList;

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

static SINK: OnceLock<Option<Sink>> = OnceLock::new();

/// Per-process query sequence number feeding `trace_id`.
/// Relaxed: ids only need to be unique, not ordered with other memory.
static SEQ: AtomicU64 = AtomicU64::new(1);

fn sink() -> Option<&'static Sink> {
    SINK.get_or_init(|| {
        let spec = std::env::var("LSI_QUERY_LOG").ok()?;
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        if spec == "-" || spec == "stderr" {
            return Some(Sink::Stderr);
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(spec)
        {
            Ok(f) => Some(Sink::File(Mutex::new(f))),
            Err(e) => {
                lsi_obs::warn!("cannot open LSI_QUERY_LOG file `{spec}`: {e}");
                None
            }
        }
    })
    .as_ref()
}

/// Whether query logging is armed (`LSI_QUERY_LOG` set and usable).
#[inline]
fn enabled() -> bool {
    sink().is_some()
}

/// Request-scoped context a serving layer stamps onto a query's
/// record: the server's request id (so query-log lines join with
/// access-log lines) and the time the request spent queued.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The serving layer's request id, replacing the default
    /// per-process `q<pid>-<seq>` trace id.
    pub trace_id: String,
    /// Queue time (enqueue → scoring start), microseconds.
    pub wait_us: f64,
}

struct Record {
    t0: Instant,
    ctx: Option<RequestCtx>,
    fields: Vec<(&'static str, Json)>,
}

/// One query's record, filled in by the scoring stages and written by
/// [`QueryLog::finish`]. Each query owns its record, so a coalesced
/// batch carries one per query. Dropping it without `finish` (an error
/// path) discards it; every method is a no-op when logging is disarmed.
pub(crate) struct QueryLog(Option<Record>);

/// Start timing a phase: `Some(now)` only when logging is armed, so
/// disarmed runs never touch the clock.
pub(crate) fn timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

impl QueryLog {
    /// Start a record for one query of the given kind (`"full"`,
    /// `"top"`, `"doc"`).
    pub(crate) fn begin(kind: &'static str, ctx: Option<RequestCtx>) -> QueryLog {
        QueryLog(enabled().then(|| Record {
            t0: Instant::now(),
            ctx,
            fields: vec![("kind", Json::Str(kind.to_string()))],
        }))
    }

    /// A record that is never written (callers below the query entry
    /// points, e.g. `rank_projected_top` on a pre-projected vector).
    pub(crate) fn off() -> QueryLog {
        QueryLog(None)
    }

    /// Set (or overwrite, moving it last) a field.
    fn put(&mut self, key: &'static str, v: Json) {
        if let Some(rec) = self.0.as_mut() {
            rec.fields.retain(|(k, _)| *k != key);
            rec.fields.push((key, v));
        }
    }

    pub(crate) fn num(&mut self, key: &'static str, v: f64) {
        self.put(key, Json::Num(v));
    }

    pub(crate) fn str(&mut self, key: &'static str, v: &str) {
        if self.0.is_some() {
            self.put(key, Json::Str(v.to_string()));
        }
    }

    /// Record the time since `t0` (from [`timer`]) under `key` (µs).
    pub(crate) fn done(&mut self, t0: Option<Instant>, key: &'static str) {
        if let Some(t0) = t0 {
            self.num(key, t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Emit the record for a successfully served query: stamps the
    /// trace id, result stats, and total latency, then writes one
    /// compact JSON line to the sink.
    pub(crate) fn finish(self, ranked: &RankedList) {
        let Some(rec) = self.0 else {
            return;
        };
        let (trace_id, wait_us) = match rec.ctx {
            Some(c) => (c.trace_id, Some(c.wait_us)),
            None => (
                format!(
                    "q{}-{}",
                    std::process::id(),
                    // Relaxed: see SEQ.
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ),
                None,
            ),
        };
        let mut out: Vec<(String, Json)> = vec![("trace_id".to_string(), Json::Str(trace_id))];
        out.extend(rec.fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        if let Some(w) = wait_us {
            out.push(("wait_us".to_string(), Json::Num(w)));
        }
        out.push((
            "results".to_string(),
            Json::Num(ranked.matches.len() as f64),
        ));
        if let Some(top) = ranked.matches.first() {
            out.push(("top_score".to_string(), Json::Num(top.cosine)));
            if let Some(second) = ranked.matches.get(1) {
                out.push(("margin".to_string(), Json::Num(top.cosine - second.cosine)));
            }
        }
        let total_us = rec.t0.elapsed().as_secs_f64() * 1e6;
        out.push(("total_us".to_string(), Json::Num(total_us)));
        write_line(&Json::Obj(out).to_string_compact());
    }
}

fn write_line(line: &str) {
    match sink() {
        Some(Sink::Stderr) => {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
        Some(Sink::File(m)) => {
            let mut f = m.lock().unwrap_or_else(|p| p.into_inner());
            let _ = writeln!(f, "{line}");
        }
        None => {}
    }
}
