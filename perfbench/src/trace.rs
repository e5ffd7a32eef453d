//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end, parent, and the process's on-CPU time for coarse
//! spans. Kept in memory, written out once when the run ends.

use std::path::Path;
use std::time::Instant;

use lsi_obs::Json;

use crate::sys;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    cpu_s: Option<f64>,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn open(&mut self, name: &str, cpu: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.t0.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.stack.last().copied(),
            cpu_s: cpu.then(|| sys::process_cpu_s(std::process::id())),
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) -> f64 {
        self.stack.pop();
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.end_us = end_us;
        if let Some(c0) = span.cpu_s {
            span.cpu_s = Some(sys::process_cpu_s(std::process::id()) - c0);
        }
        (end_us - span.start_us) * 1e-6
    }

    /// Time `f` as a span that may have children; returns its result
    /// and wall seconds. Records the process's on-CPU seconds too.
    pub fn coarse<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.open(name, true);
        let out = f(self);
        let secs = self.close(id);
        (out, secs)
    }

    /// Time a leaf call (wall only: cheap enough for one per query).
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, false);
        let out = std::hint::black_box(f());
        let secs = self.close(id);
        (out, secs)
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ];
                if let Some(c) = s.cpu_s {
                    fields.push(("cpu_s", Json::Num(c)));
                }
                Json::obj(fields)
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_string_compact())
    }
}
