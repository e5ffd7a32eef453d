//! Serve-and-ingest benchmark for the `lsi` binary.
//!
//! ```text
//! bash perfbench/run.sh --workload serve-exact --seed 1 --seconds 16 --trace 0
//! ```
//!
//! One run generates its inputs from `--seed`, builds a database with
//! the `lsi` CLI (index, fold-in batch, SVD-update batch, one-shot
//! query, info), then serves it with `lsi serve` under a closed loop of
//! two keep-alive callers for `--seconds`. Everything runs on one CPU,
//! and every time is scaled by the host speed read from the benchmark's
//! own control server next to it (see `control.rs`). Every answer is checked
//! against `lsi-core` loaded in-process on the same database file. With
//! `--trace 1` the run also replays the commands' calls into each crate
//! in-process, timing each as a span, and reports per-layer metrics
//! instead of end-to-end ones. The last stdout line is the result
//! object; the line before it is the run's full record (input sizes,
//! operation counts, noise readings). See `perfbench/README.md`.

mod answers;
mod cli;
mod client;
mod control;
mod daemon;
mod inputs;
mod layers;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lsi_obs::Json;

use crate::answers::Agreement;
use crate::control::Control;
use crate::daemon::{stat, Daemon};
use crate::inputs::{Inputs, FOLD_DOCS, K, L2_BYTES, NPROBE, TOP, UPDATE_DOCS};
use crate::stats::{median, quantile};

/// One named traffic mix.
struct Workload {
    name: &'static str,
    why: &'static str,
    /// Index with `--precision f32 --nprobe NPROBE`.
    pruned: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-exact",
        why: "exact f64 database: each query sweeps all of V_k (3x the L2) and concurrent \
              queries may coalesce into one GEMM; bypasses the cluster index and f32 store",
        pruned: false,
    },
    Workload {
        name: "serve-pruned-f32",
        why: "f32 store + cluster index: projection, probe, a sweep of the probed rows (fits \
              the L2) and exact re-rank dominate; bypasses GEMM coalescing",
        pruned: true,
    },
];

/// The measured window is cut into this many equal slices, with a
/// control reading before the first and after each one.
const SLICES: u32 = 8;
/// Length of one control reading.
const CONTROL_READ: Duration = Duration::from_millis(400);
/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 3;
/// Runs of each `lsi add`; `add_fold_s` and `add_update_s` are their
/// medians.
const ADD_RUNS: usize = 2;
/// One-shot `lsi query` runs per run; `query_cli_s` is their median.
const QUERY_CLI_RUNS: usize = 3;
/// Closed-loop callers (one keep-alive connection each).
const CALLERS: usize = 2;
/// Unmeasured traffic before the window.
const WARMUP: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    lsi: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut lsi) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => match value.parse::<u64>() {
                Ok(n) if n > 0 => seconds = Some(n),
                _ => return Err("--seconds: expected a positive integer".into()),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err("--trace: expected 0 or 1".into()),
            },
            "--lsi" => lsi = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        lsi: lsi.ok_or("--lsi is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    // The program, the callers and the control all share one CPU, so
    // no hand-off between them waits for the other vCPU to be
    // scheduled by the hypervisor.
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let work = WorkDir::create(w.name, args.seed);
    let outcome = work.and_then(|work| run(w, &args, cpu, &work.0));
    match outcome {
        Ok((record, result, correct)) => {
            println!("{}", record.to_string_compact());
            println!("{}", result.to_string_compact());
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str, seed: u64) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One slice of the measured window, in raw readings; the `*_nominal`
/// methods scale them to the nominal host speed.
struct Slice {
    answered: usize,
    seconds: f64,
    /// Host speed: mean of the control readings before and after.
    speed: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    cpu_ms_per_query: f64,
    steal_s: f64,
    idle_s: f64,
}

impl Slice {
    fn qps_nominal(&self) -> f64 {
        self.qps / self.speed
    }

    fn p50_ms_nominal(&self) -> f64 {
        self.p50_ms * self.speed
    }

    fn p99_ms_nominal(&self) -> f64 {
        self.p99_ms * self.speed
    }

    fn cpu_ms_per_query_nominal(&self) -> f64 {
        self.cpu_ms_per_query * self.speed
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("answered", Json::Num(self.answered as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("speed", Json::Num(self.speed)),
            ("qps", Json::Num(self.qps)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("cpu_ms_per_query", Json::Num(self.cpu_ms_per_query)),
            ("steal_s", Json::Num(self.steal_s)),
            ("idle_s", Json::Num(self.idle_s)),
        ])
    }
}

/// A timed run and its time at the nominal host speed.
struct Timed<T> {
    out: T,
    wall_s: f64,
    /// The host's speed while it ran, from the control probe.
    speed: f64,
}

impl<T> Timed<T> {
    fn nominal_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

impl Timed<cli::CliRun> {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.out.cpu_s)),
            ("speed", Json::Num(self.speed)),
            ("nominal_s", Json::Num(self.nominal_s())),
        ])
    }
}

/// Run `lsi args...` with the control probed while it runs.
fn timed(control: &Control, lsi: &Path, args: &[&str]) -> Result<Timed<cli::CliRun>, String> {
    let (run, speed) = control.speed_during(|| cli::run(lsi, args));
    let run = run?;
    Ok(Timed {
        wall_s: run.wall_s,
        speed,
        out: run,
    })
}

/// Operation and check tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// A whole-run check: counts as failed, not as an operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// The step count `lsi index` reports (`... (N Lanczos steps)...`).
fn lanczos_steps(index_stdout: &str) -> Json {
    index_stdout
        .split_once(" Lanczos steps")
        .and_then(|(head, _)| head.rsplit_once('(')?.1.parse::<f64>().ok())
        .map_or(Json::Null, Json::Num)
}

fn file_mb(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64 / 1e6)
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are ASCII")
}

fn run(w: &Workload, args: &Args, cpu: usize, dir: &Path) -> Result<(Json, Json, bool), String> {
    let run_t0 = Instant::now();
    let ticks0 = sys::cpu_ticks(None);
    let cpu_ticks0 = sys::cpu_ticks(Some(cpu));
    let load0 = sys::loadavg();
    let mut tally = Tally::default();

    let inputs = Inputs::generate(dir, args.seed).map_err(|e| format!("writing inputs: {e}"))?;
    let probe = inputs.queries[0].clone();
    let control = Control::start().map_err(|e| format!("control server: {e}"))?;

    // --- write path, through the CLI -------------------------------------
    let lsi = &args.lsi;
    let (db0, db1, db2) = (
        dir.join("db0.json"),
        dir.join("db1.json"),
        dir.join("db2.json"),
    );
    let k = K.to_string();
    let nprobe = NPROBE.to_string();
    let mut index_args = vec![
        "index",
        path_str(&inputs.corpus),
        "--out",
        path_str(&db0),
        "--k",
        &k,
    ];
    if w.pruned {
        index_args.extend(["--precision", "f32", "--nprobe", &nprobe]);
    }
    let index = timed(&control, lsi, &index_args)?;
    tally.op(true, String::new);
    let db_mb = file_mb(&db0);
    let n0 = inputs.n_docs;
    let (n1, n2) = (n0 + FOLD_DOCS, n0 + FOLD_DOCS + UPDATE_DOCS);
    // Each add writes the same output file from the same input, so
    // repeating it measures the same command again.
    let add =
        |method: &str, from: &Path, batch: &Path, to: &Path, docs: usize, tally: &mut Tally| {
            let args = [
                "add",
                path_str(from),
                path_str(batch),
                "--out",
                path_str(to),
                "--method",
                method,
            ];
            let runs = (0..ADD_RUNS)
                .map(|_| timed(&control, lsi, &args))
                .collect::<Result<Vec<_>, _>>()?;
            for r in &runs {
                tally.op(
                    r.out
                        .stdout
                        .contains(&format!("database now holds {docs} docs")),
                    || format!("lsi add --method {method}: {}", r.out.stdout.trim()),
                );
            }
            Ok::<_, String>(runs)
        };
    let folds = add("fold", &db0, &inputs.fold_batch, &db1, n1, &mut tally)?;
    let updates = add("update", &db1, &inputs.update_batch, &db2, n2, &mut tally)?;
    let top = TOP.to_string();
    let queries_cli = (0..QUERY_CLI_RUNS)
        .map(|_| {
            timed(
                &control,
                lsi,
                &["query", path_str(&db2), &probe, "--top", &top],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let median_of = |runs: &[Timed<cli::CliRun>], f: fn(&Timed<cli::CliRun>) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let query_cli_s = median_of(&queries_cli, Timed::nominal_s);
    let info = timed(&control, lsi, &["info", path_str(&db2)])?;
    let expect_info = format!("documents : {n2}  ({FOLD_DOCS} folded-in)");
    tally.op(info.out.stdout.contains(&expect_info), || {
        format!(
            "lsi info: expected {expect_info:?} in {:?}",
            info.out.stdout
        )
    });
    let cli_peak_rss_mb = sys::children_usage().max_rss_mb;

    // --- serving ----------------------------------------------------------
    let query_log = dir.join("query_log.jsonl");
    let mut cold = Vec::new();
    let mut cold_cpu = Vec::new();
    let mut daemon = None;
    for i in 0..COLD_STARTS {
        let last = i + 1 == COLD_STARTS;
        let log = (last && args.trace).then_some(query_log.as_path());
        let (d, speed) = control.speed_during(|| Daemon::start(lsi, &db2, &probe, log));
        let d = d?;
        tally.op(true, String::new);
        cold.push(Timed {
            out: (),
            wall_s: d.cold_start.as_secs_f64(),
            speed,
        });
        cold_cpu.push(sys::process_cpu_s(d.pid));
        if last {
            daemon = Some(d);
        } else {
            let ok = d.stop();
            tally.check(ok, || {
                "lsi serve did not drain cleanly after a cold start".into()
            });
        }
    }
    let daemon = daemon.expect("COLD_STARTS >= 1");
    client::closed_loop(
        daemon.addr,
        &inputs.queries,
        TOP,
        CALLERS,
        WARMUP,
        1,
        args.seed ^ 1,
        || (),
    );
    let stats0 = daemon.stats()?;
    let pid = daemon.pid;
    let load = client::closed_loop(
        daemon.addr,
        &inputs.queries,
        TOP,
        CALLERS,
        Duration::from_secs(args.seconds) / SLICES,
        SLICES,
        args.seed,
        || {
            (
                sys::thread_cpu(pid),
                sys::cpu_ticks(Some(cpu)),
                control.speed(CALLERS, CONTROL_READ),
            )
        },
    );
    let stats1 = daemon.stats()?;
    let serve_rss_mb = sys::vm_hwm_mb(daemon.pid);
    let drained = daemon.stop();
    tally.check(drained, || "lsi serve did not drain cleanly".into());
    let (first, last) = (&load.readings[0], &load.readings[SLICES as usize]);
    let role_cpu = sys::role_cpu_s(&first.0, &last.0);
    let server_cpu_s: f64 = role_cpu.values().sum();
    let ticks_w = last.1.since(&first.1);
    let delta = |key: &str| stat(&stats1, key) - stat(&stats0, key);
    for key in ["shed", "timeouts", "panics", "parse_errors", "accept_drops"] {
        let d = delta(key);
        tally.check(d == 0.0, || {
            format!("/stats {key} rose by {d} during the window")
        });
    }
    let degrade = stat(&stats1, "degrade_level");
    tally.check(degrade == 0.0, || {
        format!("/stats degrade_level is {degrade}")
    });

    // --- traced replay of the write path ------------------------------------
    let mut tracer = trace::Tracer::new();
    let write_layers = if args.trace {
        let save_to = dir.join("replay.json");
        let (r, _) = tracer.coarse("replay.write_path", |tr| {
            layers::write_path(
                tr,
                &inputs.corpus,
                &inputs.fold_batch,
                &inputs.update_batch,
                &db0,
                &save_to,
                w.pruned,
            )
        });
        let _ = std::fs::remove_file(save_to);
        Some(r?)
    } else {
        None
    };

    // --- ground truth and checks --------------------------------------------
    let (model, truth_load_s) = tracer.coarse("core.persist.load", |_| answers::load(&db2));
    let mut model = model?;
    let n_terms = model.n_terms();
    let nnz = model.weighted_matrix().nnz();
    let n_docs = model.n_docs();
    let n_lists = model.index_n_lists();
    let own = answers::answers(&model, &inputs.queries, TOP)?;
    let query_layers = if args.trace {
        let (r, _) = tracer.coarse("replay.query_path", |tr| {
            layers::query_path(tr, &model, &inputs.queries)
        });
        Some(r?)
    } else {
        None
    };
    let exact = if w.pruned {
        answers::make_exact(&mut model)?;
        answers::answers(&model, &inputs.queries, TOP)?
    } else {
        own.clone()
    };
    drop(model);

    let expect_cli = answers::cli_text(&own[0]);
    for query in &queries_cli {
        tally.op(query.out.stdout == expect_cli, || {
            format!(
                "lsi query printed {:?}, in-process gives {expect_cli:?}",
                query.out.stdout
            )
        });
    }

    let mut slice_latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); SLICES as usize];
    let mut recall_sum = 0.0;
    let mut answered = 0usize;
    let mut not_bitwise = 0usize;
    for s in &load.samples {
        let q = s.query as usize;
        let got = (s.status == 200)
            .then(|| answers::parse_served(&s.body))
            .flatten();
        let agreement = got.as_ref().map(|a| answers::compare(a, &own[q]));
        not_bitwise += usize::from(agreement == Some(Agreement::WithinTolerance));
        let ok = matches!(
            agreement,
            Some(Agreement::Bitwise | Agreement::WithinTolerance)
        );
        tally.op(ok, || {
            format!(
                "query {q} {:?}: status {}, body {}",
                inputs.queries[q],
                s.status,
                String::from_utf8_lossy(&s.body)
            )
        });
        if let Some(a) = got {
            answered += 1;
            recall_sum += answers::recall(&a, &exact[q]);
            slice_latencies_ms[s.slice as usize].push(s.latency.as_secs_f64() * 1e3);
        }
    }
    let window_s: f64 = load.slice_s.iter().sum();
    // Each slice's readings, scaled to the nominal host speed by the
    // control readings on either side of it.
    let slices: Vec<Slice> = slice_latencies_ms
        .iter()
        .zip(load.readings.windows(2))
        .zip(&load.slice_s)
        .map(|((lat, r), &seconds)| {
            let cpu_s: f64 = sys::role_cpu_s(&r[0].0, &r[1].0).values().sum();
            let ticks = r[1].1.since(&r[0].1);
            Slice {
                answered: lat.len(),
                seconds,
                speed: (r[0].2 + r[1].2) / 2.0,
                qps: lat.len() as f64 / seconds,
                p50_ms: median(lat),
                p99_ms: quantile(lat, 0.99),
                cpu_ms_per_query: cpu_s * 1e3 / lat.len().max(1) as f64,
                steal_s: ticks.steal_s,
                idle_s: ticks.idle_s,
            }
        })
        .collect();
    // Medians over the slices: a stall in one slice moves none of them.
    let over_slices = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let qps = over_slices(Slice::qps_nominal);
    let p50_ms = over_slices(Slice::p50_ms_nominal);
    let p99_ms = over_slices(Slice::p99_ms_nominal);
    let cpu_ms_per_query = over_slices(Slice::cpu_ms_per_query_nominal);
    let recall_at_10 = if answered > 0 {
        recall_sum / answered as f64
    } else {
        0.0
    };
    let setup_s = median(&cold.iter().map(Timed::nominal_s).collect::<Vec<_>>());

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let wl = write_layers.expect("traced run replays the write path");
        let ql = query_layers.expect("traced run replays the query path");
        let (survivors, fallback_share, log_records) = layers::query_log_counts(&query_log);
        let batches = delta("batches");
        let per_query_ms = |s: f64| s * 1e3 / answered.max(1) as f64;
        let p50_whole_ms = median(&slice_latencies_ms.concat());
        let swept_bytes = if w.pruned {
            survivors * K as f64 * 4.0
        } else {
            (n_docs * K * 8) as f64
        };
        let load_s = median(&[wl.load_s, truth_load_s]);
        let index_cover = wl.vocab_s
            + wl.weight_s
            + wl.lanczos_s
            + wl.save_s
            + if w.pruned { wl.train_s } else { 0.0 };
        let covered = index_cover
            + (load_s + wl.fold_s + wl.save_s)
            + (load_s + wl.update_s + wl.save_s)
            + (load_s + ql.query_top_us * 1e-6);
        let query_cli_wall = median_of(&queries_cli, |r| r.wall_s);
        let cli_wall = index.wall_s
            + median_of(&folds, |r| r.wall_s)
            + median_of(&updates, |r| r.wall_s)
            + query_cli_wall;
        metrics.extend([
            (
                "serve.mean_batch".into(),
                delta("batched_queries") / batches.max(1.0),
                "queries",
            ),
            (
                "serve.cpu_ms_per_query.accept".into(),
                per_query_ms(role_cpu["accept"]),
                "ms",
            ),
            (
                "serve.cpu_ms_per_query.workers".into(),
                per_query_ms(role_cpu["workers"]),
                "ms",
            ),
            (
                "serve.cpu_ms_per_query.batcher".into(),
                per_query_ms(role_cpu["batcher"]),
                "ms",
            ),
            (
                "serve.cpu_ms_per_query.pool".into(),
                per_query_ms(role_cpu["pool"]),
                "ms",
            ),
            (
                "serve.transport_ms_p50".into(),
                p50_whole_ms - ql.query_top_us * 1e-3,
                "ms",
            ),
            ("serve.shed".into(), delta("shed"), "count"),
            ("serve.timeouts".into(), delta("timeouts"), "count"),
            ("serve.panics".into(), delta("panics"), "count"),
            ("serve.degrade_level".into(), degrade, "level"),
            ("core.project_us".into(), ql.project_us, "us"),
            ("core.rank_top_us".into(), ql.rank_top_us, "us"),
            ("core.query_top_us".into(), ql.query_top_us, "us"),
            ("core.batch_us_per_query.2".into(), ql.batch2_us, "us"),
            ("core.batch_us_per_query.8".into(), ql.batch8_us, "us"),
            ("core.survivors_per_query".into(), survivors, "docs"),
            ("core.fallback_share".into(), fallback_share, "ratio"),
            (
                "linalg.sweep_gbps".into(),
                swept_bytes / (ql.rank_top_us * 1e3),
                "GB/s",
            ),
            (
                "linalg.project_gbps".into(),
                (n_terms * K * 8) as f64 / (ql.project_us * 1e3),
                "GB/s",
            ),
            ("core.persist.load_s".into(), load_s, "s"),
            ("core.persist.save_s".into(), wl.save_s, "s"),
            ("text.vocab_s".into(), wl.vocab_s, "s"),
            ("text.weight_s".into(), wl.weight_s, "s"),
            ("svd.lanczos_s".into(), wl.lanczos_s, "s"),
            ("svd.matvecs".into(), wl.gram_applies as f64, "count"),
            ("core.index.train_s".into(), wl.train_s, "s"),
            ("core.update.fold_s".into(), wl.fold_s, "s"),
            ("core.update.svd_update_s".into(), wl.update_s, "s"),
            ("cli.other_share".into(), 1.0 - covered / cli_wall, "ratio"),
        ]);
        tally.check(log_records > 0, || "LSI_QUERY_LOG wrote no records".into());
        let spans =
            PathBuf::from(".bench_work").join(format!("spans-{}-{}.json", w.name, args.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    } else {
        metrics.extend([
            ("setup_s".into(), setup_s, "s"),
            ("qps".into(), qps, "1/s"),
            ("p50_ms".into(), p50_ms, "ms"),
            ("p99_ms".into(), p99_ms, "ms"),
            ("cpu_ms_per_query".into(), cpu_ms_per_query, "ms"),
            ("recall_at_10".into(), recall_at_10, "ratio"),
            ("peak_rss_mb".into(), serve_rss_mb, "MB"),
            ("index_s".into(), index.nominal_s(), "s"),
            (
                "add_fold_s".into(),
                median_of(&folds, Timed::nominal_s),
                "s",
            ),
            (
                "add_update_s".into(),
                median_of(&updates, Timed::nominal_s),
                "s",
            ),
            ("query_cli_s".into(), query_cli_s, "s"),
            ("db_mb".into(), db_mb, "MB"),
        ]);
    }

    let ticks = sys::cpu_ticks(None).since(&ticks0);
    let cpu_ticks = sys::cpu_ticks(Some(cpu)).since(&cpu_ticks0);
    let vk_bytes = n_docs * K * 8;
    let f32_bytes = n_docs * K * 4;
    let probed_f32_bytes = n_lists.map_or(0, |l| n_docs * NPROBE / l.max(1) * K * 4);
    let num = Json::Num;
    let role_json = Json::Obj(
        role_cpu
            .iter()
            .map(|(r, s)| (r.to_string(), num(*s)))
            .collect(),
    );
    let stats_delta = Json::Obj(
        [
            "requests",
            "queries",
            "batches",
            "batched_queries",
            "shed",
            "timeouts",
            "panics",
        ]
        .iter()
        .map(|k| (k.to_string(), num(delta(k))))
        .collect(),
    );
    let record = Json::obj(vec![
        ("workload", Json::Str(w.name.into())),
        ("why", Json::Str(w.why.into())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        (
            "inputs",
            Json::obj(vec![
                ("n_docs", num(n_docs as f64)),
                ("n_terms", num(n_terms as f64)),
                ("nnz", num(nnz as f64)),
                ("k", num(K as f64)),
                ("fold_docs", num(FOLD_DOCS as f64)),
                ("update_docs", num(UPDATE_DOCS as f64)),
                ("queries", num(inputs.queries.len() as f64)),
                ("query_lengths", inputs.query_lengths()),
                ("vk_f64_bytes", num(vk_bytes as f64)),
                ("f32_store_bytes", num(f32_bytes as f64)),
                ("probed_f32_bytes", num(probed_f32_bytes as f64)),
                ("l2_bytes", num(L2_BYTES as f64)),
                ("n_lists", n_lists.map_or(Json::Null, |l| num(l as f64))),
                (
                    "nprobe",
                    if w.pruned {
                        num(NPROBE as f64)
                    } else {
                        Json::Null
                    },
                ),
                ("input_bytes", num(inputs.bytes_written as f64)),
            ]),
        ),
        (
            "ops",
            Json::obj(vec![
                ("sent", num(tally.attempted as f64)),
                (
                    "succeeded",
                    num((tally.attempted - tally.failed.min(tally.attempted)) as f64),
                ),
                ("failed", num(tally.failed as f64)),
                (
                    "failed_share",
                    num(tally.failed as f64 / tally.attempted.max(1) as f64),
                ),
                (
                    "problems",
                    Json::Arr(tally.problems.iter().cloned().map(Json::Str).collect()),
                ),
            ]),
        ),
        (
            "cli",
            Json::obj(vec![
                ("index", index.to_json()),
                ("lanczos_steps", lanczos_steps(&index.out.stdout)),
                (
                    "add_fold",
                    Json::Arr(folds.iter().map(Timed::to_json).collect()),
                ),
                (
                    "add_update",
                    Json::Arr(updates.iter().map(Timed::to_json).collect()),
                ),
                (
                    "query",
                    Json::Arr(queries_cli.iter().map(Timed::to_json).collect()),
                ),
                ("info", info.to_json()),
                ("peak_rss_mb", num(cli_peak_rss_mb)),
            ]),
        ),
        (
            "serve",
            Json::obj(vec![
                (
                    "cold_start_s",
                    Json::Arr(cold.iter().map(|c| num(c.wall_s)).collect()),
                ),
                (
                    "cold_start_speed",
                    Json::Arr(cold.iter().map(|c| num(c.speed)).collect()),
                ),
                (
                    "cold_start_cpu_s",
                    Json::Arr(cold_cpu.iter().copied().map(num).collect()),
                ),
                ("window_s", num(window_s)),
                (
                    "slices",
                    Json::Arr(slices.iter().map(Slice::to_json).collect()),
                ),
                ("answered", num(answered as f64)),
                ("server_cpu_s", num(server_cpu_s)),
                ("server_cpu_by_role_s", role_json),
                ("client_cpu_s", num(load.client_cpu_s)),
                ("answers_not_bitwise", num(not_bitwise as f64)),
                ("score_tolerance", num(answers::SCORE_TOLERANCE)),
                ("stats_delta", stats_delta),
                ("max_batch_seen", num(stat(&stats1, "max_batch_seen"))),
                ("vm_hwm_mb", num(serve_rss_mb)),
            ]),
        ),
        (
            "noise",
            Json::obj(vec![
                ("run_wall_s", num(run_t0.elapsed().as_secs_f64())),
                ("run_steal_s", num(ticks.steal_s)),
                ("run_idle_s", num(ticks.idle_s)),
                ("run_cpu_ticks_s", num(ticks.total_s)),
                ("pinned_cpu", num(cpu as f64)),
                ("pinned_cpu_steal_s", num(cpu_ticks.steal_s)),
                ("pinned_cpu_idle_s", num(cpu_ticks.idle_s)),
                ("window_steal_s", num(ticks_w.steal_s)),
                ("window_idle_s", num(ticks_w.idle_s)),
                ("window_cpu_ticks_s", num(ticks_w.total_s)),
                ("loadavg_start", num(load0)),
                ("loadavg_end", num(sys::loadavg())),
                (
                    "nproc",
                    num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
            ]),
        ),
    ]);
    let correct = tally.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::obj(vec![
                                ("value", num(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok((record, result, correct))
}
