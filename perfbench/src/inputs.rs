//! Seeded workload inputs: the corpus TSV, the two add batches, and the
//! query stream. Everything the program under test reads is generated
//! here from `--seed`; the same seed gives byte-identical files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_obs::Json;

/// Fixed corpus shape. Only the content varies with the seed, so every
/// seed measures the same amount of work.
pub const TOPICS: usize = 160;
pub const DOCS_PER_TOPIC: usize = 100;
pub const CONCEPTS_PER_TOPIC: usize = 25;
pub const SYNONYMS: usize = 3;
pub const BACKGROUND: usize = 2_000;
pub const DOC_LEN: usize = 60;
/// Retained factors.
pub const K: usize = 100;
/// Documents in the `lsi add --method fold` batch.
pub const FOLD_DOCS: usize = 100;
/// Documents in the `lsi add --method update` batch.
pub const UPDATE_DOCS: usize = 100;
/// Documents held out of the corpus per topic; the add batches are
/// drawn from them.
const HELD_OUT_PER_TOPIC: usize = (FOLD_DOCS + UPDATE_DOCS).div_ceil(TOPICS);
/// Distinct queries in the stream (the closed loop cycles through them).
pub const N_QUERIES: usize = 640;
/// Query lengths are drawn uniformly from this inclusive range.
pub const QUERY_LEN: (usize, usize) = (2, 8);
/// Results per query.
pub const TOP: usize = 10;
/// Probe depth of the pruned database.
pub const NPROBE: usize = 8;
/// The machine's per-core L2, against which the sweep footprints are
/// recorded.
pub const L2_BYTES: usize = 4 << 20;

/// splitmix64: the benchmark's own seeded stream (query lengths, the
/// order the callers walk the query stream in).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Paths of the generated files plus what the run records about them.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub corpus: PathBuf,
    pub fold_batch: PathBuf,
    pub update_batch: PathBuf,
    pub queries: Vec<String>,
    pub n_docs: usize,
    pub bytes_written: usize,
}

impl Inputs {
    /// Generate every input for `seed` under `dir`: the corpus, two
    /// batches of new documents from the same topics, and the query
    /// stream.
    pub fn generate(dir: &Path, seed: u64) -> std::io::Result<Inputs> {
        let extra = HELD_OUT_PER_TOPIC;
        let gen = SyntheticCorpus::generate(&SyntheticOptions {
            n_topics: TOPICS,
            docs_per_topic: DOCS_PER_TOPIC + extra,
            concepts_per_topic: CONCEPTS_PER_TOPIC,
            synonyms_per_concept: SYNONYMS,
            doc_len: DOC_LEN,
            background_vocab: BACKGROUND,
            noise_fraction: 0.25,
            query_len: QUERY_LEN.1,
            queries_per_topic: N_QUERIES.div_ceil(TOPICS),
            polysemy_fraction: 0.0,
            seed,
        });
        let per_topic = DOCS_PER_TOPIC + extra;
        let mut corpus = String::new();
        let mut held_out = Vec::new();
        for (i, doc) in gen.corpus.docs.iter().enumerate() {
            if i % per_topic < DOCS_PER_TOPIC {
                let _ = writeln!(corpus, "{}\t{}", doc.id, doc.text);
            } else {
                held_out.push(format!("{}\t{}\n", doc.id, doc.text));
            }
        }
        // Spread each batch over all topics (held-out docs are grouped
        // by topic, so stride through them).
        let mut order: Vec<usize> = (0..extra)
            .flat_map(|r| (r..held_out.len()).step_by(extra))
            .collect();
        order.truncate(FOLD_DOCS + UPDATE_DOCS);
        let fold: String = order[..FOLD_DOCS]
            .iter()
            .map(|&i| held_out[i].as_str())
            .collect();
        let update: String = order[FOLD_DOCS..]
            .iter()
            .map(|&i| held_out[i].as_str())
            .collect();

        let mut rng = Rng::new(seed ^ 0x5155_4552_5953);
        let queries: Vec<String> = gen
            .queries
            .iter()
            .take(N_QUERIES)
            .map(|q| {
                let len = rng.range(QUERY_LEN.0, QUERY_LEN.1);
                q.text.split(' ').take(len).collect::<Vec<_>>().join(" ")
            })
            .collect();

        let paths = Inputs {
            corpus: dir.join("corpus.tsv"),
            fold_batch: dir.join("fold.tsv"),
            update_batch: dir.join("update.tsv"),
            queries,
            n_docs: TOPICS * DOCS_PER_TOPIC,
            bytes_written: corpus.len() + fold.len() + update.len(),
        };
        std::fs::write(&paths.corpus, corpus)?;
        std::fs::write(&paths.fold_batch, fold)?;
        std::fs::write(&paths.update_batch, update)?;
        Ok(paths)
    }

    /// Query-length histogram, `{"2": n, ...}`.
    pub fn query_lengths(&self) -> Json {
        let mut counts = vec![0usize; QUERY_LEN.1 + 1];
        for q in &self.queries {
            counts[q.split(' ').count()] += 1;
        }
        Json::Obj(
            (QUERY_LEN.0..=QUERY_LEN.1)
                .map(|l| (l.to_string(), Json::Num(counts[l] as f64)))
                .collect(),
        )
    }
}
