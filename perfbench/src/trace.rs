//! The traced run: spans recorded by the benchmark around its own calls
//! into each layer's public functions, kept in memory and written out at
//! the end.
//!
//! The program carries no tracing of its own, so each request is measured
//! at every layer boundary by replaying the same input there, one layer
//! down at a time:
//!
//! ```text
//! http.query   client round trip to the server process
//! └ serve.query   TklusServer::submit(..).wait() in this process
//!   └ core.query     TklusEngine::try_query
//!     └ core.{cover,fetch,combine,threads,scoring,topk}  (the engine's stage clock)
//! http.ingest  client round trip to the server process
//! └ serve.ingest  TklusServer::submit_ingest(..).wait() in this process
//!   └ wal.ingest     IngestStore::ingest, timed inside the serving path's sink
//!     └ wal.append, wal.sync   WalWriter::append / sync of the same record
//! ```
//!
//! A child is a separate call, not a slice of its parent's interval, so a
//! span's self time is its duration minus its children's durations. On the
//! query path the self times add up to the round trip exactly; the part no
//! named layer claims is `core.query`'s own self time (engine glue outside
//! the stage clock), reported as `trace.unaccounted_frac`. Probe spans
//! (`storage.read`, `graph.thread_phi`, `wal.compact`) have no parent.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tklus_core::{Completeness, EngineError, TklusEngine};
use tklus_model::{Post, Priority, TweetId};
use tklus_serve::{IngestSink, SinkError, TklusServer};
use tklus_storage::IoStats;
use tklus_wal::{IngestStore, WalError, WalRecord, WalWriter};

use crate::http::{answer_bits, RankedBits};
use crate::stats::{mean, ratio};
use crate::workload::{QueryReq, RankingKind, QUERY_DEADLINE_MS};

/// One in this many traced queries also probes the storage and graph
/// layers on its candidates.
const PROBE_EVERY: u64 = 4;
/// Candidate tweets probed per probing query.
const PROBE_TWEETS: usize = 8;

/// Every per-layer metric a traced run reports, with its unit. The run
/// fails when any of them is missing.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("http.query_self_us", "us"),
    ("http.ingest_self_us", "us"),
    ("serve.query_self_us", "us"),
    ("serve.ingest_self_us", "us"),
    ("serve.shed", "count"),
    ("core.query_us", "us"),
    ("core.cover_us", "us"),
    ("core.fetch_us", "us"),
    ("core.combine_us", "us"),
    ("core.threads_us", "us"),
    ("core.scoring_us", "us"),
    ("core.topk_us", "us"),
    ("core.candidates_per_query", "count"),
    ("core.threads_built_per_query", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.build_s", "s"),
    ("index.lists_per_query", "count"),
    ("index.dfs_bytes_per_query", "B"),
    ("storage.page_reads_per_query", "count"),
    ("storage.page_reads_per_candidate", "count"),
    ("storage.page_read_us", "us"),
    ("storage.share_of_query", "ratio"),
    ("graph.thread_phi_us", "us"),
    ("graph.page_reads_per_thread", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.apply_us", "us"),
    ("wal.compactions", "count"),
    ("wal.compact_ms", "ms"),
    ("wal.compact_bytes_written", "B"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self { origin, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span =
            Span { id, parent, request, layer, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span store poisoned").push(span);
        id
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Per-layer self time: duration minus the children's durations, in µs,
/// keyed by layer.
pub fn self_times_us(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = s.dur_ns() as f64 - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
        out.entry(s.layer).or_default().push(own / 1e3);
    }
    out
}

/// Span durations in µs, keyed by layer.
pub fn durations_us(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        out.entry(s.layer).or_default().push(s.dur_ns() as f64 / 1e3);
    }
    out
}

/// Writes the spans as TSV: id, parent, request, layer, start and end in
/// ns since the run began.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\trequest\tlayer\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{parent}\t{}\t{}\t{}\t{}\n",
            s.id, s.request, s.layer, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(path, out)
}

/// Engine counters summed over the traced queries.
#[derive(Debug, Default)]
struct QueryCounts {
    queries: u64,
    candidates: u64,
    threads_built: u64,
    max_built: u64,
    max_pruned: u64,
    page_reads: u64,
    lists: u64,
    dfs_bytes: u64,
    cache_hits: u64,
    cache_probes: u64,
    probe_reads_storage: u64,
    probe_reads_graph: u64,
    probe_threads: u64,
    compactions: u64,
    compact_bytes: u64,
}

/// The serving path's ingest sink, wrapped to time each
/// `IngestStore::ingest` call by post id.
struct TimedSink {
    store: Arc<IngestStore>,
    times: Mutex<HashMap<u64, (Instant, Instant)>>,
}

impl IngestSink for TimedSink {
    fn ingest(&self, post: Post) -> Result<u64, SinkError> {
        let id = post.id.0;
        let start = Instant::now();
        let result = self.store.ingest(post);
        let end = Instant::now();
        self.times.lock().expect("sink timing poisoned").insert(id, (start, end));
        result.map_err(|e| SinkError {
            kind: "Wal",
            conflict: matches!(e, WalError::DuplicateTweet(_)),
            message: e.to_string(),
        })
    }
}

/// The in-process layer stack the traced run replays each request into.
pub struct Tracer {
    pub spans: Spans,
    engine: Arc<TklusEngine>,
    serve: TklusServer,
    sink: Arc<TimedSink>,
    store: Arc<IngestStore>,
    store_dir: std::path::PathBuf,
    wal: Mutex<(WalWriter, u64)>,
    next_request: AtomicU64,
    counts: Mutex<QueryCounts>,
}

impl Tracer {
    /// Builds the stack over `engine`: a serving layer with default
    /// configuration whose ingest sink is a fresh WAL store in `store_dir`,
    /// plus a bare WAL writer (no fsync policy, so append and sync time
    /// apart) in `writer_dir`.
    pub fn new(
        engine: Arc<TklusEngine>,
        store_dir: &Path,
        writer_dir: &Path,
    ) -> Result<Self, String> {
        use tklus_wal::{FsyncPolicy, StdFs, StoreConfig, WalConfig, WalFs};
        let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(store_dir).map_err(|e| e.to_string())?);
        let store =
            Arc::new(IngestStore::open(fs, StoreConfig::default()).map_err(|e| e.to_string())?.0);
        let sink =
            Arc::new(TimedSink { store: Arc::clone(&store), times: Mutex::new(HashMap::new()) });
        let serve = TklusServer::start_with_sink(
            Arc::clone(&engine),
            tklus_serve::ServeConfig::default(),
            Some(Arc::clone(&sink) as Arc<dyn IngestSink>),
        )?;
        let wfs: Arc<dyn WalFs> = Arc::new(StdFs::open(writer_dir).map_err(|e| e.to_string())?);
        let cfg = WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() };
        let writer = WalWriter::open(wfs, cfg, 1).map_err(|e| e.to_string())?;
        Ok(Self {
            spans: Spans::new(Instant::now()),
            engine,
            serve,
            sink,
            store,
            store_dir: store_dir.into(),
            wal: Mutex::new((writer, 0)),
            next_request: AtomicU64::new(1),
            counts: Mutex::new(QueryCounts::default()),
        })
    }

    /// Replays one answered query below the HTTP span `(start, end)` and
    /// checks the HTTP answer against the engine's, bit for bit. Returns
    /// the mismatch, if any.
    pub fn query(
        &self,
        req: &QueryReq,
        start: Instant,
        end: Instant,
        answer: &[RankedBits],
    ) -> Result<(), String> {
        let rid = self.next_request.fetch_add(1, Ordering::Relaxed);
        let http = self.spans.record("http.query", rid, None, start, end);
        let q = req.to_query();
        let ranking = req.ranking.ranking();
        let deadline = Some(Duration::from_millis(QUERY_DEADLINE_MS));

        let s0 = Instant::now();
        let served = self
            .serve
            .submit(q.clone(), ranking, Priority::Normal, deadline)
            .map_err(|r| format!("in-process serve shed the replay: {r:?}"))?
            .wait();
        let serve = self.spans.record("serve.query", rid, Some(http), s0, Instant::now());
        served.map_err(|e| format!("in-process serve replay failed: {e:?}"))?;

        let c0 = Instant::now();
        let outcome = self.engine.try_query(&q, ranking).map_err(|e| e.to_string())?;
        let core = self.spans.record("core.query", rid, Some(serve), c0, Instant::now());
        let st = &outcome.stats;
        let mut at = c0;
        for (layer, d) in [
            ("core.cover", st.stages.cover),
            ("core.fetch", st.stages.fetch),
            ("core.combine", st.stages.combine),
            ("core.threads", st.stages.threads),
            ("core.scoring", st.stages.scoring),
            ("core.topk", st.stages.topk),
        ] {
            self.spans.record(layer, rid, Some(core), at, at + d);
            at += d;
        }
        {
            let mut c = self.counts.lock().expect("counts poisoned");
            c.queries += 1;
            c.candidates += st.candidates as u64;
            c.threads_built += st.threads_built as u64;
            if req.ranking != RankingKind::Sum {
                c.max_built += st.threads_built as u64;
                c.max_pruned += st.threads_pruned as u64;
            }
            c.page_reads += st.metadata_page_reads;
            c.lists += st.lists_fetched as u64;
            c.dfs_bytes += st.dfs_bytes;
            let hits = st.cover_cache_hits + st.postings_cache_hits + st.thread_cache_hits;
            c.cache_hits += hits;
            c.cache_probes +=
                hits + st.cover_cache_misses + st.postings_cache_misses + st.thread_cache_misses;
        }
        if rid.is_multiple_of(PROBE_EVERY) {
            self.probe(rid, &q).map_err(|e| e.to_string())?;
        }

        let expected = answer_bits(&outcome.users);
        if outcome.completeness != Completeness::Complete {
            return Err("in-process reference answer is degraded".into());
        }
        if expected != answer {
            return Err(format!("HTTP answer {answer:?} differs from the engine's {expected:?}"));
        }
        Ok(())
    }

    /// Times the storage and graph layers directly on sampled candidates.
    fn probe(&self, rid: u64, q: &tklus_model::TklusQuery) -> Result<(), EngineError> {
        let rows = self.engine.try_partial_sum(q)?.rows;
        let step = (rows.len() / PROBE_TWEETS).max(1);
        let tweets: Vec<TweetId> =
            rows.iter().step_by(step).take(PROBE_TWEETS).map(|r| r.tweet).collect();
        let db = self.engine.db();
        let (mut storage_reads, mut graph_reads) = (0, 0);
        for &tid in &tweets {
            let r0 = IoStats::thread_page_reads();
            let t0 = Instant::now();
            std::hint::black_box(db.try_row(tid)?);
            std::hint::black_box(db.try_replies_to_ids(tid)?);
            let t1 = Instant::now();
            let r1 = IoStats::thread_page_reads();
            std::hint::black_box(self.engine.try_thread_phi(tid)?);
            let t2 = Instant::now();
            let r2 = IoStats::thread_page_reads();
            self.spans.record("storage.read", rid, None, t0, t1);
            self.spans.record("graph.thread_phi", rid, None, t1, t2);
            storage_reads += r1 - r0;
            graph_reads += r2 - r1;
        }
        let mut c = self.counts.lock().expect("counts poisoned");
        c.probe_reads_storage += storage_reads;
        c.probe_reads_graph += graph_reads;
        c.probe_threads += tweets.len() as u64;
        Ok(())
    }

    /// Replays one acked ingest below the HTTP span `(start, end)`.
    pub fn ingest(&self, post: &Post, start: Instant, end: Instant) -> Result<(), String> {
        let rid = self.next_request.fetch_add(1, Ordering::Relaxed);
        let http = self.spans.record("http.ingest", rid, None, start, end);
        let s0 = Instant::now();
        let acked = self
            .serve
            .submit_ingest(post.clone(), None)
            .map_err(|r| format!("in-process serve shed the ingest replay: {r:?}"))?
            .wait();
        let serve = self.spans.record("serve.ingest", rid, Some(http), s0, Instant::now());
        acked.map_err(|e| format!("in-process ingest replay failed: {e:?}"))?;
        let (w0, w1) = self
            .sink
            .times
            .lock()
            .expect("sink timing poisoned")
            .remove(&post.id.0)
            .ok_or("the sink never saw the replayed post")?;
        let store = self.spans.record("wal.ingest", rid, Some(serve), w0, w1);

        let mut wal = self.wal.lock().expect("wal writer poisoned");
        wal.1 += 1;
        let record = WalRecord { seq: wal.1, post: post.clone() };
        let a0 = Instant::now();
        wal.0.append(&record).map_err(|e| e.to_string())?;
        let a1 = Instant::now();
        wal.0.sync().map_err(|e| e.to_string())?;
        let a2 = Instant::now();
        self.spans.record("wal.append", rid, Some(store), a0, a1);
        self.spans.record("wal.sync", rid, Some(store), a1, a2);
        Ok(())
    }

    /// One round of the compactor the serving path runs: seal once the
    /// default threshold of posts is live. Returns whether it sealed.
    pub fn compact_if_due(&self) -> Result<bool, String> {
        if self.store.live_posts() < self.store.store_config().compact_threshold {
            return Ok(false);
        }
        let before = crate::server::dir_listing(&self.store_dir);
        let t0 = Instant::now();
        let sealed = self.store.compact().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        if sealed {
            let written: u64 = crate::server::dir_listing(&self.store_dir)
                .into_iter()
                .filter(|f| !before.contains(f))
                .map(|(_, size)| size)
                .sum();
            let rid = self.next_request.fetch_add(1, Ordering::Relaxed);
            self.spans.record("wal.compact", rid, None, t0, t1);
            let mut c = self.counts.lock().expect("counts poisoned");
            c.compactions += 1;
            c.compact_bytes += written;
        }
        Ok(sealed)
    }

    pub fn compactions(&self) -> u64 {
        self.counts.lock().expect("counts poisoned").compactions
    }

    /// Assembles the per-layer metrics from the spans and counters.
    /// `shed` is the server's shed total, `build_s` the engine build time,
    /// `overhead_frac` the traced-vs-untraced round-trip change.
    pub fn metrics(
        &self,
        spans: &[Span],
        shed: f64,
        build_s: f64,
        overhead_frac: f64,
    ) -> Vec<(&'static str, f64)> {
        let own = self_times_us(spans);
        let dur = durations_us(spans);
        let mean_of =
            |m: &HashMap<&'static str, Vec<f64>>, layer: &str| m.get(layer).map(|v| mean(v));
        let c = self.counts.lock().expect("counts poisoned");
        let queries = c.queries as f64;
        let mut out: Vec<(&'static str, Option<f64>)> = vec![
            ("http.query_self_us", mean_of(&own, "http.query")),
            ("http.ingest_self_us", mean_of(&own, "http.ingest")),
            ("serve.query_self_us", mean_of(&own, "serve.query")),
            ("serve.ingest_self_us", mean_of(&own, "serve.ingest")),
            ("serve.shed", Some(shed)),
            ("core.query_us", mean_of(&dur, "core.query")),
            ("core.cover_us", mean_of(&dur, "core.cover")),
            ("core.fetch_us", mean_of(&dur, "core.fetch")),
            ("core.combine_us", mean_of(&dur, "core.combine")),
            ("core.threads_us", mean_of(&dur, "core.threads")),
            ("core.scoring_us", mean_of(&dur, "core.scoring")),
            ("core.topk_us", mean_of(&dur, "core.topk")),
        ];
        if c.queries > 0 {
            let page_read_us = mean_of(&dur, "storage.read")
                .map(|us| ratio(us * c.probe_threads as f64, c.probe_reads_storage as f64));
            let reads_per_query = c.page_reads as f64 / queries;
            let core_us = mean_of(&dur, "core.query");
            out.extend([
                ("core.candidates_per_query", Some(c.candidates as f64 / queries)),
                ("core.threads_built_per_query", Some(c.threads_built as f64 / queries)),
                (
                    "core.prune_ratio",
                    Some(ratio(c.max_pruned as f64, (c.max_built + c.max_pruned) as f64)),
                ),
                ("core.cache_hit_ratio", Some(ratio(c.cache_hits as f64, c.cache_probes as f64))),
                ("index.lists_per_query", Some(c.lists as f64 / queries)),
                ("index.dfs_bytes_per_query", Some(c.dfs_bytes as f64 / queries)),
                ("storage.page_reads_per_query", Some(reads_per_query)),
                (
                    "storage.page_reads_per_candidate",
                    Some(ratio(c.page_reads as f64, c.candidates as f64)),
                ),
                ("storage.page_read_us", page_read_us),
                (
                    "storage.share_of_query",
                    page_read_us.zip(core_us).map(|(p, q)| ratio(reads_per_query * p, q)),
                ),
                (
                    "graph.page_reads_per_thread",
                    (c.probe_threads > 0)
                        .then(|| c.probe_reads_graph as f64 / c.probe_threads as f64),
                ),
            ]);
        }
        out.extend([
            ("core.build_s", Some(build_s)),
            ("graph.thread_phi_us", mean_of(&dur, "graph.thread_phi")),
            ("wal.append_us", mean_of(&dur, "wal.append")),
            ("wal.sync_us", mean_of(&dur, "wal.sync")),
            ("wal.apply_us", mean_of(&own, "wal.ingest")),
            ("wal.compactions", Some(c.compactions as f64)),
            ("wal.compact_ms", mean_of(&dur, "wal.compact").map(|us| us / 1e3)),
            (
                "wal.compact_bytes_written",
                (c.compactions > 0).then(|| c.compact_bytes as f64 / c.compactions as f64),
            ),
            (
                "trace.unaccounted_frac",
                mean_of(&own, "core.query")
                    .zip(mean_of(&dur, "http.query"))
                    .map(|(u, rt)| ratio(u, rt)),
            ),
            ("trace.overhead_frac", Some(overhead_frac)),
        ]);
        out.into_iter()
            .filter_map(|(name, v)| v.filter(|v| v.is_finite()).map(|v| (name, v)))
            .collect()
    }

    /// Stops the in-process serving layer.
    pub fn shutdown(self) {
        let _ = self.serve.drain(Duration::from_secs(5));
    }
}

/// Fails when any named per-layer metric is missing.
pub fn check_complete(metrics: &[(&'static str, f64)]) -> Result<(), String> {
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !metrics.iter().any(|(m, _)| m == n))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("traced run is missing per-layer metrics: {}", missing.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let spans = Spans::new(t0);
        let ms = Duration::from_millis;
        let root = spans.record("http.query", 1, None, t0, t0 + ms(10));
        let mid = spans.record("serve.query", 1, Some(root), t0 + ms(10), t0 + ms(17));
        spans.record("core.cover", 1, Some(mid), t0 + ms(17), t0 + ms(19));
        spans.record("core.threads", 1, Some(mid), t0 + ms(19), t0 + ms(23));
        let all = spans.take();
        let own = self_times_us(&all);
        assert_eq!(own["http.query"], vec![3_000.0]);
        assert_eq!(own["serve.query"], vec![1_000.0]);
        assert_eq!(own["core.threads"], vec![4_000.0]);
        // Self times telescope back to the root's round trip.
        let total: f64 = own.values().flatten().sum();
        assert_eq!(total, 10_000.0);
        assert!(spans.take().is_empty());
    }

    #[test]
    fn missing_metrics_fail_loudly() {
        let mut all: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|(n, _)| (*n, 1.0)).collect();
        assert!(check_complete(&all).is_ok());
        all.retain(|(n, _)| *n != "wal.sync_us");
        let err = check_complete(&all).unwrap_err();
        assert!(err.contains("wal.sync_us"), "{err}");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
    }
}
