//! End-to-end benchmark of `tklus serve-http`.
//!
//! ```text
//! tklus-perfbench --tklus PATH --workload read_repeat|read_unique|ingest_mixed
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, spawns the server on
//! them, drives it over loopback HTTP, checks every answer, and prints one
//! JSON result as its last line. See `perfbench/README.md`.

mod http;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tklus_core::{EngineConfig, TklusEngine};
use tklus_model::{Post, TweetId};

use http::{answer_bits, parse_answer, Conn, Response, REQUEST_TIMEOUT};
use server::ServerProc;
use stats::{median, Latencies, Outcome};
use trace::Tracer;
use workload::{QueryReq, Seeds, Workload};

/// Client connections (one thread each); never more than the host's cores.
const CLIENTS: usize = 2;
/// Server start-ups per run; `setup_s` is the median of their CPU time.
const SETUP_SPAWNS: usize = 5;
/// Requests sent before measuring starts.
const WARMUP: Duration = Duration::from_secs(1);
/// Queries generated per second of run, far above any rate the server
/// reaches, so a stream never runs dry.
const QUERIES_PER_SECOND: usize = 300;
/// Original ingest-stream posts per second of run (about 3.7 posts each
/// with cascades), likewise far above the server's ingest rate.
const INGEST_ORIGINALS_PER_SECOND: usize = 2_000;
/// Compactions the traced run waits for, and generations the WAL must
/// reach on `ingest_mixed` (background seals plus the final one).
const MIN_COMPACTIONS: u64 = 2;
const MIN_GENERATIONS: u64 = 3;
/// Queries a traced run measures at least, untraced and traced.
const MIN_TRACED_QUERIES: usize = 24;
/// Longest a phase may run on past its window waiting for compactions or
/// traced queries.
const PHASE_CAP: Duration = Duration::from_secs(60);
/// 2xx answers received so far, over all phases: the finished work the
/// per-second cost sampler divides by.
static ANSWERED: AtomicUsize = AtomicUsize::new(0);
/// Where runs keep their scratch files and traced runs write spans,
/// relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    tklus: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let take = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    for k in map.keys() {
        if !["tklus", "workload", "seed", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let workload = take("workload")?;
    Ok(Args {
        tklus: take("tklus")?.into(),
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Inputs and reference state shared by both run modes.
struct Env {
    args: Args,
    seeds: Seeds,
    scratch: ScratchDir,
    corpus_path: PathBuf,
    corpus_posts: usize,
    corpus_users: usize,
    engine: Arc<TklusEngine>,
    build_s: f64,
    queries: Vec<QueryReq>,
    posts: Vec<Post>,
    host_cores: usize,
}

impl Env {
    fn prepare(args: Args) -> Result<Self, String> {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if CLIENTS > host_cores {
            return Err(format!(
                "{CLIENTS} client threads need {CLIENTS} cores; this host has {host_cores}"
            ));
        }
        if !args.tklus.is_file() {
            return Err(format!("server binary {} not found", args.tklus.display()));
        }
        let seeds = Seeds::derive(args.seed);
        let dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let scratch = ScratchDir(dir);
        let corpus_path = scratch.0.join("corpus.tsv");
        tklus_gen::save_tsv(&workload::served_corpus(), &corpus_path).map_err(|e| e.to_string())?;
        // The reference reads the same file the server reads.
        let corpus = tklus_gen::load_tsv(&corpus_path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let engine =
            TklusEngine::try_build(&corpus, &EngineConfig::default()).map_err(|e| e.to_string())?.0;
        let build_s = t.elapsed().as_secs_f64();
        let total_s = (args.seconds + WARMUP.as_secs() + 1) as usize;
        let n = QUERIES_PER_SECOND * total_s;
        let queries = match args.workload {
            Workload::ReadUnique => workload::unique_stream(&corpus, &seeds, n),
            Workload::ReadRepeat | Workload::IngestMixed => {
                workload::repeat_stream(&corpus, &seeds, n)
            }
        };
        let posts = workload::ingest_corpus(seeds.ingest, INGEST_ORIGINALS_PER_SECOND * total_s)
            .posts()
            .to_vec();
        Ok(Self {
            seeds,
            scratch,
            corpus_path,
            corpus_posts: corpus.len(),
            corpus_users: corpus.user_count(),
            engine: Arc::new(engine),
            build_s,
            queries,
            posts,
            host_cores,
            args,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.scratch.0.join(name)
    }

    fn spawn(&self, i: usize) -> Result<(ServerProc, Duration, f64), String> {
        let wal = self.path(&format!("wal-{i}"));
        ServerProc::spawn(
            &self.args.tklus,
            &self.corpus_path,
            Some(&wal),
            &self.path(&format!("server-{i}.log")),
        )
    }
}

/// What a request was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Ingest,
}

struct Sample {
    kind: Kind,
    /// Index into the query stream or the ingest stream.
    idx: usize,
    start: Instant,
    end: Instant,
    /// Inside the measured window (not warm-up).
    measured: bool,
    result: Result<Response, Outcome>,
    /// Already compared bit for bit by the traced run.
    verified: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One phase of closed-loop load.
struct Phase<'a> {
    addr: SocketAddr,
    env: &'a Env,
    readers: usize,
    writer: bool,
    warmup: Duration,
    window: Duration,
    tracer: Option<&'a Tracer>,
    /// Keep going after the window until this holds (capped).
    until: &'a (dyn Fn() -> bool + Sync),
}

struct PhaseResult {
    samples: Vec<Sample>,
    window_s: f64,
}

fn drive(
    p: &Phase,
    query_cursor: &AtomicUsize,
    post_cursor: &AtomicUsize,
) -> Result<PhaseResult, String> {
    let t0 = Instant::now();
    let measure_from = t0 + p.warmup;
    let stop_at = measure_from + p.window;
    let hard_stop = stop_at + PHASE_CAP;
    let done = |now: Instant| now >= hard_stop || (now >= stop_at && (p.until)());
    let run_client = |kind: Kind| -> Result<Vec<Sample>, String> {
        let mut conn = Conn::new(p.addr);
        let mut out = Vec::new();
        loop {
            let start = Instant::now();
            if done(start) {
                return Ok(out);
            }
            let cursor = if kind == Kind::Query { query_cursor } else { post_cursor };
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let (path, body) = match kind {
                Kind::Query => {
                    ("/query", p.env.queries.get(idx).ok_or("query stream ran dry")?.body())
                }
                Kind::Ingest => (
                    "/ingest",
                    workload::ingest_body(p.env.posts.get(idx).ok_or("ingest stream ran dry")?),
                ),
            };
            let start = Instant::now();
            let result = conn.request("POST", path, &body);
            let end = Instant::now();
            if matches!(&result, Ok(r) if r.status == 200) {
                ANSWERED.fetch_add(1, Ordering::Relaxed);
            }
            let measured = start >= measure_from;
            let mut sample = Sample { kind, idx, start, end, measured, result, verified: false };
            if let (Some(tracer), true, Ok(resp)) = (p.tracer, measured, &sample.result) {
                if resp.status == 200 {
                    match kind {
                        Kind::Query => {
                            let outcome = match parse_answer(&resp.body) {
                                Ok(answer) => {
                                    tracer.query(&p.env.queries[idx], start, end, &answer)
                                }
                                Err(e) => Err(e),
                            };
                            if let Err(why) = outcome {
                                sample.result = Err(Outcome::Wrong(why));
                            }
                            sample.verified = true;
                        }
                        Kind::Ingest => tracer.ingest(&p.env.posts[idx], start, end)?,
                    }
                }
            }
            out.push(sample);
        }
    };
    let mut samples = Vec::new();
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..p.readers {
            handles.push(s.spawn(|| run_client(Kind::Query)));
        }
        if p.writer {
            handles.push(s.spawn(|| run_client(Kind::Ingest)));
        }
        for h in handles {
            samples.extend(h.join().map_err(|_| "client thread panicked")??);
        }
        Ok(())
    })?;
    let last_end = samples.iter().filter(|s| s.measured).map(|s| s.end).max().unwrap_or(stop_at);
    Ok(PhaseResult { samples, window_s: (last_end.max(stop_at) - measure_from).as_secs_f64() })
}

/// Sorts every sample into its final [`Outcome`]: non-2xx statuses and
/// transport errors stay failures; each 2xx query answer not already
/// checked by the traced run is compared bit for bit with the in-process
/// engine (each distinct request computed once, on `CLIENTS` threads).
fn verify(env: &Env, samples: &mut [Sample]) {
    let mut by_key = HashMap::new();
    for s in samples.iter() {
        if s.kind == Kind::Query && !s.verified && matches!(&s.result, Ok(r) if r.status == 200) {
            by_key.entry(env.queries[s.idx].key()).or_insert(&env.queries[s.idx]);
        }
    }
    let distinct: Vec<&QueryReq> = by_key.into_values().collect();
    let next = AtomicUsize::new(0);
    let mut reference = HashMap::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut part = Vec::new();
                    while let Some(req) = distinct.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let answer = env
                            .engine
                            .try_query(&req.to_query(), req.ranking.ranking())
                            .map(|o| (answer_bits(&o.users), o.completeness.is_complete()));
                        part.push((req.key(), answer));
                    }
                    part
                })
            })
            .collect();
        for w in workers {
            reference.extend(w.join().expect("verification thread panicked"));
        }
    });
    for s in samples.iter_mut() {
        let outcome = match (&s.result, s.kind) {
            (Err(_), _) => continue,
            (Ok(r), _) if r.status != 200 => Outcome::Status(r.status),
            (Ok(_), Kind::Ingest) => Outcome::Ok,
            (Ok(_), Kind::Query) if s.verified => Outcome::Ok,
            (Ok(r), Kind::Query) => {
                match (parse_answer(&r.body), reference.get(&env.queries[s.idx].key())) {
                    (Err(e), _) => Outcome::Wrong(e),
                    (Ok(got), Some(Ok((want, true)))) if &got == want => Outcome::Ok,
                    (Ok(got), Some(Ok((want, _)))) => {
                        Outcome::Wrong(format!("answer {got:?} differs from the engine's {want:?}"))
                    }
                    (Ok(_), other) => Outcome::Wrong(format!("no reference answer: {other:?}")),
                }
            }
        };
        if !outcome.is_ok() {
            s.result = Err(outcome);
        }
    }
}

fn outcome(s: &Sample) -> Outcome {
    match &s.result {
        Ok(_) => Outcome::Ok,
        Err(o) => o.clone(),
    }
}

/// Completed requests of `kind` per whole second of the measured window,
/// to show stalls and drift inside a run.
fn per_second(samples: &[Sample], kind: Kind) -> Vec<usize> {
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.kind == kind && s.measured).collect();
    let Some(first) = measured.iter().map(|s| s.start).min() else { return Vec::new() };
    let mut counts = Vec::new();
    for s in measured {
        let sec = (s.end - first).as_secs() as usize;
        if counts.len() <= sec {
            counts.resize(sec + 1, 0);
        }
        counts[sec] += 1;
    }
    counts
}

fn latencies(samples: &[Sample], kind: Kind) -> Latencies {
    let mut l = Latencies::default();
    for s in samples.iter().filter(|s| s.kind == kind && s.measured) {
        l.record(s.latency_ms(), &outcome(s));
    }
    l
}

/// Result of reopening the server's WAL directory after its drain.
struct WalCheck {
    problems: Vec<String>,
    generation: u64,
    bytes: u64,
}

/// Reopens the drained WAL dir and checks that every acked post survived,
/// the store's acked count matches the client's, and the popularity
/// bounds are still sound.
fn check_wal(dir: &Path, acked: &[TweetId]) -> Result<WalCheck, String> {
    use tklus_wal::{IngestStore, StdFs, StoreConfig, WalFs};
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir).map_err(|e| e.to_string())?);
    let (store, _) =
        IngestStore::open(fs, StoreConfig::default()).map_err(|e| format!("reopen WAL: {e}"))?;
    let mut problems = Vec::new();
    let missing = acked.iter().filter(|id| !store.contains_post(**id)).count();
    if missing > 0 {
        problems.push(format!("{missing} acked posts missing after reopen"));
    }
    if store.acked_posts() != acked.len() {
        problems.push(format!(
            "store holds {} posts, client saw {} acks",
            store.acked_posts(),
            acked.len()
        ));
    }
    match store.check_bounds_soundness() {
        Ok(audit) if audit.violations.is_empty() => {}
        Ok(audit) => {
            problems.push(format!("{} popularity-bound violations", audit.violations.len()))
        }
        Err(e) => problems.push(format!("bounds audit failed: {e}")),
    }
    let generation = store.generation();
    drop(store);
    Ok(WalCheck { problems, generation, bytes: server::dir_bytes(dir) })
}

/// Reads one counter from the server's Prometheus exposition.
fn scrape_counter(addr: SocketAddr, name: &str) -> Result<f64, String> {
    let resp = Conn::new(addr)
        .request("GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e:?}"))?;
    resp.body
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .ok_or(format!("/metrics lacks {name}"))
}

fn acked_ids(env: &Env, samples: &[Sample]) -> Vec<TweetId> {
    samples
        .iter()
        .filter(|s| s.kind == Kind::Ingest && matches!(&s.result, Ok(r) if r.status == 200))
        .map(|s| env.posts[s.idx].id)
        .collect()
}

/// A run's printed outcome.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<(&'static str, String)>,
    problems: Vec<String>,
}

fn run_untraced(env: &Env) -> Result<Report, String> {
    let args = &env.args;
    let (mut setups, mut setup_cpu) = (Vec::new(), Vec::new());
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let (proc, took, cpu) = env.spawn(i)?;
        setups.push(took.as_secs_f64());
        setup_cpu.push(cpu);
        if i + 1 < SETUP_SPAWNS {
            proc.discard();
        } else {
            server = Some(proc);
        }
    }
    let server = server.expect("at least one spawn");
    let wal_dir = env.path(&format!("wal-{}", SETUP_SPAWNS - 1));
    let (qc, pc) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let window = Duration::from_secs(args.seconds);
    let always = || true;
    let mixed = args.workload == Workload::IngestMixed;
    let load = Phase {
        addr: server.addr,
        env,
        readers: if mixed { 1 } else { CLIENTS },
        writer: mixed,
        warmup: WARMUP,
        window,
        tracer: None,
        until: &always,
    };
    // Each phase with the server's CPU time over it and the host's steal.
    let measured = |phase: &Phase| -> Result<(PhaseResult, PhaseCost), String> {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut ticks = vec![Tick::now(&server)];
                while !stop.load(Ordering::Relaxed) {
                    let second = Instant::now();
                    while second.elapsed() < Duration::from_secs(1) && !stop.load(Ordering::Relaxed)
                    {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    ticks.push(Tick::now(&server));
                }
                ticks
            });
            let result = drive(phase, &qc, &pc);
            stop.store(true, Ordering::Relaxed);
            let ticks: Option<Vec<Tick>> =
                sampler.join().expect("cost sampler panicked").into_iter().collect();
            let ticks = ticks.ok_or("cannot read the server's or the host's CPU time")?;
            Ok((result?, PhaseCost::from_ticks(&ticks)))
        })
    };
    let (load_run, load_cost) = measured(&load)?;
    // The query and write costs are each taken where the server serves
    // nothing else: `read_repeat`'s load phase, else a phase with the reader
    // alone, and a closing phase with the writer alone.
    let (read_run, read_cost) = if mixed {
        let reads = Phase { writer: false, warmup: Duration::ZERO, window: window / 2, ..load };
        let (run, cost) = measured(&reads)?;
        (Some(run), cost)
    } else {
        (None, load_cost.clone())
    };
    let write =
        Phase { readers: 0, writer: true, warmup: Duration::ZERO, window: window / 2, ..load };
    let (mut write_run, write_cost) = measured(&write)?;
    let shed = scrape_counter(server.addr, "tklus_serve_shed_total")?;
    let rss_kb = server.peak_rss_kb().ok_or("cannot read the server's VmHWM")?;
    let drain = server.stop()?;

    let mut load_samples = load_run.samples;
    verify(env, &mut load_samples);
    verify(env, &mut write_run.samples);
    let q = latencies(&load_samples, Kind::Query);
    let w_mixed = latencies(&load_samples, Kind::Ingest);
    let w_alone = latencies(&write_run.samples, Kind::Ingest);
    if let Some(mut run) = read_run {
        verify(env, &mut run.samples);
        load_samples.extend(run.samples);
    }
    let mut samples = load_samples;
    samples.extend(write_run.samples);
    let acked = acked_ids(env, &samples);
    let wal = check_wal(&wal_dir, &acked)?;
    let mut problems = wal.problems;
    if mixed && wal.generation < MIN_GENERATIONS {
        problems.push(format!("WAL reached generation {} < {MIN_GENERATIONS}", wal.generation));
    }
    for s in &samples {
        if let Outcome::Wrong(why) = outcome(s) {
            problems.push(format!("wrong answer to query {}: {why}", s.idx));
        }
    }
    problems.truncate(20);

    let measured_all = latencies(&samples, Kind::Query);
    let attempted = measured_all.attempted() + w_mixed.attempted() + w_alone.attempted();
    let failed = measured_all.failed() + w_mixed.failed() + w_alone.failed();
    let (Some(query_cpu_s), Some(ingest_cpu_s)) = (read_cost.per_answer, write_cost.calm) else {
        return Err("a cost phase answered nothing".into());
    };
    let metrics = vec![
        ("setup_s", median(&setup_cpu).expect("spawned"), "s"),
        ("query_cpu_ms", query_cpu_s * 1e3, "ms"),
        ("ingest_cpu_us_per_post", ingest_cpu_s * 1e6, "us"),
        ("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio"),
        ("server_rss_mb", rss_kb as f64 / 1024.0, "MB"),
        ("store_bytes_per_post", wal.bytes as f64 / acked.len().max(1) as f64, "B"),
    ];
    // Wall-clock figures: reported, not gated (see README.md).
    let fail_ms = REQUEST_TIMEOUT.as_secs_f64() * 1e3;
    let figures = |l: &Latencies, window_s: f64, tail: f64| -> String {
        let f = |p: f64| l.percentile(p, fail_ms).map_or("null".into(), |v| v.to_string());
        format!(
            "{{\"per_s\": {}, \"p50_ms\": {}, \"p{}_ms\": {}, \"samples\": {}}}",
            l.ok() as f64 / window_s,
            f(0.5),
            tail * 100.0,
            f(tail),
            l.attempted()
        )
    };
    let mut context = common_context(env);
    context.extend([
        ("setup_cpu_samples_s", format!("{setup_cpu:?}")),
        ("setup_wall_samples_s", format!("{setups:?}")),
        ("load_window_s", format!("{:.3}", load_run.window_s)),
        ("queries", figures(&q, load_run.window_s, 0.9)),
        ("ingest_alone", figures(&w_alone, write_run.window_s, 0.99)),
        (
            "ingest_beside_reads",
            if mixed { figures(&w_mixed, load_run.window_s, 0.99) } else { "null".into() },
        ),
        ("load_phase", load_cost.json()),
        ("reads_phase", if mixed { read_cost.json() } else { "null".into() }),
        ("writes_phase", write_cost.json()),
        ("queries_per_second", format!("{:?}", per_second(&samples, Kind::Query))),
        ("ingests_per_second", format!("{:?}", per_second(&samples, Kind::Ingest))),
        ("failed_frac", format!("{}", failed as f64 / attempted.max(1) as f64)),
        ("acked_posts", acked.len().to_string()),
        ("wal_generation", wal.generation.to_string()),
        ("server_shed_total", shed.to_string()),
        (
            "drain",
            json_str(drain.iter().find(|l| l.starts_with("shutdown:")).map_or("", |l| l.as_str())),
        ),
    ]);
    Ok(Report { correct: problems.is_empty(), attempted, failed, metrics, context, problems })
}

fn run_traced(env: &Env) -> Result<Report, String> {
    let args = &env.args;
    let (server, _, _) = env.spawn(0)?;
    let wal_dir = env.path("wal-0");
    let tracer =
        Tracer::new(Arc::clone(&env.engine), &env.path("trace-store"), &env.path("trace-writer"))?;
    // The traced phase replays the untraced phase's query sequence from
    // its start, so the two are compared request for request.
    let (qc, pc, traced_qc) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let mixed = args.workload == Workload::IngestMixed;
    let compacted = || tracer.compactions() >= MIN_COMPACTIONS;
    let plain_enough = || qc.load(Ordering::Relaxed) >= 2 * MIN_TRACED_QUERIES;
    let traced_enough =
        || traced_qc.load(Ordering::Relaxed) >= MIN_TRACED_QUERIES && (!mixed || compacted());
    // One reader: each traced query is replayed in this process right
    // after its round trip, and a second reader's replays would contend
    // with the round trip, swamping the sub-millisecond self times.
    let readers = 1;
    let stop = AtomicBool::new(false);
    let mut samples = Vec::new();
    let (untraced, traced) =
        std::thread::scope(|s| -> Result<(Vec<Sample>, Vec<Sample>), String> {
            let compactor = s.spawn(|| -> Result<(), String> {
                while !stop.load(Ordering::Relaxed) {
                    tracer.compact_if_due()?;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(())
            });
            let result = (|| {
                let plain = Phase {
                    addr: server.addr,
                    env,
                    readers,
                    writer: mixed,
                    warmup: WARMUP,
                    window: half,
                    tracer: None,
                    until: &plain_enough,
                };
                let untraced = drive(&plain, &qc, &pc)?.samples;
                let traced_phase = Phase {
                    warmup: Duration::ZERO,
                    tracer: Some(&tracer),
                    until: &traced_enough,
                    ..plain
                };
                let traced = drive(&traced_phase, &traced_qc, &pc)?.samples;
                if !mixed {
                    let window = Duration::from_secs(args.seconds) / 2;
                    let ingest = Phase {
                        readers: 0,
                        writer: true,
                        window,
                        until: &compacted,
                        ..traced_phase
                    };
                    samples.extend(drive(&ingest, &traced_qc, &pc)?.samples);
                }
                Ok((untraced, traced))
            })();
            stop.store(true, Ordering::Relaxed);
            compactor.join().map_err(|_| "compaction thread panicked")??;
            result
        })?;
    // Tracing overhead: the traced round trips of the queries both phases
    // answered, against their untraced round trips.
    let ok_rtt = |v: &[Sample]| -> HashMap<usize, f64> {
        v.iter()
            .filter(|s| {
                s.kind == Kind::Query && s.measured && matches!(&s.result, Ok(r) if r.status == 200)
            })
            .map(|s| (s.idx, s.latency_ms()))
            .collect()
    };
    let (base_rtt, traced_rtt) = (ok_rtt(&untraced), ok_rtt(&traced));
    let pairs: Vec<(f64, f64)> =
        traced_rtt.iter().filter_map(|(i, t)| base_rtt.get(i).map(|b| (*b, *t))).collect();
    if pairs.len() < MIN_TRACED_QUERIES / 2 {
        return Err(format!("only {} queries answered both untraced and traced", pairs.len()));
    }
    let (base, with) = pairs.iter().fold((0.0, 0.0), |(b, t), (pb, pt)| (b + pb, t + pt));
    samples.extend(untraced);
    samples.extend(traced);
    let shed = scrape_counter(server.addr, "tklus_serve_shed_total")?;
    server.stop()?;
    verify(env, &mut samples);
    let acked = acked_ids(env, &samples);
    let mut problems = check_wal(&wal_dir, &acked)?.problems;
    for s in &samples {
        if let Outcome::Wrong(why) = outcome(s) {
            problems.push(format!("wrong answer to query {}: {why}", s.idx));
        }
    }
    problems.truncate(20);

    let spans = tracer.spans.take();
    let layer = tracer.metrics(&spans, shed, env.build_s, (with - base) / base);
    trace::check_complete(&layer)?;
    let spans_path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed));
    trace::write_spans(&spans_path, &spans)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    tracer.shutdown();

    let units: HashMap<&str, &'static str> = trace::PER_LAYER.into_iter().collect();
    let metrics = layer.into_iter().map(|(n, v)| (n, v, units[n])).collect();
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.measured).collect();
    let failed = measured.iter().filter(|s| !outcome(s).is_ok()).count();
    let mut context = common_context(env);
    context.extend([
        ("spans", spans.len().to_string()),
        ("spans_file", json_str(&spans_path.to_string_lossy())),
        ("overhead_pairs", pairs.len().to_string()),
        ("untraced_query_mean_ms", (base / pairs.len() as f64).to_string()),
        ("traced_query_mean_ms", (with / pairs.len() as f64).to_string()),
        ("shard", json_str("not reachable from serve-http; unmeasured")),
    ]);
    Ok(Report {
        correct: problems.is_empty(),
        attempted: measured.len(),
        failed,
        metrics,
        context,
        problems,
    })
}

/// One reading of the server's CPU time, the host's busy and steal ticks
/// and the answers received so far.
struct Tick {
    cpu_s: f64,
    busy: u64,
    steal: u64,
    answered: usize,
}

impl Tick {
    fn now(server: &ServerProc) -> Option<Self> {
        let (busy, steal) = server::host_ticks()?;
        let answered = ANSWERED.load(Ordering::Relaxed);
        Some(Self { cpu_s: server.cpu_seconds()?, busy, steal, answered })
    }
}

/// The server's CPU cost over one phase, from per-second [`Tick`]s.
#[derive(Debug, Clone)]
struct PhaseCost {
    /// Server CPU seconds over the whole phase.
    cpu_s: f64,
    /// Share of the CPU time the host took from this machine's virtual
    /// CPUs (steal) over the whole phase.
    steal: f64,
    /// Server CPU seconds per answer over the whole phase.
    per_answer: Option<f64>,
    /// Server CPU seconds per answer over the calmer half of the phase's
    /// seconds, those with the least steal. The host takes CPUs away in
    /// bursts, and while it does every instruction runs slower, so this
    /// is the cost of the request rather than of the neighbours. It needs
    /// many small requests a second: a second holds a handful of queries,
    /// too few to pick seconds without picking the queries.
    calm: Option<f64>,
}

impl PhaseCost {
    fn from_ticks(ticks: &[Tick]) -> Self {
        let steal_of = |a: &Tick, b: &Tick| {
            let steal = b.steal.saturating_sub(a.steal) as f64;
            steal / (b.busy.saturating_sub(a.busy) as f64 + steal).max(1.0)
        };
        let mut seconds: Vec<(f64, f64, usize)> = ticks
            .windows(2)
            .map(|w| {
                (steal_of(&w[0], &w[1]), w[1].cpu_s - w[0].cpu_s, w[1].answered - w[0].answered)
            })
            .filter(|&(_, _, answered)| answered > 0)
            .collect();
        seconds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let calm = &seconds[..seconds.len().div_ceil(2)];
        let (cpu, answered) = calm.iter().fold((0.0, 0), |(c, n), s| (c + s.1, n + s.2));
        let (first, last) = (&ticks[0], &ticks[ticks.len() - 1]);
        let (cpu_s, total) = (last.cpu_s - first.cpu_s, last.answered - first.answered);
        Self {
            cpu_s,
            steal: steal_of(first, last),
            per_answer: (total > 0).then(|| cpu_s / total as f64),
            calm: (answered > 0).then(|| cpu / answered as f64),
        }
    }

    fn json(&self) -> String {
        format!("{{\"server_cpu_s\": {}, \"steal_frac\": {}}}", self.cpu_s, self.steal)
    }
}

fn common_context(env: &Env) -> Vec<(&'static str, String)> {
    let a = &env.args;
    vec![
        ("workload", json_str(a.workload.name())),
        ("trace", a.trace.to_string()),
        ("host_cores", env.host_cores.to_string()),
        (
            "client_threads",
            json_str(match (a.workload, a.trace) {
                (Workload::IngestMixed, _) => "1 reader + 1 writer",
                (_, false) => "2 readers, then 1 writer",
                (_, true) => "1 reader, then 1 writer",
            }),
        ),
        ("connections", CLIENTS.to_string()),
        ("seed", a.seed.to_string()),
        (
            "seeds",
            format!(
                "{{\"corpus\": {}, \"stream\": {}, \"ingest\": {}}}",
                workload::CORPUS_SEED,
                env.seeds.stream,
                env.seeds.ingest
            ),
        ),
        ("corpus_posts", env.corpus_posts.to_string()),
        ("corpus_users", env.corpus_users.to_string()),
        ("query_stream_len", env.queries.len().to_string()),
        ("ingest_stream_len", env.posts.len().to_string()),
        ("fsync", json_str("always (server default)")),
        ("compact_threshold", tklus_wal::StoreConfig::default().compact_threshold.to_string()),
        ("reference_build_s", env.build_s.to_string()),
    ]
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", workload::escape(s))
}

fn print_report(r: &Report) {
    let context: Vec<String> = r.context.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    for p in &r.problems {
        eprintln!("INCORRECT: {p}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn main() {
    let result = parse_args().and_then(Env::prepare).and_then(|env| {
        let report = if env.args.trace { run_traced(&env) } else { run_untraced(&env) };
        drop(env);
        report
    });
    match result {
        Ok(report) => {
            print_report(&report);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
