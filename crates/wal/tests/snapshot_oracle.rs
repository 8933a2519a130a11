//! Snapshot-equality oracle (DESIGN.md §15 acceptance).
//!
//! The ingest store's contract is that a query over "sealed ∪ live" is
//! **bitwise** equal to the same query against a from-scratch
//! [`TklusEngine`] built over the identical post set — same users, same
//! float bits, same order. This suite builds both sides over a generated
//! corpus split into a sealed prefix (ingested then compacted) and a live
//! suffix (ingested after compaction, so its postings sit in the
//! memtable), and asserts equality across Sum/Max × OR/AND × both bound
//! modes, including replies that land in sealed threads and raise φ after
//! sealing.
//!
//! A multi-round family seals the corpus over seven compactions — each a
//! delta build merged into the sealed index — with replies into threads
//! sealed rounds earlier, terms first seen late that climb into the hot
//! set, and ids ingested out of order. After every round the answers
//! match a from-scratch engine bitwise, the sealed index equals a full
//! build over the sealed posts, the hot set equals a full build's, and
//! the bounds audit is clean; a reopen then matches again.
//!
//! An out-of-order family ingests a shuffled corpus — many replies
//! before their targets, plus a self-reply and a 2-cycle — across three
//! compaction rounds, a live tail and a reopen, with the same bitwise
//! bars and a clean audit (which includes the thread level counts giving
//! Algorithm 1's φ for every post).
//!
//! A second family asserts the loosen-only bound-refresh soundness
//! invariant directly: after any ingest sequence, every hot-keyword bound
//! dominates φ(p) of every acked post carrying that keyword, and the
//! global bound dominates every hot bound's subject too.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::sync::Arc;
use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_index::{build_index, HybridIndex};
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};
use tklus_wal::{IngestStore, SimFs, StoreConfig, WalFs};

fn engine_config() -> EngineConfig {
    EngineConfig { cache_pages: 0, parallelism: 1, ..EngineConfig::default() }
}

fn corpus(seed: u64) -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 220,
        users: 50,
        vocab_size: 250,
        seed,
        ..GenConfig::default()
    })
}

fn queries(corpus: &Corpus) -> Vec<(TklusQuery, Ranking)> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 3, seed: 0x5EED });
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking = match i % 3 {
                0 => Ranking::Sum,
                1 => Ranking::Max(BoundsMode::HotKeywords),
                _ => Ranking::Max(BoundsMode::Global),
            };
            let q = TklusQuery::new(spec.location, 20.0, spec.keywords, 5, semantics)
                .expect("generated query is valid");
            (q, ranking)
        })
        .collect()
}

/// Ingests `posts[..split]`, compacts (sealing them), ingests the rest
/// live, and returns the store.
fn store_with_split(posts: &[Post], split: usize) -> IngestStore {
    let (fs, _) = SimFs::new(0x0AC1E);
    let fs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    let config = StoreConfig { engine: engine_config(), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(fs, config).unwrap();
    for p in &posts[..split] {
        store.ingest(p.clone()).unwrap();
    }
    assert_eq!(store.compact().unwrap(), split > 0, "compact seals iff something is live");
    for p in &posts[split..] {
        store.ingest(p.clone()).unwrap();
    }
    assert_eq!(store.live_posts(), posts.len() - split);
    store
}

#[test]
fn merged_snapshot_queries_match_from_scratch_engine_bitwise() {
    let corpus = corpus(42);
    let posts = corpus.posts().to_vec();
    let split = posts.len() * 3 / 5;
    let store = store_with_split(&posts, split);

    let (reference, _) = TklusEngine::try_build(&corpus, &engine_config()).unwrap();
    let qs = queries(&corpus);
    assert!(qs.len() >= 9, "query workload must exercise every ranking arm");
    let mut nonempty = 0;
    for (q, ranking) in &qs {
        let got = store.try_query(q, *ranking).unwrap();
        let want = reference.try_query(q, *ranking).unwrap().users;
        assert_eq!(got, want, "query {q:?} ranking {ranking:?} diverged from oracle");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "oracle run is vacuous: every query came back empty");
}

#[test]
fn live_replies_into_sealed_threads_stay_exact() {
    // Seal a corpus, then ingest replies whose targets are *sealed* posts:
    // the replies raise sealed threads' φ, so the sealed engine's cached
    // bounds must loosen (and its thread cache invalidate) for the merged
    // answer to stay exact.
    let corpus = corpus(77);
    let posts = corpus.posts().to_vec();
    let store = store_with_split(&posts, posts.len());
    assert_eq!(store.live_posts(), 0);

    let first_id = posts.iter().map(|p| p.id.0).max().unwrap() + 1;
    let mut all = posts.clone();
    let targets = posts.iter().filter(|p| p.in_reply_to.is_none()).take(12);
    for (next_id, target) in (first_id..).zip(targets) {
        let reply = Post::reply(
            tklus_model::TweetId(next_id),
            tklus_model::UserId(next_id % 40),
            target.location,
            target.text.clone(),
            target.id,
            target.user,
        );
        store.ingest(reply.clone()).unwrap();
        all.push(reply);
    }

    let full = Corpus::new(all).unwrap();
    let (reference, _) = TklusEngine::try_build(&full, &engine_config()).unwrap();
    for (q, ranking) in queries(&full) {
        let got = store.try_query(&q, ranking).unwrap();
        let want = reference.try_query(&q, ranking).unwrap().users;
        assert_eq!(got, want, "post-reply query {q:?} ranking {ranking:?} diverged");
    }
}

#[test]
fn compaction_preserves_answers_at_every_boundary() {
    // Answers must be invariant across the sealed/live boundary: any
    // split of the same post set, compacted or not, yields the oracle's
    // bytes.
    let corpus = corpus(9);
    let posts: Vec<Post> = corpus.posts().iter().take(120).cloned().collect();
    let full = Corpus::new(posts.clone()).unwrap();
    let (reference, _) = TklusEngine::try_build(&full, &engine_config()).unwrap();
    let qs: Vec<(TklusQuery, Ranking)> = queries(&full).into_iter().take(6).collect();
    for split in [0, posts.len() / 4, posts.len() / 2, posts.len()] {
        let store = store_with_split(&posts, split);
        for (q, ranking) in &qs {
            let got = store.try_query(q, *ranking).unwrap();
            let want = reference.try_query(q, *ranking).unwrap().users;
            assert_eq!(got, want, "split {split}: query diverged from oracle");
        }
    }
}

#[test]
fn hot_bounds_dominate_every_acked_thread_popularity() {
    // The loosen-only refresh soundness invariant, asserted directly: for
    // every acked post p and every hot term t in p's text,
    // hot_bound(t) ≥ φ(p) — under the full reply graph including live
    // replies into sealed threads. (Algorithm 5's prune consults exactly
    // these bounds for sealed candidates.)
    for seed in [5u64, 6, 7] {
        let corpus = corpus(seed);
        let posts = corpus.posts().to_vec();
        let split = posts.len() / 2;
        let store = store_with_split(&posts, split);
        let audit = store.check_bounds_soundness().unwrap();
        assert!(
            audit.violations.is_empty(),
            "seed {seed}: bounds underestimate φ for {:?}",
            audit.violations
        );
        assert!(audit.checked > 0, "soundness sweep is vacuous: no hot term matched any post");
        assert_eq!(audit.phi_mismatches, 0, "seed {seed}: counted φ differs from Algorithm 1");
    }
}

// ---------------------------------------------------------------------
// Multi-round merges
// ---------------------------------------------------------------------

/// Terms no generated post carries, introduced in later rounds.
const LATE_TERMS: [&str; 2] = ["zeppelin", "quokka"];

/// The generated corpus reshaped into compaction rounds that stress the
/// merge: originals that no reply targets are held back a round (ids
/// ingested out of order, interleaving with the next round's ids); from
/// round 3 on, posts carrying [`LATE_TERMS`] arrive with high term
/// frequency (new terms that climb into the hot set); and every round
/// after the first also replies into threads sealed in earlier rounds.
fn merge_rounds(seed: u64, rounds: usize) -> Vec<Vec<Post>> {
    let corpus = corpus(seed);
    let posts = corpus.posts();
    let targets: std::collections::HashSet<TweetId> =
        posts.iter().filter_map(|p| p.in_reply_to.map(|r| r.target)).collect();
    let mut next_id = posts.iter().map(|p| p.id.0).max().unwrap() + 1;
    let chunk = posts.len().div_ceil(rounds);
    let mut out: Vec<Vec<Post>> = vec![Vec::new(); rounds];
    let mut held = Vec::new();
    for (r, batch) in posts.chunks(chunk).enumerate() {
        out[r].append(&mut held);
        for p in batch {
            let late = r + 1 < rounds && p.in_reply_to.is_none() && !targets.contains(&p.id);
            if late && p.id.0 % 5 == 0 {
                held.push(p.clone());
            } else {
                out[r].push(p.clone());
            }
        }
        if r >= 2 {
            let term = LATE_TERMS[r % LATE_TERMS.len()];
            for k in 0..25u64 {
                let anchor = &batch[(k as usize * 7) % batch.len()];
                let text = format!("{term} {term} {term} {term} near {}", anchor.text);
                let id = TweetId(next_id);
                next_id += 1;
                out[r].push(Post::original(id, UserId(k % 30), anchor.location, text));
                if k % 4 == 0 {
                    let reply = Post::reply(
                        TweetId(next_id),
                        UserId(k % 30 + 1),
                        anchor.location,
                        format!("{term} indeed"),
                        id,
                        UserId(k % 30),
                    );
                    next_id += 1;
                    out[r].push(reply);
                }
            }
        }
        if r >= 1 {
            let sealed: Vec<Post> = out[..r].iter().flatten().cloned().collect();
            for target in sealed.iter().step_by(17).take(6) {
                let reply = Post::reply(
                    TweetId(next_id),
                    UserId(next_id % 40),
                    target.location,
                    target.text.clone(),
                    target.id,
                    target.user,
                );
                next_id += 1;
                out[r].push(reply);
            }
        }
    }
    out
}

/// The generated queries plus queries over the late terms, every one of
/// them under each of Sum/Max × OR/AND × both bound modes.
fn round_queries(corpus: &Corpus) -> Vec<(TklusQuery, Ranking)> {
    let mut base: Vec<TklusQuery> =
        queries(corpus).into_iter().map(|(q, _)| q).step_by(2).collect();
    for (i, term) in LATE_TERMS.iter().enumerate() {
        let at = corpus.posts()[i * 31 % corpus.len()].location;
        let keywords = vec![term.to_string(), "hotel".to_string()];
        base.push(TklusQuery::new(at, 50.0, keywords, 5, Semantics::Or).unwrap());
        base.push(TklusQuery::new(at, 50.0, vec![term.to_string()], 5, Semantics::And).unwrap());
    }
    let rankings =
        [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords), Ranking::Max(BoundsMode::Global)];
    let mut out = Vec::new();
    for q in base {
        for semantics in [Semantics::Or, Semantics::And] {
            let q = TklusQuery { semantics, ..q.clone() };
            out.extend(rankings.iter().map(|&r| (q.clone(), r)));
        }
    }
    out
}

fn assert_index_equals_build(got: &HybridIndex, posts: &[Post], ctx: &str) {
    let (want, _) = build_index(posts, &engine_config().index);
    let fg: Vec<_> = got.forward().iter().copied().collect();
    let fw: Vec<_> = want.forward().iter().copied().collect();
    assert!(fg == fw, "{ctx}: sealed directory differs from a full build");
    let vg: Vec<_> = got.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
    let vw: Vec<_> = want.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
    assert!(vg == vw, "{ctx}: sealed vocabulary differs from a full build");
    assert_eq!(got.dfs().list(), want.dfs().list(), "{ctx}");
    for file in want.dfs().list() {
        assert!(
            got.dfs().read_all(&file).unwrap() == want.dfs().read_all(&file).unwrap(),
            "{ctx}: partition {file} differs from a full build"
        );
    }
}

/// Answers of `store` equal a from-scratch engine over `posts`, bitwise;
/// returns the from-scratch engine's hot terms.
fn assert_store_matches_scratch(store: &IngestStore, posts: &[Post], ctx: &str) -> Vec<String> {
    let full = Corpus::new(posts.to_vec()).unwrap();
    let (reference, _) = TklusEngine::try_build(&full, &engine_config()).unwrap();
    let mut nonempty = 0;
    for (q, ranking) in round_queries(&full) {
        let got = store.try_query(&q, ranking).unwrap();
        let want = reference.try_query(&q, ranking).unwrap().users;
        assert_eq!(got, want, "{ctx}: query {q:?} ranking {ranking:?} diverged from oracle");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "{ctx}: every query came back empty");
    reference.hot_terms()
}

#[test]
fn multi_round_merges_match_from_scratch_engine_bitwise() {
    let rounds = merge_rounds(31, 7);
    let (fs, _) = SimFs::new(0x3E46E);
    let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
    let config = StoreConfig { engine: engine_config(), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(walfs, config.clone()).unwrap();

    let mut acked: Vec<Post> = Vec::new();
    let mut hot_sets: Vec<Vec<String>> = Vec::new();
    for (r, batch) in rounds.iter().enumerate() {
        for p in batch {
            store.ingest(p.clone()).unwrap();
            acked.push(p.clone());
        }
        assert!(store.compact().unwrap(), "round {r} sealed nothing");
        assert_eq!(store.generation(), r as u64 + 1);
        let ctx = format!("round {r}");
        let scratch_hot = assert_store_matches_scratch(&store, &acked, &ctx);
        assert_index_equals_build(&store.sealed_index(), &acked, &ctx);
        assert_eq!(store.hot_terms(), scratch_hot, "{ctx}: hot set differs from a full build");
        let audit = store.check_bounds_soundness().unwrap();
        assert!(audit.violations.is_empty(), "{ctx}: unsound bounds {:?}", audit.violations);
        assert!(audit.checked > 0, "{ctx}: soundness sweep is vacuous");
        assert_eq!(audit.phi_mismatches, 0, "{ctx}: counted φ differs from Algorithm 1");
        hot_sets.push(scratch_hot);
    }
    assert!(rounds.len() >= 6, "at least six merge rounds");
    assert!(
        hot_sets.windows(2).any(|w| w[0] != w[1]),
        "the hot set never changed across rounds: {hot_sets:?}"
    );
    assert!(
        LATE_TERMS.iter().any(|t| hot_sets.last().unwrap().iter().any(|h| h == t)),
        "no late term became hot: {:?}",
        hot_sets.last()
    );

    // A live tail on top of the merged index, then a reopen: the full
    // build at open must agree with the merged state bit for bit.
    let tail: Vec<Post> = merge_rounds(32, 7)[0]
        .iter()
        .filter(|p| p.in_reply_to.is_none())
        .take(20)
        .enumerate()
        .map(|(i, p)| {
            let id = TweetId(1_000_000 + i as u64);
            Post::original(id, p.user, p.location, format!("{} zeppelin", p.text))
        })
        .collect();
    for p in &tail {
        store.ingest(p.clone()).unwrap();
        acked.push(p.clone());
    }
    let before = assert_store_matches_scratch(&store, &acked, "live tail");
    drop(store);
    let walfs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    let (reopened, report) = IngestStore::open(walfs, config).unwrap();
    assert_eq!(report.sealed_posts + report.live_posts, acked.len());
    assert_eq!(assert_store_matches_scratch(&reopened, &acked, "after reopen"), before);
}

// ---------------------------------------------------------------------
// Out-of-order arrivals
// ---------------------------------------------------------------------

/// The generated corpus plus a self-reply and a 2-cycle with a reply
/// hanging off it, in a shuffled arrival order that delivers many replies
/// before their targets.
fn shuffled_with_cycles(seed: u64) -> Vec<Post> {
    let corpus = corpus(seed);
    let mut posts = corpus.posts().to_vec();
    let next = posts.iter().map(|p| p.id.0).max().unwrap() + 1;
    let anchor = posts[posts.len() / 3].clone();
    let reply = |id: u64, target: u64, text: &str| {
        Post::reply(
            TweetId(id),
            UserId(id % 40),
            anchor.location,
            format!("{text} {}", anchor.text),
            TweetId(target),
            UserId(target % 40),
        )
    };
    posts.push(reply(next, next, "talking to myself"));
    posts.push(reply(next + 1, next + 2, "you first"));
    posts.push(reply(next + 2, next + 1, "no you"));
    posts.push(reply(next + 3, next + 1, "both of you"));
    posts.sort_by_key(|p| (p.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40, p.id));
    posts
}

#[test]
fn shuffled_arrivals_and_reply_cycles_match_from_scratch_engine_bitwise() {
    let posts = shuffled_with_cycles(53);
    let arrived: std::collections::HashSet<TweetId> = posts.iter().map(|p| p.id).collect();
    let mut seen = std::collections::HashSet::new();
    let early = posts
        .iter()
        .filter(|p| {
            seen.insert(p.id);
            p.in_reply_to.is_some_and(|r| arrived.contains(&r.target) && !seen.contains(&r.target))
        })
        .count();
    assert!(early >= 20, "only {early} replies arrive before their targets");

    let (fs, _) = SimFs::new(0x5AFF1E);
    let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
    let config = StoreConfig { engine: engine_config(), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(walfs, config.clone()).unwrap();
    let check = |store: &IngestStore, acked: &[Post], ctx: &str| {
        assert_store_matches_scratch(store, acked, ctx);
        let audit = store.check_bounds_soundness().unwrap();
        assert!(audit.violations.is_empty(), "{ctx}: unsound bounds {:?}", audit.violations);
        assert!(audit.checked > 0, "{ctx}: soundness sweep is vacuous");
        assert_eq!(audit.phi_mismatches, 0, "{ctx}: counted φ differs from Algorithm 1");
    };

    // Three compaction rounds, then a live tail.
    let chunk = posts.len().div_ceil(4);
    let mut acked: Vec<Post> = Vec::new();
    for (r, batch) in posts.chunks(chunk).enumerate() {
        for p in batch {
            store.ingest(p.clone()).unwrap();
            acked.push(p.clone());
        }
        if r < 3 {
            assert!(store.compact().unwrap(), "round {r} sealed nothing");
        }
        check(&store, &acked, &format!("round {r}"));
    }
    assert!(store.live_posts() > 0, "the last batch stays live");
    drop(store);
    let walfs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    let (reopened, report) = IngestStore::open(walfs, config).unwrap();
    assert_eq!(report.sealed_posts + report.live_posts, acked.len());
    check(&reopened, &acked, "after reopen");
}

#[test]
fn thread_cache_entries_grown_by_live_replies_are_evicted() {
    // With the thread cache on, every query caches φ of the threads it
    // scores; each ingest must evict the entries of its ancestors within
    // d − 1 replies, or the next answer reads a stale φ.
    // Live batches between queries, over shuffled arrivals and cycles.
    let posts = shuffled_with_cycles(61);
    let (fs, _) = SimFs::new(0xCAC4E);
    let fs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    let mut engine = engine_config();
    engine.caches.thread = 4096;
    let config = StoreConfig { engine, ..StoreConfig::default() };
    let (store, _) = IngestStore::open(fs, config).unwrap();
    let half = posts.len() / 2;
    for p in &posts[..half] {
        store.ingest(p.clone()).unwrap();
    }
    assert!(store.compact().unwrap());
    assert_store_matches_scratch(&store, &posts[..half], "sealed half");
    let mut end = half;
    for (b, batch) in posts[half..].chunks(40).enumerate() {
        for p in batch {
            store.ingest(p.clone()).unwrap();
        }
        end += batch.len();
        assert_store_matches_scratch(&store, &posts[..end], &format!("live batch {b}"));
    }
    assert!(store.live_posts() > 0);
}
