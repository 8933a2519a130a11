//! Thread level counts ≡ Algorithm 1.
//!
//! After every insert, every inserted tweet's counted level sizes and φ
//! must equal, bit for bit, Algorithm 1 over a provider that holds exactly
//! the reply edges inserted so far. The generated reply graphs cover
//! forests of up to 80 tweets at depth 1–8, arbitrary arrival orders
//! (replies before their targets), targets that never arrive,
//! self-replies, and 2- and 3-cycles.

use proptest::prelude::*;
use std::collections::HashMap;
use tklus_graph::{build_thread, ReplyProvider, ThreadLevels};
use tklus_model::TweetId;

/// The reply edges inserted so far.
#[derive(Default)]
struct Edges(HashMap<TweetId, Vec<TweetId>>);

impl ReplyProvider for &Edges {
    fn replies_to(&mut self, id: TweetId) -> Vec<TweetId> {
        self.0.get(&id).cloned().unwrap_or_default()
    }
}

const MAX_TWEETS: usize = 80;

/// Tweet `i` has id `i + 1`; targets outside `1..=n` never arrive.
fn targets(
    n: usize,
    codes: &[u32],
    picks: &[u32],
    cycles: &[(u32, u32, u32, u32)],
) -> Vec<Option<u64>> {
    let mut out: Vec<Option<u64>> = (0..n)
        .map(|i| match codes[i] % 100 {
            0..=24 => None,
            // Forest edges: a reply to an earlier tweet.
            25..=79 if i > 0 => Some(u64::from(picks[i]) % i as u64 + 1),
            25..=79 => None,
            80..=87 => Some(10_000 + u64::from(codes[i])),
            88..=91 => Some(i as u64 + 1),
            // Any tweet, later ones included: closes cycles now and then.
            _ => Some(u64::from(picks[i]) % n as u64 + 1),
        })
        .collect();
    // Planted 2- and 3-cycles over distinct tweets.
    for &(a, b, c, three) in cycles {
        let (a, b, c) = (a as usize % n, b as usize % n, c as usize % n);
        if three % 2 == 1 && a != b && b != c && a != c {
            out[a] = Some(b as u64 + 1);
            out[b] = Some(c as u64 + 1);
            out[c] = Some(a as u64 + 1);
        } else if a != b {
            out[a] = Some(b as u64 + 1);
            out[b] = Some(a as u64 + 1);
        }
    }
    out
}

/// A permutation of `0..n` ordered by `keys`.
fn arrival_order(n: usize, keys: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn counted_phi_equals_algorithm_1_after_every_insert(
        n in 1usize..=MAX_TWEETS,
        depth in 1usize..=8,
        codes in proptest::collection::vec(0u32..1_000, MAX_TWEETS),
        picks in proptest::collection::vec(0u32..1_000, MAX_TWEETS),
        keys in proptest::collection::vec(0u32..1_000, MAX_TWEETS),
        cycles in proptest::collection::vec((0u32..80, 0u32..80, 0u32..80, 0u32..2), 0..3),
        shuffle in 0u32..4,
    ) {
        let targets = targets(n, &codes, &picks, &cycles);
        // One case in four arrives in id order; the rest shuffled.
        let order = if shuffle == 0 { (0..n).collect() } else { arrival_order(n, &keys) };
        let mut counts = ThreadLevels::new(depth);
        let mut edges = Edges::default();
        let mut inserted: Vec<TweetId> = Vec::new();
        for &i in &order {
            let id = TweetId(i as u64 + 1);
            let target = targets[i].map(TweetId);
            let slot = counts.insert(id, target);
            prop_assert_eq!(slot, inserted.len());
            if let Some(t) = target {
                edges.0.entry(t).or_default().push(id);
            }
            inserted.push(id);
            for (slot, &tid) in inserted.iter().enumerate() {
                let thread = build_thread(&mut &edges, tid, depth);
                prop_assert_eq!(counts.level_sizes(slot), thread.level_sizes(), "tweet {:?}", tid);
                let (got, want) = (counts.phi(slot, 0.1), thread.popularity(0.1));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "tweet {:?}: {} vs {}", tid, got, want);
                let replies = if depth > 1 { thread.level(1).len() } else { 0 };
                prop_assert_eq!(counts.direct_replies(tid), replies);
            }
        }
        // A target that never arrived counts the replies waiting for it.
        for t in targets.iter().flatten().filter(|&&t| t > n as u64) {
            let waiting = targets.iter().filter(|&&x| x == Some(*t)).count();
            prop_assert_eq!(counts.direct_replies(TweetId(*t)), waiting);
        }
    }
}
