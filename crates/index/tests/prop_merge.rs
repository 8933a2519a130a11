//! Merge ≡ build: the exactness contract of [`tklus_index::merge_indexes`].
//!
//! For random posts split into two sets with disjoint, interleaved tweet
//! ids, `merge(build(A), build(B))` must equal `build(A ∪ B)` in every
//! observable part: forward-directory entries, the `(id, term,
//! frequency)` vocabulary, the DFS file list, and every file's bytes.
//! The sweep covers both postings formats, geohash lengths 1–4, 1–4
//! nodes, and an empty side.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_geo::Point;
use tklus_index::{build_index, merge_indexes, HybridIndex, IndexBuildConfig, PostingsFormat};
use tklus_model::{Post, TweetId, UserId};

/// A handful of spread-out places, so keys land in several partitions.
const PLACES: [(f64, f64); 6] = [
    (43.70, -79.40),
    (43.65, -79.38),
    (48.85, 2.35),
    (-33.87, 151.21),
    (35.68, 139.69),
    (-23.55, -46.63),
];

const WORDS: [&str; 12] = [
    "hotel",
    "pizza",
    "beach",
    "coffee",
    "museum",
    "park",
    "spa",
    "restaurant",
    "sunrise",
    "bar",
    "market",
    "train",
];

/// `(place, jitter, words)` per post; word lists repeat terms so tf > 1
/// shows up.
fn arb_posts() -> impl Strategy<Value = Vec<(usize, u32, Vec<usize>)>> {
    proptest::collection::vec(
        (0usize..PLACES.len(), 0u32..1000, proptest::collection::vec(0usize..WORDS.len(), 1..6)),
        0..60,
    )
}

fn to_posts(specs: &[(usize, u32, Vec<usize>)]) -> Vec<Post> {
    specs
        .iter()
        .enumerate()
        .map(|(i, (place, jitter, words))| {
            let (lat, lon) = PLACES[*place];
            let d = f64::from(*jitter) * 1e-4;
            let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            Post::original(
                TweetId(i as u64 + 1),
                UserId(i as u64 % 7),
                Point::new_unchecked(lat + d, lon - d),
                text.join(" "),
            )
        })
        .collect()
}

fn assert_identical(merged: &HybridIndex, full: &HybridIndex) -> Result<(), TestCaseError> {
    let fm: Vec<_> = merged.forward().iter().copied().collect();
    let ff: Vec<_> = full.forward().iter().copied().collect();
    prop_assert_eq!(fm, ff, "forward directories differ");
    let vm: Vec<_> = merged.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
    let vf: Vec<_> = full.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
    prop_assert_eq!(vm, vf, "vocabularies differ");
    prop_assert_eq!(merged.dfs().list(), full.dfs().list(), "DFS file lists differ");
    for file in full.dfs().list() {
        prop_assert_eq!(
            merged.dfs().read_all(&file).unwrap(),
            full.dfs().read_all(&file).unwrap(),
            "partition bytes differ in {}",
            file
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_of_builds_equals_build_of_union(
        specs in arb_posts(),
        // Per post: which side it lands on (interleaved ids).
        sides in proptest::collection::vec(any::<bool>(), 60),
        // 0: A empty, 1: B empty, otherwise the interleaved split.
        mode in 0u8..5,
        geohash_len in 1usize..=4,
        nodes in 1usize..=4,
        flat in any::<bool>(),
    ) {
        let posts = to_posts(&specs);
        let in_a = |i: usize| match mode {
            0 => false,
            1 => true,
            _ => sides[i],
        };
        let (a, b): (Vec<Post>, Vec<Post>) = {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for (i, p) in posts.iter().enumerate() {
                if in_a(i) { a.push(p.clone()) } else { b.push(p.clone()) }
            }
            (a, b)
        };
        let config = IndexBuildConfig {
            geohash_len,
            nodes,
            block_size: 256,
            postings_format: if flat { PostingsFormat::Flat } else { PostingsFormat::Block },
            ..IndexBuildConfig::default()
        };
        let merged = merge_indexes(&build_index(&a, &config).0, &build_index(&b, &config).0, &config)
            .unwrap();
        assert_identical(&merged, &build_index(&posts, &config).0)?;
    }

    /// Folding posts in over several rounds — the compactor's pattern —
    /// stays equal to one build over everything.
    #[test]
    fn repeated_merges_equal_one_build(specs in arb_posts(), rounds in 1usize..5, flat in any::<bool>()) {
        let posts = to_posts(&specs);
        let config = IndexBuildConfig {
            postings_format: if flat { PostingsFormat::Flat } else { PostingsFormat::Block },
            ..IndexBuildConfig::default()
        };
        let mut sealed = build_index(&[], &config).0;
        let chunk = posts.len().div_ceil(rounds).max(1);
        for delta in posts.chunks(chunk) {
            sealed = merge_indexes(&sealed, &build_index(delta, &config).0, &config).unwrap();
        }
        assert_identical(&sealed, &build_index(&posts, &config).0)?;
    }
}
