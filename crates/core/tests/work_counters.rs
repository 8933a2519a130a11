//! Deterministic work-counter gate: physical metadata page reads.
//!
//! The paper runs its experiments with database caches off, so every
//! B⁺-tree probe is a physical page read and `QueryStats::
//! metadata_page_reads` is the I/O cost its figures count. Wall-clock
//! time varies with the host; this counter does not. The test pins it
//! for a fixed seeded corpus and the Section VI-B1 query set, so an
//! optimisation of *how* a page is read (checksum, decode) can never
//! silently change *how many* pages a query reads. A change that means to
//! move these numbers updates the pins and says why.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_model::{Semantics, TklusQuery};

/// Page reads per keyword-count bucket (1, 2, 3 keywords) and in total.
#[derive(Debug, PartialEq, Eq)]
struct Reads {
    by_keywords: [u64; 3],
    total: u64,
}

const RANKINGS: [Ranking; 3] =
    [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords), Ranking::Max(BoundsMode::Global)];

/// Runs the 90 queries at 10 km, k = 1, OR semantics under each of
/// [`RANKINGS`], in that order. At k = 1 both Maximum-score bound modes
/// prune on this corpus, so the pins cover the prune's savings too.
fn measure() -> Vec<Reads> {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 4_000,
        users: 4_000 / 3,
        seed: 504_277,
        ..GenConfig::default()
    });
    // Caches off and one worker: the paper's configuration, and no
    // speculative Maximum-score probes.
    let config = EngineConfig { parallelism: 1, ..EngineConfig::default() };
    let (engine, _) = TklusEngine::build(&corpus, &config);
    let specs = generate_queries(&corpus, &QueryConfig::default());
    assert_eq!(specs.len(), 90, "the Section VI-B1 query set");

    RANKINGS
        .into_iter()
        .map(|ranking| {
            let mut by_keywords = [0u64; 3];
            for spec in &specs {
                let q =
                    TklusQuery::new(spec.location, 10.0, spec.keywords.clone(), 1, Semantics::Or)
                        .unwrap();
                let (_, stats) = engine.query(&q, ranking);
                by_keywords[spec.keywords.len() - 1] += stats.metadata_page_reads;
            }
            Reads { by_keywords, total: by_keywords.iter().sum() }
        })
        .collect()
}

#[test]
fn metadata_page_reads_are_pinned() {
    // Sum, Max with hot-keyword bounds, Max with the global bound.
    let pinned = vec![
        Reads { by_keywords: [12_704, 37_605, 45_028], total: 95_337 },
        Reads { by_keywords: [12_417, 37_343, 42_901], total: 92_661 },
        Reads { by_keywords: [12_704, 37_357, 43_157], total: 93_218 },
    ];
    assert_eq!(measure(), pinned, "metadata page reads moved");
}
