//! Deterministic work-counter gate for the write path: the metadata page
//! reads and writes the ingest store's engine performs to ingest a fixed
//! seeded corpus.
//!
//! The corpus is `work_counters`' (4,000 originals, seed 504,277), ingested
//! in id order over [`SimFs`] with a compaction every 1,024 posts. Reads
//! count every metadata B⁺-tree page the live apply and the compactions'
//! index installs touch; writes count the inserts. Wall-clock ingest time
//! varies with the host; these counters do not. A change that means to
//! move them updates the pins and says why.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::sync::Arc;
use tklus_core::EngineConfig;
use tklus_gen::{generate_corpus, GenConfig};
use tklus_wal::{IngestStore, SimFs, StoreConfig, WalFs};

#[test]
fn ingest_metadata_page_io_is_pinned() {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 4_000,
        users: 4_000 / 3,
        seed: 504_277,
        ..GenConfig::default()
    });
    assert_eq!(corpus.len(), 14_662, "the work_counters corpus");
    let (fs, _) = SimFs::new(504_277);
    let fs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    // The serving configuration: caches off, one worker.
    let config = StoreConfig {
        engine: EngineConfig { parallelism: 1, ..EngineConfig::default() },
        ..StoreConfig::default()
    };
    let (store, _) = IngestStore::open(fs, config).unwrap();
    for (i, post) in corpus.posts().iter().enumerate() {
        store.ingest(post.clone()).unwrap();
        if (i + 1) % 1_024 == 0 {
            assert!(store.compact().unwrap());
        }
    }
    // About 5.9 reads and 2.8 writes per post. The reads are the inserts'
    // root-to-leaf descents plus the exact hot-term bounds the index
    // installs compute with Algorithm 1; φ on the apply path comes from the
    // thread level counts and reads no page. (Resolving each reply's
    // ancestors and re-running Algorithm 1 for each of them, as the apply
    // path once did, cost 852,329 reads.)
    let io = store.metadata_io();
    assert_eq!((io.page_reads, io.page_writes), (86_297, 41_259), "metadata page I/O moved");
}
