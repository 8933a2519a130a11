//! Property-based tests: the B⁺-tree agrees with a BTreeMap model, and the
//! checksummed page format round-trips / detects corruption.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use tklus_storage::{
    seal_page, verify_page, BPlusTree, BufferPool, CheckedPager, MemPager, PageId, PageStore,
    StorageError, PAGE_HEADER_SIZE, PAGE_SIZE,
};

type Key = (u64, u64);

#[derive(Debug, Clone)]
enum Op {
    Insert(Key, u64),
    Delete(Key),
    Get(Key),
    Scan(Key, Key),
}

fn arb_key() -> impl Strategy<Value = Key> {
    // Small key space to force collisions and updates.
    (0u64..64, 0u64..8)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Delete),
        arb_key().prop_map(Op::Get),
        (arb_key(), arb_key()).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_model(ops in proptest::collection::vec(arb_op(), 1..400)) {
        // The tree runs over the full production stack: buffer pool over
        // checksummed pages.
        let mut tree: BPlusTree<_, 8> =
            BPlusTree::new(BufferPool::new(CheckedPager::new(MemPager::new()), 8)).unwrap();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let old = tree.insert(k, v.to_le_bytes()).unwrap();
                    prop_assert_eq!(old.map(u64::from_le_bytes), model.insert(k, v));
                }
                Op::Delete(k) => {
                    let old = tree.delete(k).unwrap();
                    prop_assert_eq!(old.map(u64::from_le_bytes), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(k).unwrap().map(u64::from_le_bytes), model.get(&k).copied());
                }
                Op::Scan(lo, hi) => {
                    let got: Vec<(Key, u64)> =
                        tree.scan(lo, hi).unwrap().into_iter().map(|(k, v)| (k, u64::from_le_bytes(v))).collect();
                    let want: Vec<(Key, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
    }

    #[test]
    fn bulk_load_equals_model(mut keys in proptest::collection::btree_set((0u64..10_000, 0u64..4), 0..800)) {
        let entries: Vec<(Key, [u8; 8])> = keys
            .iter()
            .map(|&k| (k, (k.0 * 10 + k.1).to_le_bytes()))
            .collect();
        let tree: BPlusTree<_, 8> = BPlusTree::bulk_load(MemPager::new(), &entries).unwrap();
        prop_assert_eq!(tree.len(), entries.len() as u64);
        // Full scan returns everything in order.
        let all = tree.scan((0, 0), (u64::MAX, u64::MAX)).unwrap();
        prop_assert_eq!(all.len(), entries.len());
        for ((k, v), (ek, ev)) in all.iter().zip(&entries) {
            prop_assert_eq!(k, ek);
            prop_assert_eq!(v, ev);
        }
        // Spot lookups.
        if let Some(first) = keys.pop_first() {
            prop_assert!(tree.get(first).unwrap().is_some());
        }
        prop_assert_eq!(tree.get((u64::MAX, u64::MAX)).unwrap(), None);
    }

    #[test]
    fn scan_major_is_group_lookup(pairs in proptest::collection::btree_set((0u64..20, 0u64..50), 0..300)) {
        let entries: Vec<(Key, [u8; 0])> = pairs.iter().map(|&k| (k, [])).collect();
        let tree: BPlusTree<_, 0> = BPlusTree::bulk_load(MemPager::new(), &entries).unwrap();
        for major in 0u64..20 {
            let got: Vec<Key> = tree.scan_major(major).unwrap().into_iter().map(|(k, _)| k).collect();
            let want: Vec<Key> = pairs.iter().copied().filter(|k| k.0 == major).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Checksum round-trip: any payload seals and verifies; flipping any
    /// single bit anywhere in the sealed page is detected as a typed error.
    #[test]
    fn checksum_roundtrip_and_single_bit_detection(
        payload in proptest::collection::vec(any::<u8>(), 64),
        offsets in proptest::collection::vec(0usize..PAGE_SIZE, 8),
        bit in 0u8..8,
    ) {
        let mut page = tklus_storage::page::zeroed_page();
        // Scatter the payload across the payload area deterministically.
        for (i, b) in payload.iter().enumerate() {
            let pos = PAGE_HEADER_SIZE + (i * 61) % (PAGE_SIZE - PAGE_HEADER_SIZE);
            page[pos] = *b;
        }
        seal_page(&mut page);
        prop_assert!(verify_page(&page, PageId(0)).is_ok());
        for &off in &offsets {
            let mut bad = page.clone();
            bad[off] ^= 1 << bit;
            let verdict = verify_page(&bad, PageId(3));
            prop_assert!(
                matches!(
                    verdict,
                    Err(StorageError::PageCorrupt { .. }) | Err(StorageError::BadPageHeader { .. })
                ),
                "flip at byte {} bit {} escaped detection", off, bit
            );
        }
    }

    /// The checked pager round-trips arbitrary payloads bit-for-bit.
    #[test]
    fn checked_pager_roundtrip(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let mut page = tklus_storage::page::zeroed_page();
        page[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + payload.len()].copy_from_slice(&payload);
        store.write(id, &page).unwrap();
        let got = store.read(id).unwrap();
        prop_assert_eq!(&got[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + payload.len()], &payload[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Large-scale churn against the model: enough keys to span many
    /// leaves, so deletes exercise borrow/merge rebalancing.
    #[test]
    fn churn_matches_model_across_leaves(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree: BPlusTree<_, 8> =
            BPlusTree::new(BufferPool::new(CheckedPager::new(MemPager::new()), 64)).unwrap();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();
        // Load 3000 keys, then randomly delete/insert/get 3000 times.
        for _ in 0..3000 {
            let k = (rng.gen_range(0u64..5000), 0u64);
            let v: u64 = rng.gen();
            tree.insert(k, v.to_le_bytes()).unwrap();
            model.insert(k, v);
        }
        for _ in 0..3000 {
            let k = (rng.gen_range(0u64..5000), 0u64);
            match rng.gen_range(0..3) {
                0 => {
                    prop_assert_eq!(tree.delete(k).unwrap().map(u64::from_le_bytes), model.remove(&k));
                }
                1 => {
                    let v: u64 = rng.gen();
                    prop_assert_eq!(tree.insert(k, v.to_le_bytes()).unwrap().map(u64::from_le_bytes), model.insert(k, v));
                }
                _ => {
                    prop_assert_eq!(tree.get(k).unwrap().map(u64::from_le_bytes), model.get(&k).copied());
                }
            }
        }
        // Final full scan agrees.
        let got: Vec<(Key, u64)> =
            tree.scan((0, 0), (u64::MAX, u64::MAX)).unwrap().into_iter().map(|(k, v)| (k, u64::from_le_bytes(v))).collect();
        let want: Vec<(Key, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(tree.len(), model.len() as u64);
    }
}

/// Byte-at-a-time reflected IEEE CRC32: the reference the slice-by-16
/// [`tklus_storage::crc32`] must match bit for bit.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *slot = c;
    }
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slice-by-16 equals the byte-wise loop over random lengths 0–8 KiB
    /// and start offsets, so stored checksums (pages, WAL frames, seal
    /// files, index `checksums.tsv`) keep their meaning.
    #[test]
    fn crc32_matches_bytewise_reference(
        buf in proptest::collection::vec(any::<u8>(), 0..8208),
        start in 0usize..16,
        len in 0usize..=8192,
    ) {
        let start = start.min(buf.len());
        let end = (start + len).min(buf.len());
        let slice = &buf[start..end];
        prop_assert_eq!(tklus_storage::crc32(slice), crc32_bytewise(slice));
    }
}
