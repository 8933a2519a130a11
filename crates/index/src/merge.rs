//! Exact index merge: fold a small delta index into a large sealed one.
//!
//! [`merge_indexes`] returns the index [`crate::build_index`] would build
//! over the union of two post sets with no shared tweet ids — the same
//! directory, the same term ids and frequencies, the same partition-file
//! bytes — at a cost proportional to the two indexes' bytes instead of a
//! re-run of the MapReduce job over every post. It lays its output out
//! through the build's own layout function, so the two cannot drift.
//!
//! Both inputs store each partition's lists in sorted `⟨geohash, term⟩`
//! order, and a key's partition depends only on the key, so a partition
//! of the result is one linear merge-join of the two inputs' partitions:
//!
//! * a key present on one side only is copied verbatim as encoded bytes;
//! * a key present on both sides is decoded, merged by tweet id, and
//!   re-encoded (the same encoding the build applies to a fresh list);
//! * a term's corpus frequency is the sum of both sides' frequencies.
//!
//! Term ids come out right because the build interns terms in
//! partition-then-key order, and the merge pushes keys in exactly that
//! order.

use crate::block::{BlockPostings, PostingsFormat};
use crate::build::{encode_list, lay_out, IndexBuildConfig, PartitionWriter};
use crate::forward::PostingsLocation;
use crate::inverted::{HybridIndex, IndexError};
use crate::posting::{Posting, PostingsList};
use std::cmp::Ordering;
use tklus_geo::Geohash;
use tklus_text::TermId;

/// One directory entry with its term string, in partition-file order.
struct FileEntry<'a> {
    geohash: Geohash,
    term: &'a str,
    loc: PostingsLocation,
}

/// `index`'s directory entries, ordered as its partition files lay them
/// out: by partition, then by offset — which is sorted `(geohash, term
/// string)` order within a partition.
fn file_order(index: &HybridIndex) -> Vec<FileEntry<'_>> {
    let mut entries: Vec<FileEntry<'_>> = index
        .forward()
        .iter()
        .map(|&((geohash, term), loc)| FileEntry {
            geohash,
            term: index.vocab().term(term).expect("directory terms are interned"),
            loc,
        })
        .collect();
    entries.sort_unstable_by_key(|e| (e.loc.partition, e.loc.offset));
    entries
}

/// The contiguous run of `entries` (in file order) stored in `partition`.
fn partition_run<'e, 'a>(entries: &'e [FileEntry<'a>], partition: u32) -> &'e [FileEntry<'a>] {
    let lo = entries.partition_point(|e| e.loc.partition < partition);
    let hi = entries.partition_point(|e| e.loc.partition <= partition);
    &entries[lo..hi]
}

/// One side of the merge: a partition file's bytes and its entries.
struct Side<'e, 'a> {
    file: String,
    bytes: Vec<u8>,
    entries: &'e [FileEntry<'a>],
}

impl Side<'_, '_> {
    fn load<'e, 'a>(
        index: &HybridIndex,
        entries: &'e [FileEntry<'a>],
        partition: u32,
    ) -> Result<Side<'e, 'a>, IndexError> {
        let file = HybridIndex::partition_file(partition);
        let bytes = index
            .dfs()
            .read_all(&file)
            .map_err(|source| IndexError::Dfs { file: file.clone(), source })?;
        Ok(Side { file, bytes, entries: partition_run(entries, partition) })
    }

    /// The encoded list of entry `i`.
    fn list_bytes(&self, i: usize) -> Result<&[u8], IndexError> {
        let loc = self.entries[i].loc;
        let start = loc.offset as usize;
        self.bytes.get(start..start + loc.len as usize).ok_or_else(|| IndexError::CorruptPostings {
            file: self.file.clone(),
            offset: loc.offset,
            detail: "directory range past the end of the partition file".to_string(),
        })
    }

    /// Decodes entry `i`'s list.
    fn decode(&self, i: usize, format: PostingsFormat) -> Result<PostingsList, IndexError> {
        let raw = self.list_bytes(i)?;
        let corrupt = |e: crate::posting::DecodeError| IndexError::CorruptPostings {
            file: self.file.clone(),
            offset: self.entries[i].loc.offset,
            detail: e.to_string(),
        };
        match format {
            PostingsFormat::Flat => Ok(PostingsList::decode(raw).map_err(corrupt)?.0),
            PostingsFormat::Block => {
                BlockPostings::decode(raw).map_err(corrupt)?.0.to_postings_list().map_err(corrupt)
            }
        }
    }
}

/// Two postings lists with disjoint ids, merged by id.
fn merge_by_id(a: &PostingsList, b: &PostingsList) -> PostingsList {
    let mut out: Vec<Posting> = Vec::with_capacity(a.len() + b.len());
    let mut a = a.postings().iter().copied().peekable();
    let mut b = b.postings().iter().copied().peekable();
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        if x.id < y.id {
            out.extend(a.next());
        } else {
            out.extend(b.next());
        }
    }
    out.extend(a);
    out.extend(b);
    // `new` re-checks order and panics on a shared id: the inputs'
    // post sets must be disjoint.
    PostingsList::new(out)
}

/// One partition of the merge: a linear merge-join of the two sides'
/// key-ordered lists, pushed to `out` in key order.
fn merge_partition(
    a: &Side<'_, '_>,
    b: &Side<'_, '_>,
    format: PostingsFormat,
    out: &mut PartitionWriter<'_>,
) -> Result<(), IndexError> {
    let (mut i, mut j) = (0, 0);
    while i < a.entries.len() || j < b.entries.len() {
        let order = match (a.entries.get(i), b.entries.get(j)) {
            (Some(x), Some(y)) => (x.geohash, x.term).cmp(&(y.geohash, y.term)),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match order {
            Ordering::Less => {
                out.push(a.entries[i].geohash, a.entries[i].term, a.list_bytes(i)?);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b.entries[j].geohash, b.entries[j].term, b.list_bytes(j)?);
                j += 1;
            }
            Ordering::Equal => {
                let list = merge_by_id(&a.decode(i, format)?, &b.decode(j, format)?);
                out.push(a.entries[i].geohash, a.entries[i].term, &encode_list(format, &list));
                i += 1;
                j += 1;
            }
        }
    }
    Ok(())
}

/// Merges `delta` into `sealed`: the result equals [`crate::build_index`]
/// over the union of the two indexes' post sets (which must share no
/// tweet id) under `config`.
///
/// Both inputs must have been built (or merged) under `config`'s geohash
/// length, node count, and postings format; a mismatch panics, since it
/// is a caller bug, not a data condition. A partition file the DFS cannot
/// serve, or bytes that fail to decode, surface as a typed
/// [`IndexError`].
///
/// ```
/// use tklus_index::{build_index, merge_indexes, IndexBuildConfig};
/// use tklus_geo::Point;
/// use tklus_model::{Post, TweetId, UserId};
///
/// let at = Point::new_unchecked(43.7, -79.4);
/// let a = vec![Post::original(TweetId(1), UserId(1), at, "hotel downtown")];
/// let b = vec![Post::original(TweetId(2), UserId(2), at, "hotel spa")];
/// let config = IndexBuildConfig::default();
/// let merged =
///     merge_indexes(&build_index(&a, &config).0, &build_index(&b, &config).0, &config).unwrap();
/// let full = build_index(&[a[0].clone(), b[0].clone()], &config).0;
/// let hotel = full.vocab().get("hotel").unwrap();
/// assert_eq!(merged.vocab().get("hotel"), Some(hotel));
/// assert_eq!(merged.vocab().frequency(hotel), 2);
/// ```
pub fn merge_indexes(
    sealed: &HybridIndex,
    delta: &HybridIndex,
    config: &IndexBuildConfig,
) -> Result<HybridIndex, IndexError> {
    for side in [sealed, delta] {
        assert_eq!(side.geohash_len(), config.geohash_len, "merge inputs share the geohash length");
        assert_eq!(side.postings_format(), config.postings_format, "merge inputs share the format");
        assert_eq!(side.dfs().node_count(), config.nodes, "merge inputs share the partitioning");
    }
    let format = config.postings_format;
    let sealed_entries = file_order(sealed);
    let delta_entries = file_order(delta);
    let mut failure = None;
    let (forward, mut vocab, dfs) = lay_out(config, |part, out| {
        if failure.is_none() {
            let a = Side::load(sealed, &sealed_entries, part as u32);
            let b = Side::load(delta, &delta_entries, part as u32);
            failure = a.and_then(|a| merge_partition(&a, &b?, format, out)).err();
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    // A term's frequency is its occurrences on both sides.
    let totals: Vec<(TermId, u64)> = vocab
        .iter()
        .map(|(id, term, _)| {
            let freq = |side: &HybridIndex| {
                side.vocab().get(term).map_or(0, |t| side.vocab().frequency(t))
            };
            (id, freq(sealed) + freq(delta))
        })
        .collect();
    for (id, total) in totals {
        vocab.add_occurrences(id, total);
    }
    Ok(HybridIndex::new(forward, vocab, dfs, config.geohash_len, format))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use crate::build::build_index;
    use tklus_geo::Point;
    use tklus_model::{Post, TweetId, UserId};

    fn post(id: u64, lat: f64, lon: f64, text: &str) -> Post {
        Post::original(TweetId(id), UserId(id % 3), Point::new_unchecked(lat, lon), text)
    }

    fn assert_same(a: &HybridIndex, b: &HybridIndex) {
        let fa: Vec<_> = a.forward().iter().copied().collect();
        let fb: Vec<_> = b.forward().iter().copied().collect();
        assert_eq!(fa, fb);
        let va: Vec<_> = a.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
        let vb: Vec<_> = b.vocab().iter().map(|(i, t, f)| (i, t.to_string(), f)).collect();
        assert_eq!(va, vb);
        assert_eq!(a.dfs().list(), b.dfs().list());
        for file in a.dfs().list() {
            assert_eq!(
                a.dfs().read_all(&file).unwrap(),
                b.dfs().read_all(&file).unwrap(),
                "{file}"
            );
        }
    }

    #[test]
    fn shared_keys_merge_and_one_sided_keys_copy() {
        let posts = vec![
            post(1, 43.70, -79.40, "hotel downtown hotel"),
            post(2, 43.70, -79.40, "pizza place"),
            post(3, 48.85, 2.35, "hotel paris"),
            post(4, 43.70, -79.40, "hotel spa"),
            post(5, -33.87, 151.21, "beach sunrise"),
        ];
        for format in [PostingsFormat::Flat, PostingsFormat::Block] {
            let config = IndexBuildConfig { postings_format: format, ..Default::default() };
            let (a, b): (Vec<Post>, Vec<Post>) =
                posts.iter().cloned().partition(|p| p.id.0 % 2 == 1);
            let merged =
                merge_indexes(&build_index(&a, &config).0, &build_index(&b, &config).0, &config)
                    .unwrap();
            assert_same(&merged, &build_index(&posts, &config).0);
        }
    }

    #[test]
    fn empty_sides_merge_to_the_other_side() {
        let posts = vec![post(1, 43.70, -79.40, "hotel downtown"), post(2, 48.85, 2.35, "cafe")];
        let config = IndexBuildConfig::default();
        let full = build_index(&posts, &config).0;
        let empty = build_index(&[], &config).0;
        assert_same(&merge_indexes(&full, &empty, &config).unwrap(), &full);
        assert_same(&merge_indexes(&empty, &full, &config).unwrap(), &full);
    }

    #[test]
    fn unreadable_partition_is_a_typed_error() {
        let config = IndexBuildConfig::default();
        let a = build_index(&[post(1, 43.70, -79.40, "hotel")], &config).0;
        let b = build_index(&[post(2, 43.70, -79.40, "hotel")], &config).0;
        for node in 0..config.nodes {
            a.dfs().fail_node(node);
        }
        let Err(err) = merge_indexes(&a, &b, &config) else { panic!("merge read a dead node") };
        assert!(matches!(err, IndexError::Dfs { .. }), "{err}");
    }
}
