//! Per-tweet thread level counts, maintained as tweets arrive: the write
//! path's source of Definition 4's popularity.
//!
//! φ(p) depends only on the level sizes `|T_1..T_d|` of p's thread, and a
//! level size is a count of reply paths: `|T_{i+1}|` is the number of
//! downward paths of length `i` from p, which is exactly what Algorithm 1
//! enumerates level by level ([`crate::try_build_thread`]). A new tweet
//! adds paths only below the tweets that reach it, i.e. its ancestors
//! within `d − 1` replies, so keeping every tweet's counts up to date
//! costs O(d) per insert and no reply lookups (the incremental
//! maintenance of arXiv:1805.02009, applied to thread popularity).
//!
//! Arrival order is free: a reply may arrive before its target, which then
//! adopts it, and out-of-order replies can close reply cycles. Algorithm 1
//! unrolls a cycle level by level, counting every lap; the counts here do
//! the same, because the ancestor walk of a tweet on a cycle passes the
//! tweet itself once per lap and adds one shifted copy per visit.
//! `tests/prop_levels.rs` holds φ bitwise equal to Algorithm 1 over random
//! forests, arrival orders, missing targets, self-replies and cycles.

use crate::popularity::popularity;
use std::collections::HashMap;
use tklus_model::TweetId;

/// Parent slot of a tweet whose reply target is absent (or that replies
/// to nothing).
const NO_PARENT: u32 = u32::MAX;

/// Thread level counts for every inserted tweet, truncated at the thread
/// depth `d`. Tweets are numbered by insertion order ("slots"); the store
/// keeps its per-post records in the same order, so a slot indexes both.
///
/// Memory is one map entry plus `4·d` bytes per tweet: a `u32` parent slot
/// and `d − 1` `u32` counts (level 1 is the tweet itself). A count is a
/// number of tweets at one level below one tweet, so it never exceeds the
/// number of tweets inserted.
#[derive(Debug)]
pub struct ThreadLevels {
    depth: usize,
    /// Tweet id → slot.
    slots: HashMap<TweetId, u32>,
    /// Slot → the slot of its reply target, or [`NO_PARENT`].
    parent: Vec<u32>,
    /// `|T_2|..|T_d|` per slot, `depth − 1` counts each.
    counts: Vec<u32>,
    /// Reply target not inserted (yet) → the slots replying to it. The
    /// target adopts them when it arrives.
    orphans: HashMap<TweetId, Vec<u32>>,
}

impl ThreadLevels {
    /// Empty counts for threads truncated at `depth` levels (Algorithm 1's
    /// `d`; the root is level 1).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "thread depth must be at least 1");
        Self {
            depth,
            slots: HashMap::new(),
            parent: Vec::new(),
            counts: Vec::new(),
            orphans: HashMap::new(),
        }
    }

    /// Counts per slot.
    fn stride(&self) -> usize {
        self.depth - 1
    }

    /// Inserts tweet `id`, replying to `target` (if any), and returns its
    /// slot — the number of tweets inserted before it.
    ///
    /// The tweet's own counts are its already-present replies' counts
    /// shifted down one level, and that vector, shifted down `j` levels,
    /// is added to its ancestor `j` replies up, for every `j < d`.
    ///
    /// Panics if `id` is already present.
    pub fn insert(&mut self, id: TweetId, target: Option<TweetId>) -> usize {
        let slot = u32::try_from(self.parent.len()).expect("fewer than 2^32 tweets");
        assert!(slot != NO_PARENT, "fewer than 2^32 tweets");
        assert!(self.slots.insert(id, slot).is_none(), "tweet {id:?} inserted twice");
        // A self-reply finds itself here, which makes it its own parent.
        let parent = match target {
            Some(t) => match self.slots.get(&t) {
                Some(&p) => p,
                None => {
                    self.orphans.entry(t).or_default().push(slot);
                    NO_PARENT
                }
            },
            None => NO_PARENT,
        };
        self.parent.push(parent);

        let stride = self.stride();
        let mut own = vec![0u32; stride];
        for child in self.orphans.remove(&id).unwrap_or_default() {
            self.parent[child as usize] = slot;
            if stride > 0 {
                own[0] += 1;
                let base = child as usize * stride;
                for (to, from) in own[1..].iter_mut().zip(&self.counts[base..]) {
                    *to += from;
                }
            }
        }
        self.counts.extend_from_slice(&own);

        // Ancestor `j` gains one path of length `j` to this tweet (its
        // level `j + 1`) plus this tweet's paths below. On a reply cycle
        // the walk comes back round — to this very tweet, too — and each
        // visit is one more lap of the cycle, as Algorithm 1 counts it.
        let mut at = parent;
        for j in 1..self.depth {
            if at == NO_PARENT {
                break;
            }
            let base = at as usize * stride;
            self.counts[base + j - 1] += 1;
            for (k, add) in own[..stride - j].iter().enumerate() {
                self.counts[base + j + k] += add;
            }
            at = self.parent[at as usize];
        }
        slot as usize
    }

    /// The slot of tweet `id`, if inserted.
    pub fn slot(&self, id: TweetId) -> Option<usize> {
        self.slots.get(&id).map(|&s| s as usize)
    }

    /// The ancestors of `slot` whose threads reach it: its reply target,
    /// the target's target, and so on, at most `d − 1` replies up. Walks
    /// the stored parent links only. On a reply cycle a tweet (`slot`
    /// itself included) can appear more than once.
    pub fn ancestors(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.parent[slot];
        (1..self.depth).map_while(move |_| {
            (at != NO_PARENT).then(|| {
                let here = at as usize;
                at = self.parent[here];
                here
            })
        })
    }

    /// The level sizes of `slot`'s thread, root level first, exactly as
    /// Algorithm 1 builds them to depth `d` (no trailing empty levels).
    pub fn level_sizes(&self, slot: usize) -> Vec<usize> {
        let below = &self.counts_of(slot)[..self.height(slot) - 1];
        std::iter::once(1).chain(below.iter().map(|&c| c as usize)).collect()
    }

    /// Number of levels in `slot`'s thread (1 = no replies).
    pub fn height(&self, slot: usize) -> usize {
        1 + self.counts_of(slot).iter().rposition(|&c| c > 0).map_or(0, |i| i + 1)
    }

    /// `|T_2|..|T_d|` of `slot`'s thread.
    fn counts_of(&self, slot: usize) -> &[u32] {
        &self.counts[slot * self.stride()..(slot + 1) * self.stride()]
    }

    /// Definition 4's φ of `slot`'s thread: [`popularity`] over
    /// [`Self::level_sizes`], so bitwise equal to
    /// `try_build_thread(..).popularity(epsilon)` on the same reply graph.
    pub fn phi(&self, slot: usize, epsilon: f64) -> f64 {
        popularity(&self.level_sizes(slot), epsilon)
    }

    /// The number of direct replies to `id` (its thread's `|T_2|`), present
    /// or not: a target not inserted counts the replies waiting for it.
    /// Always 0 at depth 1, which keeps no level below the root (and where
    /// Definition 11's bound is ε whatever the fan-out).
    pub fn direct_replies(&self, id: TweetId) -> usize {
        match self.slot(id) {
            Some(slot) => self.counts_of(slot).first().map_or(0, |&c| c as usize),
            None => self.orphans.get(&id).map_or(0, Vec::len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels(depth: usize, edges: &[(u64, Option<u64>)]) -> ThreadLevels {
        let mut t = ThreadLevels::new(depth);
        for &(id, target) in edges {
            t.insert(TweetId(id), target.map(TweetId));
        }
        t
    }

    fn sizes(t: &ThreadLevels, id: u64) -> Vec<usize> {
        t.level_sizes(t.slot(TweetId(id)).unwrap())
    }

    #[test]
    fn paper_figure2_counts() {
        // p1 <- p2, p3, p4; p2 <- p5, p6; p3 <- p7; p4 <- p8; p5 <- p9;
        // p6 <- p10.
        let edges = [
            (1, None),
            (2, Some(1)),
            (3, Some(1)),
            (4, Some(1)),
            (5, Some(2)),
            (6, Some(2)),
            (7, Some(3)),
            (8, Some(4)),
            (9, Some(5)),
            (10, Some(6)),
        ];
        let t = levels(10, &edges);
        assert_eq!(sizes(&t, 1), vec![1, 3, 4, 2]);
        assert!((t.phi(0, 0.1) - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(sizes(&t, 2), vec![1, 2, 2]);
        assert_eq!(sizes(&t, 10), vec![1]);
        assert_eq!(t.phi(9, 0.1), 0.1);
        assert_eq!(t.direct_replies(TweetId(1)), 3);
    }

    #[test]
    fn depth_truncates_counts_and_ancestor_walk() {
        let t = levels(3, &[(1, None), (2, Some(1)), (3, Some(2)), (4, Some(3)), (5, Some(4))]);
        assert_eq!(sizes(&t, 1), vec![1, 1, 1]);
        assert_eq!(t.ancestors(4).collect::<Vec<_>>(), vec![3, 2]);
        let flat = levels(1, &[(1, None), (2, Some(1))]);
        assert_eq!(sizes(&flat, 1), vec![1]);
        assert_eq!(flat.ancestors(1).count(), 0);
        assert_eq!(flat.direct_replies(TweetId(1)), 0);
    }

    #[test]
    fn late_target_adopts_its_replies() {
        // 3 replies to 2, 2 replies to 1, arriving leaf first.
        let t = levels(6, &[(3, Some(2)), (4, Some(2)), (2, Some(1)), (1, None)]);
        assert_eq!(t.direct_replies(TweetId(2)), 2);
        assert_eq!(sizes(&t, 1), vec![1, 1, 2]);
        assert_eq!(sizes(&t, 2), vec![1, 2]);
        let waiting = levels(6, &[(3, Some(2)), (4, Some(2))]);
        assert_eq!(waiting.direct_replies(TweetId(2)), 2, "absent target counts its replies");
    }

    #[test]
    fn cycles_unroll_like_algorithm_1() {
        let selfie = levels(4, &[(1, Some(1))]);
        assert_eq!(sizes(&selfie, 1), vec![1, 1, 1, 1]);
        assert_eq!(selfie.ancestors(0).collect::<Vec<_>>(), vec![0, 0, 0]);
        // 1 <-> 2, plus 3 replying to 1.
        let pair = levels(5, &[(1, Some(2)), (3, Some(1)), (2, Some(1))]);
        assert_eq!(sizes(&pair, 1), vec![1, 2, 1, 2, 1]);
        assert_eq!(sizes(&pair, 2), vec![1, 1, 2, 1, 2]);
        assert_eq!(sizes(&pair, 3), vec![1]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_rejected() {
        levels(3, &[(1, None), (1, None)]);
    }
}
