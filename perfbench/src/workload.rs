//! Seeded workload definitions: the corpus, the query streams and the
//! ingest stream each workload sends, all pure functions of `--seed`.

use tklus_core::{BoundsMode, Ranking};
use tklus_gen::keywords::EXTRA_QUERY_KEYWORDS;
use tklus_gen::{
    generate_corpus, generate_queries, CityModel, GenConfig, QueryConfig, TABLE2_KEYWORDS,
};
use tklus_geo::Point;
use tklus_model::{Corpus, InteractionKind, Post, Semantics, TklusQuery};

/// Original posts in the served corpus (cascades roughly quadruple it).
pub const CORPUS_ORIGINAL_POSTS: usize = 20_000;
/// Radius of every `read_repeat` query.
pub const REPEAT_RADIUS_KM: f64 = 10.0;
/// Radii `read_unique` draws from, each equally often.
pub const UNIQUE_RADII_KM: [f64; 5] = [1.0, 5.0, 10.0, 25.0, 50.0];
/// Result size of every query.
pub const K: usize = 10;
/// Zipf exponent of the `read_repeat` query popularity.
pub const ZIPF_S: f64 = 1.0;
/// Arrival deadline every query request carries, in milliseconds. Wide
/// enough that no query is cut short by the serving layer's budget, so
/// every answer must equal the full in-process answer.
pub const QUERY_DEADLINE_MS: u64 = 60_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two readers replaying a Zipf-skewed draw from the 90 standard queries.
    ReadRepeat,
    /// Two readers sending queries that never repeat.
    ReadUnique,
    /// One writer streaming posts while one reader runs `read_repeat`'s stream.
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ReadRepeat, Workload::ReadUnique, Workload::IngestMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadRepeat => "read_repeat",
            Workload::ReadUnique => "read_unique",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The three rankings a query stream rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankingKind {
    Sum,
    MaxHot,
    MaxGlobal,
}

pub const RANKINGS: [RankingKind; 3] =
    [RankingKind::Sum, RankingKind::MaxHot, RankingKind::MaxGlobal];

impl RankingKind {
    pub fn wire_name(self) -> &'static str {
        match self {
            RankingKind::Sum => "sum",
            RankingKind::MaxHot => "max_hot",
            RankingKind::MaxGlobal => "max_global",
        }
    }

    pub fn ranking(self) -> Ranking {
        match self {
            RankingKind::Sum => Ranking::Sum,
            RankingKind::MaxHot => Ranking::Max(BoundsMode::HotKeywords),
            RankingKind::MaxGlobal => Ranking::Max(BoundsMode::Global),
        }
    }
}

/// One `/query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReq {
    pub location: Point,
    pub radius_km: f64,
    pub keywords: Vec<String>,
    pub ranking: RankingKind,
}

impl QueryReq {
    /// The JSON body. Floats use Rust's shortest round-trip rendering, so
    /// the server parses back exactly the coordinates the reference uses.
    pub fn body(&self) -> String {
        let kws: Vec<String> = self.keywords.iter().map(|k| format!("\"{}\"", escape(k))).collect();
        format!(
            "{{\"lat\":{},\"lon\":{},\"radius_km\":{},\"keywords\":[{}],\"k\":{K},\
             \"semantics\":\"or\",\"ranking\":\"{}\",\"deadline_ms\":{QUERY_DEADLINE_MS}}}",
            self.location.lat(),
            self.location.lon(),
            self.radius_km,
            kws.join(","),
            self.ranking.wire_name(),
        )
    }

    /// The engine query the server decodes from [`Self::body`].
    pub fn to_query(&self) -> TklusQuery {
        TklusQuery::new(self.location, self.radius_km, self.keywords.clone(), K, Semantics::Or)
            .expect("generated queries are valid")
    }

    /// Identity of the request, bit-exact in every float.
    pub fn key(&self) -> (u64, u64, u64, Vec<String>, RankingKind) {
        (
            self.location.lat().to_bits(),
            self.location.lon().to_bits(),
            self.radius_km.to_bits(),
            self.keywords.clone(),
            self.ranking,
        )
    }
}

/// Escapes a string for a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The JSON body of one `/ingest` request.
pub fn ingest_body(post: &Post) -> String {
    let mut body = format!(
        "{{\"id\":{},\"user\":{},\"lat\":{},\"lon\":{},\"text\":\"{}\"",
        post.id.0,
        post.user.0,
        post.location.lat(),
        post.location.lon(),
        escape(&post.text)
    );
    if let Some(r) = &post.in_reply_to {
        let kind = match r.kind {
            InteractionKind::Reply => "reply",
            InteractionKind::Forward => "forward",
        };
        body.push_str(&format!(
            ",\"reply_to\":{{\"id\":{},\"user\":{},\"kind\":\"{kind}\"}}",
            r.target.0, r.target_user.0
        ));
    }
    body.push('}');
    body
}

/// SplitMix64: a small seeded generator whose output the benchmark pins
/// in its own tests, independent of any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seed of the served corpus: the reference corpus (20,000 original
/// posts) the ROADMAP's measurements name. Every run serves the same data;
/// `--seed` draws the traffic.
pub const CORPUS_SEED: u64 = 504_277;
/// Seed of the fixed popularity order over the 90 standard queries.
const POPULARITY_SEED: u64 = 0x90_90;

/// Independent sub-seeds for each input `--seed` draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub stream: u64,
    pub ingest: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut g = SplitMix64::new(seed);
        Self { stream: g.next_u64(), ingest: g.next_u64() }
    }
}

/// The served corpus (`standard_corpus` sizing: users = posts / 3).
pub fn served_corpus() -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: CORPUS_ORIGINAL_POSTS,
        users: CORPUS_ORIGINAL_POSTS / 3,
        seed: CORPUS_SEED,
        ..GenConfig::default()
    })
}

/// The ingest stream: a second corpus, sent in id order (every reply
/// after its target).
pub fn ingest_corpus(seed: u64, original_posts: usize) -> Corpus {
    generate_corpus(&GenConfig {
        original_posts,
        users: (original_posts / 3).max(50),
        seed,
        ..GenConfig::default()
    })
}

/// Requests per stratified block of the `read_repeat` stream.
pub const ZIPF_BLOCK: usize = 100;
/// Requests per stratified block of `read_unique`'s city mix.
pub const CITY_BLOCK: usize = 60;

/// `n` indices drawn with probability proportional to `weights` by
/// systematic sampling: block `b` takes the points `(j + o_b) / block`,
/// `j < block`, of the CDF, with offsets `o_b` stepping by the golden ratio
/// so successive blocks reach every index over time. Each block therefore
/// holds every index in proportion, and its composition does not depend
/// on the seed; the seed only shuffles the order within each block. A run
/// gets through the same mix, up to one block, whatever the seed, which
/// keeps its latency figures from drifting with the seed.
pub fn stratified_draws(
    weights: &[f64],
    n: usize,
    block: usize,
    rng: &mut SplitMix64,
) -> Vec<usize> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = cdf.last().copied().unwrap_or(0.0);
    let mut out = Vec::with_capacity(n + block);
    let mut offset = 0.5;
    while out.len() < n {
        let mut draws: Vec<usize> = (0..block)
            .map(|j| {
                let u = (j as f64 + offset) / block as f64 * total;
                cdf.partition_point(|&c| c <= u).min(weights.len() - 1)
            })
            .collect();
        rng.shuffle(&mut draws);
        out.extend(draws);
        offset = (offset + GOLDEN).fract();
    }
    out.truncate(n);
    out
}

/// Zipf(`s`) weights of ranks `0..len`: rank `r` weighs `1 / (r + 1)^s`.
pub fn zipf_weights(len: usize, s: f64) -> Vec<f64> {
    (0..len).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect()
}

/// `read_repeat`'s stream of `n` requests: the 90 Section VI-B1 queries
/// (the standard set, `QueryConfig::default()`) at 10 km, drawn Zipf(1)
/// by seed over a fixed popularity order; each query's successive
/// appearances rotate through sum / max-hot / max-global. The popularity
/// order is fixed so every seed samples the same traffic mix; the seed
/// picks which requests, in which order.
pub fn repeat_stream(corpus: &Corpus, seeds: &Seeds, n: usize) -> Vec<QueryReq> {
    let specs = generate_queries(corpus, &QueryConfig::default());
    let mut order: Vec<usize> = (0..specs.len()).collect();
    SplitMix64::new(POPULARITY_SEED).shuffle(&mut order);
    let mut seen = vec![0usize; specs.len()];
    stratified_draws(
        &zipf_weights(specs.len(), ZIPF_S),
        n,
        ZIPF_BLOCK,
        &mut SplitMix64::new(seeds.stream),
    )
    .into_iter()
    .map(|rank| {
        let spec = &specs[order[rank]];
        seen[rank] += 1;
        QueryReq {
            location: spec.location,
            radius_km: REPEAT_RADIUS_KM,
            keywords: spec.keywords.clone(),
            ranking: RANKINGS[(seen[rank] - 1) % RANKINGS.len()],
        }
    })
    .collect()
}

/// `read_unique`'s stream of `n` requests, no two alike, every input
/// fresh per seed and stratified so each run sees the same mix:
/// * keyword sets follow the Section VI-B1 recipe, 1-, 2- and 3-keyword
///   sets equally often; 1-keyword sets cycle through the 30-keyword pool
///   in seeded order, 2- and 3-keyword sets are the recipe's draws;
/// * locations are corpus post locations (the corpus's own spatial
///   distribution), taken from each city in proportion to its posts;
/// * each pair of a radius of [`UNIQUE_RADII_KM`] and a keyword count once
///   per block of 15, seeded order;
/// * rankings rotate sum / max-hot / max-global.
pub fn unique_stream(corpus: &Corpus, seeds: &Seeds, n: usize) -> Vec<QueryReq> {
    // Duplicates are skipped, so keep spare keyword sets and city draws.
    let per_bucket = n + 8;
    let specs = generate_queries(corpus, &QueryConfig { per_bucket, seed: seeds.stream });
    let mut rng = SplitMix64::new(seeds.stream ^ 0x0A11_0C47_10E5);
    let mut pool: Vec<&str> =
        TABLE2_KEYWORDS.iter().chain(EXTRA_QUERY_KEYWORDS.iter()).copied().collect();

    let cities = CityModel::default_world();
    let mut by_city: Vec<Vec<Point>> = vec![Vec::new(); cities.cities().len()];
    for post in corpus.posts() {
        let nearest = cities
            .cities()
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let (da, db) = (
                    a.1.center.haversine_km(&post.location),
                    b.1.center.haversine_km(&post.location),
                );
                da.total_cmp(&db)
            })
            .map_or(0, |(i, _)| i);
        by_city[nearest].push(post.location);
    }
    let shares: Vec<f64> = by_city.iter().map(|v| v.len() as f64).collect();
    let mut city_draws = stratified_draws(&shares, 2 * n, CITY_BLOCK, &mut rng).into_iter();

    // Every block of 15 requests holds each (radius, keyword count) pair
    // once, in seeded order.
    let mut shapes: Vec<(f64, usize)> =
        UNIQUE_RADII_KM.iter().flat_map(|&r| (1..=3).map(move |kws| (r, kws))).collect();
    let mut next_set = [0usize; 3];
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<QueryReq> = Vec::with_capacity(n);
    while out.len() < n {
        if out.len().is_multiple_of(shapes.len()) {
            rng.shuffle(&mut shapes);
        }
        let (radius_km, kws) = shapes[out.len() % shapes.len()];
        let set = next_set[kws - 1];
        next_set[kws - 1] += 1;
        let keywords = match kws {
            1 => {
                if set.is_multiple_of(pool.len()) {
                    rng.shuffle(&mut pool);
                }
                vec![pool[set % pool.len()].to_string()]
            }
            _ => specs
                .get((kws - 1) * per_bucket + set)
                .expect("enough keyword sets")
                .keywords
                .clone(),
        };
        let city = city_draws.next().expect("twice as many city draws as requests");
        let location = by_city[city][rng.below(by_city[city].len())];
        let req = QueryReq {
            location,
            radius_km,
            keywords,
            ranking: RANKINGS[out.len() % RANKINGS.len()],
        };
        if seen.insert(req.key()) {
            out.push(req);
        }
    }
    assert_eq!(out.len(), n, "the unique query generator ran dry");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        generate_corpus(&GenConfig {
            original_posts: 1_500,
            users: 500,
            seed: 3,
            ..GenConfig::default()
        })
    }

    #[test]
    fn splitmix_is_pinned() {
        // Reference values of SplitMix64 seeded with 0.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let w = zipf_weights(90, 1.0);
        let a = stratified_draws(&w, 5_000, 100, &mut SplitMix64::new(7));
        let b = stratified_draws(&w, 5_000, 100, &mut SplitMix64::new(7));
        let c = stratified_draws(&w, 5_000, 100, &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The seed orders each block; it does not change what a block holds.
        for (x, y) in a.chunks(100).zip(c.chunks(100)) {
            let (mut x, mut y) = (x.to_vec(), y.to_vec());
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
        // Over enough blocks every rank appears, the rarest included.
        assert!((0..90).all(|r| a.contains(&r)));
        assert!(a.iter().all(|&r| r < 90));
        let mut counts = [0usize; 90];
        for r in &a {
            counts[*r] += 1;
        }
        // Rank 0 carries 1/H_90 ~ 19.7% of the mass, rank 1 half of that.
        let share0 = counts[0] as f64 / a.len() as f64;
        assert!((0.17..0.23).contains(&share0), "rank-0 share {share0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        // Every block of 100 holds rank 0 about 19.7 times.
        for block in a.chunks(100) {
            let n0 = block.iter().filter(|&&r| r == 0).count();
            assert!((19..=21).contains(&n0), "rank 0 appears {n0} times in a block");
        }
    }

    #[test]
    fn repeat_stream_is_deterministic_and_repeats() {
        let corpus = small_corpus();
        let seeds = Seeds::derive(11);
        let a = repeat_stream(&corpus, &seeds, 400);
        assert_eq!(a, repeat_stream(&corpus, &seeds, 400));
        assert_ne!(a, repeat_stream(&corpus, &Seeds::derive(12), 400));
        let distinct: std::collections::HashSet<_> = a.iter().map(QueryReq::key).collect();
        assert!(distinct.len() < 200, "Zipf draws must repeat, got {} distinct", distinct.len());
        assert!(a.iter().all(|q| q.radius_km == REPEAT_RADIUS_KM));
        // Each query's successive appearances rotate through the rankings.
        let same: Vec<&QueryReq> = a
            .iter()
            .filter(|q| q.keywords == a[0].keywords && q.location == a[0].location)
            .collect();
        assert!(same.len() >= 3);
        let rankings: Vec<RankingKind> = same.iter().take(3).map(|q| q.ranking).collect();
        assert_eq!(rankings, RANKINGS);
    }

    #[test]
    fn unique_stream_is_deterministic_unique_and_balanced() {
        let corpus = small_corpus();
        let seeds = Seeds::derive(5);
        let a = unique_stream(&corpus, &seeds, 300);
        assert_eq!(a, unique_stream(&corpus, &seeds, 300));
        assert_ne!(a, unique_stream(&corpus, &Seeds::derive(6), 300));
        let distinct: std::collections::HashSet<_> = a.iter().map(QueryReq::key).collect();
        assert_eq!(distinct.len(), a.len());
        for block in a.chunks(15) {
            let mut shapes: Vec<(u64, usize)> =
                block.iter().map(|q| (q.radius_km.to_bits(), q.keywords.len())).collect();
            shapes.sort_unstable();
            shapes.dedup();
            assert_eq!(shapes.len(), 15, "each (radius, keyword count) pair once per block");
        }
        let rankings: Vec<RankingKind> = a[..3].iter().map(|q| q.ranking).collect();
        assert_eq!(rankings, RANKINGS);
    }

    #[test]
    fn bodies_round_trip_coordinates_exactly() {
        let corpus = small_corpus();
        let q = &repeat_stream(&corpus, &Seeds::derive(1), 1)[0];
        let body = q.body();
        let lat: f64 = field(&body, "\"lat\":").parse().expect("lat");
        assert_eq!(lat.to_bits(), q.location.lat().to_bits());
        let post = corpus.posts().iter().find(|p| p.is_reply()).expect("corpus has replies");
        let ingest = ingest_body(post);
        let lon: f64 = field(&ingest, "\"lon\":").parse().expect("lon");
        assert_eq!(lon.to_bits(), post.location.lon().to_bits());
        assert!(ingest.contains("\"reply_to\""), "{ingest}");
    }

    fn field<'a>(body: &'a str, key: &str) -> &'a str {
        let rest = &body[body.find(key).expect("key") + key.len()..];
        &rest[..rest.find([',', '}']).expect("end")]
    }

    #[test]
    fn escape_quotes_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
