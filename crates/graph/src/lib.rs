//! Social-network substrate: the graph of Definition 2, tweet threads
//! (Definition 3 / Algorithm 1), and popularity scores (Definitions 4 and
//! 11).
//!
//! Thread construction is written against the small [`ReplyProvider`]
//! trait — "who replied to / forwarded this tweet?" — so the same
//! algorithm runs over the in-memory [`SocialNetwork`] (fast, for tests and
//! offline bound precomputation) and over the B⁺-tree-backed metadata
//! database (I/O-counted, the configuration the paper measures; see
//! `tklus-core::metadata`).

pub mod levels;
pub mod network;
pub mod popularity;
pub mod thread;

pub use levels::ThreadLevels;
pub use network::SocialNetwork;
pub use popularity::{harmonic_tail, popularity, upper_bound_popularity};
pub use thread::{build_thread, try_build_thread, ReplyProvider, TryReplyProvider, TweetThread};
