//! Relevance feedback — the extension the paper's architecture is built to
//! admit (§3: the ranking side is plain IR, so it is "easier to extend and
//! enhance with additional IR methods for ranking, such as relevance
//! feedback").
//!
//! The model is deliberately simple and classical: every recorded click is
//! evidence that a *definition* answers queries shaped like this one. The
//! store keeps per-`(template signature, definition)` counts and yields a
//! multiplicative boost that the engine folds into its type score. Counts
//! use additive smoothing so early clicks move rankings without letting a
//! single click dominate.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One template signature's clicks. The total and the per-definition
/// counts live in one value under one lock, so a reader never sees a click
/// without its total.
#[derive(Debug, Default)]
struct SignatureClicks {
    /// Clicks on any definition.
    total: u64,
    /// `definition → clicks`.
    per_definition: HashMap<String, u64>,
}

impl SignatureClicks {
    fn clicks(&self, definition: &str) -> u64 {
        self.per_definition.get(definition).copied().unwrap_or(0)
    }

    /// The smoothed share of [`FeedbackStore::boost`].
    fn boost(&self, definition: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // additive smoothing: one pseudo-count spread over the signature
        self.clicks(definition) as f64 / (self.total as f64 + 1.0)
    }
}

/// Accumulated click feedback. Thread-safe; shared by reference with the
/// engine (reads during search, writes on click).
#[derive(Debug, Default)]
pub struct FeedbackStore {
    /// `template signature → clicks`. Lookups borrow the caller's `&str`,
    /// so no read allocates.
    signatures: RwLock<HashMap<String, SignatureClicks>>,
    /// Bumped on every write; consumers that memoize anything derived from
    /// feedback (the engine's query cache) stamp their entries with this and
    /// treat a mismatch as stale.
    generation: AtomicU64,
}

impl FeedbackStore {
    /// Empty store.
    pub fn new() -> Self {
        FeedbackStore::default()
    }

    /// Record that a user clicked an instance of `definition` after issuing
    /// a query with `signature`.
    pub fn record(&self, signature: &str, definition: &str) {
        {
            let mut signatures = self.signatures.write();
            let entry = signatures.entry(signature.to_string()).or_default();
            entry.total += 1;
            *entry
                .per_definition
                .entry(definition.to_string())
                .or_insert(0) += 1;
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Monotonic write counter: changes iff any click was recorded since the
    /// value was last observed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of clicks recorded for `(signature, definition)`.
    pub fn clicks(&self, signature: &str, definition: &str) -> u64 {
        self.signatures
            .read()
            .get(signature)
            .map_or(0, |s| s.clicks(definition))
    }

    /// Total clicks for a signature.
    pub fn total(&self, signature: &str) -> u64 {
        self.signatures.read().get(signature).map_or(0, |s| s.total)
    }

    /// Click-through boost in `[0, 1)`: the smoothed share of this
    /// signature's clicks that landed on `definition`. With no evidence the
    /// boost is 0 — feedback only ever *adds* signal. The click count and
    /// the total are read under one lock, so a concurrent
    /// [`FeedbackStore::record`] can never make the share reach 1.
    pub fn boost(&self, signature: &str, definition: &str) -> f64 {
        self.signatures
            .read()
            .get(signature)
            .map_or(0.0, |s| s.boost(definition))
    }

    /// [`FeedbackStore::boost`] for every name in `definitions`, in order,
    /// written into `out` (cleared first) under one read lock — one
    /// consistent view for a whole query. Returns the number of map
    /// lookups made: one for the signature, plus one per definition when
    /// the signature has clicks.
    pub fn boosts_into<'d>(
        &self,
        signature: &str,
        definitions: impl IntoIterator<Item = &'d str>,
        out: &mut Vec<f64>,
    ) -> u64 {
        out.clear();
        let signatures = self.signatures.read();
        match signatures.get(signature) {
            Some(s) => {
                out.extend(definitions.into_iter().map(|d| s.boost(d)));
                1 + out.len() as u64
            }
            None => {
                out.extend(definitions.into_iter().map(|_| 0.0));
                1
            }
        }
    }

    /// Number of distinct signatures with any feedback.
    pub fn num_signatures(&self) -> usize {
        self.signatures.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_boosts_nothing() {
        let s = FeedbackStore::new();
        assert_eq!(s.boost("[movie.title] cast", "movie_cast"), 0.0);
        assert_eq!(s.total("[movie.title] cast"), 0);
        assert_eq!(s.num_signatures(), 0);
    }

    #[test]
    fn generation_advances_on_every_record() {
        let s = FeedbackStore::new();
        let g0 = s.generation();
        s.record("[movie.title]", "movie_page");
        let g1 = s.generation();
        assert!(g1 > g0);
        s.record("[movie.title]", "movie_page");
        assert!(s.generation() > g1);
    }

    #[test]
    fn clicks_accumulate_per_signature_and_definition() {
        let s = FeedbackStore::new();
        s.record("[movie.title]", "movie_page");
        s.record("[movie.title]", "movie_page");
        s.record("[movie.title]", "movie_cast");
        assert_eq!(s.clicks("[movie.title]", "movie_page"), 2);
        assert_eq!(s.clicks("[movie.title]", "movie_cast"), 1);
        assert_eq!(s.total("[movie.title]"), 3);
        assert_eq!(s.num_signatures(), 1);
    }

    #[test]
    fn boost_is_smoothed_share() {
        let s = FeedbackStore::new();
        for _ in 0..3 {
            s.record("[person.name]", "person_page");
        }
        s.record("[person.name]", "person_awards");
        // person_page: 3/(4+1) = 0.6; person_awards: 1/5 = 0.2
        assert!((s.boost("[person.name]", "person_page") - 0.6).abs() < 1e-12);
        assert!((s.boost("[person.name]", "person_awards") - 0.2).abs() < 1e-12);
        // unrelated signature untouched
        assert_eq!(s.boost("[movie.title]", "person_page"), 0.0);
    }

    #[test]
    fn boost_bounded_below_one() {
        let s = FeedbackStore::new();
        for _ in 0..1000 {
            s.record("q", "d");
        }
        let b = s.boost("q", "d");
        assert!(b > 0.99 && b < 1.0);
    }

    #[test]
    fn concurrent_records_are_safe() {
        use std::sync::Arc;
        let s = Arc::new(FeedbackStore::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.record("sig", "def");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.total("sig"), 400);
    }

    #[test]
    fn boosts_into_matches_per_definition_boost() {
        let s = FeedbackStore::new();
        let defs = ["movie_page", "movie_cast", "person_page"];
        let mut out = vec![9.0];
        assert_eq!(s.boosts_into("[movie.title]", defs, &mut out), 1);
        assert_eq!(out, vec![0.0; 3]);
        s.record("[movie.title]", "movie_cast");
        s.record("[movie.title]", "movie_cast");
        s.record("[movie.title]", "movie_page");
        assert_eq!(s.boosts_into("[movie.title]", defs, &mut out), 4);
        let each: Vec<f64> = defs.iter().map(|d| s.boost("[movie.title]", d)).collect();
        assert_eq!(out, each);
        assert_eq!(out, vec![0.25, 0.5, 0.0]);
    }

    #[test]
    fn concurrent_reads_see_consistent_counts() {
        // Writers record one definition, so the share c/(t+1) is below 1
        // in every consistent state; a reader that saw a click without its
        // total would read a share of 1.
        const WRITES: usize = 2_000;
        let s = FeedbackStore::new();
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..WRITES {
                        s.record("sig", "def");
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut reads = 0u64;
                    while done.load(Ordering::Acquire) < 4 || reads < 100 {
                        let clicks = s.clicks("sig", "def");
                        let total = s.total("sig");
                        assert!(clicks <= total, "clicks {clicks} > total {total}");
                        let boost = s.boost("sig", "def");
                        assert!(boost < 1.0, "boost {boost} at total {total}");
                        reads += 1;
                    }
                });
            }
        });
        assert_eq!(s.total("sig"), 4 * WRITES as u64);
        assert_eq!(s.clicks("sig", "def"), 4 * WRITES as u64);
    }
}
