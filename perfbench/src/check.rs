//! Answer checks: a ranked answer is its result keys in order with their
//! scores to the last bit.

use qunit_core::QunitResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub type Ranked = Vec<(String, u64)>;

pub fn ranked(results: &[QunitResult]) -> Ranked {
    results
        .iter()
        .map(|r| (r.key.clone(), r.score.to_bits()))
        .collect()
}

pub fn same(results: &[QunitResult], expected: &Ranked) -> bool {
    results.len() == expected.len()
        && results
            .iter()
            .zip(expected)
            .all(|(r, (key, bits))| r.key == *key && r.score.to_bits() == *bits)
}

/// The expected answer per query, and a tally of answers that differed.
#[derive(Default)]
pub struct Expected {
    answers: HashMap<String, Ranked>,
    checked: AtomicU64,
    mismatches: AtomicU64,
}

impl Expected {
    pub fn insert(&mut self, query: &str, results: &[QunitResult]) {
        self.answers.insert(query.to_string(), ranked(results));
    }

    pub fn contains(&self, query: &str) -> bool {
        self.answers.contains_key(query)
    }

    /// Compare an answer with the expected one; a query with no expected
    /// answer is not counted.
    pub fn check(&self, query: &str, results: &[QunitResult]) {
        if let Some(expected) = self.answers.get(query) {
            self.checked.fetch_add(1, Ordering::Relaxed);
            if !same(results, expected) && self.mismatches.fetch_add(1, Ordering::Relaxed) < 3 {
                eprintln!("perfbench: answer mismatch for {query:?}");
            }
        }
    }

    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// Count a mismatch found outside `check`.
    pub fn fail(&self, what: &str) {
        eprintln!("perfbench: check failed: {what}");
        self.mismatches.fetch_add(1, Ordering::Relaxed);
    }
}
