//! Incremental (push-based) sketch construction.
//!
//! [`StreamingSketchBuilder`] is the stateful core behind
//! [`crate::builder::SketchBuilder`]: rows are `push`ed one at a time and
//! the sketch is extracted with [`StreamingSketchBuilder::finish`]. This
//! is the shape a production ingestion pipeline needs — the paper's
//! synopses "can be pre-computed" online as data arrives, one pass,
//! `O(sketch size)` memory.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use sketch_hashing::{KeyHash, KeyHasher};
use sketch_stats::ValueBounds;
use sketch_table::AggState;

use crate::builder::{HeapKey, SelectionStrategy, SketchConfig};
use crate::sketch::{CorrelationSketch, SketchEntry};

/// Incremental builder for one column pair's sketch.
///
/// Each retained key's unit hash is stored next to its aggregation state,
/// so [`StreamingSketchBuilder::finish`] never rehashes retained keys —
/// `g(k)` is computed exactly once per pushed row, in
/// [`StreamingSketchBuilder::push`] (or by the caller of
/// [`StreamingSketchBuilder::push_hashed`]).
#[derive(Debug, Clone)]
pub struct StreamingSketchBuilder {
    id: String,
    config: SketchConfig,
    members: HashMap<KeyHash, (f64, AggState)>,
    /// Max-heap over `(unit hash, key)`; only used by the fixed-size
    /// strategy (empty for threshold sketches).
    heap: BinaryHeap<HeapKey>,
    bounds_min: f64,
    bounds_max: f64,
    rows_scanned: u64,
    saturated: bool,
}

impl StreamingSketchBuilder {
    /// Start building a sketch identified by `id`.
    #[must_use]
    pub fn new(id: impl Into<String>, config: SketchConfig) -> Self {
        let cap = match config.strategy {
            SelectionStrategy::FixedSize(n) => n.min(1 << 16),
            SelectionStrategy::Threshold(_) => 16,
        };
        Self {
            id: id.into(),
            config,
            members: HashMap::with_capacity(cap),
            heap: BinaryHeap::with_capacity(cap + 1),
            bounds_min: f64::INFINITY,
            bounds_max: f64::NEG_INFINITY,
            rows_scanned: 0,
            saturated: false,
        }
    }

    /// Number of tuples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when nothing has been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Rows consumed so far.
    #[must_use]
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Feed one `(key, value)` row.
    pub fn push(&mut self, key: &str, value: f64) {
        let (kh, unit) = self.config.hasher.g(key.as_bytes());
        self.push_hashed(kh, unit, value);
    }

    /// Feed one row whose key was already hashed: `(kh, unit)` must be
    /// `g(key)` under this builder's hasher. [`Self::push`] is exactly
    /// this after hashing, so a caller that hashes keys as it reads them
    /// builds the same sketch.
    pub fn push_hashed(&mut self, kh: KeyHash, unit: f64, value: f64) {
        self.rows_scanned += 1;
        self.bounds_min = self.bounds_min.min(value);
        self.bounds_max = self.bounds_max.max(value);

        let agg = self.config.aggregation;
        match self.config.strategy {
            SelectionStrategy::FixedSize(n) => match self.members.entry(kh) {
                Entry::Occupied(mut e) => e.get_mut().1.update(value),
                Entry::Vacant(e) => {
                    let hk = HeapKey { unit, key: kh };
                    if self.heap.len() < n {
                        e.insert((unit, agg.start(value)));
                        self.heap.push(hk);
                    } else if n > 0 && hk < *self.heap.peek().expect("heap full, n > 0") {
                        e.insert((unit, agg.start(value)));
                        self.heap.push(hk);
                        let evicted = self.heap.pop().expect("non-empty heap");
                        self.members.remove(&evicted.key);
                        self.saturated = true;
                    } else {
                        self.saturated = true;
                    }
                }
            },
            SelectionStrategy::Threshold(t) => {
                if unit <= t {
                    match self.members.entry(kh) {
                        Entry::Occupied(mut e) => e.get_mut().1.update(value),
                        Entry::Vacant(e) => {
                            e.insert((unit, agg.start(value)));
                        }
                    }
                } else {
                    self.saturated = true;
                }
            }
        }
    }

    /// Finalize into an immutable [`CorrelationSketch`].
    #[must_use]
    pub fn finish(self) -> CorrelationSketch {
        // Units were captured at push time; no key is rehashed here.
        let mut tagged: Vec<(HeapKey, f64)> = self
            .members
            .into_iter() // lint: ordered (sorted by HeapKey before any output below)
            .map(|(kh, (unit, state))| (HeapKey { unit, key: kh }, state.value()))
            .collect();
        tagged.sort_by_key(|e| e.0);
        let mut entries = Vec::with_capacity(tagged.len());
        let mut units = Vec::with_capacity(tagged.len());
        for (hk, value) in tagged {
            entries.push(SketchEntry { key: hk.key, value });
            units.push(hk.unit);
        }
        CorrelationSketch {
            id: self.id,
            hasher: self.config.hasher,
            aggregation: self.config.aggregation,
            strategy: self.config.strategy,
            entries,
            units,
            bounds: (self.rows_scanned > 0)
                .then(|| ValueBounds::new(self.bounds_min, self.bounds_max)),
            rows_scanned: self.rows_scanned,
            saturated: self.saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use sketch_table::ColumnPair;

    fn pair(n: usize) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            (0..n).map(|i| format!("key-{}", i % 700)).collect(),
            (0..n).map(|i| (i as f64 * 0.7).sin() * 50.0).collect(),
        )
    }

    #[test]
    fn push_by_push_equals_batch_build() {
        let p = pair(3_000);
        let cfg = SketchConfig::with_size(64);
        let batch = SketchBuilder::new(cfg).build(&p);

        let mut s = StreamingSketchBuilder::new(p.id(), cfg);
        for (k, v) in p.rows() {
            s.push(k, v);
        }
        assert_eq!(s.rows_scanned(), 3_000);
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn push_hashed_equals_push() {
        let p = pair(1_500);
        for cfg in [
            SketchConfig::with_size(32),
            SketchConfig::with_threshold(0.1),
        ] {
            let mut by_key = StreamingSketchBuilder::new(p.id(), cfg);
            let mut by_hash = StreamingSketchBuilder::new(p.id(), cfg);
            for (k, v) in p.rows() {
                by_key.push(k, v);
                let (kh, unit) = cfg.hasher.g(k.as_bytes());
                by_hash.push_hashed(kh, unit, v);
            }
            assert_eq!(by_key.finish(), by_hash.finish());
        }
    }

    #[test]
    fn threshold_streaming_matches_batch() {
        let p = pair(2_000);
        let cfg = SketchConfig::with_threshold(0.05);
        let batch = SketchBuilder::new(cfg).build(&p);
        let mut s = StreamingSketchBuilder::new(p.id(), cfg);
        for (k, v) in p.rows() {
            s.push(k, v);
        }
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn incremental_state_inspection() {
        let cfg = SketchConfig::with_size(4);
        let mut s = StreamingSketchBuilder::new("inc", cfg);
        assert!(s.is_empty());
        s.push("a", 1.0);
        s.push("b", 2.0);
        assert_eq!(s.len(), 2);
        s.push("a", 3.0); // repeated key: aggregated, not re-added
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows_scanned(), 3);
        let sketch = s.finish();
        assert_eq!(sketch.len(), 2);
    }

    #[test]
    fn empty_finish_is_empty_sketch() {
        let s = StreamingSketchBuilder::new("e", SketchConfig::with_size(8));
        let sketch = s.finish();
        assert!(sketch.is_empty());
        assert!(sketch.value_bounds().is_none());
    }
}
