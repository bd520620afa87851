//! Snapshot reads: queries run against an immutable, `Arc`-shared
//! [`IndexSnapshot`] and therefore never take a lock or observe a
//! half-applied mutation.
//!
//! The [`SnapshotCell`] holds the current snapshot behind an `RwLock`
//! that is only ever held long enough to clone or replace the `Arc` —
//! nanoseconds, never across a query. The background refresher builds
//! the *next* snapshot privately (cloning the current index and applying
//! only the new delta generations, or rebuilding from the store after a
//! compaction made the deltas unavailable) and then swaps it in whole.
//! A query that started on the old snapshot finishes on the old
//! snapshot; the old index is freed when its last in-flight query
//! drops its `Arc`.

use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_index::SketchIndex;
use sketch_store::{Manifest, SketchError, StoreError};
use sketch_table::ColumnPair;

/// An immutable view of the corpus at one store generation: the inverted
/// index plus the sketch configuration queries must be built with to be
/// joinable against it.
#[derive(Debug)]
pub struct IndexSnapshot {
    index: SketchIndex,
    config: Option<SketchConfig>,
}

impl IndexSnapshot {
    /// Wrap an index, deriving the corpus sketch configuration from its
    /// first live sketch (`None` for an empty corpus — queries against
    /// it answer empty regardless of configuration).
    #[must_use]
    pub fn new(index: SketchIndex) -> Self {
        let config = index.get(0).map(|s| SketchConfig {
            strategy: s.strategy(),
            hasher: s.hasher(),
            aggregation: s.aggregation(),
        });
        Self { index, config }
    }

    /// Load a snapshot from a packed corpus store.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on unreadable or corrupt stores.
    pub fn from_store(dir: &Path, threads: usize) -> Result<Self, StoreError> {
        Ok(Self::new(SketchIndex::from_store(dir, threads)?))
    }

    /// The index this snapshot serves.
    #[must_use]
    pub fn index(&self) -> &SketchIndex {
        &self.index
    }

    /// The store generation this snapshot reflects.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.index.generation()
    }

    /// The sketch configuration queries are built with: the corpus
    /// configuration, so a query sketch is joinable against every
    /// indexed sketch.
    #[must_use]
    pub fn query_config(&self) -> SketchConfig {
        self.config.unwrap_or_else(|| SketchConfig::with_size(256))
    }

    /// Build a query sketch over `keys`/`values` with
    /// [`Self::query_config`]. `id` becomes the sketch's table name.
    #[must_use]
    pub fn build_query(&self, id: &str, keys: Vec<String>, values: Vec<f64>) -> CorrelationSketch {
        SketchBuilder::new(self.query_config()).build(&ColumnPair::new(id, "k", "v", keys, values))
    }
}

/// The swappable slot the workers read snapshots from. Its lock is
/// poison-tolerant: the slot only ever holds a complete `Arc` (a load
/// clones it, a store swaps it whole), so its state after a caught
/// panic is still valid.
pub struct SnapshotCell {
    slot: RwLock<Arc<IndexSnapshot>>,
}

impl SnapshotCell {
    /// A cell serving `snapshot`.
    #[must_use]
    pub fn new(snapshot: IndexSnapshot) -> Self {
        Self {
            slot: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current snapshot. The internal lock is held only for the
    /// `Arc` clone; the query itself runs lock-free on the returned
    /// snapshot.
    #[must_use]
    pub fn load(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replace the served snapshot.
    pub fn store(&self, snapshot: Arc<IndexSnapshot>) {
        *self.slot.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }
}

/// What [`refresh`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The store manifest still names the served generation.
    Unchanged,
    /// Applied this many new delta records incrementally.
    Refreshed(usize),
    /// The store was compacted past the served generation; the index was
    /// rebuilt from the store.
    Rebuilt,
}

/// Bring `cell` up to date with the store: cheap manifest poll first,
/// then an incremental `refresh_from_store` on a private clone of the
/// index, falling back to a full rebuild when the store was compacted
/// past the served generation (`StaleGeneration`). The new snapshot is
/// swapped in atomically; concurrent readers are never blocked.
///
/// # Errors
///
/// [`StoreError`] when the store cannot be read; the served snapshot is
/// left unchanged (the caller retries on its next poll).
pub fn refresh(
    cell: &SnapshotCell,
    dir: &Path,
    threads: usize,
) -> Result<RefreshOutcome, StoreError> {
    refresh_with_generation(cell, dir, threads).map(|(outcome, _)| outcome)
}

/// [`refresh`], additionally reporting the store's *on-disk* manifest
/// generation — what `/metrics` exposes as the refresher's view of the
/// store, so generation lag (disk ahead of served) is observable even
/// while a refresh is failing.
///
/// # Errors
///
/// As [`refresh`].
pub fn refresh_with_generation(
    cell: &SnapshotCell,
    dir: &Path,
    threads: usize,
) -> Result<(RefreshOutcome, u64), StoreError> {
    let current = cell.load();
    let manifest = Manifest::load(dir)?;
    let store_generation = manifest.generation;
    if manifest.generation == current.generation() {
        return Ok((RefreshOutcome::Unchanged, store_generation));
    }
    // Clone-and-catch-up off the hot path; readers keep serving the old
    // snapshot until the swap below.
    let mut index = current.index.clone();
    match index.refresh_from_store(dir, threads) {
        Ok(applied) => {
            cell.store(Arc::new(IndexSnapshot::new(index)));
            Ok((RefreshOutcome::Refreshed(applied), store_generation))
        }
        Err(e)
            if matches!(
                e.as_sketch_error(),
                Some(SketchError::StaleGeneration { .. })
            ) =>
        {
            let rebuilt = IndexSnapshot::from_store(dir, threads)?;
            cell.store(Arc::new(rebuilt));
            Ok((RefreshOutcome::Rebuilt, store_generation))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_index::{engine, QueryOptions};
    use sketch_store::PackOptions;

    fn sketch(table: &str, range: std::ops::Range<usize>) -> CorrelationSketch {
        SketchBuilder::new(SketchConfig::with_size(64)).build(&ColumnPair::new(
            table,
            "k",
            "v",
            range.clone().map(|i| format!("key-{i}")).collect(),
            range.map(|i| (i as f64 * 0.13).sin()).collect(),
        ))
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("sketch-server-snap-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn pack(dir: &TempDir, n: usize) {
        let sketches: Vec<_> = (0..n).map(|t| sketch(&format!("t{t}"), 0..50)).collect();
        sketch_store::pack_corpus(
            &dir.0,
            &sketches,
            &PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
    }

    #[test]
    fn refresh_applies_deltas_and_rebuilds_after_compact() {
        let dir = TempDir::new("refresh");
        pack(&dir, 4);
        let cell = SnapshotCell::new(IndexSnapshot::from_store(&dir.0, 1).unwrap());
        assert_eq!(cell.load().generation(), 0);
        assert_eq!(
            refresh(&cell, &dir.0, 1).unwrap(),
            RefreshOutcome::Unchanged
        );

        sketch_store::append_corpus(&dir.0, &[sketch("extra", 0..50)], 1).unwrap();
        assert_eq!(
            refresh(&cell, &dir.0, 1).unwrap(),
            RefreshOutcome::Refreshed(1)
        );
        assert_eq!(cell.load().generation(), 1);
        assert_eq!(cell.load().index().len(), 5);

        sketch_store::remove_from_corpus(&dir.0, &["t0/k/v".to_string()], 1).unwrap();
        assert_eq!(
            refresh(&cell, &dir.0, 1).unwrap(),
            RefreshOutcome::Refreshed(1)
        );
        assert_eq!(cell.load().index().len(), 4);

        sketch_store::compact_corpus(
            &dir.0,
            &PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(refresh(&cell, &dir.0, 1).unwrap(), RefreshOutcome::Rebuilt);
        assert_eq!(cell.load().generation(), 3);

        // Post-refresh snapshots answer exactly like a fresh load.
        let fresh = IndexSnapshot::from_store(&dir.0, 1).unwrap();
        let q = fresh.build_query(
            "q",
            (0..50).map(|i| format!("key-{i}")).collect(),
            (0..50).map(|i| i as f64).collect(),
        );
        let opts = QueryOptions::default();
        assert_eq!(
            engine::top_k_with_reports(cell.load().index(), &q, &opts, 0.05),
            engine::top_k_with_reports(fresh.index(), &q, &opts, 0.05)
        );
    }

    #[test]
    fn old_snapshots_stay_valid_across_swaps() {
        let dir = TempDir::new("pin");
        pack(&dir, 3);
        let cell = SnapshotCell::new(IndexSnapshot::from_store(&dir.0, 1).unwrap());
        let pinned = cell.load();
        let before = pinned.index().len();

        sketch_store::append_corpus(&dir.0, &[sketch("late", 0..50)], 1).unwrap();
        refresh(&cell, &dir.0, 1).unwrap();

        // The pinned (pre-swap) snapshot is untouched by the refresh.
        assert_eq!(pinned.index().len(), before);
        assert_eq!(pinned.generation(), 0);
        assert_eq!(cell.load().index().len(), before + 1);
    }

    #[test]
    fn empty_corpus_snapshot_answers_empty() {
        let dir = TempDir::new("empty");
        sketch_store::pack_corpus(&dir.0, &[], &PackOptions::default()).unwrap();
        let snap = IndexSnapshot::from_store(&dir.0, 1).unwrap();
        let q = snap.build_query("q", vec!["a".into()], vec![1.0]);
        assert!(
            engine::top_k_with_reports(snap.index(), &q, &QueryOptions::default(), 0.05).is_empty()
        );
    }
}
