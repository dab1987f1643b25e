//! Non-finite rows never reach the index or the journal.
//!
//! A NaN or infinite component has no nearest centroid and compares false
//! against every distance, so an accepted row would surface as the top hit
//! of every query that probes its list.  The contracts pinned here:
//!
//! * `IvfIndex::insert` and `MutableStore::insert_batch` reject such a row
//!   with `Error::NonFinite` naming its (row, column), and leave the index,
//!   the journal and the `applied_seq` cursor exactly as they were;
//! * a journal record carrying one is corruption, since no correct writer
//!   produces it;
//! * after a refused poisoned insert, an exhaustive (`nprobe = k`) search
//!   still finds every stored row at distance 0.

use ivf::store::{decode_op, encode_op, wal_path, MutationOp};
use ivf::{IvfIndex, IvfSearchParams, MutableStore};
use proptest::prelude::*;
use rand::Rng;
use vecstore::sample::rng_from_seed;
use vecstore::{Error, StoreError, VectorSet};

const DIM: usize = 5;

fn base(n: usize, seed: u64) -> VectorSet {
    let mut rng = rng_from_seed(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-50..51) as f32).collect())
        .collect();
    VectorSet::from_rows(rows).unwrap()
}

/// An index over `n` random rows with the first `k` rows as centroids and
/// nearest-centroid labels.
fn index(n: usize, k: usize, seed: u64) -> IvfIndex {
    let data = base(n, seed);
    let centroids = data.gather(&(0..k).collect::<Vec<_>>()).unwrap();
    let labels: Vec<usize> = data
        .rows()
        .map(|row| {
            let dists = centroids.rows().map(|c| vecstore::distance::l2_sq(row, c));
            dists
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0
        })
        .collect();
    IvfIndex::build(&data, &centroids, &labels).unwrap()
}

fn poison(kind: u8) -> f32 {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind as usize % 3]
}

fn assert_names(err: Error, row: usize, column: usize) {
    match err {
        Error::NonFinite {
            row: r, column: c, ..
        } => assert_eq!((r, c), (row, column)),
        other => panic!("expected NonFinite at ({row}, {column}), got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn non_finite_inserts_are_refused_and_change_nothing(
        rows in 1usize..6,
        row in 0usize..6,
        column in 0usize..DIM,
        kind in 0u8..3,
        seed in 0u64..1000,
    ) {
        let row = row % rows;
        let mut batch = base(rows, seed ^ 0x5eed);
        batch.row_mut(row)[column] = poison(kind);

        // The in-memory index: one row at a time, so the bad row is row 0.
        let mut idx = index(40, 4, seed);
        let before = idx.clone();
        assert_names(idx.insert(batch.row(row)).unwrap_err(), 0, column);
        prop_assert_eq!(&idx, &before);

        // The durable store: the whole batch is refused before any of it is
        // journalled.
        let dir = std::env::temp_dir().join(format!(
            "gkm-ivf-nonfinite-{}-{seed}-{row}-{column}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.ivf");
        let mut store = MutableStore::create(&path, index(40, 4, seed)).unwrap();
        store.insert(&[1.0; DIM]).unwrap();
        let journal = std::fs::metadata(wal_path(&path)).unwrap().len();
        let (applied, next_seq) = (store.index().applied_seq(), store.next_seq());
        assert_names(store.insert_batch(&batch).unwrap_err(), row, column);
        assert_names(store.insert(batch.row(row)).unwrap_err(), 0, column);
        prop_assert_eq!(std::fs::metadata(wal_path(&path)).unwrap().len(), journal);
        prop_assert_eq!(store.index().applied_seq(), applied);
        prop_assert_eq!(store.next_seq(), next_seq);
        prop_assert_eq!(store.index().next_id(), 41);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_journalled_non_finite_insert_is_corruption() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let body = encode_op(&MutationOp::Insert {
            id: 3,
            vector: vec![0.0, bad, 1.0],
        });
        match decode_op(&body, 3).unwrap_err() {
            Error::Store(StoreError::Invariant { .. }) => {}
            other => panic!("value {bad}: expected an invariant violation, got {other}"),
        }
    }
}

/// The poisoned-insert scenario: one all-NaN insert into an index over
/// clean rows, then an exhaustive search for every stored row.  Accepted,
/// the NaN row would be every probed query's top hit, ahead of the query's
/// own copy at distance 0.
#[test]
fn a_refused_poisoned_insert_never_outranks_a_row_at_nprobe_k() {
    let k = 8;
    let mut idx = index(300, k, 42);
    let data = base(300, 42);
    assert_names(idx.insert(&[f32::NAN; DIM]).unwrap_err(), 0, 0);
    assert_eq!(idx.next_id(), 300);
    let params = IvfSearchParams::default().nprobe(k).threads(1);
    for (i, row) in data.rows().enumerate() {
        let top = idx.search(row, 1, params);
        assert_eq!(top.len(), 1);
        assert!(
            top[0].dist == 0.0 && top[0].id < 300,
            "row {i}: top hit {top:?}"
        );
    }
}
