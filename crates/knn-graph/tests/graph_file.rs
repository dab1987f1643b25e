//! The k-NN graph file under the GKSC v2 "no panic, no garbage" contract.
//!
//! * every strict truncation of a saved graph fails to load with a typed
//!   corruption error;
//! * every single bit-flip fails to load the same way (every byte of the
//!   container is covered by exactly one checksum);
//! * any graph — empty, partly filled lists, full lists — round-trips with
//!   every list's ids and distance bits intact.

use std::io::Cursor;

use knn_graph::io::{read_graph_from, write_graph_to};
use knn_graph::KnnGraph;
use proptest::prelude::*;
use vecstore::fault::{corrupt, Fault};

/// A small graph with full, partly filled and empty lists.
fn sample_graph() -> KnnGraph {
    let mut g = KnnGraph::empty(7, 3);
    for (i, j, d) in [
        (0, 1, 1.0),
        (0, 2, 4.5),
        (0, 3, 0.25),
        (0, 4, 2.0),
        (1, 3, 2.5),
        (2, 5, 7.75),
    ] {
        g.update_pair(i, j, d);
    }
    g
}

fn saved_image(g: &KnnGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_graph_to(&mut buf, g).unwrap();
    buf
}

/// Every list of both graphs, as (id, distance bits) pairs.
fn lists(g: &KnnGraph) -> Vec<Vec<(u32, u32)>> {
    g.iter()
        .map(|(_, list)| {
            list.as_slice()
                .iter()
                .map(|nb| (nb.id, nb.dist.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn every_truncation_of_a_saved_graph_is_a_typed_error() {
    let image = saved_image(&sample_graph());
    for cut in 0..image.len() {
        let maimed = corrupt(&image, Fault::Truncate(cut));
        let err = read_graph_from(Cursor::new(maimed))
            .err()
            .unwrap_or_else(|| panic!("truncation at byte {cut} must not load"));
        assert!(err.is_corruption(), "cut={cut}: unexpected class {err}");
    }
    // the control arm: the unmodified image loads
    let back = read_graph_from(Cursor::new(image)).unwrap();
    assert_eq!(lists(&back), lists(&sample_graph()));
}

#[test]
fn every_single_bit_flip_of_a_saved_graph_is_a_typed_error() {
    let image = saved_image(&sample_graph());
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let maimed = corrupt(&image, Fault::FlipBit { byte, bit });
            let err = read_graph_from(Cursor::new(maimed))
                .err()
                .unwrap_or_else(|| panic!("flip of byte {byte} bit {bit} must not load"));
            assert!(
                err.is_corruption(),
                "byte={byte} bit={bit}: unexpected class {err}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs from random symmetric updates: n = 0 and lists at every
    /// fill level included.  Distances carry fractional bits, so a lossy
    /// encoding would show.
    #[test]
    fn graphs_round_trip_bit_for_bit(
        n in 0usize..24,
        k in 0usize..6,
        updates in proptest::collection::vec((0usize..24, 0usize..24, 0u32..1000), 0..60),
    ) {
        let mut g = KnnGraph::empty(n, k);
        for &(i, j, d) in &updates {
            if i < n && j < n {
                g.update_pair(i, j, d as f32 / 7.0);
            }
        }
        let back = read_graph_from(Cursor::new(saved_image(&g))).unwrap();
        prop_assert_eq!(back.len(), n);
        prop_assert_eq!(back.k(), k);
        prop_assert_eq!(lists(&back), lists(&g));
        // Reading restores capacity, so the loaded graph keeps growing like
        // the original.
        for (_, list) in back.iter() {
            prop_assert_eq!(list.capacity(), k);
        }
    }
}
