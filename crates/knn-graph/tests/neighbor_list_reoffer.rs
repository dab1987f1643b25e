//! Offering a `NeighborList` a candidate it has seen before never changes it.
//!
//! This is what lets Alg. 3 score every in-cluster pair in every round
//! without remembering which pairs it already compared: a pair's distance has
//! the same bits each time it is computed, so each id comes with one
//! distance, and under that condition a repeated offer is always rejected.

use knn_graph::{Neighbor, NeighborList};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reoffering_an_earlier_candidate_is_rejected_and_changes_nothing(
        cap in 0usize..8,
        // One distance per id, whole numbers from a small range so that ties
        // (broken by id) are common.
        dist_of in proptest::collection::vec(0u32..12, 32),
        offers in proptest::collection::vec(0u32..32, 0..64),
    ) {
        let candidate = |id: u32| Neighbor::new(id, dist_of[id as usize] as f32);
        let mut list = NeighborList::with_capacity(cap);
        for (t, &id) in offers.iter().enumerate() {
            list.insert(candidate(id));
            for &earlier in &offers[..=t] {
                let mut again = list.clone();
                prop_assert!(
                    !again.insert(candidate(earlier)),
                    "re-offer of id {earlier} after offer {t} changed the list"
                );
                prop_assert_eq!(again.as_slice(), list.as_slice());
            }
        }
    }
}
