//! Round-trip property suite for every `vecstore::io` writer/reader pair:
//! `fvecs`, `ivecs`, `bvecs`, the `VectorSet` section payload and the
//! chunked section container, across the awkward shapes — d = 1, unaligned record counts,
//! empty payloads/record lists — that fixed example tests miss.

use std::io::Cursor;

use proptest::prelude::*;
use vecstore::io::{
    read_bvecs_from, read_fvecs_from, read_ivecs_from, read_sections_from, vector_set_from_bytes,
    vector_set_to_bytes, write_bvecs_to, write_fvecs_to, write_ivecs_to, write_sections_to,
    Section,
};
use vecstore::VectorSet;

/// Deterministic finite f32 from a case seed: exercises negatives, fractions
/// and large magnitudes without ever producing NaN/Inf (which the formats
/// store fine but `==` comparison would reject).
fn value(i: usize, seed: u64) -> f32 {
    let x = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(seed) % 10_000;
    (x as f32 - 5_000.0) * 0.37
}

fn arbitrary_set(n: usize, d: usize, seed: u64) -> VectorSet {
    let data: Vec<f32> = (0..n * d).map(|i| value(i, seed)).collect();
    VectorSet::from_flat(data, d).expect("whole rows of a positive dim")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fvecs: write → read is the identity for any rectangular shape with at
    /// least one record (the format cannot represent an empty file's dim).
    #[test]
    fn fvecs_round_trip(n in 1usize..24, d in 1usize..18, seed in 0u64..1000) {
        let vs = arbitrary_set(n, d, seed);
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).unwrap();
        prop_assert_eq!(buf.len(), n * (4 + d * 4));
        prop_assert_eq!(read_fvecs_from(Cursor::new(buf)).unwrap(), vs);
    }

    /// fvecs: any strict truncation of a valid file is rejected, never
    /// silently read short.
    #[test]
    fn fvecs_truncation_always_errors(n in 1usize..8, d in 1usize..8, cut in 1usize..16, seed in 0u64..1000) {
        let vs = arbitrary_set(n, d, seed);
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).unwrap();
        let cut = cut.min(buf.len() - 1).max(1);
        buf.truncate(buf.len() - cut);
        // Cutting a whole number of records leaves a shorter valid file;
        // anything else must error.
        let record = 4 + d * 4;
        if cut % record == 0 {
            let back = read_fvecs_from(Cursor::new(buf)).unwrap();
            prop_assert_eq!(back.len(), n - cut / record);
        } else {
            prop_assert!(read_fvecs_from(Cursor::new(buf)).is_err());
        }
    }

    /// ivecs: ragged rows (differing lengths) round-trip record by record;
    /// the empty file reads as zero records.
    #[test]
    fn ivecs_round_trip(lens in proptest::collection::vec(1usize..9, 0..10), seed in 0u64..1000) {
        let rows: Vec<Vec<i32>> = lens
            .iter()
            .enumerate()
            .map(|(r, &len)| (0..len).map(|i| value(r * 31 + i, seed) as i32).collect())
            .collect();
        let mut buf = Vec::new();
        write_ivecs_to(&mut buf, &rows).unwrap();
        prop_assert_eq!(read_ivecs_from(Cursor::new(buf)).unwrap(), rows);
    }

    /// bvecs: byte-exact sets round-trip through the widening reader.
    #[test]
    fn bvecs_round_trip(n in 1usize..16, d in 1usize..24, seed in 0u64..1000) {
        let data: Vec<f32> = (0..n * d)
            .map(|i| (((i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(seed)) % 256) as f32)
            .collect();
        let vs = VectorSet::from_flat(data, d).unwrap();
        let mut buf = Vec::new();
        write_bvecs_to(&mut buf, &vs).unwrap();
        prop_assert_eq!(buf.len(), n * (4 + d));
        prop_assert_eq!(read_bvecs_from(Cursor::new(buf)).unwrap(), vs);
    }

    /// native (the `VectorSet` section payload): round-trips every shape
    /// including n = 0 (which the record formats cannot express) and
    /// unaligned row counts; any strict truncation errors.
    #[test]
    fn native_round_trip(n in 0usize..24, d in 1usize..18, seed in 0u64..1000) {
        let vs = arbitrary_set(n, d, seed);
        let buf = vector_set_to_bytes(&vs);
        prop_assert_eq!(buf.len(), 16 + n * d * 4);
        let back = vector_set_from_bytes(&buf).unwrap();
        prop_assert_eq!(&back, &vs);
        prop_assert_eq!(back.dim(), d);
        for cut in 0..buf.len() {
            prop_assert!(vector_set_from_bytes(&buf[..cut]).is_err());
        }
    }

    /// sections: any list of tagged payloads (duplicate tags, empty payloads,
    /// zero sections) round-trips in order; any strict truncation errors.
    #[test]
    fn sections_round_trip_and_reject_truncation(
        shapes in proptest::collection::vec((0usize..8, 0usize..40), 0..7),
        cut in 1usize..24,
        seed in 0u64..1000,
    ) {
        let tags = ["IVFCENTR", "IVFOFFS", "IVFIDS", "IVFPANEL", "A", "LONGTAG8", "x1", "meta"];
        let sections: Vec<Section> = shapes
            .iter()
            .enumerate()
            .map(|(s, &(tag, len))| {
                let payload = (0..len)
                    .map(|i| (value(s * 97 + i, seed) as i64 & 0xff) as u8)
                    .collect();
                Section::new(tags[tag], payload)
            })
            .collect();
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        prop_assert_eq!(read_sections_from(Cursor::new(buf.clone())).unwrap(), sections);

        let cut = cut.min(buf.len() - 1).max(1);
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - cut);
        prop_assert!(read_sections_from(Cursor::new(truncated)).is_err());
    }
}
