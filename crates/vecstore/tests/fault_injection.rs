//! Fault-injection sweep for the GKSC v2 container: the **"no panic, no
//! garbage"** contract.  Every corruption a [`vecstore::fault`] adapter can
//! inject — truncation at any byte, any single bit-flip, torn writes, short
//! reads, hostile declared lengths — must surface as a typed
//! [`vecstore::StoreError`], never as a panic, an allocation abort, or a
//! silently different payload.

use std::io::Cursor;

use proptest::prelude::*;
use vecstore::fault::{corrupt, Fault, FaultyReader, FaultyWriter};
use vecstore::io::{atomic_write, read_sections_from, write_sections_to, Section};
use vecstore::{Error, StoreError};

/// A representative container: several sections with distinct tags, lengths
/// (including an empty payload) and byte patterns.
fn sample_sections(seed: u64) -> Vec<Section> {
    let shapes: [(&str, usize); 4] = [
        ("IVFCENTR", 57),
        ("IVFOFFS", 24),
        ("meta", 0),
        ("IVFIDS", 40),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(s, &(tag, len))| {
            let payload = (0..len)
                .map(|i| {
                    ((i as u64)
                        .wrapping_mul(0x9e37_79b9)
                        .wrapping_add(seed ^ s as u64)
                        & 0xff) as u8
                })
                .collect();
            Section::new(tag, payload)
        })
        .collect()
}

fn v2_image(seed: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sections_to(&mut buf, &sample_sections(seed)).unwrap();
    buf
}

/// Every strict truncation of a v2 file is rejected with a corruption error —
/// exhaustively, at every byte boundary.
#[test]
fn every_truncation_of_a_v2_file_is_detected() {
    let image = v2_image(7);
    for cut in 0..image.len() {
        let maimed = corrupt(&image, Fault::Truncate(cut));
        let err = read_sections_from(Cursor::new(maimed))
            .expect_err(&format!("truncation at byte {cut} must not parse"));
        assert!(err.is_corruption(), "cut={cut}: unexpected class {err}");
    }
    // the unmodified image still parses (the sweep's control arm)
    assert_eq!(
        read_sections_from(Cursor::new(image)).unwrap(),
        sample_sections(7)
    );
}

/// Every byte of a v2 file is covered by exactly one checksum, so *every*
/// single bit-flip must be detected — exhaustively, all bytes × all bits.
#[test]
fn every_single_bit_flip_of_a_v2_file_is_detected() {
    let image = v2_image(13);
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let maimed = corrupt(&image, Fault::FlipBit { byte, bit });
            let err = read_sections_from(Cursor::new(maimed))
                .expect_err(&format!("flip of byte {byte} bit {bit} must not parse"));
            assert!(
                err.is_corruption(),
                "byte={byte} bit={bit}: unexpected class {err}"
            );
        }
    }
}

/// A hostile declared section length (up to u64::MAX) is rejected before any
/// allocation is attempted.
#[test]
fn hostile_declared_lengths_never_allocate() {
    let image = v2_image(3);
    // The first section's length field lives right after the 20-byte header
    // (4 magic + 4 version + 8 count + 4 crc) and its 8-byte tag.
    let len_at = 20 + 8;
    for hostile in [u64::MAX, 1 << 62, 1 << 40, (1 << 40) - 1, 1 << 30] {
        let mut maimed = image.clone();
        maimed[len_at..len_at + 8].copy_from_slice(&hostile.to_le_bytes());
        let err = read_sections_from(Cursor::new(maimed)).unwrap_err();
        match err {
            Error::Store(StoreError::Oversized { .. })
            | Error::Store(StoreError::Truncated { .. })
            | Error::Store(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("hostile len {hostile:#x}: unexpected error {other}"),
        }
    }
}

/// A torn write (silently dropped tail, as from a crashed process or a full
/// disk without error reporting) is always caught on read-back.
#[test]
fn torn_writes_are_caught_on_read_back() {
    let image = v2_image(21);
    for keep in 0..image.len() {
        let mut w = FaultyWriter::new(Vec::new(), keep).silently();
        write_sections_to(&mut w, &sample_sections(21)).unwrap();
        let torn = w.into_inner();
        assert_eq!(torn.len(), keep);
        assert!(
            read_sections_from(Cursor::new(torn)).is_err(),
            "torn file of {keep} bytes must not parse"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random container shapes, random cut points: truncation always errors,
    /// and never with a panic.
    #[test]
    fn truncation_errors_for_arbitrary_shapes(
        shapes in proptest::collection::vec(0usize..40, 0..6),
        cut in 0usize..400,
        seed in 0u64..1000,
    ) {
        let sections: Vec<Section> = shapes
            .iter()
            .enumerate()
            .map(|(s, &len)| Section::new("SEC", vec![(s as u8) ^ (seed as u8); len]))
            .collect();
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        let maimed = corrupt(&buf, Fault::Truncate(cut));
        prop_assert!(read_sections_from(Cursor::new(maimed)).is_err());
    }

    /// Random bit-flips over random shapes: always a typed corruption error.
    #[test]
    fn bit_flips_error_for_arbitrary_shapes(
        shapes in proptest::collection::vec(0usize..40, 1..6),
        byte in 0usize..500,
        bit in 0u8..8,
        seed in 0u64..1000,
    ) {
        let sections: Vec<Section> = shapes
            .iter()
            .enumerate()
            .map(|(s, &len)| Section::new("SEC", vec![(s as u8).wrapping_add(seed as u8); len]))
            .collect();
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        let byte = byte % buf.len();
        let maimed = corrupt(&buf, Fault::FlipBit { byte, bit });
        let err = read_sections_from(Cursor::new(maimed)).unwrap_err();
        prop_assert!(err.is_corruption(), "byte={} bit={}: {}", byte, bit, err);
    }

    /// Drip-fed reads (any chunk size ≥ 1) deliver byte-identical results:
    /// the framing layer never mistakes a short read for end-of-file.
    #[test]
    fn short_reads_are_invisible(chunk in 1usize..64, seed in 0u64..1000) {
        let sections = sample_sections(seed);
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        let reader = FaultyReader::new(Cursor::new(buf), Fault::None).with_short_reads(chunk);
        prop_assert_eq!(read_sections_from(reader).unwrap(), sections);
    }

    /// A bit-flip injected *by the transport* (not the file) is equally
    /// detected — the reader does not trust the stream any more than the
    /// disk.
    #[test]
    fn transport_bit_flips_are_detected(byte in 0usize..200, bit in 0u8..8, chunk in 1usize..32) {
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sample_sections(5)).unwrap();
        let byte = byte % buf.len();
        let reader = FaultyReader::new(Cursor::new(buf), Fault::FlipBit { byte, bit })
            .with_short_reads(chunk);
        prop_assert!(read_sections_from(reader).is_err());
    }
}

/// `atomic_write` + an injected mid-write failure leaves the previous file
/// byte-identical and no temp litter behind — the crash-consistency half of
/// the durability story (checksums being the detection half).
#[test]
fn failed_atomic_write_preserves_the_previous_generation() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("gkm-fault-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("data.gksc");

    let old = v2_image(1);
    std::fs::write(&target, &old).unwrap();

    let fresh = v2_image(2);
    for limit in [0usize, 1, 16, fresh.len().saturating_sub(1)] {
        // Model a crash partway through: `limit` bytes reach the temp file,
        // then the write fails.
        let res = atomic_write(&target, |w| {
            w.write_all(&fresh[..limit]).map_err(Error::Io)?;
            Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected write failure",
            )))
        });
        assert!(res.is_err(), "limit={limit}");
        assert_eq!(std::fs::read(&target).unwrap(), old, "limit={limit}");
    }
    let litter: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != "data.gksc")
        .collect();
    assert!(litter.is_empty(), "temp litter: {litter:?}");
    std::fs::remove_dir_all(&dir).ok();
}
