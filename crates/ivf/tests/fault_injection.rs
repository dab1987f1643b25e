//! Fault-injection sweep over a *saved IVF index*: end-to-end proof that the
//! serving layer inherits the GKSC v2 "no panic, no garbage" contract.
//!
//! * every strict truncation of a saved index fails to load, with a typed
//!   corruption error;
//! * every single bit-flip fails to load (v2 covers every byte with exactly
//!   one checksum);
//! * corruption injected *behind* valid checksums (a re-checksummed file
//!   with broken cross-section invariants) is still rejected;
//! * a legacy unchecksummed v1 image is refused by every reader — the
//!   index loader and the mutable store alike;
//! * a torn save (modelled by truncating the file in place) is detected, and
//!   re-saving restores a loadable index.

use std::io::Cursor;

use ivf::{IvfIndex, IvfSearchParams, MutableStore};
use vecstore::fault::{corrupt, Fault};
use vecstore::io::{read_sections_from, write_sections_to, Section};
use vecstore::{Error, StoreError, VectorSet};

/// A small but non-trivial index: 3 lists over 18 points in 3-D, one list
/// empty-ish patterns avoided so every section carries payload.
fn sample_index() -> IvfIndex {
    let rows: Vec<Vec<f32>> = (0..18)
        .map(|i| {
            let g = (i % 3) as f32 * 10.0;
            vec![g + i as f32 * 0.25, g - i as f32 * 0.5, (i * i % 7) as f32]
        })
        .collect();
    let data = VectorSet::from_rows(rows).unwrap();
    let centroids = VectorSet::from_rows(vec![vec![0.0; 3], vec![10.0; 3], vec![20.0; 3]]).unwrap();
    let labels: Vec<usize> = (0..18).map(|i| i % 3).collect();
    IvfIndex::build(&data, &centroids, &labels).unwrap()
}

/// The same index with its SQ8 tier fitted, so the saved image carries the
/// `IVFSQ` + `IVFPNL8` sections too.
fn quantized_sample_index() -> IvfIndex {
    let mut index = sample_index();
    index.quantize();
    index
}

fn saved_image(index: &IvfIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    buf
}

fn queries() -> VectorSet {
    VectorSet::from_rows(vec![
        vec![0.5, -0.5, 2.0],
        vec![10.0, 9.0, 1.0],
        vec![19.0, 18.5, 4.0],
    ])
    .unwrap()
}

#[test]
fn every_truncation_of_a_saved_index_is_detected() {
    let image = saved_image(&sample_index());
    for cut in 0..image.len() {
        let maimed = corrupt(&image, Fault::Truncate(cut));
        let err = IvfIndex::read_from(Cursor::new(maimed))
            .err()
            .unwrap_or_else(|| panic!("truncation at byte {cut} must not load"));
        assert!(err.is_corruption(), "cut={cut}: unexpected class {err}");
    }
}

#[test]
fn every_single_bit_flip_of_a_saved_index_is_detected() {
    let image = saved_image(&sample_index());
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let maimed = corrupt(&image, Fault::FlipBit { byte, bit });
            let err = IvfIndex::read_from(Cursor::new(maimed))
                .err()
                .unwrap_or_else(|| panic!("flip of byte {byte} bit {bit} must not load"));
            assert!(
                err.is_corruption(),
                "byte={byte} bit={bit}: unexpected class {err}"
            );
        }
    }
}

/// The same truncation sweep over an image carrying the SQ8 sections: the
/// quantized tier inherits the container contract byte for byte.
#[test]
fn every_truncation_of_a_quantized_index_is_detected() {
    let image = saved_image(&quantized_sample_index());
    for cut in 0..image.len() {
        let maimed = corrupt(&image, Fault::Truncate(cut));
        let err = IvfIndex::read_from(Cursor::new(maimed))
            .err()
            .unwrap_or_else(|| panic!("truncation at byte {cut} must not load"));
        assert!(err.is_corruption(), "cut={cut}: unexpected class {err}");
    }
}

/// Every single bit-flip of a quantized image — including flips landing in
/// the `IVFSQ` parameter floats and the `IVFPNL8` code bytes — fails to load
/// with a typed corruption error.
#[test]
fn every_single_bit_flip_of_a_quantized_index_is_detected() {
    let image = saved_image(&quantized_sample_index());
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let maimed = corrupt(&image, Fault::FlipBit { byte, bit });
            let err = IvfIndex::read_from(Cursor::new(maimed))
                .err()
                .unwrap_or_else(|| panic!("flip of byte {byte} bit {bit} must not load"));
            assert!(
                err.is_corruption(),
                "byte={byte} bit={bit}: unexpected class {err}"
            );
        }
    }
}

/// A hostile declared length on either SQ8 section is rejected before any
/// allocation is attempted: the framing sanity-checks the length against the
/// remaining bytes (and the 1 TiB bound) before trusting it.
#[test]
fn hostile_sq8_section_lengths_never_allocate() {
    let image = saved_image(&quantized_sample_index());
    for tag in [&b"IVFSQ   "[..], &b"IVFPNL8 "[..]] {
        let at = image.windows(8).position(|w| w == tag).unwrap_or_else(|| {
            panic!(
                "section {} missing from the image",
                String::from_utf8_lossy(tag)
            )
        });
        for hostile in [u64::MAX, 1 << 62, 1 << 40, 1 << 30] {
            let mut maimed = image.clone();
            maimed[at + 8..at + 16].copy_from_slice(&hostile.to_le_bytes());
            let err = IvfIndex::read_from(Cursor::new(maimed))
                .err()
                .unwrap_or_else(|| {
                    panic!(
                        "hostile length {hostile:#x} on {} must not load",
                        String::from_utf8_lossy(tag)
                    )
                });
            assert!(
                err.is_corruption(),
                "hostile length {hostile:#x}: unexpected class {err}"
            );
        }
    }
}

/// Corruption *behind* valid checksums, quantized edition: dropping either
/// SQ8 section while keeping the other (with fresh, correct CRCs) breaks the
/// both-or-neither pairing invariant.
#[test]
fn sq8_sections_behind_valid_checksums_must_pair() {
    let image = saved_image(&quantized_sample_index());
    let sections = read_sections_from(Cursor::new(image)).unwrap();
    for victim in ["IVFSQ", "IVFPNL8"] {
        let kept: Vec<Section> = sections
            .iter()
            .filter(|s| !s.has_tag(victim))
            .cloned()
            .collect();
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &kept).unwrap();
        let err = IvfIndex::read_from(Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(&err, Error::Store(StoreError::Invariant { .. })),
            "dropped {victim}: unexpected error {err}"
        );
    }
}

/// Corruption *behind* valid checksums: decode the container, break a
/// cross-section invariant, re-encode with fresh (correct) CRCs.  The
/// checksum layer is happy; the semantic layer must still refuse.
#[test]
fn re_checksummed_invariant_violations_are_rejected() {
    let image = saved_image(&sample_index());
    let sections = read_sections_from(Cursor::new(image)).unwrap();

    let mutate = |f: &dyn Fn(&mut Vec<Section>)| -> Error {
        let mut s = sections.clone();
        f(&mut s);
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &s).unwrap();
        IvfIndex::read_from(Cursor::new(buf)).unwrap_err()
    };

    // Dropping any one *required* section breaks the container contract.
    // (`IVFMUT` is the optional mutation cursor kept for pre-mutable-tier
    // compatibility: without it the index must still load, with the legacy
    // dense-id defaults.)
    for i in 0..sections.len() {
        if sections[i].has_tag("IVFMUT") {
            let mut s = sections.clone();
            s.remove(i);
            let mut buf = Vec::new();
            write_sections_to(&mut buf, &s).unwrap();
            let loaded = IvfIndex::read_from(Cursor::new(buf))
                .expect("an index without the optional IVFMUT section must load");
            assert_eq!(loaded, sample_index());
            continue;
        }
        let err = mutate(&|s: &mut Vec<Section>| {
            s.remove(i);
        });
        assert!(
            matches!(&err, Error::Store(StoreError::Invariant { .. })),
            "missing section {i}: unexpected error {err}"
        );
    }

    // A malformed IVFMUT payload (wrong size, or a next_id below an id that
    // actually occurs in the remap) is typed corruption, not a default.
    let err = mutate(&|s: &mut Vec<Section>| {
        for sec in s.iter_mut() {
            if sec.has_tag("IVFMUT") {
                sec.payload.truncate(7);
            }
        }
    });
    assert!(
        matches!(&err, Error::Store(StoreError::Invariant { .. })),
        "short IVFMUT: unexpected error {err}"
    );
    let err = mutate(&|s: &mut Vec<Section>| {
        for sec in s.iter_mut() {
            if sec.has_tag("IVFMUT") {
                sec.payload[..8].copy_from_slice(&1u64.to_le_bytes());
            }
        }
    });
    assert!(
        matches!(&err, Error::Store(StoreError::Invariant { .. })),
        "stale next_id: unexpected error {err}"
    );

    // Breaking the offsets array (non-monotone prefix sums) with a valid CRC.
    let err = mutate(&|s: &mut Vec<Section>| {
        for sec in s.iter_mut() {
            if sec.has_tag("IVFOFFS") {
                // Swap two u64 entries so the prefix sums go backwards.
                let mid = (sec.payload.len() / 16) * 8;
                if sec.payload.len() >= mid + 16 {
                    let (a, b) = (mid, mid + 8);
                    for k in 0..8 {
                        sec.payload.swap(a + k, b + k);
                    }
                }
            }
        }
    });
    assert!(
        err.is_corruption(),
        "broken offsets: unexpected error {err}"
    );
}

/// The retired unchecksummed v1 framing of `index`'s sections: magic,
/// version 1, count, then `tag · length · payload` with no CRCs.
fn v1_image(index: &IvfIndex) -> Vec<u8> {
    let sections = read_sections_from(Cursor::new(saved_image(index))).unwrap();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"GKSC");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    for s in &sections {
        v1.extend_from_slice(&s.tag);
        v1.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&s.payload);
    }
    v1
}

/// A v1 image is refused by every reader as an unsupported version: the
/// index loader, and the mutable store, which therefore never serves an
/// unchecksummed checkpoint.
#[test]
fn v1_images_are_refused_by_every_reader() {
    let dir = std::env::temp_dir().join(format!("gkm-ivf-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.ivf");
    std::fs::write(&path, v1_image(&sample_index())).unwrap();

    let refused = |err: Error| {
        assert!(
            matches!(
                err,
                Error::Store(StoreError::UnsupportedVersion {
                    found: 1,
                    max_supported: 2
                })
            ),
            "unexpected error {err}"
        );
    };
    refused(IvfIndex::read_from(Cursor::new(std::fs::read(&path).unwrap())).unwrap_err());
    refused(IvfIndex::load(&path).unwrap_err());
    refused(MutableStore::open(&path).unwrap_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn save is detected on load, and a subsequent (re-)save restores a
/// loadable index whose answers match the original — the recovery loop an
/// operator actually runs.
#[test]
fn torn_file_is_detected_and_resave_recovers() {
    let dir = std::env::temp_dir().join(format!("gkm-ivf-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.ivf");
    let path_str = path.to_str().unwrap();

    let index = sample_index();
    index.save(path_str).unwrap();
    let image = std::fs::read(&path).unwrap();

    // Crash mid-write, modelled as the file being cut short in place.
    std::fs::write(&path, &image[..image.len() / 2]).unwrap();
    let err = IvfIndex::load(path_str).unwrap_err();
    assert!(err.is_corruption(), "torn file: unexpected class {err}");

    // Recovery: write a fresh generation (atomically) and load it.
    index.save(path_str).unwrap();
    let back = IvfIndex::load(path_str).unwrap();
    let params = IvfSearchParams::default().nprobe(3);
    assert_eq!(
        back.batch_search(&queries(), 4, params),
        index.batch_search(&queries(), 4, params)
    );
    std::fs::remove_dir_all(&dir).ok();
}
