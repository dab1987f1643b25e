//! Index persistence: the IVF index as a chunked-section file.
//!
//! The on-disk form is `vecstore::io`'s checksummed sectioned container
//! ([`vecstore::io::write_sections_to`], GKSC v2) holding four sections:
//!
//! | tag        | payload |
//! |------------|---------|
//! | `IVFCENTR` | the `k × d` centroid matrix, native [`vecstore::VectorSet`] encoding |
//! | `IVFOFFS`  | `k + 1` little-endian `u64` prefix list offsets |
//! | `IVFIDS`   | `n` little-endian `u32` panel-row → original-id entries |
//! | `IVFPANEL` | the `n × d` re-ordered vector panel, native encoding |
//! | `IVFMUT`   | mutation cursor: `next_id` and `applied_seq`, little-endian `u64` each |
//! | `IVFSQ`    | SQ8 parameters: `k × d` little-endian `f32` mins, then `k × d` scales |
//! | `IVFPNL8`  | the `n × d` SQ8 code panel, one `u8` per component, panel-row order |
//!
//! (`IVFPNL8` is the u8-panel — "IVFPANEL8" — section; tags are capped at
//! 8 bytes by the container framing.)
//!
//! `IVFSQ`/`IVFPNL8` are optional and must appear **together**: a file
//! carrying one without the other cannot describe a servable quantized tier
//! and is rejected as an invariant violation.  Both are CRC-covered like
//! every other section, their lengths are pinned exactly (`2·k·d·4` and
//! `n·d` bytes), and the scales must be finite and non-negative — a NaN or
//! negative scale would silently poison every asymmetric distance.
//!
//! `IVFMUT` ties a checkpoint to its WAL ([`vecstore::wal`]): `applied_seq`
//! is the sequence number *after* the last journalled mutation folded into
//! the panels, so recovery replays exactly the WAL records at or beyond it —
//! a crash between checkpoint publication and WAL truncation cannot
//! double-apply.  Files written before the mutable tier lack the section and
//! load with `next_id = max(id) + 1`, `applied_seq = 0`.  Only **clean**
//! indexes are saved: un-compacted append regions or tombstones are an
//! error, because a checkpoint *is* a compacted generation by definition.
//!
//! [`IvfIndex::save`] writes atomically (temp file + fsync + rename via
//! [`vecstore::io::atomic_write`]), so a crash mid-save always leaves the
//! previous index loadable.  Readers verify every container checksum and
//! then the cross-section invariants (monotonic offsets covering exactly the
//! panel, matching dimensionalities); all corruption surfaces as the typed
//! [`StoreError`] taxonomy, so a corrupted file fails loudly — with the
//! section and byte offset — instead of serving wrong neighbours.  There is
//! one reader: a file in any container version but the current one (the
//! retired unchecksummed v1 included) is refused as
//! [`StoreError::UnsupportedVersion`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use vecstore::io::{
    atomic_write, f32s_from_bytes, f32s_to_bytes, read_sections_from, u32s_from_bytes,
    u32s_to_bytes, u64s_from_bytes, u64s_to_bytes, vector_set_from_bytes, vector_set_to_bytes,
    write_sections_to, Section,
};
use vecstore::{Error, Result, StoreError};

use crate::index::IvfIndex;

pub(crate) const TAG_CENTROIDS: &str = "IVFCENTR";
pub(crate) const TAG_OFFSETS: &str = "IVFOFFS";
pub(crate) const TAG_IDS: &str = "IVFIDS";
pub(crate) const TAG_PANEL: &str = "IVFPANEL";
pub(crate) const TAG_MUT: &str = "IVFMUT";
pub(crate) const TAG_SQ: &str = "IVFSQ";
pub(crate) const TAG_PANEL8: &str = "IVFPNL8";

/// Shorthand for a cross-section invariant violation in `section`.
fn invariant(section: &str, detail: String) -> Error {
    StoreError::Invariant {
        section: section.to_string(),
        detail,
    }
    .into()
}

impl IvfIndex {
    /// Writes the index to `path` **atomically** (see the module docs for the
    /// layout): the bytes go to a temp file in the same directory, are
    /// fsynced, and are renamed over `path` — a crash at any point leaves
    /// the previous index untouched and loadable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] for underlying I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        atomic_write(path, |w| self.write_to(&mut *w))
    }

    /// Writes the index to an arbitrary writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the index is dirty (pending
    /// append regions or tombstones): a persisted index is a *checkpoint*,
    /// and a checkpoint is by definition a compacted generation — call
    /// [`IvfIndex::compact`] first.
    pub fn write_to(&self, writer: impl Write) -> Result<()> {
        if self.is_dirty() {
            return Err(Error::InvalidParameter(format!(
                "refusing to persist a dirty index ({} pending appends, {} tombstones): \
                 compact into a clean generation first",
                self.pending_appends(),
                self.tombstoned()
            )));
        }
        let mut mut_payload = Vec::with_capacity(16);
        mut_payload.extend_from_slice(&u64::from(self.next_id).to_le_bytes());
        mut_payload.extend_from_slice(&self.applied_seq.to_le_bytes());
        let mut sections = vec![
            Section::new(TAG_CENTROIDS, vector_set_to_bytes(&self.centroids)),
            Section::new(TAG_OFFSETS, u64s_to_bytes(&self.offsets)),
            Section::new(TAG_IDS, u32s_to_bytes(&self.ids)),
            Section::new(TAG_PANEL, vector_set_to_bytes(&self.panel)),
            Section::new(TAG_MUT, mut_payload),
        ];
        // The quantized tier persists as a parameter block plus the code
        // panel.  A clean index has empty append regions (enforced above),
        // so the code shadows of the appends never reach disk.
        if let Some(sq8) = &self.sq8 {
            let mut params = f32s_to_bytes(&sq8.mins);
            params.extend_from_slice(&f32s_to_bytes(&sq8.scales));
            sections.push(Section::new(TAG_SQ, params));
            sections.push(Section::new(TAG_PANEL8, sq8.codes.clone()));
        }
        write_sections_to(writer, &sections)
    }

    /// Reads an index written by [`IvfIndex::save`], verifying every
    /// checksum and cross-section invariant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] carrying the [`StoreError`] corruption class
    /// (truncation, checksum mismatch, violated cross-section invariant, …)
    /// and [`Error::Io`] for underlying I/O failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        Self::read_from(BufReader::new(file))
    }

    /// Reads an index from an arbitrary reader.
    pub fn read_from(reader: impl Read) -> Result<Self> {
        Self::from_sections(read_sections_from(reader)?)
    }

    fn from_sections(sections: Vec<Section>) -> Result<Self> {
        let find = |tag: &str| -> Result<&Section> {
            sections
                .iter()
                .find(|s| s.has_tag(tag))
                .ok_or_else(|| invariant(tag, "section is missing".to_string()))
        };
        let centroids = vector_set_from_bytes(&find(TAG_CENTROIDS)?.payload)?;
        let offsets = u64s_from_bytes(&find(TAG_OFFSETS)?.payload, TAG_OFFSETS)?;
        let ids = u32s_from_bytes(&find(TAG_IDS)?.payload, TAG_IDS)?;
        let panel = vector_set_from_bytes(&find(TAG_PANEL)?.payload)?;

        // Cross-section invariants: a violated one means the file cannot
        // describe a well-formed index, whatever the individual sections say.
        if centroids.is_empty() {
            return Err(invariant(
                TAG_CENTROIDS,
                "index holds no centroids".to_string(),
            ));
        }
        if panel.dim() != centroids.dim() {
            return Err(invariant(
                TAG_PANEL,
                format!(
                    "panel dimensionality {} does not match centroids' {}",
                    panel.dim(),
                    centroids.dim()
                ),
            ));
        }
        if offsets.len() != centroids.len() + 1 {
            return Err(invariant(
                TAG_OFFSETS,
                format!(
                    "{} offsets for {} lists (expected k + 1)",
                    offsets.len(),
                    centroids.len()
                ),
            ));
        }
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[offsets.len() - 1] != panel.len()
        {
            return Err(invariant(
                TAG_OFFSETS,
                "list offsets are not a monotone prefix covering the panel".to_string(),
            ));
        }
        if ids.len() != panel.len() {
            return Err(invariant(
                TAG_IDS,
                format!(
                    "{} id remap entries for {} panel rows",
                    ids.len(),
                    panel.len()
                ),
            ));
        }

        // Mutation cursor: absent on pre-mutable-tier files, where the id
        // space is dense and nothing was ever journalled.
        let (next_id, applied_seq) = match sections.iter().find(|s| s.has_tag(TAG_MUT)) {
            Some(s) => {
                if s.payload.len() != 16 {
                    return Err(invariant(
                        TAG_MUT,
                        format!("payload of {} bytes (expected 16)", s.payload.len()),
                    ));
                }
                let mut a = [0u8; 8];
                a.copy_from_slice(&s.payload[..8]);
                let next_id = u64::from_le_bytes(a);
                a.copy_from_slice(&s.payload[8..]);
                let applied_seq = u64::from_le_bytes(a);
                if next_id > u64::from(u32::MAX) {
                    return Err(invariant(
                        TAG_MUT,
                        format!("next_id {next_id} exceeds the u32 id space"),
                    ));
                }
                (next_id as u32, applied_seq)
            }
            None => (ids.iter().max().map(|&m| m + 1).unwrap_or(0), 0),
        };
        if let Some(&beyond) = ids.iter().find(|&&id| id >= next_id) {
            return Err(invariant(
                TAG_MUT,
                format!("panel id {beyond} is at or beyond next_id {next_id}"),
            ));
        }
        let live = crate::index::LiveSet::from_ids(next_id as usize, &ids)
            .ok_or_else(|| invariant(TAG_IDS, "id remap contains a duplicate id".to_string()))?;
        let appends = vec![crate::index::AppendList::default(); centroids.len()];

        // The optional SQ8 tier: parameters and code panel must appear
        // together, with exactly pinned lengths, and the affine maps must be
        // servable (finite mins, finite non-negative scales).
        let sq_section = sections.iter().find(|s| s.has_tag(TAG_SQ));
        let panel8_section = sections.iter().find(|s| s.has_tag(TAG_PANEL8));
        let sq8 = match (sq_section, panel8_section) {
            (None, None) => None,
            (Some(_), None) => {
                return Err(invariant(
                    TAG_PANEL8,
                    format!("{TAG_SQ} present without its code panel"),
                ));
            }
            (None, Some(_)) => {
                return Err(invariant(
                    TAG_SQ,
                    format!("{TAG_PANEL8} present without its parameter block"),
                ));
            }
            (Some(sq), Some(p8)) => {
                let k = centroids.len();
                let d = centroids.dim();
                if sq.payload.len() != 2 * k * d * 4 {
                    return Err(invariant(
                        TAG_SQ,
                        format!(
                            "payload of {} bytes (expected {} for k = {k}, d = {d})",
                            sq.payload.len(),
                            2 * k * d * 4
                        ),
                    ));
                }
                if p8.payload.len() != panel.len() * d {
                    return Err(invariant(
                        TAG_PANEL8,
                        format!(
                            "{} code bytes for {} panel rows of dim {d}",
                            p8.payload.len(),
                            panel.len()
                        ),
                    ));
                }
                let mins = f32s_from_bytes(&sq.payload[..k * d * 4], TAG_SQ)?;
                let scales = f32s_from_bytes(&sq.payload[k * d * 4..], TAG_SQ)?;
                if mins.iter().any(|m| !m.is_finite()) {
                    return Err(invariant(
                        TAG_SQ,
                        "a quantization min is not finite".to_string(),
                    ));
                }
                if scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
                    return Err(invariant(
                        TAG_SQ,
                        "a quantization scale is negative or not finite".to_string(),
                    ));
                }
                Some(crate::sq8::Sq8Panels {
                    dim: d,
                    mins,
                    scales,
                    codes: p8.payload.clone(),
                    append_codes: vec![Vec::new(); k],
                })
            }
        };

        Ok(Self {
            centroids,
            offsets,
            panel,
            ids,
            appends,
            live,
            tombstoned: 0,
            next_id,
            applied_seq,
            sq8,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IvfSearchParams;
    use vecstore::VectorSet;

    fn sample_index() -> IvfIndex {
        let data = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![9.0, 9.0],
            vec![0.0, 1.0],
            vec![9.0, 8.0],
        ])
        .unwrap();
        let centroids = VectorSet::from_rows(vec![vec![0.0, 0.5], vec![9.0, 8.5]]).unwrap();
        IvfIndex::build(&data, &centroids, &[0, 1, 0, 1]).unwrap()
    }

    #[test]
    fn round_trip_preserves_index_and_answers() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let back = IvfIndex::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, index);
        let params = IvfSearchParams::default().nprobe(2).threads(1);
        assert_eq!(
            back.search(&[8.5, 8.5], 2, params),
            index.search(&[8.5, 8.5], 2, params)
        );
    }

    #[test]
    fn round_trip_with_empty_lists_and_empty_panel() {
        let centroids = VectorSet::from_rows(vec![vec![0.0], vec![5.0]]).unwrap();
        let empty = VectorSet::zeros(0, 1).unwrap();
        let index = IvfIndex::build(&empty, &centroids, &[]).unwrap();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        assert_eq!(IvfIndex::read_from(buf.as_slice()).unwrap(), index);
    }

    #[test]
    fn load_rejects_missing_sections_and_broken_invariants() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();

        // drop the ids section
        let sections: Vec<Section> = read_sections_from(buf.as_slice())
            .unwrap()
            .into_iter()
            .filter(|s| !s.has_tag(TAG_IDS))
            .collect();
        let mut missing = Vec::new();
        write_sections_to(&mut missing, &sections).unwrap();
        assert!(matches!(
            IvfIndex::read_from(missing.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_IDS
        ));

        // corrupt the offsets so they no longer cover the panel
        let mut sections = read_sections_from(buf.as_slice()).unwrap();
        for s in &mut sections {
            if s.has_tag(TAG_OFFSETS) {
                s.payload = u64s_to_bytes(&[0, 1, 999]);
            }
        }
        let mut broken = Vec::new();
        write_sections_to(&mut broken, &sections).unwrap();
        assert!(matches!(
            IvfIndex::read_from(broken.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_OFFSETS
        ));
    }

    #[test]
    fn bit_flips_in_the_file_are_detected_as_checksum_mismatches() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        // A flip anywhere — header, framing, payload — must be caught.
        for byte in [0usize, 9, 21, 40, buf.len() / 2, buf.len() - 1] {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 0x10;
            let err = IvfIndex::read_from(corrupt.as_slice()).unwrap_err();
            assert!(matches!(err, Error::Store(_)), "byte {byte}: got {err}");
        }
    }

    #[test]
    fn sq8_round_trip_preserves_the_quantized_tier() {
        let mut index = sample_index();
        index.quantize();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let back = IvfIndex::read_from(buf.as_slice()).unwrap();
        assert!(back.is_quantized());
        assert_eq!(back, index);
    }

    #[test]
    fn sq8_sections_must_appear_together_with_sane_payloads() {
        let mut index = sample_index();
        index.quantize();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();

        let rewrite = |filter: &dyn Fn(&mut Vec<Section>)| -> Vec<u8> {
            let mut sections = read_sections_from(buf.as_slice()).unwrap();
            filter(&mut sections);
            let mut out = Vec::new();
            write_sections_to(&mut out, &sections).unwrap();
            out
        };

        // one section without the other
        let no_codes = rewrite(&|ss| ss.retain(|s| !s.has_tag(TAG_PANEL8)));
        assert!(matches!(
            IvfIndex::read_from(no_codes.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_PANEL8
        ));
        let no_params = rewrite(&|ss| ss.retain(|s| !s.has_tag(TAG_SQ)));
        assert!(matches!(
            IvfIndex::read_from(no_params.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_SQ
        ));

        // wrong parameter-block length
        let short_params = rewrite(&|ss| {
            for s in ss.iter_mut() {
                if s.has_tag(TAG_SQ) {
                    s.payload.truncate(s.payload.len() - 4);
                }
            }
        });
        assert!(matches!(
            IvfIndex::read_from(short_params.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_SQ
        ));

        // wrong code-panel length
        let short_codes = rewrite(&|ss| {
            for s in ss.iter_mut() {
                if s.has_tag(TAG_PANEL8) {
                    s.payload.pop();
                }
            }
        });
        assert!(matches!(
            IvfIndex::read_from(short_codes.as_slice()).unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == TAG_PANEL8
        ));

        // a poisoned scale (negative, then NaN) is rejected
        for bad in [-1.0f32, f32::NAN] {
            let poisoned = rewrite(&|ss| {
                for s in ss.iter_mut() {
                    if s.has_tag(TAG_SQ) {
                        let at = s.payload.len() - 4; // last scale value
                        s.payload[at..].copy_from_slice(&bad.to_le_bytes());
                    }
                }
            });
            assert!(matches!(
                IvfIndex::read_from(poisoned.as_slice()).unwrap_err(),
                Error::Store(StoreError::Invariant { section, .. }) if section == TAG_SQ
            ));
        }
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("ivf-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.ivf");
        let index = sample_index();
        index.save(&path).unwrap();
        assert_eq!(IvfIndex::load(&path).unwrap(), index);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_over_an_existing_index() {
        let dir = std::env::temp_dir().join(format!("ivf-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serving.ivf");
        let index = sample_index();
        index.save(&path).unwrap();
        // A failed overwrite (simulated by a directory collision on the
        // final rename target being impossible here, so instead verify the
        // temp-file protocol directly): writing again must leave a loadable
        // index at every observable moment — after save, the old or new
        // content is fully present, never a torn mix.
        index.save(&path).unwrap();
        assert_eq!(IvfIndex::load(&path).unwrap(), index);
        // No temp files linger.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
