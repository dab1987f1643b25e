//! Readers/writers for the TexMex vector formats and the GKSC container.
//!
//! The paper's datasets (SIFT1M, GIST1M, …, Tab. 1) are distributed in the
//! `fvecs`/`ivecs`/`bvecs` formats: each record is a little-endian `i32`
//! dimensionality followed by `d` components (`f32`, `i32` or `u8`
//! respectively).  The harness uses these readers when real datasets are
//! available and the synthetic generators otherwise; the writers make the
//! synthetic workloads exportable so they can be compared against the
//! original C++ implementation.
//!
//! Every file the workspace itself writes — the k-NN graph, the IVF serving
//! index and its checkpoints — is a **chunked container**
//! ([`write_sections_to`] / [`read_sections_from`]): a magic/version header
//! followed by tagged, length-prefixed sections.  A composite artefact stores
//! each constituent (a matrix, an offset array, an id remap…) as its own
//! section, so readers validate shapes section by section and new fields
//! extend the format without breaking old readers' framing.  Section payloads
//! are little-endian arrays ([`u32s_to_bytes`], [`u64s_to_bytes`],
//! [`f32s_to_bytes`] and their inverses) or a whole [`VectorSet`]
//! ([`vector_set_to_bytes`] / [`vector_set_from_bytes`]).
//!
//! # Durability (GKSC v2)
//!
//! The container has one version, [`SECTION_VERSION`] = 2, and one reader.
//! The 16-byte header is followed by its CRC-32C, and every section carries a
//! trailing CRC-32C over its tag, length field and payload, so every byte of
//! a file is covered by some checksum.  The reader validates each declared
//! length against the bytes actually remaining **before** allocating, and all
//! failures surface as the typed [`StoreError`] taxonomy (section tag + byte
//! offset) rather than strings or panics; any other version, the retired
//! unchecksummed v1 included, is [`StoreError::UnsupportedVersion`].
//! [`atomic_write`] is the companion save protocol: temp file + fsync +
//! rename, so a crash mid-save leaves the previous artefact loadable.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::checksum::{crc32c, crc32c_append};
use crate::error::{Error, Result, StoreError};
use crate::matrix::VectorSet;

/// Reads an `fvecs` file into a [`VectorSet`].
///
/// # Errors
///
/// Returns [`Error::MalformedFile`] on truncated records or inconsistent
/// dimensionality, and [`Error::Io`] for underlying I/O failures.
pub fn read_fvecs(path: impl AsRef<Path>) -> Result<VectorSet> {
    let file = File::open(path)?;
    read_fvecs_from(BufReader::new(file))
}

/// Reads `fvecs` records from an arbitrary reader.
pub fn read_fvecs_from(mut reader: impl Read) -> Result<VectorSet> {
    let mut data: Vec<f32> = Vec::new();
    let mut dim: Option<usize> = None;
    loop {
        let mut dim_buf = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut dim_buf)? {
            ReadStatus::Eof => break,
            ReadStatus::Full => {}
        }
        let d = i32::from_le_bytes(dim_buf);
        if d <= 0 {
            return Err(Error::MalformedFile(format!(
                "non-positive record dimensionality {d}"
            )));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(existing) if existing != d => {
                return Err(Error::MalformedFile(format!(
                    "inconsistent dimensionality: {existing} then {d}"
                )));
            }
            Some(_) => {}
        }
        let mut record = vec![0u8; d * 4];
        reader
            .read_exact(&mut record)
            .map_err(|e| Error::MalformedFile(format!("truncated fvecs record: {e}")))?;
        for chunk in record.chunks_exact(4) {
            data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
    }
    let dim = dim.ok_or(Error::EmptyInput("fvecs file holds no records"))?;
    VectorSet::from_flat(data, dim)
}

/// Writes a [`VectorSet`] in the `fvecs` format.
pub fn write_fvecs(path: impl AsRef<Path>, data: &VectorSet) -> Result<()> {
    let file = File::create(path)?;
    write_fvecs_to(BufWriter::new(file), data)
}

/// Writes `fvecs` records to an arbitrary writer.
pub fn write_fvecs_to(mut writer: impl Write, data: &VectorSet) -> Result<()> {
    let dim = data.dim() as i32;
    for row in data.rows() {
        writer.write_all(&dim.to_le_bytes())?;
        for &v in row {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads `ivecs` records (TexMex's ground-truth neighbour lists) from an
/// arbitrary reader.
///
/// Returns one `Vec<i32>` per record; records may have differing lengths in
/// principle but ground-truth files are rectangular.
pub fn read_ivecs_from(mut reader: impl Read) -> Result<Vec<Vec<i32>>> {
    let mut out = Vec::new();
    loop {
        let mut dim_buf = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut dim_buf)? {
            ReadStatus::Eof => break,
            ReadStatus::Full => {}
        }
        let d = i32::from_le_bytes(dim_buf);
        if d <= 0 {
            return Err(Error::MalformedFile(format!(
                "non-positive record dimensionality {d}"
            )));
        }
        let d = d as usize;
        let mut record = vec![0u8; d * 4];
        reader
            .read_exact(&mut record)
            .map_err(|e| Error::MalformedFile(format!("truncated ivecs record: {e}")))?;
        let row = record
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        out.push(row);
    }
    Ok(out)
}

/// Writes `ivecs` records.
pub fn write_ivecs_to(mut writer: impl Write, rows: &[Vec<i32>]) -> Result<()> {
    for row in rows {
        let d = row.len() as i32;
        writer.write_all(&d.to_le_bytes())?;
        for &v in row {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads a `bvecs` file (byte-quantised descriptors, e.g. SIFT1B subsets),
/// widening each component to `f32`.
pub fn read_bvecs_from(mut reader: impl Read) -> Result<VectorSet> {
    let mut data: Vec<f32> = Vec::new();
    let mut dim: Option<usize> = None;
    loop {
        let mut dim_buf = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut dim_buf)? {
            ReadStatus::Eof => break,
            ReadStatus::Full => {}
        }
        let d = i32::from_le_bytes(dim_buf);
        if d <= 0 {
            return Err(Error::MalformedFile(format!(
                "non-positive record dimensionality {d}"
            )));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(existing) if existing != d => {
                return Err(Error::MalformedFile(format!(
                    "inconsistent dimensionality: {existing} then {d}"
                )));
            }
            Some(_) => {}
        }
        let mut record = vec![0u8; d];
        reader
            .read_exact(&mut record)
            .map_err(|e| Error::MalformedFile(format!("truncated bvecs record: {e}")))?;
        data.extend(record.iter().map(|&b| f32::from(b)));
    }
    let dim = dim.ok_or(Error::EmptyInput("bvecs file holds no records"))?;
    VectorSet::from_flat(data, dim)
}

/// Writes `bvecs` records (byte-quantised descriptors).
///
/// The inverse of [`read_bvecs_from`]: every component must already be an
/// integer in `0..=255` (the widened form the reader produces), otherwise the
/// set is not representable in the format.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when a component is not a `u8`-exact
/// value, and [`Error::Io`] for underlying I/O failures.
pub fn write_bvecs_to(mut writer: impl Write, data: &VectorSet) -> Result<()> {
    let dim = data.dim() as i32;
    let mut record = vec![0u8; data.dim()];
    for (i, row) in data.rows().enumerate() {
        for (slot, &v) in record.iter_mut().zip(row) {
            if !(0.0..=255.0).contains(&v) || v.fract() != 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "bvecs component {v} of row {i} is not an integer in 0..=255"
                )));
            }
            *slot = v as u8;
        }
        writer.write_all(&dim.to_le_bytes())?;
        writer.write_all(&record)?;
    }
    writer.flush()?;
    Ok(())
}

/// Magic bytes opening a chunked (sectioned) container file.
pub const SECTION_MAGIC: [u8; 4] = *b"GKSC";

/// The one version of the chunked container framing (checksummed).
pub const SECTION_VERSION: u32 = 2;

/// Sanity bound on the section count a header may declare.  A count above
/// this is a corrupt field, not a big file.
const MAX_SECTIONS: u64 = 1 << 20;

/// Sanity bound on a single declared payload length (1 TiB).  A length above
/// this is a corrupt field, not a big section.
const MAX_SECTION_BYTES: u64 = 1 << 40;

/// One tagged, length-prefixed chunk of a sectioned container.
///
/// The tag is a fixed 8-byte field (short ASCII names padded with spaces);
/// the payload is opaque to the framing layer — composite formats such as the
/// IVF index define their own payload encodings per tag (typically a
/// [`VectorSet`] via [`vector_set_to_bytes`], or packed little-endian
/// arrays).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// 8-byte section tag (space-padded ASCII by convention).
    pub tag: [u8; 8],
    /// Raw section payload.
    pub payload: Vec<u8>,
}

impl Section {
    /// Creates a section, space-padding `tag` to 8 bytes.
    ///
    /// # Panics
    ///
    /// Panics when `tag` is longer than 8 bytes — tags are compile-time
    /// constants of the composite format, so a long tag is a programming
    /// error, not an input error.
    pub fn new(tag: &str, payload: Vec<u8>) -> Self {
        assert!(tag.len() <= 8, "section tag `{tag}` exceeds 8 bytes");
        let mut t = [b' '; 8];
        t[..tag.len()].copy_from_slice(tag.as_bytes());
        Self { tag: t, payload }
    }

    /// `true` when this section carries the (space-padded) tag `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        Self::new(tag, Vec::new()).tag == self.tag
    }
}

/// Human-readable name of a section tag for error reporting: the
/// space-trimmed lossy-UTF-8 form, or `(untagged)` when blank.
fn tag_name(tag: &[u8; 8]) -> String {
    let name = String::from_utf8_lossy(tag).trim_end().to_string();
    if name.is_empty() {
        "(untagged)".to_string()
    } else {
        name
    }
}

/// Writes a checksummed chunked container: [`SECTION_MAGIC`],
/// [`SECTION_VERSION`], the section count, the CRC-32C of those 16 header
/// bytes, then each section as `tag (8 bytes) · payload length (u64) ·
/// payload · CRC-32C of the preceding tag‖length‖payload`.  Every byte of the
/// file is covered by exactly one checksum.
pub fn write_sections_to(mut writer: impl Write, sections: &[Section]) -> Result<()> {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&SECTION_MAGIC);
    header[4..8].copy_from_slice(&SECTION_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(sections.len() as u64).to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(&crc32c(&header).to_le_bytes())?;
    for section in sections {
        let len = (section.payload.len() as u64).to_le_bytes();
        let mut state = !0u32;
        state = crc32c_append(state, &section.tag);
        state = crc32c_append(state, &len);
        state = crc32c_append(state, &section.payload);
        writer.write_all(&section.tag)?;
        writer.write_all(&len)?;
        writer.write_all(&section.payload)?;
        writer.write_all(&(state ^ !0u32).to_le_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads a chunked container, returning the sections in file order
/// (duplicate tags are preserved; consumers decide their semantics).
///
/// Every checksum is verified.  Declared lengths are validated against the
/// bytes actually present *before* any allocation, so a corrupt length field
/// yields [`StoreError::Truncated`] or [`StoreError::Oversized`] rather than
/// an OOM abort.
///
/// # Errors
///
/// Returns [`Error::Store`] with the precise [`StoreError`] corruption class
/// (section tag + byte offset), and [`Error::Io`] for underlying I/O
/// failures.
pub fn read_sections_from(mut reader: impl Read) -> Result<Vec<Section>> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    parse_sections(&buf)
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(a)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(a)
}

fn parse_sections(buf: &[u8]) -> Result<Vec<Section>> {
    if buf.len() >= 4 && buf[0..4] != SECTION_MAGIC {
        return Err(StoreError::BadMagic {
            found: [buf[0], buf[1], buf[2], buf[3]],
        }
        .into());
    }
    if buf.len() < 16 {
        return Err(StoreError::Truncated {
            section: "header".into(),
            offset: 0,
            needed: 16,
            available: buf.len() as u64,
        }
        .into());
    }
    let version = le_u32(&buf[4..8]);
    let count = le_u64(&buf[8..16]);
    if version != SECTION_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            max_supported: SECTION_VERSION,
        }
        .into());
    }
    if buf.len() < 20 {
        return Err(StoreError::Truncated {
            section: "header".into(),
            offset: 16,
            needed: 4,
            available: (buf.len() - 16) as u64,
        }
        .into());
    }
    let stored = le_u32(&buf[16..20]);
    let computed = crc32c(&buf[0..16]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch {
            section: "header".into(),
            offset: 16,
            stored,
            computed,
        }
        .into());
    }
    if count > MAX_SECTIONS {
        return Err(StoreError::Oversized {
            section: "header".into(),
            offset: 8,
            declared: count,
            limit: MAX_SECTIONS,
        }
        .into());
    }
    // Each section needs at least its fixed framing (tag, length, CRC);
    // checking the count against the remaining bytes up front bounds the
    // `with_capacity` below.
    let mut pos = 20usize;
    let remaining = (buf.len() - pos) as u64;
    if count.saturating_mul(20) > remaining {
        return Err(StoreError::Truncated {
            section: "header".into(),
            offset: pos as u64,
            needed: count.saturating_mul(20),
            available: remaining,
        }
        .into());
    }
    let mut sections = Vec::with_capacity(count as usize);
    for i in 0..count {
        let sec_start = pos;
        let avail = (buf.len() - pos) as u64;
        if avail < 16 {
            return Err(StoreError::Truncated {
                section: format!("section {i}"),
                offset: pos as u64,
                needed: 16,
                available: avail,
            }
            .into());
        }
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&buf[pos..pos + 8]);
        let len = le_u64(&buf[pos + 8..pos + 16]);
        let name = tag_name(&tag);
        if len > MAX_SECTION_BYTES {
            return Err(StoreError::Oversized {
                section: name,
                offset: (pos + 8) as u64,
                declared: len,
                limit: MAX_SECTION_BYTES,
            }
            .into());
        }
        let body_start = pos + 16;
        let after = (buf.len() - body_start) as u64;
        if len + 4 > after {
            return Err(StoreError::Truncated {
                section: name,
                offset: body_start as u64,
                needed: len + 4,
                available: after,
            }
            .into());
        }
        let payload_end = body_start + len as usize;
        let stored = le_u32(&buf[payload_end..payload_end + 4]);
        let computed = crc32c(&buf[sec_start..payload_end]);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch {
                section: name,
                offset: payload_end as u64,
                stored,
                computed,
            }
            .into());
        }
        sections.push(Section {
            tag,
            payload: buf[body_start..payload_end].to_vec(),
        });
        pos = payload_end + 4;
    }
    if pos != buf.len() {
        return Err(StoreError::Invariant {
            section: "container".into(),
            detail: format!("{} trailing bytes after the last section", buf.len() - pos),
        }
        .into());
    }
    Ok(sections)
}

/// Writes `path` atomically: the content goes to a temp file in the same
/// directory, is flushed and fsynced, and is then renamed over `path`
/// (followed by a best-effort directory fsync so the rename itself is
/// durable).  A crash — or an error from `write_fn` — at any point leaves
/// the previous `path` untouched and loadable; the temp file is removed on
/// failure.
pub fn atomic_write(
    path: impl AsRef<Path>,
    write_fn: impl FnOnce(&mut BufWriter<File>) -> Result<()>,
) -> Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| Error::InvalidParameter(format!("`{}` has no file name", path.display())))?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_result = (|| -> Result<()> {
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        write_fn(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        Ok(())
    })();
    if let Err(e) = write_result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(Error::Io(e));
    }
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Encodes little-endian `u32` values as a section payload.
pub fn u32s_to_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes `usize` values as a section payload of little-endian `u64`s.
pub fn u64s_to_bytes(values: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for &v in values {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out
}

/// Encodes little-endian `f32` values as a section payload.
pub fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a section payload of little-endian `u32`s.
///
/// # Errors
///
/// Returns [`StoreError::Invariant`] naming `section` when the payload is
/// not a whole number of values.
pub fn u32s_from_bytes(bytes: &[u8], section: &str) -> Result<Vec<u32>> {
    words_from_bytes(bytes, section, "u32", u32::from_le_bytes)
}

/// Decodes a section payload of little-endian `u64`s into `usize`s.
///
/// # Errors
///
/// As [`u32s_from_bytes`].
pub fn u64s_from_bytes(bytes: &[u8], section: &str) -> Result<Vec<usize>> {
    words_from_bytes(bytes, section, "u64", |a| u64::from_le_bytes(a) as usize)
}

/// Decodes a section payload of little-endian `f32`s.
///
/// # Errors
///
/// As [`u32s_from_bytes`].
pub fn f32s_from_bytes(bytes: &[u8], section: &str) -> Result<Vec<f32>> {
    words_from_bytes(bytes, section, "f32", f32::from_le_bytes)
}

fn words_from_bytes<const W: usize, T>(
    bytes: &[u8],
    section: &str,
    word: &str,
    decode: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    if bytes.len() % W != 0 {
        return Err(StoreError::Invariant {
            section: section.to_string(),
            detail: format!(
                "payload of {} bytes is not whole {word} values",
                bytes.len()
            ),
        }
        .into());
    }
    Ok(bytes
        .chunks_exact(W)
        .map(|c| {
            let mut a = [0u8; W];
            a.copy_from_slice(c);
            decode(a)
        })
        .collect())
}

/// Encodes a [`VectorSet`] as a section payload: `u64 n`, `u64 d`, then the
/// `n·d` little-endian `f32` values row by row.
pub fn vector_set_to_bytes(data: &VectorSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + data.as_flat().len() * 4);
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(data.dim() as u64).to_le_bytes());
    for v in data.as_flat() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Decodes a [`VectorSet`] from a [`vector_set_to_bytes`] payload.
///
/// The `n·d·4` payload size is computed with checked arithmetic and compared
/// with the bytes present before anything is allocated, so a corrupt shape
/// header fails instead of overflowing or allocating.
///
/// # Errors
///
/// Returns [`Error::MalformedFile`] on a zero dimensionality or a shape that
/// disagrees with the payload length (truncated or trailing bytes).
pub fn vector_set_from_bytes(bytes: &[u8]) -> Result<VectorSet> {
    if bytes.len() < 16 {
        return Err(Error::MalformedFile(format!(
            "vector-set payload of {} bytes lacks its 16-byte shape header",
            bytes.len()
        )));
    }
    let (n, d) = (le_u64(&bytes[0..8]), le_u64(&bytes[8..16]));
    if d == 0 {
        return Err(Error::MalformedFile("zero dimensionality".into()));
    }
    let body = &bytes[16..];
    if n.checked_mul(d).and_then(|c| c.checked_mul(4)) != Some(body.len() as u64) {
        return Err(Error::MalformedFile(format!(
            "vector-set shape {n}×{d} does not match its {} payload bytes",
            body.len()
        )));
    }
    VectorSet::from_flat(f32s_from_bytes(body, "vector set")?, d as usize)
}

enum ReadStatus {
    Full,
    Eof,
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF (no bytes at
/// all) from a truncated record (some but not all bytes).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<ReadStatus> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(ReadStatus::Eof);
            }
            return Err(Error::MalformedFile(
                "unexpected end of file inside a record header".into(),
            ));
        }
        filled += n;
    }
    Ok(ReadStatus::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> VectorSet {
        VectorSet::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![-1.0, 0.5, 0.25, 8.0],
            vec![0.0, 0.0, 0.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn fvecs_round_trip() {
        let vs = sample();
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).unwrap();
        // each record: 4 bytes dim + 4*4 bytes payload
        assert_eq!(buf.len(), 3 * (4 + 16));
        let back = read_fvecs_from(Cursor::new(buf)).unwrap();
        assert_eq!(back, vs);
    }

    #[test]
    fn fvecs_rejects_truncated() {
        let vs = sample();
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_fvecs_from(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, Error::MalformedFile(_)));
    }

    #[test]
    fn fvecs_rejects_inconsistent_dim() {
        let mut buf = Vec::new();
        // record of dim 2 then a record of dim 3
        buf.extend(2i32.to_le_bytes());
        buf.extend(1.0f32.to_le_bytes());
        buf.extend(2.0f32.to_le_bytes());
        buf.extend(3i32.to_le_bytes());
        buf.extend([0u8; 12]);
        assert!(matches!(
            read_fvecs_from(Cursor::new(buf)).unwrap_err(),
            Error::MalformedFile(_)
        ));
    }

    #[test]
    fn fvecs_rejects_empty() {
        let err = read_fvecs_from(Cursor::new(Vec::new())).unwrap_err();
        assert!(matches!(err, Error::EmptyInput(_)));
    }

    #[test]
    fn ivecs_round_trip() {
        let rows = vec![vec![3, 1, 4], vec![1, 5, 9], vec![2, 6, 5]];
        let mut buf = Vec::new();
        write_ivecs_to(&mut buf, &rows).unwrap();
        let back = read_ivecs_from(Cursor::new(buf)).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn ivecs_allows_empty_file() {
        let back = read_ivecs_from(Cursor::new(Vec::new())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bvecs_widens_bytes() {
        let mut buf = Vec::new();
        buf.extend(2i32.to_le_bytes());
        buf.extend([10u8, 200u8]);
        buf.extend(2i32.to_le_bytes());
        buf.extend([0u8, 255u8]);
        let vs = read_bvecs_from(Cursor::new(buf)).unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs.row(0), &[10.0, 200.0]);
        assert_eq!(vs.row(1), &[0.0, 255.0]);
    }

    #[test]
    fn native_round_trip() {
        let vs = sample();
        let buf = vector_set_to_bytes(&vs);
        assert_eq!(buf.len(), 16 + 3 * 4 * 4);
        assert_eq!(vector_set_from_bytes(&buf).unwrap(), vs);
    }

    #[test]
    fn native_rejects_truncation() {
        let mut buf = vector_set_to_bytes(&sample());
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            vector_set_from_bytes(&buf).unwrap_err(),
            Error::MalformedFile(_)
        ));
        assert!(vector_set_from_bytes(&buf[..15]).is_err());
    }

    #[test]
    fn native_rejects_absurd_header_without_allocating() {
        let mut buf = Vec::new();
        buf.extend(u64::MAX.to_le_bytes()); // n
        buf.extend(8u64.to_le_bytes()); // d → n·d·4 overflows
        let err = vector_set_from_bytes(&buf).unwrap_err();
        assert!(matches!(err, Error::MalformedFile(_)));

        let mut buf = Vec::new();
        buf.extend((MAX_SECTION_BYTES / 4).to_le_bytes()); // n·d·4 ≫ payload
        buf.extend(2u64.to_le_bytes());
        let err = vector_set_from_bytes(&buf).unwrap_err();
        assert!(matches!(err, Error::MalformedFile(_)));

        let mut buf = vector_set_to_bytes(&sample());
        buf[8..16].copy_from_slice(&0u64.to_le_bytes()); // d = 0
        assert!(matches!(
            vector_set_from_bytes(&buf).unwrap_err(),
            Error::MalformedFile(_)
        ));
    }

    #[test]
    fn word_arrays_round_trip_and_reject_partial_values() {
        let u32s = [0u32, 7, u32::MAX];
        assert_eq!(u32s_from_bytes(&u32s_to_bytes(&u32s), "A").unwrap(), u32s);
        let u64s = [0usize, 1 << 40, 3];
        assert_eq!(u64s_from_bytes(&u64s_to_bytes(&u64s), "B").unwrap(), u64s);
        let f32s = [-0.0f32, 1.5, f32::MAX];
        let back = f32s_from_bytes(&f32s_to_bytes(&f32s), "C").unwrap();
        assert!(back
            .iter()
            .zip(&f32s)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(matches!(
            u64s_from_bytes(&[0; 12], "OFFS").unwrap_err(),
            Error::Store(StoreError::Invariant { section, .. }) if section == "OFFS"
        ));
        assert!(u32s_from_bytes(&[0; 5], "IDS").is_err());
        assert!(f32s_from_bytes(&[0; 3], "DIST").is_err());
    }

    #[test]
    fn bvecs_round_trip_and_validation() {
        let vs = VectorSet::from_rows(vec![vec![0.0, 255.0, 17.0], vec![3.0, 4.0, 5.0]]).unwrap();
        let mut buf = Vec::new();
        write_bvecs_to(&mut buf, &vs).unwrap();
        assert_eq!(buf.len(), 2 * (4 + 3));
        assert_eq!(read_bvecs_from(Cursor::new(buf)).unwrap(), vs);

        let bad = VectorSet::from_rows(vec![vec![0.5, 1.0]]).unwrap();
        assert!(matches!(
            write_bvecs_to(Vec::new(), &bad).unwrap_err(),
            Error::InvalidParameter(_)
        ));
        let out_of_range = VectorSet::from_rows(vec![vec![256.0, 1.0]]).unwrap();
        assert!(write_bvecs_to(Vec::new(), &out_of_range).is_err());
    }

    #[test]
    fn sections_round_trip_preserving_order_and_duplicates() {
        let sections = vec![
            Section::new("CENTROID", vector_set_to_bytes(&sample())),
            Section::new("EMPTY", Vec::new()),
            Section::new("EMPTY", vec![1, 2, 3]),
        ];
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        let back = read_sections_from(Cursor::new(buf.clone())).unwrap();
        assert_eq!(back, sections);
        assert!(back[0].has_tag("CENTROID"));
        assert!(back[1].has_tag("EMPTY") && back[2].has_tag("EMPTY"));
        assert_eq!(vector_set_from_bytes(&back[0].payload).unwrap(), sample());
    }

    #[test]
    fn sections_allow_zero_sections() {
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &[]).unwrap();
        assert!(read_sections_from(Cursor::new(buf)).unwrap().is_empty());
    }

    #[test]
    fn v1_sections_are_refused_as_an_unsupported_version() {
        // The retired unchecksummed framing: magic, version 1, count, then
        // `tag · length · payload` with no CRCs.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&SECTION_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&Section::new("LEGACY", Vec::new()).tag);
        v1.extend_from_slice(&5u64.to_le_bytes());
        v1.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert!(matches!(
            read_sections_from(Cursor::new(v1)).unwrap_err(),
            Error::Store(StoreError::UnsupportedVersion {
                found: 1,
                max_supported: SECTION_VERSION
            })
        ));
    }

    #[test]
    fn sections_reject_bad_magic_version_and_truncation() {
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &[Section::new("X", vec![9; 32])]).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'!';
        assert!(matches!(
            read_sections_from(Cursor::new(bad_magic)).unwrap_err(),
            Error::Store(StoreError::BadMagic { .. })
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 0xfe;
        // The header checksum is computed over the version field, so a
        // version flip in a v2 file surfaces as either error class.
        assert!(matches!(
            read_sections_from(Cursor::new(bad_version)).unwrap_err(),
            Error::Store(
                StoreError::UnsupportedVersion { .. } | StoreError::ChecksumMismatch { .. }
            )
        ));

        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 5);
        assert!(matches!(
            read_sections_from(Cursor::new(truncated)).unwrap_err(),
            Error::Store(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn sections_detect_payload_and_header_bit_flips() {
        let sections = vec![Section::new("DATA", (0u8..64).collect())];
        let mut clean = Vec::new();
        write_sections_to(&mut clean, &sections).unwrap();

        // Flip a payload bit → section checksum mismatch.
        let mut corrupt = clean.clone();
        let payload_byte = clean.len() - 10;
        corrupt[payload_byte] ^= 0x01;
        assert!(matches!(
            read_sections_from(Cursor::new(corrupt)).unwrap_err(),
            Error::Store(StoreError::ChecksumMismatch { .. })
        ));

        // Flip a header count bit → header checksum mismatch.
        let mut corrupt = clean.clone();
        corrupt[8] ^= 0x01;
        assert!(matches!(
            read_sections_from(Cursor::new(corrupt)).unwrap_err(),
            Error::Store(StoreError::ChecksumMismatch { section, .. }) if section == "header"
        ));
    }

    #[test]
    fn sections_reject_oversized_length_field_without_allocating() {
        let sections = vec![Section::new("DATA", vec![7; 16])];
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        // Overwrite the section length (8 bytes at offset 20+8) with u64::MAX.
        buf[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_sections_from(Cursor::new(buf)).unwrap_err(),
            Error::Store(StoreError::Oversized { .. })
        ));
    }

    #[test]
    fn sections_reject_plausible_but_too_large_length_as_truncated() {
        let sections = vec![Section::new("DATA", vec![7; 16])];
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        // A length within the sanity bound but beyond the file must be
        // reported as truncation, before any allocation of that size (and
        // before the section CRC, which the length decides the span of).
        buf[28..36].copy_from_slice(&(1u64 << 30).to_le_bytes());
        assert!(matches!(
            read_sections_from(Cursor::new(buf)).unwrap_err(),
            Error::Store(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn sections_reject_trailing_garbage() {
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &[Section::new("X", vec![1, 2, 3])]).unwrap();
        buf.extend_from_slice(&[0xAA; 7]);
        assert!(matches!(
            read_sections_from(Cursor::new(buf)).unwrap_err(),
            Error::Store(StoreError::Invariant { .. })
        ));
    }

    #[test]
    fn sections_reject_future_version() {
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &[]).unwrap();
        buf[4..8].copy_from_slice(&3u32.to_le_bytes());
        // Re-stamp the header CRC so the version check itself is exercised.
        let crc = crc32c(&buf[0..16]);
        buf[16..20].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_sections_from(Cursor::new(buf)).unwrap_err(),
            Error::Store(StoreError::UnsupportedVersion {
                found: 3,
                max_supported: SECTION_VERSION
            })
        ));
    }

    #[test]
    fn tag_name_trims_and_handles_blank() {
        assert_eq!(tag_name(&Section::new("IVFOFFS", vec![]).tag), "IVFOFFS");
        assert_eq!(tag_name(&[b' '; 8]), "(untagged)");
    }

    #[test]
    fn vector_set_bytes_reject_trailing_garbage() {
        let mut bytes = vector_set_to_bytes(&sample());
        bytes.push(0);
        assert!(matches!(
            vector_set_from_bytes(&bytes).unwrap_err(),
            Error::MalformedFile(_)
        ));
    }

    #[test]
    fn vector_set_bytes_round_trip_empty_set() {
        let empty = VectorSet::zeros(0, 5).unwrap();
        let bytes = vector_set_to_bytes(&empty);
        let back = vector_set_from_bytes(&bytes).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.dim(), 5);
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("vecstore-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vs = sample();
        let fpath = dir.join("x.fvecs");
        write_fvecs(&fpath, &vs).unwrap();
        assert_eq!(read_fvecs(&fpath).unwrap(), vs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_preserves_on_error() {
        let dir = std::env::temp_dir().join(format!("vecstore-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.gksc");

        // First write succeeds.
        atomic_write(&path, |w| {
            write_sections_to(w, &[Section::new("A", vec![1, 2, 3])])
        })
        .unwrap();
        let first = std::fs::read(&path).unwrap();
        assert!(read_sections_from(Cursor::new(first.clone())).is_ok());

        // Failing writer leaves the previous content untouched and no temp
        // files behind.
        let err = atomic_write(&path, |w| {
            w.write_all(b"partial garbage")?;
            Err(Error::Internal("simulated crash".into()))
        })
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        // Second successful write replaces the content.
        atomic_write(&path, |w| {
            write_sections_to(w, &[Section::new("B", vec![9; 8])])
        })
        .unwrap();
        let second = read_sections_from(Cursor::new(std::fs::read(&path).unwrap())).unwrap();
        assert!(second[0].has_tag("B"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_pathless_target() {
        assert!(matches!(
            atomic_write(Path::new(""), |_| Ok(())).unwrap_err(),
            Error::InvalidParameter(_)
        ));
    }
}
