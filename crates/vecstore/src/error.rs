//! Error types shared by the vector-store primitives.
//!
//! [`Error`] is the crate-wide umbrella; [`StoreError`] is the typed
//! corruption taxonomy of the durable GKSC container ([`crate::io`]) — every
//! way a sectioned file can be wrong maps to one variant carrying the section
//! tag and byte offset where the damage was detected, so a failed `index
//! build`/load reports *what* is corrupt instead of a free-form string, and
//! callers (the CLI's exit-code mapping, the fault-injection harness) can
//! branch on the class.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Typed corruption taxonomy of the sectioned (GKSC) container.
///
/// Every variant names the *section* where the damage was detected (the
/// space-trimmed tag, or `"header"`/`"section N"` when the tag itself is
/// unreadable) and the *byte offset* into the file at which detection
/// happened.  The fault-injection suite asserts the "no panic, no garbage"
/// invariant: any single corruption of a valid file — truncation, bit flip,
/// oversized length field — surfaces as exactly one of these, never as a
/// panic, an allocation abort, or a silently wrong index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The file ends before the bytes the framing promises: `needed` bytes
    /// of `section` were declared at `offset` but only `available` remain.
    Truncated {
        /// Section being read when the file ran out.
        section: String,
        /// Byte offset at which the missing bytes were expected.
        offset: u64,
        /// Bytes the framing declared.
        needed: u64,
        /// Bytes actually remaining.
        available: u64,
    },
    /// The leading magic is not `GKSC` — the file is not a sectioned
    /// container at all.
    BadMagic {
        /// The four bytes found where the magic belongs.
        found: [u8; 4],
    },
    /// The container version is not the one this reader understands: a newer
    /// version, or a retired one such as the unchecksummed v1.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// The version this reader parses.
        max_supported: u32,
    },
    /// A stored CRC-32C disagrees with the checksum recomputed over the
    /// bytes it covers.
    ChecksumMismatch {
        /// Section whose checksum failed (`"header"` for the file header).
        section: String,
        /// Byte offset of the stored checksum.
        offset: u64,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed from the file's bytes.
        computed: u32,
    },
    /// A declared size exceeds the format's sanity bound — the length field
    /// itself is corrupt (e.g. a flipped high bit), not merely truncated.
    Oversized {
        /// Section whose length field is absurd.
        section: String,
        /// Byte offset of the length field.
        offset: u64,
        /// The declared size.
        declared: u64,
        /// The largest size the format accepts.
        limit: u64,
    },
    /// The sections parse individually but a cross-section invariant of the
    /// composite format does not hold (mismatched shapes, non-monotone or
    /// overlapping list offsets, a missing section…).
    Invariant {
        /// Section (or section pair) violating the invariant.
        section: String,
        /// What is violated.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated {
                section,
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated container: {section} at byte {offset} declares {needed} bytes but only {available} remain"
            ),
            StoreError::BadMagic { found } => {
                write!(f, "bad container magic {found:?} (expected `GKSC`)")
            }
            StoreError::UnsupportedVersion {
                found,
                max_supported,
            } => write!(
                f,
                "unsupported container version {found} (this reader understands only version {max_supported})"
            ),
            StoreError::ChecksumMismatch {
                section,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#010x} at byte {offset}, computed {computed:#010x}"
            ),
            StoreError::Oversized {
                section,
                offset,
                declared,
                limit,
            } => write!(
                f,
                "oversized field in {section}: {declared} declared at byte {offset} exceeds the format limit {limit}"
            ),
            StoreError::Invariant { section, detail } => {
                write!(f, "cross-section invariant violated in {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Errors produced by vector storage, I/O and validation routines.
#[derive(Debug)]
pub enum Error {
    /// The caller supplied rows whose lengths disagree, or a buffer whose
    /// length is not a multiple of the declared dimensionality.
    DimensionMismatch {
        /// Dimensionality expected by the container.
        expected: usize,
        /// Dimensionality that was actually supplied.
        found: usize,
    },
    /// A dataset with zero rows or zero dimensionality was supplied where a
    /// non-empty one is required.
    EmptyInput(&'static str),
    /// An index was out of bounds for the container.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Number of rows in the container.
        len: usize,
    },
    /// A parameter failed validation (message explains which and why).
    InvalidParameter(String),
    /// An input vector holds a NaN or an infinity, which no distance can
    /// order; names the first offending component.
    NonFinite {
        /// Row of the offending component.
        row: usize,
        /// Column of the offending component.
        column: usize,
        /// The non-finite value found there.
        value: f32,
    },
    /// Underlying I/O failure while reading or writing a vector file.
    Io(std::io::Error),
    /// A vector file was malformed (truncated record, inconsistent header…).
    MalformedFile(String),
    /// A sectioned (GKSC) container failed validation — see the typed
    /// [`StoreError`] taxonomy for the corruption class.
    Store(StoreError),
    /// An internal execution failure (a contained worker-pool panic) that is
    /// neither the caller's input nor the file's fault.
    Internal(String),
}

impl Error {
    /// `true` when the error indicates a corrupt or unreadable on-disk
    /// artefact (as opposed to bad parameters or transient I/O).
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Store(_) | Error::MalformedFile(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::NonFinite { row, column, value } => {
                write!(f, "non-finite value {value} at row {row}, column {column}")
            }
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::MalformedFile(msg) => write!(f, "malformed vector file: {msg}"),
            Error::Store(e) => write!(f, "corrupt container: {e}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<Error> = vec![
            Error::DimensionMismatch {
                expected: 4,
                found: 3,
            },
            Error::EmptyInput("rows"),
            Error::IndexOutOfBounds { index: 7, len: 3 },
            Error::InvalidParameter("k must be > 0".into()),
            Error::NonFinite {
                row: 2,
                column: 5,
                value: f32::NAN,
            },
            Error::Io(std::io::Error::other("boom")),
            Error::MalformedFile("truncated".into()),
            Error::Store(StoreError::BadMagic { found: *b"NOPE" }),
            Error::Internal("worker panicked".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn store_error_display_covers_all_variants() {
        let cases: Vec<StoreError> = vec![
            StoreError::Truncated {
                section: "IVFPANEL".into(),
                offset: 128,
                needed: 4096,
                available: 17,
            },
            StoreError::BadMagic { found: *b"ELF\0" },
            StoreError::UnsupportedVersion {
                found: 9,
                max_supported: 2,
            },
            StoreError::ChecksumMismatch {
                section: "header".into(),
                offset: 16,
                stored: 0xdead_beef,
                computed: 0x1234_5678,
            },
            StoreError::Oversized {
                section: "section 2".into(),
                offset: 40,
                declared: u64::MAX,
                limit: 1 << 48,
            },
            StoreError::Invariant {
                section: "IVFOFFS".into(),
                detail: "offsets overlap".into(),
            },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: Error = io.into();
        assert!(matches!(err, Error::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn store_error_converts_with_source_and_classification() {
        let err: Error = StoreError::UnsupportedVersion {
            found: 1,
            max_supported: 2,
        }
        .into();
        assert!(matches!(err, Error::Store(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.is_corruption());
        assert!(Error::MalformedFile("x".into()).is_corruption());
        assert!(!Error::EmptyInput("rows").is_corruption());
    }

    #[test]
    fn non_io_errors_have_no_source() {
        let err = Error::EmptyInput("rows");
        assert!(std::error::Error::source(&err).is_none());
    }
}
