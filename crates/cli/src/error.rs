//! CLI error taxonomy: every failure is classified into one of four exit
//! codes so scripts (and the CI robustness job) can react to the *kind* of
//! failure, not just its presence.
//!
//! | class                 | exit code | examples                                 |
//! |-----------------------|-----------|------------------------------------------|
//! | [`CliError::Usage`]   | 2         | bad flag, missing option, unknown method |
//! | [`CliError::Io`]      | 3         | file not found, permission denied        |
//! | [`CliError::Corrupt`] | 4         | checksum mismatch, truncated container,  |
//! |                       |           | failed `index verify --spot-check`       |
//! | [`CliError::Internal`]| 5         | invariant failures inside the library    |
//!
//! Exit code 1 is deliberately unused (it is what a panic-induced abort or a
//! shell-level failure produces), so every *classified* failure is
//! distinguishable from an unclassified crash.

/// A classified CLI failure; the variant decides the process exit code.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is wrong (exit 2).
    Usage(String),
    /// The OS refused an I/O operation (exit 3).
    Io(String),
    /// An artefact failed validation (exit 4).
    ///
    /// Covers both *structural* damage — checksum, framing or cross-section
    /// invariants caught while loading — and *semantic* damage that the
    /// container checks cannot see: `index verify --spot-check n` replays
    /// `n` stored vectors through an exhaustive `nprobe = nlist` scan and
    /// classifies any vector that fails to return itself at distance zero
    /// as this variant.  The file parsed and every checksum matched, but
    /// centroids, ids and panel no longer agree (e.g. a NaN-poisoned panel
    /// written by a buggy producer and then dutifully re-checksummed).
    /// Scripts can therefore treat exit 4 uniformly as "the artefact is
    /// damaged — rebuild it", whichever layer caught the damage.
    Corrupt(String),
    /// An unexpected internal failure (exit 5).
    Internal(String),
}

impl CliError {
    /// The process exit code for this class of failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Corrupt(_) => 4,
            CliError::Internal(_) => 5,
        }
    }

    /// Short class tag used in the error banner.
    pub fn class(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "usage",
            CliError::Io(_) => "i/o",
            CliError::Corrupt(_) => "corruption",
            CliError::Internal(_) => "internal",
        }
    }

    /// Classifies a [`vecstore::Error`] under a `context` prefix ("cannot
    /// read base.fvecs").  I/O errors map to [`CliError::Io`], the typed
    /// corruption taxonomy ([`vecstore::StoreError`] and malformed-file
    /// reports) to [`CliError::Corrupt`], everything else to
    /// [`CliError::Internal`].
    pub fn store(context: impl std::fmt::Display, e: vecstore::Error) -> Self {
        let msg = format!("{context}: {e}");
        match &e {
            vecstore::Error::Io(_) => CliError::Io(msg),
            e if e.is_corruption() => CliError::Corrupt(msg),
            _ => CliError::Internal(msg),
        }
    }

    /// An OS-level I/O failure under a `context` prefix.
    pub fn io(context: impl std::fmt::Display, e: std::io::Error) -> Self {
        CliError::Io(format!("{context}: {e}"))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Corrupt(m) | CliError::Internal(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Bare strings come from argument parsing and validation, so they classify
/// as usage errors; this keeps `?` working on every [`crate::args::Args`]
/// accessor.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        assert_eq!(CliError::Usage(String::new()).exit_code(), 2);
        assert_eq!(CliError::Io(String::new()).exit_code(), 3);
        assert_eq!(CliError::Corrupt(String::new()).exit_code(), 4);
        assert_eq!(CliError::Internal(String::new()).exit_code(), 5);
    }

    #[test]
    fn strings_classify_as_usage() {
        let e: CliError = "missing required option --k".to_string().into();
        assert!(matches!(e, CliError::Usage(_)));
        assert_eq!(e.class(), "usage");
    }

    #[test]
    fn store_errors_classify_by_kind() {
        let io = vecstore::Error::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(matches!(CliError::store("ctx", io), CliError::Io(_)));

        let corrupt = vecstore::Error::Store(vecstore::StoreError::BadMagic { found: *b"nope" });
        let classified = CliError::store("cannot read x.ivf", corrupt);
        assert!(matches!(classified, CliError::Corrupt(_)));
        assert!(classified.to_string().starts_with("cannot read x.ivf: "));

        let internal = vecstore::Error::Internal("bug".into());
        assert!(matches!(
            CliError::store("ctx", internal),
            CliError::Internal(_)
        ));
    }

    #[test]
    fn graph_errors_classify_by_kind() {
        let dir = std::env::temp_dir().join(format!("gkm-cli-graph-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = knn_graph::io::read_graph(dir.join("missing.bin")).unwrap_err();
        assert!(matches!(CliError::store("ctx", missing), CliError::Io(_)));
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"not a graph container").unwrap();
        let bad = knn_graph::io::read_graph(&path).unwrap_err();
        assert!(matches!(CliError::store("ctx", bad), CliError::Corrupt(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
