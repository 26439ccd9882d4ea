//! The workspace-wide error type.
//!
//! Bad user input (malformed datasets, invalid configs, unreadable
//! checkpoints) surfaces as [`HetGmpError`] instead of a panic, and the CLI
//! maps each kind to a BSD `sysexits`-style exit code so scripted callers
//! can distinguish usage mistakes from data corruption from I/O failure.

use std::fmt;
use std::path::{Path, PathBuf};

/// Any error HET-GMP reports to a user.
#[derive(Debug)]
pub enum HetGmpError {
    /// Operating-system I/O failure while touching `path`.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// Malformed input data (dataset files, embedding dumps).
    Data {
        /// File the malformed content came from, when known.
        path: Option<PathBuf>,
        /// 1-based line number, when known (0 = not line-oriented).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint file exists but cannot be loaded as requested.
    Checkpoint {
        /// Checkpoint file.
        path: PathBuf,
        /// What was wrong (bad magic, shape mismatch, truncation…).
        reason: String,
    },
    /// An invalid configuration value (builder validation, CLI options).
    Config {
        /// The offending parameter, e.g. `"dim"` or `"test_fraction"`.
        param: String,
        /// Why the value is rejected.
        reason: String,
    },
    /// Malformed command-line invocation.
    Usage {
        /// What was wrong with the invocation.
        reason: String,
    },
    /// A strict-mode protocol audit detected a consistency violation at
    /// runtime (a read served beyond the configured staleness bound).
    Audit {
        /// What invariant was violated.
        reason: String,
    },
}

impl HetGmpError {
    /// I/O failure on `path`.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        Self::Io {
            path: path.into(),
            source,
        }
    }

    /// Malformed content at `line` (1-based) of `path`.
    pub fn data(path: impl Into<PathBuf>, line: usize, reason: impl Into<String>) -> Self {
        Self::Data {
            path: Some(path.into()),
            line,
            reason: reason.into(),
        }
    }

    /// Malformed content with no file attribution (e.g. in-memory input).
    pub fn data_unattributed(line: usize, reason: impl Into<String>) -> Self {
        Self::Data {
            path: None,
            line,
            reason: reason.into(),
        }
    }

    /// Unloadable checkpoint at `path`.
    pub fn checkpoint(path: impl Into<PathBuf>, reason: impl Into<String>) -> Self {
        Self::Checkpoint {
            path: path.into(),
            reason: reason.into(),
        }
    }

    /// Rejected configuration value.
    pub fn config(param: impl Into<String>, reason: impl Into<String>) -> Self {
        Self::Config {
            param: param.into(),
            reason: reason.into(),
        }
    }

    /// Malformed CLI invocation.
    pub fn usage(reason: impl Into<String>) -> Self {
        Self::Usage {
            reason: reason.into(),
        }
    }

    /// Strict-audit consistency violation.
    pub fn audit(reason: impl Into<String>) -> Self {
        Self::Audit {
            reason: reason.into(),
        }
    }

    /// Process exit code for this error, following BSD `sysexits.h`
    /// conventions: 2 = usage, 65 = bad data, 70 = internal invariant
    /// (audit) failure, 74 = I/O, 78 = bad config.
    pub fn exit_code(&self) -> u8 {
        match self {
            Self::Usage { .. } => 2,
            Self::Data { .. } | Self::Checkpoint { .. } => 65,
            Self::Audit { .. } => 70,
            Self::Io { .. } => 74,
            Self::Config { .. } => 78,
        }
    }

    /// The file this error is about, when there is one.
    pub fn path(&self) -> Option<&Path> {
        match self {
            Self::Io { path, .. } | Self::Checkpoint { path, .. } => Some(path),
            Self::Data { path, .. } => path.as_deref(),
            Self::Config { .. } | Self::Usage { .. } | Self::Audit { .. } => None,
        }
    }
}

impl fmt::Display for HetGmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            Self::Data { path, line, reason } => {
                match (path, line) {
                    (Some(p), 0) => write!(f, "malformed data in {}: {reason}", p.display()),
                    (Some(p), n) => {
                        write!(f, "malformed data in {} (line {n}): {reason}", p.display())
                    }
                    (None, 0) => write!(f, "malformed data: {reason}"),
                    (None, n) => write!(f, "malformed data (line {n}): {reason}"),
                }
            }
            Self::Checkpoint { path, reason } => {
                write!(f, "bad checkpoint {}: {reason}", path.display())
            }
            Self::Config { param, reason } => {
                write!(f, "invalid config `{param}`: {reason}")
            }
            Self::Usage { reason } => write!(f, "usage error: {reason}"),
            Self::Audit { reason } => write!(f, "audit failure: {reason}"),
        }
    }
}

impl std::error::Error for HetGmpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::HetGmpError;

    #[test]
    fn exit_codes_follow_sysexits() {
        assert_eq!(HetGmpError::usage("x").exit_code(), 2);
        assert_eq!(HetGmpError::data("f", 3, "x").exit_code(), 65);
        assert_eq!(HetGmpError::checkpoint("f", "x").exit_code(), 65);
        assert_eq!(
            HetGmpError::io("f", std::io::Error::other("x")).exit_code(),
            74
        );
        assert_eq!(HetGmpError::config("dim", "x").exit_code(), 78);
        assert_eq!(HetGmpError::audit("stale read").exit_code(), 70);
    }

    #[test]
    fn display_includes_location() {
        let e = HetGmpError::data("data/train.libsvm", 17, "empty feature list");
        let msg = e.to_string();
        assert!(msg.contains("data/train.libsvm"), "{msg}");
        assert!(msg.contains("line 17"), "{msg}");
        let e = HetGmpError::data_unattributed(0, "short row");
        assert_eq!(e.to_string(), "malformed data: short row");
    }
}
