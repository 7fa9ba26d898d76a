//! The typed failure contract of the snapshot store.
//!
//! Loading never panics on hostile input: every way a snapshot can be
//! wrong maps to exactly one [`StoreError`] variant, in a fixed detection
//! order (see `container`). The fault-injection suite drives a bit-flip
//! and a truncation through every byte region of a real snapshot and
//! asserts the mapping.

use std::fmt;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with the magic its role requires
    /// (`RCMANI01` for manifests, `RCSHRD02` for shards) — it is not that
    /// kind of rightcrowd file at all.
    BadMagic,
    /// The file is a snapshot, but of a format revision this build does
    /// not read.
    VersionMismatch {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads.
        expected: u32,
    },
    /// The header carries feature flags this build does not know. One
    /// flag is defined — packed sections (see `container::KNOWN_FLAGS`);
    /// any *other* set bit means the file needs a newer reader and is a
    /// refusal.
    UnsupportedFlags {
        /// The offending flag word.
        flags: u32,
    },
    /// A checksum did not verify. `section` names the failing region:
    /// `"header"`, `"table"`, `"file"`, or one of the payload sections
    /// of the manifest (`"meta"`, `"graph"`, `"web"`, `"truth"`,
    /// `"corpus"`, `"doc_lens"`, `"shard_table"`).
    ChecksumMismatch {
        /// The region whose checksum failed.
        section: &'static str,
    },
    /// The file ended before the declared layout did.
    Truncated,
    /// The manifest promises a shard file that does not exist on disk.
    ShardMissing {
        /// The missing shard's index in the manifest's shard table.
        index: u32,
    },
    /// A shard file's whole-file digest disagrees with the digest the
    /// manifest recorded for it — the shard is damaged, or it is not the
    /// file this manifest was written with.
    ShardChecksumMismatch {
        /// The offending shard's index in the manifest's shard table.
        index: u32,
    },
    /// Every checksum verified but the decoded structure violates an
    /// invariant (block metadata, id ranges, knowledge-base fingerprint, …).
    /// Reachable only through a consistent rewrite of payload + checksums,
    /// i.e. a buggy or malicious writer rather than bit rot.
    Corrupt(String),
    /// The underlying I/O failed for reasons other than early EOF.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => {
                write!(
                    f,
                    "bad magic: not a rightcrowd manifest (\"RCMANI01\") or shard (\"RCSHRD02\")"
                )
            }
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not readable by this build (expects {expected}); re-run `rc save`"
            ),
            StoreError::UnsupportedFlags { flags } => {
                write!(f, "snapshot uses unknown feature flags {flags:#010x}; upgrade this build")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot section `{section}` — the file is corrupt; re-run `rc save`")
            }
            StoreError::Truncated => {
                write!(f, "snapshot is truncated — the file is incomplete; re-run `rc save`")
            }
            StoreError::ShardMissing { index } => write!(
                f,
                "shard {index} is missing — the manifest promises it but the file is not on disk; re-run `rc save`"
            ),
            StoreError::ShardChecksumMismatch { index } => write!(
                f,
                "shard {index} failed its manifest digest — the file is corrupt or belongs to a different save; re-run `rc save`"
            ),
            StoreError::Corrupt(what) => write!(f, "snapshot is structurally corrupt: {what}"),
            StoreError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    /// Early EOF during a structured read *is* truncation; everything
    /// else stays an I/O error.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let cases: Vec<(StoreError, &str)> = vec![
            (StoreError::BadMagic, "RCMANI01"),
            (StoreError::VersionMismatch { found: 9, expected: 1 }, "version 9"),
            (StoreError::UnsupportedFlags { flags: 2 }, "0x00000002"),
            (StoreError::ChecksumMismatch { section: "graph" }, "`graph`"),
            (StoreError::Truncated, "truncated"),
            (StoreError::ShardMissing { index: 4 }, "shard 4 is missing"),
            (StoreError::ShardChecksumMismatch { index: 2 }, "shard 2 failed"),
            (StoreError::Corrupt("bad csr".into()), "bad csr"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn eof_becomes_truncated() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(StoreError::from(eof), StoreError::Truncated));
        let denied = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(StoreError::from(denied), StoreError::Io(_)));
    }
}
