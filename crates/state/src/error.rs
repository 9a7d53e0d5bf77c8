//! Error type shared by the checkpoint/resume subsystem.

use std::fmt;
use std::io;

/// Everything that can go wrong while saving or restoring scan state.
#[derive(Debug)]
pub enum StateError {
    /// An underlying filesystem operation failed. The string names the
    /// path (or operation) so CLI users see actionable messages.
    Io(String, io::Error),
    /// A checkpoint or journal file exists but its contents are not a
    /// valid checkpoint artifact.
    Corrupt(String),
    /// The checkpoint was produced under a different configuration (or
    /// blocklist) than the resuming process; continuing would silently
    /// scan the wrong targets. The string lists the mismatched fields.
    Mismatch(String),
    /// The file declares a schema version this build does not understand.
    Version(String),
}

impl StateError {
    /// Convenience constructor tagging an [`io::Error`] with a path.
    pub fn io(context: impl Into<String>, err: io::Error) -> Self {
        StateError::Io(context.into(), err)
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(ctx, e) => write!(f, "{ctx}: {e}"),
            StateError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            StateError::Mismatch(what) => write!(
                f,
                "checkpoint was taken under a different configuration; refusing to \
                 resume ({what})"
            ),
            StateError::Version(what) => write!(f, "unsupported checkpoint version: {what}"),
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateError::Io(_, e) => Some(e),
            _ => None,
        }
    }
}
