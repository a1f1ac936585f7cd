//! JSON (de)serialization for traces.
//!
//! Real filelist.org-style traces can be converted to this schema and
//! dropped into any experiment in place of the synthetic generator.

use crate::model::{Trace, TraceError};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Errors arising while loading a trace from disk.
#[derive(Debug)]
pub enum TraceIoError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed JSON.
    Json(serde_json::Error),
    /// The file parsed but violates trace invariants.
    Invalid(TraceError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceIoError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
            TraceIoError::Invalid(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}
impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

/// Serialize a trace to pretty JSON.
pub fn to_json(trace: &Trace) -> String {
    serde_json::to_string_pretty(trace).expect("trace serialization is infallible")
}

/// Parse and validate a trace from JSON.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    let trace: Trace = serde_json::from_str(json)?;
    trace.validate().map_err(TraceIoError::Invalid)?;
    Ok(trace)
}

/// Write a trace to a JSON file.
pub fn save(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    fs::write(path, to_json(trace))?;
    Ok(())
}

/// Load and validate a trace from a JSON file.
pub fn load(path: &Path) -> Result<Trace, TraceIoError> {
    let json = fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenConfig;
    use rvs_sim::SimDuration;

    #[test]
    fn json_roundtrip_preserves_trace() {
        let cfg = TraceGenConfig::quick(8, SimDuration::from_hours(8));
        let t = cfg.generate(4);
        let json = to_json(&t);
        let back = from_json(&json).expect("roundtrip");
        assert_eq!(t, back);
    }

    #[test]
    fn invalid_trace_rejected_on_load() {
        let cfg = TraceGenConfig::quick(4, SimDuration::from_hours(4));
        let mut t = cfg.generate(1);
        // Corrupt: point an event at a peer that doesn't exist.
        t.events[0].peer = rvs_sim::NodeId(99);
        let json = serde_json::to_string(&t).unwrap();
        assert!(matches!(
            from_json(&json),
            Err(TraceIoError::Invalid(TraceError::UnknownPeer { .. }))
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(from_json("{not json"), Err(TraceIoError::Json(_))));
    }

    #[test]
    fn file_roundtrip() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test needs a scratch directory; only file contents are asserted"
        )]
        let dir = std::env::temp_dir().join("rvs_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let cfg = TraceGenConfig::quick(6, SimDuration::from_hours(6));
        let t = cfg.generate(2);
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/rvs-trace.json")).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
