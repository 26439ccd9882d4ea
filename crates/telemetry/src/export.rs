//! Exporters: JSONL event log and pretty-printed summaries.

use crate::error::HetGmpError;
use crate::json::Json;
use crate::snapshot::TelemetrySnapshot;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Append-style writer producing one JSON object per line.
///
/// Each record carries an `event` tag plus caller-supplied fields, so a
/// single file can interleave per-iteration records with the final
/// snapshot:
///
/// ```text
/// {"event":"epoch","epoch":1,"counters":{...},...}
/// {"event":"final","counters":{...},...}
/// ```
///
/// The path `-` writes to stdout instead of a file, so telemetry and
/// traces can be piped straight into `jq` and friends. For file paths,
/// missing parent directories are created.
#[derive(Debug)]
pub struct JsonlWriter {
    path: PathBuf,
    out: Sink,
}

#[derive(Debug)]
enum Sink {
    File(BufWriter<File>),
    Stdout(std::io::Stdout),
}

impl Sink {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Sink::File(f) => f.write_all(bytes),
            Sink::Stdout(s) => s.lock().write_all(bytes),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sink::File(f) => f.flush(),
            Sink::Stdout(s) => s.lock().flush(),
        }
    }
}

impl JsonlWriter {
    /// Creates (or truncates) the file at `path`, creating missing parent
    /// directories. The special path `-` writes to stdout.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, HetGmpError> {
        let path = path.as_ref().to_path_buf();
        if path == Path::new("-") {
            return Ok(Self {
                path,
                out: Sink::Stdout(std::io::stdout()),
            });
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| HetGmpError::io(&path, e))?;
            }
        }
        let file = File::create(&path).map_err(|e| HetGmpError::io(&path, e))?;
        Ok(Self {
            path,
            out: Sink::File(BufWriter::new(file)),
        })
    }

    /// The file being written (`-` for stdout).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one raw JSON record as a line.
    pub fn write_record(&mut self, record: &Json) -> Result<(), HetGmpError> {
        let line = record.render();
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .map_err(|e| HetGmpError::io(&self.path, e))
    }

    /// Writes a snapshot tagged with `event` and any extra fields (the
    /// extras come first, so `event`/`epoch` stay near the start of each
    /// line for human readers).
    pub fn write_snapshot(
        &mut self,
        event: &str,
        extra: &[(&str, Json)],
        snapshot: &TelemetrySnapshot,
    ) -> Result<(), HetGmpError> {
        let mut members: Vec<(String, Json)> = vec![("event".to_string(), Json::from(event))];
        for (k, v) in extra {
            members.push((k.to_string(), v.clone()));
        }
        if let Json::Obj(snap_members) = snapshot.to_json() {
            members.extend(snap_members);
        }
        self.write_record(&Json::Obj(members))
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&mut self) -> Result<(), HetGmpError> {
        self.out.flush().map_err(|e| HetGmpError::io(&self.path, e))
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn writes_one_parseable_line_per_record() {
        let dir = std::env::temp_dir().join("hetgmp-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");

        let rec = Recorder::new();
        rec.counter_add("traffic.bytes.embed_data", 123);
        let snap = rec.snapshot();

        let mut w = JsonlWriter::create(&path).unwrap();
        w.write_snapshot("epoch", &[("epoch", Json::U64(1))], &snap)
            .unwrap();
        w.write_snapshot("final", &[], &snap).unwrap();
        w.flush().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with(r#"{"event":"epoch","epoch":1,"#),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(r#""traffic.bytes.embed_data":123"#));
        assert!(lines[1].starts_with(r#"{"event":"final","#));
        for line in lines {
            assert!(line.ends_with('}'));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced braces: {line}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_makes_missing_parent_directories() {
        let dir =
            std::env::temp_dir().join(format!("hetgmp-telemetry-parents-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/out.jsonl");

        let mut w = JsonlWriter::create(&path).unwrap();
        w.write_record(&Json::obj([("ok", Json::Bool(true))]))
            .unwrap();
        w.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dash_path_writes_to_stdout_without_touching_disk() {
        let mut w = JsonlWriter::create("-").unwrap();
        assert_eq!(w.path(), std::path::Path::new("-"));
        w.write_record(&Json::obj([("event", Json::from("stdout-test"))]))
            .unwrap();
        w.flush().unwrap();
        assert!(!std::path::Path::new("-").exists());
    }

    #[test]
    fn create_on_bad_path_is_io_error_with_path() {
        // A *file* in the parent-directory position still fails: the
        // directory chain cannot be created through it.
        let dir =
            std::env::temp_dir().join(format!("hetgmp-telemetry-badpath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();

        let err = JsonlWriter::create(blocker.join("out.jsonl")).unwrap_err();
        assert_eq!(err.exit_code(), 74);
        assert!(err.path().unwrap().to_string_lossy().contains("blocker"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
