//! Loading and classifying run artifacts.
//!
//! Artifacts come in two shapes: line-oriented telemetry logs (one JSON
//! record per line, written by `--telemetry`) and single-document JSON
//! files (Chrome traces from `--trace`, `BENCH_*.json` from the benches).
//! The loader detects the shape from the content, not the file name, and
//! extracts the [`RunManifest`] from wherever that shape stamps it:
//! a `{"event":"manifest"}` first record, `otherData.manifest`, or a
//! top-level `manifest` member.

use hetgmp_telemetry::{HetGmpError, Json, RunManifest};
use std::path::Path;

/// One loaded artifact, classified by shape.
#[derive(Debug)]
pub enum Artifact {
    /// A telemetry JSONL log: every non-empty line parsed as one record.
    Telemetry {
        /// The manifest record, when the log carries one.
        manifest: Option<RunManifest>,
        /// Every record, in file order (including the manifest record).
        records: Vec<Json>,
    },
    /// A single JSON document: a bench result or a Chrome trace.
    Document {
        /// `manifest` / `otherData.manifest` member, when present.
        manifest: Option<RunManifest>,
        /// The whole document.
        doc: Json,
    },
}

impl Artifact {
    /// Loads and classifies the artifact at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HetGmpError> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| HetGmpError::io(path, e))?;
        Self::parse(&text).map_err(|(line, reason)| HetGmpError::data(path, line, reason))
    }

    /// Parses artifact text; errors carry a 1-based line number (0 when the
    /// failure is not line-oriented).
    pub fn parse(text: &str) -> Result<Self, (usize, String)> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        if lines.is_empty() {
            return Err((0, "empty artifact".to_string()));
        }
        // A telemetry log has *every* non-empty line parseable on its own
        // and tags each record with `event`; single-document files (compact
        // bench results, pretty-printed Chrome traces) do not.
        if lines.len() > 1 {
            let line_wise: Result<Vec<Json>, ()> = lines
                .iter()
                .map(|(_, l)| Json::parse(l).map_err(|_| ()))
                .collect();
            if let Ok(records) = line_wise {
                let manifest = records.iter().find_map(|r| {
                    (r.get("event").and_then(Json::as_str) == Some("manifest"))
                        .then(|| r.get("manifest").and_then(RunManifest::from_json))
                        .flatten()
                });
                return Ok(Artifact::Telemetry { manifest, records });
            }
        }
        let doc = Json::parse(text)
            .map_err(|e| (0, format!("neither a JSONL log nor a JSON document: {e}")))?;
        if lines.len() == 1 && doc.get("event").is_some() {
            let manifest = (doc.get("event").and_then(Json::as_str) == Some("manifest"))
                .then(|| doc.get("manifest").and_then(RunManifest::from_json))
                .flatten();
            return Ok(Artifact::Telemetry { manifest, records: vec![doc] });
        }
        let manifest = doc
            .get("manifest")
            .or_else(|| doc.get("otherData").and_then(|o| o.get("manifest")))
            .and_then(RunManifest::from_json);
        Ok(Artifact::Document { manifest, doc })
    }

    /// The run manifest, regardless of shape.
    pub fn manifest(&self) -> Option<&RunManifest> {
        match self {
            Artifact::Telemetry { manifest, .. } | Artifact::Document { manifest, .. } => {
                manifest.as_ref()
            }
        }
    }

    /// The last `{"event":"final"}` record of a telemetry log (the merged
    /// end-of-run snapshot), if this is one.
    pub fn final_record(&self) -> Option<&Json> {
        match self {
            Artifact::Telemetry { records, .. } => records
                .iter()
                .rev()
                .find(|r| r.get("event").and_then(Json::as_str) == Some("final")),
            Artifact::Document { .. } => None,
        }
    }
}

/// Flattens every numeric leaf of `value` into `out` under dotted paths
/// (array elements indexed numerically); booleans and strings are skipped.
pub fn flatten_numeric(value: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Json::U64(v) => out.push((prefix.to_string(), *v as f64)),
        Json::F64(v) => {
            if v.is_finite() {
                out.push((prefix.to_string(), *v));
            }
        }
        Json::Obj(members) => {
            for (k, v) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_numeric(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_numeric(v, &format!("{prefix}.{i}"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_jsonl_and_extracts_manifest() {
        let m = RunManifest::new(9, RunManifest::digest_of("x"), 2);
        let log = format!(
            "{}\n{}\n{}\n",
            m.to_record().render(),
            r#"{"event":"epoch","epoch":1,"sim_time_secs":1.5}"#,
            r#"{"event":"final","counters":{"traffic.bytes.embed_data":10}}"#,
        );
        let a = Artifact::parse(&log).unwrap();
        assert_eq!(a.manifest(), Some(&m));
        let fin = a.final_record().expect("final record");
        assert_eq!(
            fin.get("counters").unwrap().get("traffic.bytes.embed_data").unwrap().as_u64(),
            Some(10)
        );
    }

    #[test]
    fn classifies_documents_via_either_manifest_home() {
        let m = RunManifest::new(9, RunManifest::digest_of("x"), 2);
        let bench = format!(
            "{{\n  \"samples_per_sec\": 1000.5,\n  \"manifest\": {}\n}}",
            m.to_json().render()
        );
        let a = Artifact::parse(&bench).unwrap();
        assert_eq!(a.manifest(), Some(&m));
        assert!(a.final_record().is_none());

        let trace = format!(
            "{{\n  \"traceEvents\": [],\n  \"otherData\": {{\"manifest\": {}}}\n}}",
            m.to_json().render()
        );
        let a = Artifact::parse(&trace).unwrap();
        assert_eq!(a.manifest(), Some(&m));

        assert!(Artifact::parse("").is_err());
        assert!(Artifact::parse("not json\n").is_err());
    }

    #[test]
    fn flatten_walks_nested_objects_and_arrays() {
        let doc = Json::parse(
            r#"{"a":{"b":1,"c":2.5},"arr":[3,{"d":4}],"s":"skip","n":null,"t":true}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        flatten_numeric(&doc, "", &mut out);
        assert_eq!(
            out,
            vec![
                ("a.b".to_string(), 1.0),
                ("a.c".to_string(), 2.5),
                ("arr.0".to_string(), 3.0),
                ("arr.1.d".to_string(), 4.0),
            ]
        );
    }
}
