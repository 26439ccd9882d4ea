//! Dataset import/export: libsvm-style sparse lines.
//!
//! The common interchange for one-hot CTR data is the libsvm format. These
//! functions let a downstream user run the real datasets through this
//! system instead of the synthetic generators (the experiments only
//! require a [`CtrDataset`]).

use std::io::{BufRead, Write};

use hetgmp_telemetry::HetGmpError;

use crate::dataset::CtrDataset;

/// Errors raised while parsing a dataset file — the workspace-wide
/// [`HetGmpError`]. Malformed content carries a 1-based line number;
/// invalid arguments (`num_fields == 0`) are `Config` errors, not panics.
pub type ParseError = HetGmpError;

/// Wraps a reader-level I/O failure. The readers here take any `BufRead`,
/// so there is no file path to attribute; the CLI attributes the path when
/// it opens the file.
fn stream_err(e: std::io::Error) -> HetGmpError {
    HetGmpError::io("<stream>", e)
}

/// Reads libsvm-style lines: `label idx[:val] idx[:val] …` where `idx` is a
/// global feature id (values, if present, are ignored — CTR features are
/// one-hot). Lines are padded/truncated to exactly `num_fields` features;
/// padding uses a dedicated feature id appended to the vocabulary.
///
/// Returns a dataset whose `num_features` covers the maximum id seen plus
/// the padding id.
pub fn read_libsvm<R: BufRead>(reader: R, num_fields: usize) -> Result<CtrDataset, ParseError> {
    if num_fields == 0 {
        return Err(HetGmpError::config("num_fields", "must be positive"));
    }
    let mut features: Vec<u32> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    let mut max_id = 0u32;
    let mut row = Vec::with_capacity(num_fields);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(stream_err)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label_tok = parts
            .next()
            .ok_or_else(|| HetGmpError::data_unattributed(lineno + 1, "missing label"))?;
        let label: f32 = label_tok.parse().map_err(|_| {
            HetGmpError::data_unattributed(lineno + 1, format!("bad label {label_tok:?}"))
        })?;
        row.clear();
        for tok in parts.take(num_fields) {
            let idx_str = tok.split(':').next().unwrap_or(tok);
            let idx: u32 = idx_str.parse().map_err(|_| {
                HetGmpError::data_unattributed(lineno + 1, format!("bad feature index {idx_str:?}"))
            })?;
            max_id = max_id.max(idx);
            row.push(idx);
        }
        // Padding slot decided after the scan; mark with sentinel for now.
        while row.len() < num_fields {
            row.push(u32::MAX);
        }
        features.extend_from_slice(&row);
        labels.push(if label > 0.5 { 1.0 } else { 0.0 });
    }
    let pad_id = max_id + 1;
    for f in &mut features {
        if *f == u32::MAX {
            *f = pad_id;
        }
    }
    Ok(CtrDataset {
        name: "libsvm".into(),
        num_fields,
        num_features: pad_id as usize + 1,
        clusters: vec![0; labels.len()],
        features,
        labels,
    })
}

/// Writes a dataset in the libsvm-style format accepted by
/// [`read_libsvm`] (`label idx:1 …`).
pub fn write_libsvm<W: Write>(dataset: &CtrDataset, mut writer: W) -> std::io::Result<()> {
    for i in 0..dataset.num_samples() {
        let label = if dataset.label(i) > 0.5 { 1 } else { 0 };
        write!(writer, "{label}")?;
        for &f in dataset.sample(i) {
            write!(writer, " {f}:1")?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn libsvm_roundtrip() {
        let text = "1 3:1 7:1\n0 2:1 9:1\n# comment\n\n1 5:1 1:1\n";
        let d = read_libsvm(Cursor::new(text), 2).unwrap();
        assert_eq!(d.num_samples(), 3);
        assert_eq!(d.sample(0), &[3, 7]);
        assert_eq!(d.sample(2), &[5, 1]);
        assert_eq!(d.labels, vec![1.0, 0.0, 1.0]);
        assert_eq!(d.num_features, 11); // max id 9 + pad id 10 + 1

        let mut out = Vec::new();
        write_libsvm(&d, &mut out).unwrap();
        let d2 = read_libsvm(Cursor::new(out), 2).unwrap();
        assert_eq!(d2.features, d.features);
        assert_eq!(d2.labels, d.labels);
    }

    #[test]
    fn libsvm_pads_short_lines() {
        let text = "1 3:1\n0 2:1 4:1 6:1\n";
        let d = read_libsvm(Cursor::new(text), 3).unwrap();
        // Line 1 padded with pad id (7), line 2 truncated to 3 features.
        assert_eq!(d.sample(0), &[3, 7, 7]);
        assert_eq!(d.sample(1), &[2, 4, 6]);
    }

    #[test]
    fn libsvm_rejects_garbage() {
        let err = read_libsvm(Cursor::new("not-a-label 1:1\n"), 2).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = read_libsvm(Cursor::new("1 x:1\n"), 2).unwrap_err();
        assert!(err.to_string().contains("feature index"));
    }

    #[test]
    fn zero_field_counts_error_instead_of_panicking() {
        let err = read_libsvm(Cursor::new("1 1:1\n"), 0).unwrap_err();
        assert!(err.to_string().contains("num_fields"), "{err}");
        assert_eq!(err.exit_code(), 78);
    }
}
