//! Checkpointing: versioned little-endian binary formats for the embedding
//! table and for a whole training run's restorable state.
//!
//! # Table section (`HGMP`, version 2)
//!
//! [`save_table`]/[`load_table`] serialise the primary store alone:
//!
//! ```text
//! magic     4 bytes   "HGMP"
//! version   u32       2
//! rows      u64
//! dim       u64
//! has_accum u8        1 if per-row Adagrad accumulators follow, else 0
//! rows × ( clock u64, dim × f32 values, [dim × f32 accum] )
//! ```
//!
//! All integers and floats are little-endian. [`load_table`] validates the
//! header, requires an exact shape match with the target table, and
//! restores values, per-row update clocks, **and** (when present) the
//! sparse optimizer's Adagrad accumulators — a restored table rejoins the
//! bounded-asynchrony protocol exactly where it left off and its optimizer
//! re-takes curvature-adapted steps, so a resumed run's staleness decisions
//! *and* its math match the uninterrupted run's. Version-1 files (no
//! `has_accum` byte, no accumulators) still load; their accumulators are
//! implicitly zero.
//!
//! # Run container (`HGMR`, version 1)
//!
//! [`save_run`]/[`load_run`] wrap the table section with everything else a
//! resumable run needs — per-worker simulated clocks, shard cursors, and
//! dense-model parameters:
//!
//! ```text
//! magic       4 bytes   "HGMR"
//! version     u32       1
//! epoch       u64       last completed epoch
//! workers     u64
//! dense_len   u64       dense f32 parameters per worker (uniform)
//! <table section>       a complete HGMP record (see above)
//! workers × ( sim_time f64, cursor u64, dense_len × f32 )
//! ```
//!
//! The container embeds the table section verbatim, so a `HGMR` file can be
//! opened by table-only tooling by skipping the 32-byte run header.
//! [`run_encoded_len`] gives the exact on-disk size without serialising —
//! the trainer uses it to charge simulated checkpoint I/O.

use std::io::{self, Read, Write};

use hetgmp_telemetry::HetGmpError;

use crate::store::RowStore;
#[cfg(test)]
use crate::table::ShardedTable;

const MAGIC: &[u8; 4] = b"HGMP";
const VERSION: u32 = 2;
/// Oldest table-section version still loadable (v1: no accumulators).
const MIN_VERSION: u32 = 1;
const RUN_MAGIC: &[u8; 4] = b"HGMR";
const RUN_VERSION: u32 = 1;

/// Checkpoint I/O failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint file / wrong version.
    BadHeader(String),
    /// Shape mismatch on restore.
    ShapeMismatch {
        /// Rows/dim in the file.
        file: (usize, usize),
        /// Rows/dim of the target table.
        table: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadHeader(msg) => write!(f, "bad checkpoint header: {msg}"),
            CheckpointError::ShapeMismatch { file, table } => write!(
                f,
                "shape mismatch: file {}x{}, table {}x{}",
                file.0, file.1, table.0, table.1
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl CheckpointError {
    /// Converts into the workspace-wide [`HetGmpError`], attributing the
    /// checkpoint file at `path`. I/O failures map to `Io` (exit code 74);
    /// corrupt content maps to `Checkpoint` (exit code 65).
    pub fn into_workspace(self, path: impl Into<std::path::PathBuf>) -> HetGmpError {
        match self {
            CheckpointError::Io(e) => HetGmpError::io(path, e),
            other => HetGmpError::checkpoint(path, other.to_string()),
        }
    }
}

/// Writes the table (values + clocks + Adagrad accumulators when any have
/// been allocated) to `writer`.
pub fn save_table<W: Write>(table: &dyn RowStore, mut writer: W) -> Result<(), CheckpointError> {
    let has_accum = table.has_optimizer_state();
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(table.num_rows() as u64).to_le_bytes())?;
    writer.write_all(&(table.dim() as u64).to_le_bytes())?;
    writer.write_all(&[u8::from(has_accum)])?;
    let mut row = vec![0.0f32; table.dim()];
    let mut accum = vec![0.0f32; table.dim()];
    for r in 0..table.num_rows() as u32 {
        let clock = table.read_row(r, &mut row);
        writer.write_all(&clock.to_le_bytes())?;
        for &x in &row {
            writer.write_all(&x.to_le_bytes())?;
        }
        if has_accum {
            table.read_accum(r, &mut accum);
            for &x in &accum {
                writer.write_all(&x.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Restores values, **row clocks**, and (version-2 files) Adagrad
/// accumulators into an existing table of matching shape. The round-trip is
/// bit-identical: a saved row's f32 values, its u64 update clock, and its
/// optimizer accumulator come back exactly, so staleness bookkeeping *and*
/// curvature-adapted step sizes continue seamlessly across a save/load
/// boundary (and a crashed worker rolled back to a checkpoint presents the
/// same clocks it checkpointed with).
pub fn load_table<R: Read>(table: &dyn RowStore, mut reader: R) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader(format!(
            "magic {magic:?} != {MAGIC:?}"
        )));
    }
    let mut u32buf = [0u8; 4];
    reader.read_exact(&mut u32buf)?;
    let version = u32::from_le_bytes(u32buf);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::BadHeader(format!(
            "version {version} unsupported"
        )));
    }
    let mut u64buf = [0u8; 8];
    reader.read_exact(&mut u64buf)?;
    let rows = u64::from_le_bytes(u64buf) as usize;
    reader.read_exact(&mut u64buf)?;
    let dim = u64::from_le_bytes(u64buf) as usize;
    let has_accum = if version >= 2 {
        let mut flag = [0u8; 1];
        reader.read_exact(&mut flag)?;
        if flag[0] > 1 {
            return Err(CheckpointError::BadHeader(format!(
                "corrupt accumulator flag {}",
                flag[0]
            )));
        }
        flag[0] == 1
    } else {
        false
    };
    if rows != table.num_rows() || dim != table.dim() {
        return Err(CheckpointError::ShapeMismatch {
            file: (rows, dim),
            table: (table.num_rows(), table.dim()),
        });
    }
    let mut row = vec![0.0f32; dim];
    let mut accum = vec![0.0f32; dim];
    let mut f32buf = [0u8; 4];
    for r in 0..rows as u32 {
        reader.read_exact(&mut u64buf)?;
        let clock = u64::from_le_bytes(u64buf);
        for x in &mut row {
            reader.read_exact(&mut f32buf)?;
            *x = f32::from_le_bytes(f32buf);
        }
        table.restore_row(r, &row, clock);
        if has_accum {
            for x in &mut accum {
                reader.read_exact(&mut f32buf)?;
                *x = f32::from_le_bytes(f32buf);
            }
            table.restore_accum(r, &accum);
        }
    }
    Ok(())
}

/// Encoded size of the `HGMP` table section for `table`, bytes. Depends on
/// whether the table currently holds optimizer state (accumulators are
/// written only when allocated).
pub fn table_encoded_len(table: &dyn RowStore) -> u64 {
    let per_row = 8 + table.dim() as u64 * 4 * if table.has_optimizer_state() { 2 } else { 1 };
    4 + 4 + 8 + 8 + 1 + table.num_rows() as u64 * per_row
}

/// Encoded size of a `HGMR` run container for `table` plus `workers`
/// workers each carrying `dense_len` dense f32 parameters, bytes.
pub fn run_encoded_len(table: &dyn RowStore, workers: usize, dense_len: usize) -> u64 {
    4 + 4 + 8 + 8 + 8 + table_encoded_len(table) + workers as u64 * (8 + 8 + dense_len as u64 * 4)
}

/// One worker's restorable position in a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerState {
    /// The worker's simulated clock at checkpoint time, seconds.
    pub sim_time: f64,
    /// The worker's position in its (wrap-around) shard cursor.
    pub cursor: u64,
    /// Flattened dense-model parameters.
    pub dense_params: Vec<f32>,
}

/// A whole run's restorable state (everything except the embedding table,
/// which rides alongside in the same container).
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Last completed epoch (resume starts at `epoch + 1`).
    pub epoch: u64,
    /// Per-worker clock/cursor/dense state.
    pub workers: Vec<WorkerState>,
}

/// Wraps a writer, counting bytes written.
struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes a full run checkpoint (`HGMR` container: run header + embedded
/// table section + per-worker state) and returns the bytes written.
pub fn save_run<W: Write>(
    table: &dyn RowStore,
    state: &RunState,
    writer: W,
) -> Result<u64, CheckpointError> {
    let dense_len = state.workers.first().map_or(0, |w| w.dense_params.len());
    if state
        .workers
        .iter()
        .any(|w| w.dense_params.len() != dense_len)
    {
        return Err(CheckpointError::BadHeader(
            "workers carry unequal dense parameter counts".into(),
        ));
    }
    let mut w = CountingWriter {
        inner: writer,
        written: 0,
    };
    w.write_all(RUN_MAGIC)?;
    w.write_all(&RUN_VERSION.to_le_bytes())?;
    w.write_all(&state.epoch.to_le_bytes())?;
    w.write_all(&(state.workers.len() as u64).to_le_bytes())?;
    w.write_all(&(dense_len as u64).to_le_bytes())?;
    save_table(table, &mut w)?;
    for ws in &state.workers {
        w.write_all(&ws.sim_time.to_le_bytes())?;
        w.write_all(&ws.cursor.to_le_bytes())?;
        for &x in &ws.dense_params {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(w.written)
}

/// Restores a run checkpoint: the embedded table section is loaded into
/// `table` (values + clocks; shape must match) and the per-worker state is
/// returned for the trainer to re-seat clocks, cursors, and dense models.
pub fn load_run<R: Read>(table: &dyn RowStore, mut reader: R) -> Result<RunState, CheckpointError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != RUN_MAGIC {
        return Err(CheckpointError::BadHeader(format!(
            "magic {magic:?} != {RUN_MAGIC:?} (not a run checkpoint)"
        )));
    }
    let mut u32buf = [0u8; 4];
    reader.read_exact(&mut u32buf)?;
    let version = u32::from_le_bytes(u32buf);
    if version != RUN_VERSION {
        return Err(CheckpointError::BadHeader(format!(
            "run version {version} unsupported"
        )));
    }
    let mut u64buf = [0u8; 8];
    reader.read_exact(&mut u64buf)?;
    let epoch = u64::from_le_bytes(u64buf);
    reader.read_exact(&mut u64buf)?;
    let workers = u64::from_le_bytes(u64buf) as usize;
    reader.read_exact(&mut u64buf)?;
    let dense_len = u64::from_le_bytes(u64buf) as usize;
    load_table(table, &mut reader)?;
    let mut out = Vec::with_capacity(workers);
    let mut f32buf = [0u8; 4];
    for _ in 0..workers {
        reader.read_exact(&mut u64buf)?;
        let sim_time = f64::from_le_bytes(u64buf);
        if !sim_time.is_finite() || sim_time < 0.0 {
            return Err(CheckpointError::BadHeader(format!(
                "corrupt worker sim_time {sim_time}"
            )));
        }
        reader.read_exact(&mut u64buf)?;
        let cursor = u64::from_le_bytes(u64buf);
        let mut dense_params = Vec::with_capacity(dense_len);
        for _ in 0..dense_len {
            reader.read_exact(&mut f32buf)?;
            dense_params.push(f32::from_le_bytes(f32buf));
        }
        out.push(WorkerState {
            sim_time,
            cursor,
            dense_params,
        });
    }
    Ok(RunState {
        epoch,
        workers: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_optim::SparseOpt;

    #[test]
    fn roundtrip_preserves_values_and_clocks() {
        let t = ShardedTable::new(32, 4, 0.1, 7);
        t.apply_grad(3, &[1.0, 2.0, 3.0, 4.0], &SparseOpt::sgd(0.1));
        t.apply_grad(3, &[0.5, 0.5, 0.5, 0.5], &SparseOpt::sgd(0.1));
        t.apply_grad(17, &[1.0, 1.0, 1.0, 1.0], &SparseOpt::sgd(0.1));
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, table_encoded_len(&t));

        let restored = ShardedTable::new(32, 4, 0.0, 99); // different init
        load_table(&restored, buf.as_slice()).unwrap();
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        for r in 0..32u32 {
            let ca = t.read_row(r, &mut a);
            let cb = restored.read_row(r, &mut b);
            assert_eq!(a, b, "row {r} values");
            assert_eq!(ca, cb, "row {r} clock");
        }
        assert_eq!(restored.clock(3), 2);
        assert_eq!(restored.clock(17), 1);
    }

    #[test]
    fn roundtrip_preserves_adagrad_accumulators() {
        let t = ShardedTable::new(16, 3, 0.1, 11);
        let opt = SparseOpt::adagrad(0.05);
        t.apply_grad(2, &[1.0, -2.0, 0.5], &opt);
        t.apply_grad(2, &[0.25, 0.25, 0.25], &opt);
        t.apply_grad(9, &[3.0, 0.0, -1.0], &opt);
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, table_encoded_len(&t));

        let restored = ShardedTable::new(16, 3, 0.0, 99);
        load_table(&restored, buf.as_slice()).unwrap();
        assert!(restored.has_optimizer_state());
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        for r in 0..16u32 {
            t.read_accum(r, &mut a);
            restored.read_accum(r, &mut b);
            assert_eq!(a, b, "row {r} accumulator");
        }
        // Identical gradients after restore produce identical (curvature-
        // shrunk) steps — the property a resumed run depends on.
        let ca = t.apply_grad(2, &[1.0, 1.0, 1.0], &opt);
        let cb = restored.apply_grad(2, &[1.0, 1.0, 1.0], &opt);
        assert_eq!(ca, cb);
        let mut ra = vec![0.0; 3];
        let mut rb = vec![0.0; 3];
        t.read_row(2, &mut ra);
        restored.read_row(2, &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn sgd_only_table_skips_accumulators() {
        let t = ShardedTable::new(8, 2, 0.1, 3);
        t.apply_grad(1, &[1.0, 1.0], &SparseOpt::sgd(0.1));
        assert!(!t.has_optimizer_state());
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        // Flag byte present, accumulator payload absent.
        assert_eq!(buf.len() as u64, 4 + 4 + 8 + 8 + 1 + 8 * (8 + 2 * 4));
        let restored = ShardedTable::new(8, 2, 0.0, 4);
        load_table(&restored, buf.as_slice()).unwrap();
        assert!(!restored.has_optimizer_state());
    }

    #[test]
    fn run_roundtrip_preserves_everything() {
        let t = ShardedTable::new(16, 2, 0.1, 5);
        t.apply_grad(9, &[1.0, -1.0], &SparseOpt::sgd(0.1));
        let state = RunState {
            epoch: 3,
            workers: vec![
                WorkerState {
                    sim_time: 12.5,
                    cursor: 400,
                    dense_params: vec![0.1, 0.2, 0.3],
                },
                WorkerState {
                    sim_time: 11.75,
                    cursor: 417,
                    dense_params: vec![-0.5, 0.25, 1.0],
                },
            ],
        };
        let mut buf = Vec::new();
        let written = save_run(&t, &state, &mut buf).unwrap();
        assert_eq!(written, buf.len() as u64);
        assert_eq!(written, run_encoded_len(&t, 2, 3));

        let restored = ShardedTable::new(16, 2, 0.0, 77);
        let got = load_run(&restored, buf.as_slice()).unwrap();
        assert_eq!(got, state);
        let mut row = vec![0.0; 2];
        assert_eq!(restored.read_row(9, &mut row), 1);
        let mut orig = vec![0.0; 2];
        t.read_row(9, &mut orig);
        assert_eq!(row, orig);
    }

    #[test]
    fn run_container_embeds_skippable_table_section() {
        // The table section starts 32 bytes in and is a valid HGMP record.
        let t = ShardedTable::new(8, 2, 0.1, 3);
        let state = RunState {
            epoch: 0,
            workers: vec![WorkerState {
                sim_time: 0.0,
                cursor: 0,
                dense_params: vec![],
            }],
        };
        let mut buf = Vec::new();
        save_run(&t, &state, &mut buf).unwrap();
        let fresh = ShardedTable::new(8, 2, 0.0, 4);
        load_table(&fresh, &buf[32..]).unwrap();
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        for r in 0..8u32 {
            t.read_row(r, &mut a);
            fresh.read_row(r, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn run_load_rejects_table_magic() {
        let t = ShardedTable::new(4, 2, 0.1, 1);
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        let err = load_run(&t, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not a run checkpoint"), "{err}");
    }

    #[test]
    fn run_save_rejects_ragged_dense() {
        let t = ShardedTable::new(4, 2, 0.1, 1);
        let state = RunState {
            epoch: 0,
            workers: vec![
                WorkerState {
                    sim_time: 0.0,
                    cursor: 0,
                    dense_params: vec![1.0],
                },
                WorkerState {
                    sim_time: 0.0,
                    cursor: 0,
                    dense_params: vec![1.0, 2.0],
                },
            ],
        };
        assert!(save_run(&t, &state, Vec::new()).is_err());
    }

    #[test]
    fn rejects_wrong_magic() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let err = load_table(&t, &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let t = ShardedTable::new(8, 2, 0.1, 1);
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        let small = ShardedTable::new(4, 2, 0.0, 1);
        match load_table(&small, buf.as_slice()).unwrap_err() {
            CheckpointError::ShapeMismatch { file, table } => {
                assert_eq!(file, (8, 2));
                assert_eq!(table, (4, 2));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn workspace_conversion_keeps_path_and_exit_code() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let err = load_table(&t, &b"NOPE\x01\x00\x00\x00"[..])
            .unwrap_err()
            .into_workspace("model.hgmp");
        assert_eq!(err.exit_code(), 65);
        let msg = err.to_string();
        assert!(msg.contains("model.hgmp"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");

        let io_err =
            CheckpointError::Io(io::Error::other("disk gone")).into_workspace("model.hgmp");
        assert_eq!(io_err.exit_code(), 74);
    }

    #[test]
    fn truncated_file_errors() {
        let t = ShardedTable::new(8, 2, 0.1, 1);
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_table(&t, buf.as_slice()).is_err());
    }
}
