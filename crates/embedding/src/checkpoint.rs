//! Checkpointing: the `HGMR` run image, a versioned little-endian binary
//! container holding everything a training run needs to resume. The
//! trainer writes it to `ckpt-epoch-<E>.hgmr` and keeps the same bytes in
//! memory as the image a crashed worker rolls back to.
//!
//! # Run container (`HGMR`, version 1)
//!
//! ```text
//! magic       4 bytes   "HGMR"
//! version     u32       1
//! epoch       u64       last completed epoch
//! workers     u64
//! dense_len   u64       dense f32 parameters per worker (uniform)
//! <table section>
//! workers × ( sim_time f64, cursor u64, dense_len × f32 )
//! ```
//!
//! # Table section (`HGMP`, version 2)
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
//! All integers and floats are little-endian. [`save_run`] writes the
//! container; [`load_run`] validates the headers, requires an exact shape
//! match with the target table, and restores every row's values, update
//! clock and Adagrad accumulator, so a resumed run's staleness decisions
//! *and* its optimizer steps match the uninterrupted run's.
//! [`load_run_rows`] decodes the same bytes but restores only the rows a
//! filter keeps: crash rollback restores one worker's primaries this way.
//! Either way a restored row takes the file's accumulator, or zeros when
//! the file has none and the table holds optimizer state.
//!
//! Every count in a file is trusted only as far as the bytes after it
//! bear it out: a corrupt or truncated file is a
//! [`CheckpointError::BadHeader`], never an allocation sized by the file.

use std::io::{self, Read, Write};

use hetgmp_telemetry::HetGmpError;

use crate::store::RowStore;
#[cfg(test)]
use crate::table::ShardedTable;

const MAGIC: &[u8; 4] = b"HGMP";
const VERSION: u32 = 2;
const RUN_MAGIC: &[u8; 4] = b"HGMR";
const RUN_VERSION: u32 = 1;

/// Checkpoint I/O failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint file, a wrong version, or corrupt or truncated
    /// content.
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
    /// A read that runs out of bytes means a truncated file: corrupt
    /// content, not an I/O failure.
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            return CheckpointError::BadHeader("truncated: the file ends mid-record".into());
        }
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

fn write_f32s<W: Write>(writer: &mut W, values: &[f32]) -> io::Result<()> {
    values
        .iter()
        .try_for_each(|x| writer.write_all(&x.to_le_bytes()))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f32s<R: Read>(reader: &mut R, out: &mut [f32]) -> io::Result<()> {
    let mut buf = [0u8; 4];
    for x in out {
        reader.read_exact(&mut buf)?;
        *x = f32::from_le_bytes(buf);
    }
    Ok(())
}

/// Reads a section's magic and version, refusing any other.
fn read_header<R: Read>(
    reader: &mut R,
    magic: &[u8; 4],
    version: u32,
    what: &str,
) -> Result<(), CheckpointError> {
    let mut got = [0u8; 4];
    reader.read_exact(&mut got)?;
    if &got != magic {
        return Err(CheckpointError::BadHeader(format!(
            "magic {got:?} != {magic:?} (not a {what})"
        )));
    }
    reader.read_exact(&mut got)?;
    let got = u32::from_le_bytes(got);
    if got != version {
        return Err(CheckpointError::BadHeader(format!(
            "{what} version {got} unsupported"
        )));
    }
    Ok(())
}

/// Writes the `HGMP` table section: values + clocks, and the Adagrad
/// accumulators when any have been allocated.
fn save_table<W: Write>(table: &dyn RowStore, writer: &mut W) -> io::Result<()> {
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
        write_f32s(writer, &row)?;
        if has_accum {
            table.read_accum(r, &mut accum);
            write_f32s(writer, &accum)?;
        }
    }
    Ok(())
}

/// The one row decoder: reads an `HGMP` table section and restores, into
/// a table of matching shape, every row `keep(row, saved_clock)` accepts —
/// its values, its update clock (which may move backwards) and its
/// accumulator. The round-trip is bit-identical, so a restored row rejoins
/// the bounded-staleness protocol and its optimizer exactly where it was
/// saved.
fn load_table<R: Read>(
    table: &dyn RowStore,
    reader: &mut R,
    mut keep: impl FnMut(u32, u64) -> bool,
) -> Result<(), CheckpointError> {
    read_header(reader, MAGIC, VERSION, "table section")?;
    let rows = read_u64(reader)?;
    let dim = read_u64(reader)?;
    let mut flag = [0u8; 1];
    reader.read_exact(&mut flag)?;
    let has_accum = flag[0] == 1;
    if flag[0] > 1 {
        let msg = format!("corrupt accumulator flag {}", flag[0]);
        return Err(CheckpointError::BadHeader(msg));
    }
    if rows != table.num_rows() as u64 || dim != table.dim() as u64 {
        return Err(CheckpointError::ShapeMismatch {
            file: (rows as usize, dim as usize),
            table: (table.num_rows(), table.dim()),
        });
    }
    // Optimizer state rolls back with the values it produced: a row takes
    // the file's accumulator, or zeros when the file has none (it was
    // saved before any was allocated) and the table holds some now. An
    // accumulator that kept later curvature would shrink the replayed
    // steps and diverge from the uninterrupted run.
    let restore_accum = has_accum || table.has_optimizer_state();
    let mut row = vec![0.0f32; table.dim()];
    let mut accum = vec![0.0f32; table.dim()];
    for r in 0..table.num_rows() as u32 {
        let clock = read_u64(reader)?;
        read_f32s(reader, &mut row)?;
        if has_accum {
            read_f32s(reader, &mut accum)?;
        }
        if keep(r, clock) {
            table.restore_row(r, &row, clock);
            if restore_accum {
                table.restore_accum(r, &accum);
            }
        }
    }
    Ok(())
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
        write_f32s(&mut w, &ws.dense_params)?;
    }
    w.flush()?;
    Ok(w.written)
}

/// Restores a run checkpoint: the embedded table section is loaded into
/// `table` (values + clocks + accumulators; shape must match) and the
/// per-worker state is returned for the trainer to re-seat clocks,
/// cursors, and dense models.
pub fn load_run<R: Read>(table: &dyn RowStore, reader: R) -> Result<RunState, CheckpointError> {
    load_run_rows(table, reader, |_, _| true)
}

/// [`load_run`] restoring only the rows `keep(row, saved_clock)` accepts
/// (it sees every row once, in order, before that row is restored). Crash
/// rollback passes "this worker's primaries whose clock moved".
pub fn load_run_rows<R: Read>(
    table: &dyn RowStore,
    mut reader: R,
    keep: impl FnMut(u32, u64) -> bool,
) -> Result<RunState, CheckpointError> {
    let reader = &mut reader;
    read_header(reader, RUN_MAGIC, RUN_VERSION, "run checkpoint")?;
    let epoch = read_u64(reader)?;
    let workers = read_u64(reader)?;
    let dense_len = read_u64(reader)?;
    load_table(table, reader, keep)?;
    // The two counts size nothing up front: each vector grows only as its
    // bytes arrive, so a corrupt count ends in a truncation error.
    let mut out = Vec::new();
    for _ in 0..workers {
        let sim_time = f64::from_bits(read_u64(reader)?);
        if !sim_time.is_finite() || sim_time < 0.0 {
            return Err(CheckpointError::BadHeader(format!(
                "corrupt worker sim_time {sim_time}"
            )));
        }
        let cursor = read_u64(reader)?;
        let mut dense_params = Vec::new();
        let mut x = [0.0f32];
        for _ in 0..dense_len {
            read_f32s(reader, &mut x)?;
            dense_params.push(x[0]);
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

    fn load_all(table: &dyn RowStore, mut bytes: &[u8]) -> Result<(), CheckpointError> {
        load_table(table, &mut bytes, |_, _| true)
    }

    #[test]
    fn roundtrip_preserves_values_and_clocks() {
        let t = ShardedTable::new(32, 4, 0.1, 7);
        t.apply_grad(3, &[1.0, 2.0, 3.0, 4.0], &SparseOpt::sgd(0.1));
        t.apply_grad(3, &[0.5, 0.5, 0.5, 0.5], &SparseOpt::sgd(0.1));
        t.apply_grad(17, &[1.0, 1.0, 1.0, 1.0], &SparseOpt::sgd(0.1));
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();

        let restored = ShardedTable::new(32, 4, 0.0, 99); // different init
        load_all(&restored, &buf).unwrap();
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

        let restored = ShardedTable::new(16, 3, 0.0, 99);
        load_all(&restored, &buf).unwrap();
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
        load_all(&restored, &buf).unwrap();
        assert!(!restored.has_optimizer_state());
    }

    #[test]
    fn filtered_load_restores_only_kept_rows_with_the_accumulator_rule() {
        // The image is saved before any accumulator exists; the table then
        // takes Adagrad steps on rows 1 and 5. Rolling back row 1 restores
        // its values and clock and zeros its accumulator; row 5 is not
        // kept and keeps everything it has.
        let t = ShardedTable::new(8, 2, 0.1, 3);
        let state = RunState {
            epoch: 0,
            workers: vec![WorkerState {
                sim_time: 1.5,
                cursor: 0,
                dense_params: vec![],
            }],
        };
        let mut image = Vec::new();
        save_run(&t, &state, &mut image).unwrap();
        let mut saved = vec![0.0; 2];
        t.read_row(1, &mut saved);
        let opt = SparseOpt::adagrad(0.1);
        for r in [1, 5] {
            t.apply_grad(r, &[1.0, -1.0], &opt);
        }
        let mut after5 = vec![0.0; 2];
        t.read_row(5, &mut after5);
        let mut seen = Vec::new();
        let got = load_run_rows(&t, image.as_slice(), |r, clock| {
            seen.push((r, clock));
            r == 1
        })
        .unwrap();
        assert_eq!(got, state);
        assert_eq!(seen, (0..8).map(|r| (r, 0)).collect::<Vec<_>>());
        let (mut row, mut accum) = (vec![0.0; 2], vec![0.0; 2]);
        assert_eq!(t.read_row(1, &mut row), 0);
        assert_eq!(row, saved);
        t.read_accum(1, &mut accum);
        assert_eq!(accum, [0.0, 0.0]);
        assert_eq!(t.read_row(5, &mut row), 1);
        assert_eq!(row, after5);
        t.read_accum(5, &mut accum);
        assert_eq!(accum, [1.0, 1.0]);
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
        load_all(&fresh, &buf[32..]).unwrap();
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        for r in 0..8u32 {
            t.read_row(r, &mut a);
            fresh.read_row(r, &mut b);
            assert_eq!(a, b);
        }
    }

    /// A two-worker container over an 8 × 2 table, with 3 dense
    /// parameters per worker.
    fn small_container() -> Vec<u8> {
        let t = ShardedTable::new(8, 2, 0.1, 3);
        let worker = WorkerState {
            sim_time: 0.5,
            cursor: 7,
            dense_params: vec![1.0, 2.0, 3.0],
        };
        let state = RunState {
            epoch: 1,
            workers: vec![worker.clone(), worker],
        };
        let mut buf = Vec::new();
        save_run(&t, &state, &mut buf).unwrap();
        buf
    }

    #[test]
    fn corrupt_count_fields_are_errors_not_allocations() {
        // Byte offsets of the container's four counts: `workers` and
        // `dense_len` in the run header, `rows` and `dim` in the table
        // section that starts 32 bytes in. Huge values once sized a
        // `Vec::with_capacity` before any of their bytes were read (a
        // capacity-overflow panic, or an abort on a terabyte allocation).
        let valid = small_container();
        let t = ShardedTable::new(8, 2, 0.0, 1);
        for (field, offset) in [
            ("workers", 16),
            ("dense_len", 24),
            ("rows", 40),
            ("dim", 48),
        ] {
            for value in [4u64, 1 << 36, 1 << 61, 1 << 62, u64::MAX] {
                let mut buf = valid.clone();
                buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
                let err =
                    load_run(&t, buf.as_slice()).expect_err(&format!("{field} = {value} loaded"));
                let ws = err.into_workspace("ckpt.hgmr");
                assert_eq!(ws.exit_code(), 65, "{field} = {value}: {ws}");
            }
        }
    }

    #[test]
    fn truncated_file_errors() {
        // Every prefix of a valid container is corrupt content (exit 65),
        // not an I/O failure.
        let valid = small_container();
        let t = ShardedTable::new(8, 2, 0.0, 1);
        for len in 0..valid.len() {
            let err = load_run(&t, &valid[..len]).expect_err("a truncated file loaded");
            assert!(
                matches!(err, CheckpointError::BadHeader(_)),
                "prefix {len}: {err}"
            );
            let ws = err.into_workspace("ckpt.hgmr");
            assert_eq!(ws.exit_code(), 65, "prefix {len}: {ws}");
            assert!(ws.to_string().contains("truncated"), "{ws}");
        }
        assert!(load_run(&t, valid.as_slice()).is_ok());
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
        let err = load_all(&t, b"NOPE\x01\x00\x00\x00").unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let t = ShardedTable::new(8, 2, 0.1, 1);
        let mut buf = Vec::new();
        save_table(&t, &mut buf).unwrap();
        let small = ShardedTable::new(4, 2, 0.0, 1);
        match load_all(&small, &buf).unwrap_err() {
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
        let err = load_all(&t, b"NOPE\x01\x00\x00\x00")
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
}
