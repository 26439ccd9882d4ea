//! The spillable storage tier: hot pages in RAM, cold pages in one slotted,
//! checksummed spill file (§7.4 capacity story past the host's memory).
//!
//! [`TieredTable`] implements the [`RowStore`] surface of
//! [`crate::ShardedTable`] — same batched API, same stable duplicate-row
//! ordering — so workers, the LFU cache, and checkpointing are unchanged
//! clients. A resident page holds the in-memory table's row core
//! (`table::Rows`), and every read, write and update goes through it, so
//! every result is **bit-identical** to the in-memory store by
//! construction; `tests/tiered_differential.rs` still checks it.
//!
//! # Layout
//!
//! Rows are grouped into fixed-size **pages** of `rows_per_page`
//! consecutive rows. A partition-aware buffer manager keeps pages resident
//! up to a configured byte budget; colder pages live in the spill file.
//! Per-row update clocks always stay in RAM (they are 8 bytes/row and every
//! staleness decision reads them), so spilling never perturbs the
//! bounded-asynchrony protocol. A clock is read and ticked under the tier
//! lock that guards its row's values, as the in-memory table does under
//! its segment lock.
//!
//! Initial values come from the in-memory table's generator (row `r` takes
//! the next `dim` values of stripe `r % 256`), and cold pages are spilled
//! as they are filled — a fresh tiered table reads back bit-for-bit what
//! the in-memory table holds.
//!
//! # Spill file
//!
//! One file per table, kept open, divided into fixed-size **slots**: page
//! `p` owns bytes `[p * slot, (p + 1) * slot)`, where `slot` is the size of
//! the largest image a page can have (values + accumulators). A fault is a
//! seek + `read_exact`, a write-back a seek + `write_all`, both under the
//! tier mutex that is already held. (Positional reads and writes would
//! save the seek but need a per-OS extension trait; measured, they gained
//! nothing.) The image in a slot (format version 3):
//!
//! ```text
//! magic     4 bytes   "HGPG"
//! version   u32       3
//! page      u64
//! rows      u64       rows in this page
//! dim       u64
//! has_accum u64       0 or 1
//! values    rows × dim × f32, little-endian
//! [accum    rows × dim × f32]             // iff has_accum
//! checksum  u64       8-lane FNV-1a 64 over the preceding 64-bit words
//! ```
//!
//! Both blocks are contiguous, so encode and decode are bulk little-endian
//! copies. The checksum guards a fault against a short or corrupt read:
//! loads verify it and reject the image, and [`TieredTable::verify_page`]
//! exposes the same check to tests and tooling. It runs eight independent
//! FNV-1a chains over interleaved words and folds them at the end, so the
//! multiplies overlap instead of each waiting on the last.
//!
//! **Spill pages are scratch.** Nothing ever reads a spill file written by
//! an earlier process — construction always rebuilds the table from the
//! init RNG and `--resume` restores rows from the `HGMR` checkpoint — so
//! write-backs are neither fsynced nor renamed into place: durability is
//! the checkpoint's job.
//!
//! # Sweeps and eviction
//!
//! A batched call is one **sweep**: it visits each page it needs once,
//! first the pages already resident, then the rest, each faulted in on its
//! visit. A sweep in ascending page order would reach the pages the last
//! sweep left resident only after its own faults had evicted them. Rows
//! keep their submission order within a page, and the order across pages
//! changes no bits: reads are pure, and applies to different pages commute.
//!
//! Eviction is LRU over unpinned resident pages: the victim is the one
//! whose last visit is oldest. The policy only decides *which* page to
//! drop, never what any row's bytes are.
//!
//! Buffers of evicted pages are parked on a small free list and the image
//! staging buffer is kept per table, so a steady-state fault allocates
//! nothing.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;

use hetgmp_telemetry::{names, HetGmpError, Json, Recorder, TraceCollector};

use crate::sparse_optim::SparseOpt;
use crate::store::{CapacityStats, ReadPathStats, RowStore};
use crate::table::{draw_row, init_rng, tick, BatchScratch, Rows, STRIPES};

const PAGE_MAGIC: &[u8; 4] = b"HGPG";
const PAGE_VERSION: u32 = 3;
/// magic, version, page, rows, dim, accumulator flag — a whole number of
/// 64-bit words, so the payload the checksum folds starts word-aligned.
const HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 8;
const SPILL_FILE: &str = "pages.hgpg";
/// Evicted page buffers kept for the next fault: one page's values +
/// accumulators. More would hold RAM the budget does not account for.
const FREE_BUFFERS: usize = 2;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent FNV-1a chains in [`checksum`].
const LANES: usize = 8;

/// FNV-1a 64 over little-endian 64-bit words, run as [`LANES`] independent
/// chains: word `i` folds into lane `i % LANES` (a trailing partial word is
/// zero-padded), then the lanes fold into one sum in lane order. One serial
/// chain waits a full multiply latency per word; eight keep the multiplier
/// busy. xor and the odd multiply are both bijections on `u64`, so any change
/// confined to one word changes its lane, and the final fold carries that
/// lane's change into the sum.
fn checksum(bytes: &[u8]) -> u64 {
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_BASIS; LANES];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold(
                *lane,
                u64::from_le_bytes(w.try_into().expect("8-byte word")),
            );
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *lane = fold(*lane, u64::from_le_bytes(word));
    }
    lanes.into_iter().fold(FNV_BASIS, fold)
}

/// Size of the image of a page of `values` f32s.
fn image_bytes(values: usize, has_accum: bool) -> usize {
    HEADER_BYTES + values * 4 * if has_accum { 2 } else { 1 } + 8
}

fn put_f32s(dst: &mut [u8], src: &[f32]) {
    for (d, x) in dst.chunks_exact_mut(4).zip(src) {
        d.copy_from_slice(&x.to_le_bytes());
    }
}

fn get_f32s(src: &[u8], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(
        src.chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
    );
}

/// Serialises a page into `buf` (resized to exactly the image).
fn encode_page(buf: &mut Vec<u8>, page: usize, dim: usize, data: &[f32], accum: Option<&[f32]>) {
    let len = image_bytes(data.len(), accum.is_some());
    buf.resize(len, 0);
    buf[0..4].copy_from_slice(PAGE_MAGIC);
    buf[4..8].copy_from_slice(&PAGE_VERSION.to_le_bytes());
    buf[8..16].copy_from_slice(&(page as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&((data.len() / dim) as u64).to_le_bytes());
    buf[24..32].copy_from_slice(&(dim as u64).to_le_bytes());
    buf[32..40].copy_from_slice(&u64::from(accum.is_some()).to_le_bytes());
    let values_end = HEADER_BYTES + data.len() * 4;
    put_f32s(&mut buf[HEADER_BYTES..values_end], data);
    if let Some(a) = accum {
        put_f32s(&mut buf[values_end..len - 8], a);
    }
    let sum = checksum(&buf[..len - 8]);
    buf[len - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// Validates `bytes`, read from page `page`'s slot at the length its image
/// must have (`rows × dim`, accumulators iff `has_accum`): the check every
/// fault-in load performs before a byte of the image is served.
fn check_image(
    bytes: &[u8],
    page: usize,
    rows: usize,
    dim: usize,
    has_accum: bool,
) -> Result<(), String> {
    assert_eq!(
        bytes.len(),
        image_bytes(rows * dim, has_accum),
        "caller reads a whole image"
    );
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("u64"));
    if &bytes[0..4] != PAGE_MAGIC {
        return Err(format!("magic {:?} != {PAGE_MAGIC:?}", &bytes[0..4]));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("u32"));
    if version != PAGE_VERSION {
        return Err(format!(
            "page format version {version} unsupported (this build reads version {PAGE_VERSION})"
        ));
    }
    for (name, at, expect) in [
        ("page id", 8, page),
        ("row count", 16, rows),
        ("dim", 24, dim),
    ] {
        if word(at) != expect as u64 {
            return Err(format!("{name} {} != expected {expect}", word(at)));
        }
    }
    if word(32) != u64::from(has_accum) {
        return Err(format!(
            "accumulator flag {} != expected {}",
            word(32),
            u64::from(has_accum)
        ));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
    let computed = checksum(body);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): torn or corrupt page image"
        ));
    }
    Ok(())
}

/// Configuration of the spillable tier.
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// RAM budget for resident pages, bytes. The pool may exceed it
    /// transiently while a faulted page is pinned, never at rest (as long
    /// as at least one page fits).
    pub budget_bytes: usize,
    /// Directory for the spill file. `None` creates (and removes on drop) a
    /// unique directory under the system temp dir. A directory serves one
    /// live table at a time.
    pub dir: Option<PathBuf>,
    /// Rows per page; `0` sizes pages to ≈32 KiB of values, capped at a
    /// quarter of `budget_bytes` of values. With Adagrad accumulators a page
    /// takes twice its values, so a capped budget holds two pages.
    pub rows_per_page: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 64 << 20,
            dir: None,
            rows_per_page: 0,
        }
    }
}

struct PageState {
    /// The resident rows, `rows_in_page` slots; `None` when spilled. Its
    /// accumulators are `Some` iff resident and `has_accum`.
    rows: Option<Rows>,
    /// The page carries accumulator state (resident or spilled).
    has_accum: bool,
    /// Modified since the last spill (a page never spilled is dirty).
    dirty: bool,
    /// Pinned by an in-flight batched operation; never evicted.
    pinned: bool,
    /// LRU tick of the last touch.
    last_use: u64,
}

impl PageState {
    fn rows(&self) -> &Rows {
        self.rows.as_ref().expect("page resident")
    }

    /// The resident rows, for writing: marks the page dirty.
    fn rows_mut(&mut self) -> &mut Rows {
        self.dirty = true;
        self.rows.as_mut().expect("page resident")
    }
}

struct TierState {
    pages: Vec<PageState>,
    /// The slotted spill file, open for the table's lifetime.
    spill: File,
    /// Image staging buffer shared by every fault and write-back.
    staging: Vec<u8>,
    /// Buffers of evicted pages awaiting reuse (at most [`FREE_BUFFERS`]).
    /// All page buffers are interchangeable: one may hold values now and
    /// accumulators next, so every reuse overwrites it whole.
    free: Vec<Vec<f32>>,
    resident_bytes: u64,
    spilled_bytes: u64,
    lru_tick: u64,
    loads: u64,
    evictions: u64,
    writebacks: u64,
    recorder: Option<Arc<Recorder>>,
    tracer: Option<Arc<TraceCollector>>,
}

impl TierState {
    fn recycle(&mut self, buf: Vec<f32>) {
        if self.free.len() < FREE_BUFFERS {
            self.free.push(buf);
        }
    }

    /// Folds one fault's or write-back's IO + codec cost into the
    /// `capacity.*` cost metrics; `started` is `None` when no recorder was
    /// attached at the time.
    fn record_io(&self, started: Option<Instant>, secs: &str, bytes_counter: &str, bytes: usize) {
        if let (Some(r), Some(t0)) = (&self.recorder, started) {
            r.histogram_observe(secs, t0.elapsed().as_secs_f64());
            r.counter_add(bytes_counter, bytes as u64);
        }
    }
}

/// The spillable primary store. See the module docs for layout, spill
/// format, and eviction policy. All operations are `&self` and safe for
/// concurrent worker threads (one internal lock serialises tier state).
pub struct TieredTable {
    dim: usize,
    num_rows: usize,
    rows_per_page: usize,
    num_pages: usize,
    budget_bytes: u64,
    /// Bytes of one spill-file slot: the image of a full page with
    /// accumulators.
    slot_bytes: usize,
    dir: PathBuf,
    own_dir: bool,
    spill_path: PathBuf,
    clocks: Vec<AtomicU64>,
    lock_acquisitions: AtomicU64,
    /// Snapshot-path rows served from already-resident pages (no fault).
    snapshot_rows: AtomicU64,
    /// Snapshot-path rows that faulted and went through the buffer
    /// manager's load path instead.
    fallback_rows: AtomicU64,
    state: Mutex<TierState>,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TieredTable {
    /// [`TieredTable::try_new`] for callers with no error path.
    ///
    /// # Panics
    /// Panics if `dim == 0` or the spill directory or file cannot be
    /// created.
    pub fn new(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        config: TieredConfig,
    ) -> Self {
        Self::try_new(num_rows, dim, init_scale, seed, config)
            .unwrap_or_else(|e| panic!("tiered: {e}"))
    }

    /// Creates a tiered table whose initial contents are bit-identical to
    /// `ShardedTable::new(num_rows, dim, init_scale, seed)`. Pages are
    /// written in row order straight from the in-memory store's per-stripe
    /// init generators: the low pages stay resident while they fit
    /// `config.budget_bytes`, and every page after the first that does not
    /// fit goes straight to the spill file, so construction needs the
    /// budget plus one page of RAM, whatever the table's size. Fails with
    /// [`HetGmpError::Io`] when the spill directory or the spill file
    /// cannot be created.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn try_new(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        config: TieredConfig,
    ) -> Result<Self, HetGmpError> {
        assert!(dim > 0, "dim must be positive");
        let rows_per_page = if config.rows_per_page > 0 {
            config.rows_per_page
        } else {
            // Auto-size pages to ≈32 KiB of values, but never let one page
            // swallow more than a quarter of the RAM budget: a page the
            // size of the budget can never be evicted once pinned, and a
            // one-page table would degenerate to "always resident".
            let budget_cap = (config.budget_bytes / 4 / (dim * 4)).max(1);
            (8192 / dim).max(1).min(budget_cap)
        };
        let num_pages = num_rows.div_ceil(rows_per_page);
        let (dir, own_dir) = match config.dir {
            Some(d) => (d, false),
            None => {
                let unique = format!(
                    "hetgmp-tier-{}-{}",
                    std::process::id(),
                    DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
                );
                (std::env::temp_dir().join(unique), true)
            }
        };
        fs::create_dir_all(&dir).map_err(|e| HetGmpError::io(&dir, e))?;
        let spill_path = dir.join(SPILL_FILE);
        let spill = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&spill_path)
            .map_err(|e| HetGmpError::io(&spill_path, e))?;

        let table = Self {
            dim,
            num_rows,
            rows_per_page,
            num_pages,
            budget_bytes: config.budget_bytes as u64,
            slot_bytes: image_bytes(rows_per_page * dim, true),
            dir,
            own_dir,
            spill_path,
            clocks: (0..num_rows).map(|_| AtomicU64::new(0)).collect(),
            lock_acquisitions: AtomicU64::new(0),
            snapshot_rows: AtomicU64::new(0),
            fallback_rows: AtomicU64::new(0),
            state: Mutex::new(TierState {
                pages: Vec::with_capacity(num_pages),
                spill,
                staging: Vec::new(),
                free: Vec::new(),
                resident_bytes: 0,
                spilled_bytes: 0,
                lru_tick: num_pages as u64,
                loads: 0,
                evictions: 0,
                writebacks: 0,
                recorder: None,
                tracer: None,
            }),
        };
        table.write_initial_pages(&mut table.state.lock(), init_scale, seed);
        Ok(table)
    }

    /// Fills every page with its initial rows, drawn in row order from the
    /// in-memory table's per-stripe generators (row `r` takes the next
    /// `dim` values of stripe `r % 256`, as the stripes lay them out).
    /// Pages stay resident while they fit the budget; from the first that
    /// does not, each is written to its spill slot as soon as it is whole,
    /// through one reused buffer. The LRU ticks rank the low pages
    /// newest, so the first evictions take the high ones.
    fn write_initial_pages(&self, st: &mut TierState, init_scale: f32, seed: u64) {
        let dim = self.dim;
        let mut stripes: Vec<StdRng> = (0..STRIPES).map(|s| init_rng(seed, s)).collect();
        let mut spill_buf: Option<Vec<f32>> = None;
        for p in 0..self.num_pages {
            let first = p * self.rows_per_page;
            let rows_here = self.rows_in_page(p);
            let bytes = (rows_here * dim * 4) as u64;
            let resident = spill_buf.is_none() && st.resident_bytes + bytes <= self.budget_bytes;
            let mut data = match spill_buf.take() {
                Some(buf) => buf,
                None => Vec::with_capacity(rows_here * dim),
            };
            data.resize(rows_here * dim, 0.0);
            for (row, out) in (first..).zip(data.chunks_exact_mut(dim)) {
                draw_row(&mut stripes[row % STRIPES], init_scale, out);
            }
            let rows = if resident {
                st.resident_bytes += bytes;
                Some(Rows {
                    values: data,
                    accum: None,
                })
            } else {
                self.write_page(st, p, &data, None);
                st.spilled_bytes += bytes;
                spill_buf = Some(data);
                None
            };
            st.pages.push(PageState {
                dirty: rows.is_some(),
                rows,
                has_accum: false,
                pinned: false,
                last_use: (self.num_pages - p) as u64,
            });
        }
        if let Some(buf) = spill_buf {
            st.recycle(buf);
        }
    }

    /// Rows per page (constant for the table's lifetime).
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The spill file in use.
    pub fn spill_file(&self) -> &Path {
        &self.spill_path
    }

    /// Attaches a telemetry recorder for the `capacity.fault.*` and
    /// `capacity.spill.*` metrics.
    pub fn attach_recorder(&self, recorder: Arc<Recorder>) {
        self.state.lock().recorder = Some(recorder);
    }

    /// Attaches a trace collector; every fault emits a
    /// `trace.capacity.fault` span on the driver timeline.
    pub fn attach_tracer(&self, tracer: Arc<TraceCollector>) {
        self.state.lock().tracer = Some(tracer);
    }

    /// Reads `page`'s image from its spill slot and validates it exactly as
    /// a fault-in load does — magic, version, shape, and the trailing
    /// checksum — without loading it. A truncated file or a flipped byte
    /// inside the slot fails here and is never served. Meaningful for pages
    /// that have been spilled; a slot never written holds no image.
    pub fn verify_page(&self, page: usize) -> Result<(), String> {
        assert!(page < self.num_pages, "page {page} out of range");
        self.read_image(&mut self.state.lock(), page)
    }

    #[inline]
    fn rows_in_page(&self, page: usize) -> usize {
        self.rows_per_page
            .min(self.num_rows - page * self.rows_per_page)
    }

    #[inline]
    fn count_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    fn page_bytes(&self, st: &TierState, page: usize) -> u64 {
        let values = (self.rows_in_page(page) * self.dim * 4) as u64;
        if st.pages[page].has_accum {
            values * 2
        } else {
            values
        }
    }

    fn slot_offset(&self, page: usize) -> u64 {
        page as u64 * self.slot_bytes as u64
    }

    /// Reads `page`'s image into `st.staging` (sized to exactly the image)
    /// and validates it.
    fn read_image(&self, st: &mut TierState, page: usize) -> Result<(), String> {
        let (rows, has_accum) = (self.rows_in_page(page), st.pages[page].has_accum);
        let len = image_bytes(rows * self.dim, has_accum);
        st.staging.resize(len, 0);
        st.spill
            .seek(SeekFrom::Start(self.slot_offset(page)))
            .and_then(|_| st.spill.read_exact(&mut st.staging))
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => {
                    format!("truncated: the spill file ends inside the {len}-byte image")
                }
                _ => format!("read: {e}"),
            })?;
        check_image(&st.staging, page, rows, self.dim, has_accum)
    }

    /// Faults a spilled page in: slot → staging → recycled page buffers.
    fn load_page(&self, st: &mut TierState, page: usize) {
        let started = st.recorder.is_some().then(Instant::now);
        self.read_image(st, page).unwrap_or_else(|e| {
            panic!(
                "tiered: page {page} of spill file {} rejected: {e}",
                self.spill_path.display()
            )
        });
        let len = st.staging.len();
        let values_end = HEADER_BYTES + self.rows_in_page(page) * self.dim * 4;
        let mut values = st.free.pop().unwrap_or_default();
        get_f32s(&st.staging[HEADER_BYTES..values_end], &mut values);
        let accum = st.pages[page].has_accum.then(|| {
            let mut accum = st.free.pop().unwrap_or_default();
            get_f32s(&st.staging[values_end..len - 8], &mut accum);
            accum
        });
        let pb = self.page_bytes(st, page);
        let pg = &mut st.pages[page];
        pg.rows = Some(Rows { values, accum });
        pg.dirty = false;
        st.resident_bytes += pb;
        st.spilled_bytes -= pb;
        st.loads += 1;
        st.record_io(
            started,
            names::CAPACITY_FAULT_LOAD_SECS,
            names::CAPACITY_SPILL_BYTES_READ,
            len,
        );
        self.emit_fault(st, page, "load", names::CAPACITY_FAULT_LOADS);
    }

    /// Serialises a page into its spill slot. No fsync, no rename: spill
    /// pages are scratch (module docs), and a torn image is caught by the
    /// checksum at the next fault.
    fn write_page(&self, st: &mut TierState, page: usize, data: &[f32], accum: Option<&[f32]>) {
        let started = st.recorder.is_some().then(Instant::now);
        encode_page(&mut st.staging, page, self.dim, data, accum);
        st.spill
            .seek(SeekFrom::Start(self.slot_offset(page)))
            .and_then(|_| st.spill.write_all(&st.staging))
            .unwrap_or_else(|e| {
                panic!(
                    "tiered: write-back of page {page} to {}: {e}",
                    self.spill_path.display()
                )
            });
        st.record_io(
            started,
            names::CAPACITY_FAULT_WRITEBACK_SECS,
            names::CAPACITY_SPILL_BYTES_WRITTEN,
            st.staging.len(),
        );
    }

    fn emit_fault(&self, st: &TierState, page: usize, kind: &str, counter: &str) {
        if let Some(r) = &st.recorder {
            r.counter_add(counter, 1);
        }
        if let Some(t) = &st.tracer {
            let at = t.worker_time_us(0) / 1e6;
            t.driver_span(
                names::TRACE_CAPACITY_FAULT,
                at,
                0.0,
                &[("page", Json::U64(page as u64)), ("kind", Json::from(kind))],
            );
        }
    }

    /// Makes `page` resident: evicts down to the budget first, so the
    /// victims' buffers are on the free list when the load wants them.
    /// Callers pin the page first so the budget pass never drops it.
    fn ensure_resident(&self, st: &mut TierState, page: usize) {
        if st.pages[page].rows.is_some() {
            self.make_room(st, 0);
        } else {
            self.make_room(st, self.page_bytes(st, page));
            self.load_page(st, page);
        }
    }

    /// Evicts unpinned resident pages, least recently used first, until the
    /// pool plus `incoming` bytes fits the budget.
    fn make_room(&self, st: &mut TierState, incoming: u64) {
        while st.resident_bytes + incoming > self.budget_bytes {
            let victim = st
                .pages
                .iter()
                .enumerate()
                .filter(|(_, p)| p.rows.is_some() && !p.pinned)
                .min_by_key(|(_, p)| p.last_use)
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            self.evict(st, v);
        }
    }

    fn evict(&self, st: &mut TierState, page: usize) {
        let pb = self.page_bytes(st, page);
        let pg = &mut st.pages[page];
        let Rows { values, accum } = pg.rows.take().expect("evicting resident page");
        if std::mem::take(&mut pg.dirty) {
            self.write_page(st, page, &values, accum.as_deref());
            st.writebacks += 1;
            self.emit_fault(st, page, "writeback", names::CAPACITY_FAULT_WRITEBACKS);
        }
        st.recycle(values);
        if let Some(a) = accum {
            st.recycle(a);
        }
        st.resident_bytes -= pb;
        st.spilled_bytes += pb;
        st.evictions += 1;
        self.emit_fault(st, page, "evict", names::CAPACITY_FAULT_EVICTIONS);
    }

    fn assert_row(&self, row: u32) {
        assert!((row as usize) < self.num_rows, "row {row} out of range");
    }

    /// Runs `f` with `page` pinned resident, stamping the visit with a fresh
    /// LRU tick. The single entry point for every data access, so pin/unpin
    /// and budget enforcement cannot be bypassed.
    fn with_page<R>(
        &self,
        st: &mut TierState,
        page: usize,
        f: impl FnOnce(&mut TierState) -> R,
    ) -> R {
        st.pages[page].pinned = true;
        self.ensure_resident(st, page);
        st.lru_tick += 1;
        st.pages[page].last_use = st.lru_tick;
        let r = f(&mut *st);
        st.pages[page].pinned = false;
        r
    }

    /// Visits each distinct page of `rows` once, pinned resident, under one
    /// hold of the tier lock: first the pages already resident, ascending,
    /// then the rest, ascending, each faulted in on its visit. Visiting the
    /// resident pages first serves them before the sweep's own faults can
    /// evict them. `body` gets the page, the indices into `rows` that fall in
    /// it — submission order preserved, so duplicate rows apply in the order
    /// the caller gave them — and whether the page was resident before the
    /// visit. The order across pages changes no bits: reads are pure, and
    /// applies to different pages commute. Every page group counts as one
    /// lock acquisition, the figure the batched API amortises.
    fn for_each_page(
        &self,
        rows: &[u32],
        scratch: &mut BatchScratch,
        mut body: impl FnMut(&mut TierState, usize, &[u32], bool),
    ) {
        for &row in rows {
            self.assert_row(row);
        }
        scratch.group_by(rows, self.num_pages, |row| {
            row as usize / self.rows_per_page
        });
        let mut st = self.state.lock();
        // Every visit takes a fresh LRU tick, so a page whose tick is newer
        // than `swept` has had its visit.
        let swept = st.lru_tick;
        for resident_pass in [true, false] {
            for (page, group) in scratch.groups() {
                let resident = st.pages[page].rows.is_some();
                if st.pages[page].last_use > swept || (resident_pass && !resident) {
                    continue;
                }
                self.count_lock();
                self.with_page(&mut st, page, |st| body(st, page, group, resident));
            }
        }
    }

    /// The batched read behind `read_rows` and `read_rows_snapshot`;
    /// returns how many rows came from already-resident pages and how many
    /// from pages that had to fault in.
    fn read_grouped(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) -> (u64, u64) {
        assert_eq!(
            out.len(),
            rows.len() * self.dim,
            "output buffer length != rows * dim"
        );
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        let dim = self.dim;
        let (mut resident_rows, mut faulted_rows) = (0u64, 0u64);
        self.for_each_page(rows, scratch, |st, page, group, resident| {
            let held = st.pages[page].rows();
            for &k in group {
                let k = k as usize;
                let row = rows[k] as usize;
                clocks[k] = self.clocks[row].load(Ordering::Relaxed);
                held.read(row % self.rows_per_page, &mut out[k * dim..(k + 1) * dim]);
            }
            if resident {
                resident_rows += group.len() as u64;
            } else {
                faulted_rows += group.len() as u64;
            }
        });
        (resident_rows, faulted_rows)
    }

    /// The single-row read behind `read_row` and `read_row_snapshot`;
    /// returns the row's clock and whether the page was already resident.
    fn read_one(&self, row: u32, out: &mut [f32]) -> (u64, bool) {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        self.count_lock();
        let mut st = self.state.lock();
        let resident = st.pages[page].rows.is_some();
        let clock = self.with_page(&mut st, page, |st| {
            st.pages[page].rows().read(slot, out);
            self.clocks[row as usize].load(Ordering::Relaxed)
        });
        (clock, resident)
    }

    /// Gives a resident page zeroed accumulators if it has none, taking the
    /// buffer from the free list and charging the pool for the doubled
    /// footprint.
    fn ensure_accum(st: &mut TierState, page: usize) {
        let len = match &st.pages[page].rows {
            Some(Rows {
                accum: None,
                values,
            }) => values.len(),
            _ => return,
        };
        let mut accum = st.free.pop().unwrap_or_default();
        accum.clear();
        accum.resize(len, 0.0);
        let pg = &mut st.pages[page];
        pg.rows_mut().accum = Some(accum);
        pg.has_accum = true;
        st.resident_bytes += (len * 4) as u64;
    }

    /// Applies `grad` to `row` of its resident `page` and ticks the row's
    /// clock, under the tier lock; returns the new clock.
    fn apply_in_page(
        &self,
        st: &mut TierState,
        page: usize,
        row: u32,
        grad: &[f32],
        opt: &SparseOpt,
    ) -> u64 {
        if let SparseOpt::Adagrad { .. } = opt {
            Self::ensure_accum(st, page);
        }
        st.pages[page]
            .rows_mut()
            .apply(row as usize % self.rows_per_page, grad, opt);
        tick(&self.clocks[row as usize])
    }

    /// `(page, slot)` of `row`.
    #[inline]
    fn locate(&self, row: u32) -> (usize, usize) {
        (
            row as usize / self.rows_per_page,
            row as usize % self.rows_per_page,
        )
    }
}

impl Drop for TieredTable {
    fn drop(&mut self) {
        if self.own_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl RowStore for TieredTable {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_rows(&self) -> usize {
        self.num_rows
    }

    fn clock(&self, row: u32) -> u64 {
        self.clocks[row as usize].load(Ordering::Acquire)
    }

    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        self.read_one(row, out).0
    }

    fn read_rows(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        self.read_grouped(rows, out, clocks, scratch);
    }

    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        self.assert_row(row);
        let page = self.locate(row).0;
        self.count_lock();
        let mut st = self.state.lock();
        self.with_page(&mut st, page, |st| {
            self.apply_in_page(st, page, row, grad, opt)
        })
    }

    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(
            grads.len(),
            rows.len() * self.dim,
            "gradients length != rows * dim"
        );
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        let dim = self.dim;
        self.for_each_page(rows, scratch, |st, page, group, _| {
            for &k in group {
                let k = k as usize;
                clocks[k] =
                    self.apply_in_page(st, page, rows[k], &grads[k * dim..(k + 1) * dim], opt);
            }
        });
    }

    fn write_row(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        self.count_lock();
        let mut st = self.state.lock();
        self.with_page(&mut st, page, |st| {
            st.pages[page].rows_mut().write(slot, values)
        });
    }

    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        assert_eq!(
            values.len(),
            rows.len() * self.dim,
            "values length != rows * dim"
        );
        let dim = self.dim;
        self.for_each_page(rows, scratch, |st, page, group, _| {
            let held = st.pages[page].rows_mut();
            for &k in group {
                let k = k as usize;
                held.write(
                    rows[k] as usize % self.rows_per_page,
                    &values[k * dim..(k + 1) * dim],
                );
            }
        });
    }

    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        self.count_lock();
        let mut st = self.state.lock();
        self.with_page(&mut st, page, |st| {
            st.pages[page].rows_mut().write(slot, values);
            self.clocks[row as usize].store(clock, Ordering::Release);
        });
    }

    fn has_optimizer_state(&self) -> bool {
        self.state.lock().pages.iter().any(|p| p.has_accum)
    }

    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        let mut st = self.state.lock();
        self.with_page(&mut st, page, |st| {
            st.pages[page].rows().read_accum(slot, out)
        })
    }

    fn restore_accum(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        let mut st = self.state.lock();
        self.with_page(&mut st, page, |st| {
            Self::ensure_accum(st, page);
            st.pages[page].rows_mut().restore_accum(slot, values);
        });
    }

    fn total_updates(&self) -> u64 {
        self.clocks.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn heap_bytes(&self) -> usize {
        // Resident pages only: spilled partitions are *not* RAM and are
        // reported separately via `spilled_bytes`.
        self.state.lock().resident_bytes as usize + self.clocks.len() * 8
    }

    fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    fn spilled_bytes(&self) -> u64 {
        self.state.lock().spilled_bytes
    }

    fn capacity_stats(&self) -> CapacityStats {
        let st = self.state.lock();
        CapacityStats {
            fault_loads: st.loads,
            evictions: st.evictions,
            writebacks: st.writebacks,
            resident_bytes: st.resident_bytes,
            spilled_bytes: st.spilled_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    // A spillable store cannot copy rows without the tier lock — eviction
    // frees page buffers, and there is no epoch reclamation to keep a
    // lock-free reader's view alive. The snapshot capability therefore
    // keeps the locked page-grouped path (every group still counts a lock
    // acquisition, so `hotpath.lock_acquisitions` stays meaningful under
    // `--storage tiered`) and classifies rows by what the buffer manager
    // had to do: already-resident pages serve "snapshot" rows, faulting
    // pages are the fallback. Bytes are identical to `read_rows` either
    // way.

    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        let (clock, resident) = self.read_one(row, out);
        let tally = if resident {
            &self.snapshot_rows
        } else {
            &self.fallback_rows
        };
        tally.fetch_add(1, Ordering::Relaxed);
        clock
    }

    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        let (snapshots, fallbacks) = self.read_grouped(rows, out, clocks, scratch);
        self.snapshot_rows.fetch_add(snapshots, Ordering::Relaxed);
        self.fallback_rows.fetch_add(fallbacks, Ordering::Relaxed);
    }

    fn read_path_stats(&self) -> ReadPathStats {
        ReadPathStats {
            snapshot_rows: self.snapshot_rows.load(Ordering::Relaxed),
            // Page copies happen under the tier lock; there is nothing to
            // tear and so nothing to retry.
            retries: 0,
            fallback_rows: self.fallback_rows.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ShardedTable;

    fn tiny_cfg(budget_bytes: usize, rows_per_page: usize) -> TieredConfig {
        TieredConfig {
            budget_bytes,
            dir: None,
            rows_per_page,
        }
    }

    fn read_all_bits(store: &dyn RowStore) -> Vec<u32> {
        let mut out = Vec::new();
        let mut buf = vec![0.0f32; store.dim()];
        for r in 0..store.num_rows() as u32 {
            store.read_row(r, &mut buf);
            out.extend(buf.iter().map(|x| x.to_bits()));
        }
        out
    }

    #[test]
    fn init_bit_identical_to_sharded_table() {
        let mem = ShardedTable::new(300, 6, 0.05, 42);
        // 4 rows/page, budget of 2 pages => heavy spilling from the start.
        let tiered = TieredTable::new(300, 6, 0.05, 42, tiny_cfg(2 * 4 * 6 * 4, 4));
        assert_eq!(read_all_bits(&mem), read_all_bits(&tiered));
        assert!(tiered.spilled_bytes() > 0, "budget should force spilling");
    }

    #[test]
    fn eviction_and_reload_preserve_dirty_updates() {
        let budget = 2 * 4 * 4 * 4; // two 4-row dim-4 pages
        let t = TieredTable::new(64, 4, 0.0, 1, tiny_cfg(budget, 4));
        let opt = SparseOpt::sgd(0.5);
        // Touch every row so every page cycles through eviction at least
        // once with dirty contents.
        for r in 0..64u32 {
            t.apply_grad(r, &[1.0, 2.0, 3.0, 4.0], &opt);
        }
        let mut buf = vec![0.0f32; 4];
        for r in 0..64u32 {
            assert_eq!(t.read_row(r, &mut buf), 1);
            assert_eq!(buf, vec![-0.5, -1.0, -1.5, -2.0], "row {r}");
        }
        let stats = t.capacity_stats();
        assert!(stats.fault_loads > 0, "expected page faults: {stats:?}");
        assert!(
            stats.writebacks > 0,
            "expected dirty write-backs: {stats:?}"
        );
        assert!(
            stats.resident_bytes <= budget as u64,
            "resident pool over budget at rest: {stats:?}"
        );
    }

    #[test]
    fn batched_ops_bit_identical_to_sharded_table_under_eviction() {
        let rows: Vec<u32> = vec![3, 61, 3, 17, 44, 3, 60, 9, 9];
        let dim = 3;
        let grads: Vec<f32> = (0..rows.len() * dim)
            .map(|i| i as f32 * 0.21 - 1.3)
            .collect();
        for opt in [SparseOpt::sgd(0.07), SparseOpt::adagrad(0.5)] {
            let mem = ShardedTable::new(64, dim, 0.1, 9);
            let tiered = TieredTable::new(64, dim, 0.1, 9, tiny_cfg(dim * 4 * 4, 2));
            let mut s1 = BatchScratch::default();
            let mut s2 = BatchScratch::default();
            let mut c1 = vec![0u64; rows.len()];
            let mut c2 = vec![0u64; rows.len()];
            let mut o1 = vec![0.0f32; rows.len() * dim];
            let mut o2 = vec![0.0f32; rows.len() * dim];
            mem.read_rows(&rows, &mut o1, &mut c1, &mut s1);
            tiered.read_rows(&rows, &mut o2, &mut c2, &mut s2);
            assert_eq!(
                o1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                o2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(c1, c2);
            mem.apply_grads(&rows, &grads, &opt, &mut c1, &mut s1);
            tiered.apply_grads(&rows, &grads, &opt, &mut c2, &mut s2);
            assert_eq!(c1, c2, "batch clocks under {opt:?}");
            assert_eq!(
                read_all_bits(&mem),
                read_all_bits(&tiered),
                "values under {opt:?}"
            );
            let mut a1 = vec![0.0f32; dim];
            let mut a2 = vec![0.0f32; dim];
            for r in 0..64u32 {
                mem.read_accum(r, &mut a1);
                tiered.read_accum(r, &mut a2);
                assert_eq!(
                    a1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    a2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "row {r} accum under {opt:?}"
                );
                assert_eq!(RowStore::clock(&mem, r), tiered.clock(r));
            }
        }
    }

    #[test]
    fn checkpoint_spanning_both_tiers_matches_in_memory_image() {
        // A checkpoint captured while some pages are spilled must be
        // byte-identical to one captured from the fully resident store.
        let mem = ShardedTable::new(96, 4, 0.1, 5);
        let tiered = TieredTable::new(96, 4, 0.1, 5, tiny_cfg(3 * 4 * 4 * 4, 4));
        let opt = SparseOpt::adagrad(0.3);
        for r in (0..96u32).step_by(7) {
            mem.apply_grad(r, &[0.5, -0.5, 1.0, 0.0], &opt);
            tiered.apply_grad(r, &[0.5, -0.5, 1.0, 0.0], &opt);
        }
        let mut img_mem = Vec::new();
        let mut img_tiered = Vec::new();
        let state = crate::RunState {
            epoch: 0,
            workers: vec![],
        };
        crate::save_run(&mem, &state, &mut img_mem).unwrap();
        crate::save_run(&tiered, &state, &mut img_tiered).unwrap();
        assert_eq!(img_mem, img_tiered, "checkpoint images diverge");
    }

    /// 4 pages of 4 dim-4 rows under a one-page budget: pages 1..4 are
    /// spilled (without accumulators) at construction.
    fn four_spilled_pages() -> TieredTable {
        TieredTable::new(16, 4, 0.1, 3, tiny_cfg(4 * 4 * 4, 4))
    }

    /// Overwrites `bytes.len()` bytes of the spill file at `offset`.
    fn patch_spill(t: &TieredTable, offset: u64, bytes: &[u8]) {
        let mut f = OpenOptions::new().write(true).open(t.spill_file()).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(bytes).unwrap();
    }

    /// Reads `len` bytes of the spill file at `offset`.
    fn read_spill(t: &TieredTable, offset: u64, len: usize) -> Vec<u8> {
        let mut f = File::open(t.spill_file()).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        let mut bytes = vec![0u8; len];
        f.read_exact(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn torn_spill_file_detected_and_rejected() {
        let t = four_spilled_pages();
        let mem = ShardedTable::new(16, 4, 0.1, 3);
        for page in 1..4 {
            t.verify_page(page).expect("intact slot verifies");
        }

        // One corrupted byte mid-payload of slot 2 fails that page's
        // checksum...
        let mid = t.slot_offset(2) + (image_bytes(16, false) / 2) as u64;
        patch_spill(&t, mid, &[read_spill(&t, mid, 1)[0] ^ 0xFF]);
        let err = t.verify_page(2).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // ...and only that page's: its neighbours verify and still load.
        let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        for page in [1u32, 3] {
            t.verify_page(page as usize)
                .expect("neighbour slot untouched");
            t.read_row(page * 4, &mut a);
            mem.read_row(page * 4, &mut b);
            assert_eq!(a, b, "page {page} served wrong rows");
        }

        // The fault path refuses the corrupt page rather than serving it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = vec![0.0f32; 4];
            t.read_row(2 * 4, &mut buf);
        }));
        assert!(result.is_err(), "corrupt page load must not succeed");

        // A file cut short inside slot 3 is a torn image of page 3 only.
        let f = OpenOptions::new().write(true).open(t.spill_file()).unwrap();
        f.set_len(t.slot_offset(3) + 50).unwrap();
        let err = t.verify_page(3).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        t.verify_page(1).expect("slots before the cut are whole");
    }

    #[test]
    fn version_1_image_refused_with_reason() {
        let t = four_spilled_pages();
        // A version-1 header (what per-page spill files carried): same
        // magic, page, rows and dim, then the row-interleaved payload that
        // a version-2 reader would mis-parse as a values block.
        let mut v1 = Vec::new();
        v1.extend_from_slice(PAGE_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        for field in [2u64, 4, 4] {
            v1.extend_from_slice(&field.to_le_bytes());
        }
        v1.resize(image_bytes(16, false), 0);
        patch_spill(&t, t.slot_offset(2), &v1);
        let err = t.verify_page(2).unwrap_err();
        assert!(err.contains("version 1 unsupported"), "{err}");
    }

    /// 5 pages of 8 dim-5 rows under a budget of one page with
    /// accumulators, after one Adagrad sweep over every row: pages 0..4
    /// are spilled with accumulators, page 4 is resident.
    fn spilled_accum_pages() -> TieredTable {
        let (rows, dim) = (40, 5);
        let t = TieredTable::new(rows, dim, 0.1, 3, tiny_cfg(2 * 8 * dim * 4, 8));
        let all: Vec<u32> = (0..rows as u32).collect();
        let grads: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut clocks = vec![0u64; rows];
        t.apply_grads(
            &all,
            &grads,
            &SparseOpt::adagrad(0.1),
            &mut clocks,
            &mut BatchScratch::default(),
        );
        t
    }

    #[test]
    fn every_single_byte_flip_of_an_accumulator_image_is_rejected() {
        let t = spilled_accum_pages();
        let page = 2;
        let len = image_bytes(8 * 5, true);
        let section = 8 * 5 * 4;
        let slot = t.slot_offset(page);
        let image = read_spill(&t, slot, len);
        for p in 0..4 {
            t.verify_page(p).expect("spilled accumulator page verifies");
        }
        // The header and the footer byte by byte; each 64-byte block is one
        // word of every lane, so the first and last block of the values and
        // the accumulators cover every lane at both ends of each section.
        let block = 8 * LANES;
        let mut offsets: Vec<usize> = (0..HEADER_BYTES).chain(len - 8..len).collect();
        for start in [HEADER_BYTES, HEADER_BYTES + section] {
            offsets.extend(start..start + block);
            offsets.extend(start + section - block..start + section);
        }
        for at in offsets {
            patch_spill(&t, slot + at as u64, &[image[at] ^ 0xFF]);
            assert!(
                t.verify_page(page).is_err(),
                "flip at byte {at} of {len} was accepted"
            );
            for neighbour in [page - 1, page + 1] {
                t.verify_page(neighbour).expect("neighbour slot untouched");
            }
            patch_spill(&t, slot + at as u64, &image[at..at + 1]);
        }
        t.verify_page(page).expect("restored image verifies");

        let f = OpenOptions::new().write(true).open(t.spill_file()).unwrap();
        f.set_len(slot + len as u64 - 1).unwrap();
        let err = t.verify_page(page).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        t.verify_page(page - 1)
            .expect("slots before the cut are whole");
    }

    #[test]
    fn version_2_image_refused_with_reason() {
        let t = spilled_accum_pages();
        // The version-2 image of page 2: the same layout, sealed with one
        // serial FNV-1a chain over the words.
        let len = image_bytes(8 * 5, true);
        let mut v2 = read_spill(&t, t.slot_offset(2), len);
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let serial = v2[..len - 8].chunks_exact(8).fold(FNV_BASIS, |h, w| {
            (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
        });
        v2[len - 8..].copy_from_slice(&serial.to_le_bytes());
        patch_spill(&t, t.slot_offset(2), &v2);
        let err = t.verify_page(2).unwrap_err();
        assert!(err.contains("version 2 unsupported"), "{err}");
    }

    #[test]
    fn sweeps_visit_resident_pages_first() {
        // Two pages fit. Pages 0 and 1 stay resident at construction.
        let (dim, rpp, pages) = (4, 4, 8u64);
        let t = TieredTable::new(32, dim, 0.1, 5, tiny_cfg(2 * rpp * dim * 4, rpp));
        let all: Vec<u32> = (0..32).collect();
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; all.len() * dim];
        let mut clocks = vec![0u64; all.len()];
        let grads = vec![0.5f32; all.len() * dim];
        let loads = || t.capacity_stats().fault_loads;
        let mut faults = Vec::new();
        for _ in 0..2 {
            let before = loads();
            t.read_rows(&all, &mut out, &mut clocks, &mut scratch);
            faults.push(loads() - before);
        }
        let before = loads();
        t.apply_grads(
            &all,
            &grads,
            &SparseOpt::sgd(0.1),
            &mut clocks,
            &mut scratch,
        );
        faults.push(loads() - before);
        // Each sweep serves the two pages the last one left resident before
        // its own faults evict them. In ascending order every page of the
        // second read sweep and of the apply sweep would fault.
        assert_eq!(faults, vec![pages - 2; 3]);
    }

    #[test]
    fn unusable_spill_dir_is_an_io_error() {
        let file = std::env::temp_dir().join(format!(
            "hetgmp-not-a-dir-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&file, b"x").unwrap();
        let cfg = TieredConfig {
            dir: Some(file.clone()),
            ..tiny_cfg(64, 4)
        };
        let err = TieredTable::try_new(16, 4, 0.1, 3, cfg)
            .err()
            .expect("a file is no spill dir");
        assert!(
            matches!(&err, HetGmpError::Io { path, .. } if path == &file),
            "{err}"
        );
        fs::remove_file(&file).unwrap();
    }

    #[test]
    fn resident_and_spilled_bytes_are_disjoint_and_complete() {
        let t = TieredTable::new(100, 8, 0.1, 2, tiny_cfg(5 * 8 * 4, 5)); // 1-page budget
        let stats = t.capacity_stats();
        let total_value_bytes = (100 * 8 * 4) as u64;
        assert_eq!(
            stats.resident_bytes + stats.spilled_bytes,
            total_value_bytes
        );
        assert_eq!(t.spilled_bytes(), stats.spilled_bytes);
        // heap_bytes counts resident data + clocks, never spilled pages.
        assert_eq!(t.heap_bytes(), stats.resident_bytes as usize + 100 * 8);
        assert_eq!(stats.budget_bytes, (5 * 8 * 4) as u64);
    }

    #[test]
    fn lru_faults_every_access_on_a_cyclic_sweep_one_page_too_big() {
        // The classic LRU-pathological workload: cyclically sweep one more
        // page than fits. Pages 0 and 1 are resident at construction, so the
        // first two reads hit; from then on LRU evicts exactly the page
        // needed next and every access faults.
        let dim = 4;
        let rpp = 2;
        let pages = 3usize;
        let budget = 2 * rpp * dim * 4; // two of three pages fit
        let sweep: Vec<u32> = (0..pages as u32).cycle().take(30).collect();
        let t = TieredTable::new(pages * rpp, dim, 0.1, 7, tiny_cfg(budget, rpp));
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; dim];
        let mut clocks = vec![0u64; 1];
        for &p in &sweep {
            let row = [p * rpp as u32];
            t.read_rows(&row, &mut out, &mut clocks, &mut scratch);
        }
        assert_eq!(t.capacity_stats().fault_loads, sweep.len() as u64 - 2);
    }

    #[test]
    fn lock_acquisitions_amortised_per_page_group() {
        let t = TieredTable::new(64, 4, 0.0, 1, tiny_cfg(usize::MAX, 8));
        let rows: Vec<u32> = (0..64u32).collect(); // 8 pages, 8 rows each
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; rows.len() * 4];
        let mut clocks = vec![0u64; rows.len()];
        let before = t.lock_acquisitions();
        t.read_rows(&rows, &mut out, &mut clocks, &mut scratch);
        assert_eq!(t.lock_acquisitions() - before, 8);
    }
}
