//! A persistent row-panel worker pool for the GEMM kernels.
//!
//! [`GemmPool`] owns `threads − 1` helper threads; the caller participates
//! in every job, so a pool of 1 spawns nothing and costs nothing. A pool is
//! activated for the current thread with [`GemmPool::install`] — while the
//! guard closure runs, the `gemm_*` entry points in [`crate::gemm`] split
//! large products into disjoint row panels and fan them out. Threads not
//! inside an `install` scope (including the pool's own helpers) always run
//! sequentially, so nested products never recurse into the pool.
//!
//! Determinism: splitting a GEMM by output rows hands each element to
//! exactly one panel, and each panel computes it with the identical
//! per-element depth order as the sequential kernel (see the determinism
//! contract in `gemm.rs`). Any thread count is therefore bit-identical to
//! `threads = 1` — pinned by `pool_matches_sequential_bitwise` below.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    static CURRENT: RefCell<Option<Arc<GemmPool>>> = const { RefCell::new(None) };
}

/// The pool (if any) installed on the current thread.
pub(crate) fn current() -> Option<Arc<GemmPool>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// A lifetime-erased pointer to the current job's closure. Helpers only
/// dereference it between job publication and their completion count-down,
/// a window during which [`GemmPool::run`] keeps the real closure alive.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and `run` outlives every dereference.
unsafe impl Send for JobPtr {}

struct Slot {
    /// Bumped once per published job; helpers sleep until it changes.
    seq: u64,
    job: Option<JobPtr>,
    chunks: usize,
    /// Helpers that have not yet finished the current job.
    running: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Wakes helpers when a job is published (or shutdown).
    go: Condvar,
    /// Wakes the caller when the last helper finishes.
    done: Condvar,
    /// Next unclaimed chunk index of the current job.
    next: AtomicUsize,
}

/// A fixed-size worker pool that fans row panels of one GEMM at a time out
/// across threads. See the module docs for the determinism argument.
pub struct GemmPool {
    shared: Arc<Shared>,
    helpers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl GemmPool {
    /// A pool executing jobs across `threads` threads (the calling thread
    /// plus `threads − 1` spawned helpers). `threads == 1` spawns nothing.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Arc<Self> {
        assert!(threads > 0, "pool must have at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                seq: 0,
                job: None,
                chunks: 0,
                running: 0,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let helpers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || helper_loop(&shared))
            })
            .collect();
        Arc::new(Self {
            shared,
            helpers,
            threads,
        })
    }

    /// Total threads participating in each job (callers + helpers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with this pool installed for the current thread: `gemm_*`
    /// calls made by `f` (directly or through layers) may parallelize.
    /// The previous installation (if any) is restored on exit.
    pub fn install<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        struct Restore(Option<Arc<GemmPool>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// Executes `job(0..chunks)` across the pool, caller participating;
    /// returns once every chunk has completed.
    pub(crate) fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.threads == 1 || chunks == 1 {
            for i in 0..chunks {
                job(i);
            }
            return;
        }
        // SAFETY: erases the borrow's lifetime; helpers stop touching the
        // pointer before the completion wait below returns, while `job` is
        // still borrowed.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(job)
        });
        {
            let mut slot = self.shared.slot.lock().unwrap();
            debug_assert!(slot.job.is_none(), "GemmPool::run is not reentrant");
            self.shared.next.store(0, Ordering::Relaxed);
            slot.job = Some(ptr);
            slot.chunks = chunks;
            slot.running = self.helpers.len();
            slot.seq += 1;
            self.shared.go.notify_all();
        }
        // Caller claims chunks alongside the helpers.
        loop {
            let i = self.shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            job(i);
        }
        let mut slot = self.shared.slot.lock().unwrap();
        while slot.running > 0 {
            slot = self.shared.done.wait(slot).unwrap();
        }
        slot.job = None;
    }
}

impl Drop for GemmPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.go.notify_all();
        }
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let (ptr, chunks) = {
            let mut slot = shared.slot.lock().unwrap();
            while !slot.shutdown && slot.seq == seen {
                slot = shared.go.wait(slot).unwrap();
            }
            if slot.shutdown {
                return;
            }
            seen = slot.seq;
            (slot.job.expect("published job"), slot.chunks)
        };
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            // SAFETY: `run` keeps the closure alive until we count down.
            unsafe { (*ptr.0)(i) };
        }
        let mut slot = shared.slot.lock().unwrap();
        slot.running -= 1;
        if slot.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// A raw `*mut f32` that may cross threads: each job writes a disjoint row
/// range of the shared output buffer.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr(pub *mut f32);
// SAFETY: jobs slice disjoint regions; see each use site.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// `m` output rows split into at most `parts` contiguous chunks, each a
/// multiple of `align` rows (except the last): chunk `i` is rows
/// `[i·per, min((i+1)·per, m))`. A value, not a list, so splitting a
/// product allocates nothing.
#[derive(Clone, Copy)]
pub(crate) struct RowChunks {
    m: usize,
    per: usize,
}

impl RowChunks {
    pub(crate) fn len(&self) -> usize {
        self.m.div_ceil(self.per)
    }

    /// `(start, end)` of chunk `i < len()`.
    pub(crate) fn get(&self, i: usize) -> (usize, usize) {
        (i * self.per, ((i + 1) * self.per).min(self.m))
    }
}

pub(crate) fn row_chunks(m: usize, parts: usize, align: usize) -> RowChunks {
    let parts = parts.clamp(1, m.max(1));
    RowChunks { m, per: m.div_ceil(parts).div_ceil(align).max(1) * align }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_cover_exactly() {
        // Alignments: the 4-row tiles of the portable and AVX2 tiers, the
        // 8-row tile of AVX-512.
        for align in [4usize, 8] {
            for m in [1usize, 3, 4, 7, 16, 100, 257] {
                for parts in [1usize, 2, 3, 4, 8] {
                    let chunks = row_chunks(m, parts, align);
                    let chunks: Vec<_> = (0..chunks.len()).map(|i| chunks.get(i)).collect();
                    assert!(chunks.len() <= parts);
                    assert_eq!(chunks.first().unwrap().0, 0);
                    assert_eq!(chunks.last().unwrap().1, m);
                    for w in chunks.windows(2) {
                        assert_eq!(w[0].1, w[1].0, "chunks must tile [0, m)");
                        assert_eq!(w[0].1 % align, 0, "interior boundaries align");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_runs_every_chunk_once() {
        let pool = GemmPool::new(4);
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn install_is_scoped_and_nested() {
        assert!(current().is_none());
        let a = GemmPool::new(2);
        let b = GemmPool::new(3);
        a.install(|| {
            assert_eq!(current().unwrap().threads(), 2);
            b.install(|| assert_eq!(current().unwrap().threads(), 3));
            assert_eq!(current().unwrap().threads(), 2);
        });
        assert!(current().is_none());
    }

    #[test]
    fn single_thread_pool_is_inline() {
        let pool = GemmPool::new(1);
        let mut hits = [false; 8];
        // With one thread `run` executes inline, so a mutable capture works
        // through a cell-free closure via interior atomics.
        let flags: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        pool.run(8, &|i| {
            flags[i].store(1, Ordering::Relaxed);
        });
        for (h, f) in hits.iter_mut().zip(&flags) {
            *h = f.load(Ordering::Relaxed) == 1;
        }
        assert!(hits.iter().all(|&h| h));
    }
}
