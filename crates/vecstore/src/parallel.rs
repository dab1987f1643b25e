//! Deterministic block-parallel execution on a persistent worker pool.
//!
//! The k-means epoch engines (fused Lloyd sweeps, delta-batched GK-means
//! rounds, the two-means-tree bisections, the Elkan/Hamerly bounds
//! maintenance) guarantee **bit-identical output at any thread count**.  They
//! get that guarantee from one structural rule: work is cut into *fixed*
//! blocks whose boundaries never depend on how many threads run, each block
//! produces a self-contained result, and results are consumed **in block
//! order** by the (sequential) caller.  Threads only decide *when* a block is
//! computed, never *what* it computes or *where* its result lands.
//!
//! [`run_blocks`] is that rule as an executor.  Work is carried out by a
//! [`WorkerPool`]: resident worker threads spawned lazily once per process
//! and **parked between rounds**, so an epoch engine that calls the executor
//! thousands of times per fit pays the thread-creation cost zero times
//! instead of once per round.  Each call publishes one *round* — a
//! type-erased job plus a shared atomic block counter — through a
//! round-sequence barrier; parked workers wake, claim blocks from the
//! counter (stragglers are load-balanced), and park again once the round's
//! counter is exhausted.  Results land in a slot vector indexed by block, so
//! the caller's merge loop is the same code whether 1 or 64 threads ran.
//!
//! [`run_mut_blocks`] extends the same rule to in-place updates over two
//! parallel slices cut into matching fixed blocks — the shape of the
//! Elkan/Hamerly per-epoch bound maintenance (`upper` rows next to an
//! `n × k` or `n`-length `lower` array).
//!
//! [`threads_from_env`] reads the `GKM_THREADS` override that the CI matrix
//! uses to re-run the entire test suite with threading enabled: because
//! threaded output is bit-identical, every test must pass unchanged.
//!
//! # Panic safety
//!
//! A panicking block body must never take the serving process down or wedge
//! the resident pool.  Panics are contained **per round**: each participant
//! catches a block-body panic, records the first one (block index plus
//! payload) in the round state, and the round drains normally.  Callers
//! choose the reporting style — [`run_blocks`] re-raises the original
//! payload after the round has fully completed (the historical behaviour),
//! while the opt-in [`run_blocks_checked`] / [`WorkerPool::try_run`] return
//! a structured [`RoundPanic`] instead so long-running servers can log and
//! keep serving.  A resident worker whose block panicked retires after the
//! round and is respawned on the next one, and all pool locks are
//! poison-tolerant — a panic can never poison the round state for later
//! rounds.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Resolves an optional thread-count knob to an effective worker count:
/// `None` (the paper-faithful default) and `Some(0)` both mean sequential
/// execution on the calling thread.
#[inline]
pub fn effective_threads(threads: Option<usize>) -> usize {
    threads.unwrap_or(1).max(1)
}

/// The `GKM_THREADS` environment override, read once per process.
///
/// When set to a positive integer, the `threads` fields of `KMeansConfig`
/// and `GkParams` default to it instead of `None`.  Output is unaffected by
/// design (the epoch engines are bit-identical at any thread count), which is
/// exactly why CI runs the full test suite under `GKM_THREADS=4`: any
/// divergence fails an existing test rather than needing a dedicated one.
pub fn threads_from_env() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("GKM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
    })
}

/// Upper bound on resident workers a pool will spawn, a backstop against
/// pathological `threads` requests; real requests (CI uses 4, the property
/// suite up to 8) sit far below it.
const MAX_POOL_WORKERS: usize = 64;

/// One round's job: the type-erased block body plus the block count.  The
/// pointer is only dereferenced between the round's publication and its
/// completion, both of which happen inside [`WorkerPool::run`]'s borrow of
/// the real closure — see the safety notes there.
#[derive(Clone, Copy)]
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    n_blocks: usize,
}

// SAFETY: the pointer is only dereferenced by workers participating in the
// round that published it, and `WorkerPool::run` does not return (or unwind
// past its guard) until every participant has finished — the pointee is a
// live stack closure for the entire window in which the pointer is used.
unsafe impl Send for Job {}

/// Pool state guarded by the round mutex.
struct State {
    /// Monotonic round sequence number; workers use it to recognise a round
    /// they have not joined yet.
    round: u64,
    /// The published job of the in-flight round (`None` between rounds).
    job: Option<Job>,
    /// Worker slots still claimable in the in-flight round.
    helpers_left: usize,
    /// Workers currently executing the in-flight round.
    active: usize,
    /// First contained block-body panic of the in-flight round: block index
    /// plus the original payload, re-raised or converted by the caller.
    panic_payload: Option<(usize, Box<dyn Any + Send>)>,
    /// Worker threads currently alive (parked or executing).  Falls when a
    /// worker retires after a contained panic; the next round respawns up to
    /// its target.
    alive: usize,
    /// Tells workers to exit (pool drop).
    shutdown: bool,
}

/// Locks the pool state, tolerating poison: the state is kept consistent by
/// RAII guards on every unwind path, so a panic elsewhere must not convert
/// later rounds into lock panics.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant condvar wait, pairing with [`lock_state`].
fn wait_on<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A block body panicked during a pool round; the round itself completed
/// (every other block ran) and the pool remains usable.
///
/// Returned by the opt-in [`WorkerPool::try_run`] / [`run_blocks_checked`];
/// the panicking APIs re-raise the original payload via
/// [`RoundPanic::resume`].  Converts into [`crate::error::Error::Internal`]
/// for propagation through `Result` pipelines (the conversion drops the
/// payload and keeps the message).
pub struct RoundPanic {
    /// Index of the first block whose body panicked.
    pub block: usize,
    /// Human-readable panic message (`&str`/`String` payloads; a placeholder
    /// otherwise).
    pub message: String,
    payload: Box<dyn Any + Send>,
}

impl RoundPanic {
    fn new(block: usize, payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Self {
            block,
            message,
            payload,
        }
    }

    /// Re-raises the original panic payload on the calling thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl fmt::Debug for RoundPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundPanic")
            .field("block", &self.block)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for RoundPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {} panicked: {}", self.block, self.message)
    }
}

impl std::error::Error for RoundPanic {}

impl From<RoundPanic> for crate::error::Error {
    fn from(rp: RoundPanic) -> Self {
        crate::error::Error::Internal(format!("worker pool round failed: {rp}"))
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// Callers wait here for round completion and for the job slot.
    done_cv: Condvar,
    /// Block-claim counter of the in-flight round.
    next_block: AtomicUsize,
}

thread_local! {
    /// Set while this thread is executing pool work (as a resident worker or
    /// as a caller participating in its own round).  A nested executor call
    /// made from inside a block body runs sequentially instead of deadlocking
    /// on the single job slot.
    static POOL_BUSY: Cell<bool> = const { Cell::new(false) };
}

/// RAII flag for [`POOL_BUSY`], exception-safe under unwinding.
struct BusyGuard;

impl BusyGuard {
    fn enter() -> Self {
        POOL_BUSY.with(|b| b.set(true));
        BusyGuard
    }
}

impl Drop for BusyGuard {
    fn drop(&mut self) {
        POOL_BUSY.with(|b| b.set(false));
    }
}

/// A persistent pool of parked worker threads executing fixed-block rounds.
///
/// Workers are spawned lazily (first round that needs them) and then stay
/// resident, parked on a condition variable between rounds — the per-round
/// cost is a wake-up and a park instead of `threads − 1` thread creations
/// and joins.  One round runs at a time; concurrent callers queue on the job
/// slot, and a caller that is itself a pool worker (nested use) degrades to
/// sequential execution instead of deadlocking.
///
/// Determinism is structural: block boundaries are fixed by the caller,
/// blocks are claimed dynamically from an atomic counter (so stragglers are
/// load-balanced), and every result is written to the slot its block index
/// owns — the merge order the caller observes never depends on the thread
/// count.
///
/// Most code should use the free function [`run_blocks`], which runs on the
/// process-wide [`WorkerPool::global`] pool:
///
/// ```
/// use vecstore::parallel::run_blocks;
///
/// let squares = run_blocks(4, 8, |block| block * block);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned on first demand.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    round: 0,
                    job: None,
                    helpers_left: 0,
                    active: 0,
                    panic_payload: None,
                    alive: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                next_block: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool every [`run_blocks`] call executes on.  Workers
    /// accumulate to the largest `threads − 1` ever requested (capped) and
    /// stay parked when idle, so the pool costs nothing while no round runs.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Runs `f(block)` for every block in `0..n_blocks` on up to `threads`
    /// participants (the calling thread plus parked pool workers) and returns
    /// the results **in block order**.
    ///
    /// With one effective worker (or at most one block, or when called from
    /// inside another round's block body) everything runs on the calling
    /// thread — no synchronisation, and, crucially, the *same* per-block
    /// results the threaded path reassembles.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any block body with its original payload —
    /// after the round has fully completed, so no worker still references
    /// the caller's stack and the pool stays usable.  Callers that must not
    /// unwind (long-running servers) should use [`WorkerPool::try_run`].
    pub fn run<R, F>(&self, threads: usize, n_blocks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = threads.max(1).min(n_blocks);
        if workers <= 1 || POOL_BUSY.with(|b| b.get()) {
            // Catch-free sequential fast path: the epoch engines run it once
            // per round at `threads = 1`, and a panic here propagates
            // naturally.
            return (0..n_blocks).map(f).collect();
        }
        match self.run_threaded(workers, n_blocks, f) {
            Ok(out) => out,
            Err(rp) => rp.resume(),
        }
    }

    /// Panic-containing flavour of [`WorkerPool::run`]: a panicking block
    /// body yields `Err(`[`RoundPanic`]`)` (first panicking block index +
    /// message) instead of unwinding, and the pool remains fully usable —
    /// the next round completes and stays bit-identical to sequential.
    pub fn try_run<R, F>(
        &self,
        threads: usize,
        n_blocks: usize,
        f: F,
    ) -> std::result::Result<Vec<R>, RoundPanic>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = threads.max(1).min(n_blocks);
        if workers <= 1 || POOL_BUSY.with(|b| b.get()) {
            let mut out = Vec::with_capacity(n_blocks);
            for b in 0..n_blocks {
                match catch_unwind(AssertUnwindSafe(|| f(b))) {
                    Ok(r) => out.push(r),
                    Err(p) => return Err(RoundPanic::new(b, p)),
                }
            }
            return Ok(out);
        }
        self.run_threaded(workers, n_blocks, f)
    }

    fn run_threaded<R, F>(
        &self,
        workers: usize,
        n_blocks: usize,
        f: F,
    ) -> std::result::Result<Vec<R>, RoundPanic>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let helpers = workers - 1;

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n_blocks);
        slots.resize_with(n_blocks, || None);
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        let runner = move |b: usize| {
            let r = f(b);
            // SAFETY: the claim counter hands each block index to exactly one
            // participant, so this slot is written once, and `slots` outlives
            // the round (the guard below blocks until every participant is
            // done).  The slot holds `None`, so the drop-free write leaks
            // nothing.
            unsafe { slots_ptr.get().add(b).write(Some(r)) };
        };

        let _busy = BusyGuard::enter();
        {
            let mut st = lock_state(&self.shared);
            // One round at a time: queue behind any in-flight round.
            while st.job.is_some() {
                st = wait_on(&self.shared.done_cv, st);
            }
            // Respawn up to the round's target: workers retired by a
            // contained panic are replaced here, before the round publishes.
            while st.alive < helpers.min(MAX_POOL_WORKERS) {
                st.alive += 1;
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::Builder::new()
                    .name("gkm-pool-worker".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker");
                self.handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            self.shared.next_block.store(0, Ordering::Relaxed);
            st.round = st.round.wrapping_add(1);
            st.helpers_left = helpers;
            st.panic_payload = None;
            let erased: &(dyn Fn(usize) + Sync) = &runner;
            // SAFETY: erases the borrow of `runner` (and through it `f` and
            // `slots`); the guard below keeps this function's frame alive
            // until the round completes and the job slot is cleared, so the
            // pointer never outlives its pointee.
            let func = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    erased,
                )
            };
            st.job = Some(Job { func, n_blocks });
            self.shared.work_cv.notify_all();
        }

        // From here on, the guard *must* run before `runner`/`slots` drop —
        // it waits out the round on every exit path, including unwinding.
        let guard = RoundGuard {
            shared: &self.shared,
            finished: false,
        };
        let mut caller_failure: Option<(usize, Box<dyn Any + Send>)> = None;
        loop {
            let b = self.shared.next_block.fetch_add(1, Ordering::Relaxed);
            if b >= n_blocks {
                break;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| runner(b))) {
                caller_failure = Some((b, p));
                break;
            }
        }
        let worker_failure = guard.finish();

        if let Some((b, p)) = caller_failure.or(worker_failure) {
            return Err(RoundPanic::new(b, p));
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every block index below n_blocks is claimed exactly once"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// Waits out the in-flight round, clears the job slot and collects the first
/// contained panic.  Created right after a round is published so the wait
/// runs on every exit path of the publishing call, including caller-side
/// unwinding — the published job pointer must never outlive the caller's
/// frame.
struct RoundGuard<'a> {
    shared: &'a Shared,
    finished: bool,
}

impl<'a> RoundGuard<'a> {
    /// Normal-path teardown: drains the round and hands back the first
    /// contained panic for the caller to report.
    fn finish(mut self) -> Option<(usize, Box<dyn Any + Send>)> {
        self.finished = true;
        Self::drain(self.shared)
    }

    fn drain(shared: &Shared) -> Option<(usize, Box<dyn Any + Send>)> {
        let mut st = lock_state(shared);
        // Workers that have not joined yet must not pick the job up while we
        // are tearing the round down.
        st.helpers_left = 0;
        while st.active > 0 {
            st = wait_on(&shared.done_cv, st);
        }
        st.job = None;
        let payload = st.panic_payload.take();
        drop(st);
        // Wake callers queued on the job slot.
        shared.done_cv.notify_all();
        payload
    }
}

impl Drop for RoundGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Unwind path: still wait the round out (the job pointer borrows
            // the dying frame), but discard any recorded panic — the caller
            // is already propagating one.
            let _ = Self::drain(self.shared);
        }
    }
}

/// RAII decrement of the pool's live-worker count, so even an unexpected
/// unwind out of [`worker_loop`] lets the next round respawn a replacement.
struct AliveGuard<'a>(&'a Shared);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.0);
        st.alive -= 1;
    }
}

/// Body of a resident worker: park on the round barrier, join rounds newer
/// than the last one seen (while helper slots remain), claim blocks until the
/// round's counter is exhausted, park again.
///
/// A block-body panic is caught per block: the worker records the first
/// (block, payload) pair in the round state, leaves the rest of the round to
/// the other participants, and retires — the next published round respawns a
/// replacement.  The worker thread itself never unwinds, so a panicking job
/// can neither abort the process nor poison the pool.
fn worker_loop(shared: &Shared) {
    POOL_BUSY.with(|b| b.set(true));
    let _alive = AliveGuard(shared);
    let mut last_round = 0u64;
    let mut st = lock_state(shared);
    loop {
        if st.shutdown {
            return;
        }
        if st.round != last_round {
            last_round = st.round;
            let claimable = if st.helpers_left > 0 { st.job } else { None };
            if let Some(job) = claimable {
                st.helpers_left -= 1;
                st.active += 1;
                drop(st);
                let mut failure: Option<(usize, Box<dyn Any + Send>)> = None;
                {
                    // SAFETY: `active` was incremented under the lock, so the
                    // publishing caller's round guard blocks until this
                    // worker decrements it — the closure behind the pointer
                    // stays alive for the whole dereference window.
                    let f = unsafe { &*job.func };
                    loop {
                        let b = shared.next_block.fetch_add(1, Ordering::Relaxed);
                        if b >= job.n_blocks {
                            break;
                        }
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(b))) {
                            failure = Some((b, p));
                            break;
                        }
                    }
                }
                st = lock_state(shared);
                let retire = failure.is_some();
                if let Some((b, p)) = failure {
                    if st.panic_payload.is_none() {
                        st.panic_payload = Some((b, p));
                    }
                }
                st.active -= 1;
                if st.active == 0 {
                    shared.done_cv.notify_all();
                }
                if retire {
                    // Retire after a contained panic; `AliveGuard` lets the
                    // next round spawn a replacement.
                    return;
                }
                continue;
            }
        }
        st = wait_on(&shared.work_cv, st);
    }
}

/// Runs `f(block)` for every block in `0..n_blocks` on up to `threads`
/// participants of the process-wide [`WorkerPool`] and returns the results
/// **in block order**.
///
/// Blocks are claimed from a shared atomic counter, so a slow block does not
/// stall the queue; determinism is unaffected because the result vector is
/// indexed by block, not by completion order.  With one worker (or one
/// block) everything runs on the calling thread — no synchronisation, and,
/// crucially, the *same* per-block results the threaded path reassembles.
pub fn run_blocks<R, F>(threads: usize, n_blocks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    WorkerPool::global().run(threads, n_blocks, f)
}

/// Panic-containing flavour of [`run_blocks`] on the process-wide pool: a
/// panicking block body becomes `Err(`[`RoundPanic`]`)` — which converts into
/// [`crate::error::Error::Internal`] via `?` — instead of unwinding into the
/// caller.  Results are identical to [`run_blocks`] on the `Ok` path, and the
/// pool stays fully usable after an `Err`.
pub fn run_blocks_checked<R, F>(
    threads: usize,
    n_blocks: usize,
    f: F,
) -> std::result::Result<Vec<R>, RoundPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    WorkerPool::global().try_run(threads, n_blocks, f)
}

/// A raw pointer asserted to be safe to move across threads.  Every use in
/// this module hands each thread a *disjoint* region behind the pointer
/// (slot `b`, or block `b`'s sub-slice), with the round-completion barrier
/// ordering the writes before the caller reads them back.
struct SendPtr<T>(*mut T);

// Manual impls: the derives would add unwanted `T: Clone`/`T: Copy` bounds.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method (rather than direct field reads) so closures capture
    /// the whole wrapper — edition-2021 disjoint capture would otherwise pull
    /// in only the bare `*mut T`, which is deliberately not `Send`/`Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: see the type docs — disjoint per-block access plus the round
// barrier make the raw accesses race-free.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs `f(block, a_chunk, b_chunk)` over two mutable slices cut into
/// matching fixed blocks (`a_block` elements of `a` next to `b_block`
/// elements of `b` per block), on up to `threads` pool participants, and
/// returns the per-block results **in block order**.
///
/// This is the in-place flavour of [`run_blocks`] for the bounds-maintenance
/// pattern of the accelerated k-means baselines: per row block, Elkan updates
/// `upper[lo..hi]` alongside the `lower[lo*k..hi*k]` bound matrix rows, and
/// Hamerly updates `upper` alongside the same-length `lower`.  Block
/// boundaries depend only on the slice lengths, each block's chunks are
/// disjoint from every other block's, and the final chunk is simply shorter
/// when the lengths are not multiples of the block sizes — so the result (and
/// the slice contents) is bit-identical at any thread count.
///
/// # Panics
///
/// Panics when a block length is zero or the two slices disagree on the
/// number of blocks they form.
pub fn run_mut_blocks<A, B, R, F>(
    threads: usize,
    a: &mut [A],
    a_block: usize,
    b: &mut [B],
    b_block: usize,
    f: F,
) -> Vec<R>
where
    A: Send,
    B: Send,
    R: Send,
    F: Fn(usize, &mut [A], &mut [B]) -> R + Sync,
{
    assert!(a_block > 0 && b_block > 0, "block lengths must be positive");
    let n_blocks = a.len().div_ceil(a_block);
    assert_eq!(
        n_blocks,
        b.len().div_ceil(b_block),
        "the two slices must form the same number of blocks"
    );
    let (a_len, b_len) = (a.len(), b.len());
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    run_blocks(threads, n_blocks, move |blk| {
        let a_lo = blk * a_block;
        let a_hi = ((blk + 1) * a_block).min(a_len);
        let b_lo = blk * b_block;
        let b_hi = ((blk + 1) * b_block).min(b_len);
        // SAFETY: each block index is claimed exactly once and the half-open
        // ranges of distinct blocks never overlap, so these are disjoint
        // exclusive borrows; the round barrier orders them before the
        // caller's slices are touched again.
        let ca = unsafe { std::slice::from_raw_parts_mut(pa.get().add(a_lo), a_hi - a_lo) };
        let cb = unsafe { std::slice::from_raw_parts_mut(pb.get().add(b_lo), b_hi - b_lo) };
        f(blk, ca, cb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_the_knob() {
        assert_eq!(effective_threads(None), 1);
        assert_eq!(effective_threads(Some(0)), 1);
        assert_eq!(effective_threads(Some(1)), 1);
        assert_eq!(effective_threads(Some(7)), 7);
    }

    #[test]
    fn run_blocks_returns_results_in_block_order() {
        for threads in [1usize, 2, 4, 7] {
            let out = run_blocks(threads, 23, |b| b * b);
            let expect: Vec<usize> = (0..23).map(|b| b * b).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_blocks_handles_empty_and_single() {
        assert_eq!(run_blocks(4, 0, |b| b), Vec::<usize>::new());
        assert_eq!(run_blocks(4, 1, |b| b + 10), vec![10]);
    }

    #[test]
    fn pool_workers_survive_many_rounds() {
        // The whole point of the pool: thousands of rounds reuse the same
        // parked workers.  Each round must still merge in block order.
        let pool = WorkerPool::new();
        for round in 0..500usize {
            let out = pool.run(4, 9, |b| b + round);
            let expect: Vec<usize> = (0..9).map(|b| b + round).collect();
            assert_eq!(out, expect, "round {round}");
        }
    }

    #[test]
    fn dedicated_pool_shuts_down_cleanly_on_drop() {
        let pool = WorkerPool::new();
        assert_eq!(pool.run(3, 5, |b| b), vec![0, 1, 2, 3, 4]);
        drop(pool); // joins the resident workers; must not hang or panic
    }

    #[test]
    fn nested_calls_degrade_to_sequential_instead_of_deadlocking() {
        let out = run_blocks(4, 6, |outer| {
            let inner = run_blocks(4, 3, move |b| outer * 10 + b);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|outer| outer * 30 + 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panics_propagate_and_leave_the_pool_usable() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, 16, |b| {
                if b == 7 {
                    panic!("block body failed");
                }
                b
            })
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // The original payload must survive the containment round trip.
        let payload = result.unwrap_err();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("block body failed"));
        // The failed round must not wedge the job slot.
        assert_eq!(pool.run(4, 4, |b| b * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn try_run_contains_panics_and_reports_the_block() {
        let pool = WorkerPool::new();
        let err = pool
            .try_run(4, 16, |b| {
                if b == 5 {
                    panic!("bad block {b}");
                }
                b
            })
            .unwrap_err();
        assert_eq!(err.block, 5);
        assert_eq!(err.message, "bad block 5");
        assert!(err.to_string().contains("block 5 panicked"));
        let as_error: crate::error::Error = pool
            .try_run(4, 16, |b| {
                if b == 5 {
                    panic!("bad block {b}");
                }
                b
            })
            .unwrap_err()
            .into();
        assert!(matches!(as_error, crate::error::Error::Internal(_)));
    }

    #[test]
    fn pool_reuse_after_panic_is_bit_identical_to_sequential() {
        // The satellite regression: a panicking job must not poison the
        // resident pool — the next round must complete and match the
        // sequential result exactly, at several thread counts, repeatedly.
        let pool = WorkerPool::new();
        for attempt in 0..5usize {
            for threads in [2usize, 4, 7] {
                assert!(
                    pool.try_run(threads, 32, |b| {
                        if b % 11 == 3 {
                            panic!("injected failure");
                        }
                        b
                    })
                    .is_err(),
                    "attempt {attempt} threads {threads}"
                );
                let expect: Vec<u64> = (0..32u64).map(|b| b * b + attempt as u64).collect();
                let got = pool
                    .try_run(threads, 32, |b| (b as u64) * (b as u64) + attempt as u64)
                    .unwrap();
                assert_eq!(got, expect, "attempt {attempt} threads {threads}");
            }
        }
    }

    #[test]
    fn retired_workers_are_respawned_for_the_next_round() {
        let pool = WorkerPool::new();
        // 4 participants × 4 blocks, and every block body spins until all
        // four have entered before panicking: each participant is pinned in
        // its one block, so all three helpers are guaranteed to take part —
        // and all three retire.
        let entered = AtomicUsize::new(0);
        let err = pool
            .try_run(4, 4, |b| -> usize {
                entered.fetch_add(1, Ordering::SeqCst);
                while entered.load(Ordering::SeqCst) < 4 {
                    std::hint::spin_loop();
                }
                panic!("kill block {b}")
            })
            .unwrap_err();
        assert!(err.message.starts_with("kill block"));
        // Retirement (the `alive` decrement) completes shortly after the
        // round returns; wait it out rather than racing the worker exits.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if lock_state(&pool.shared).alive == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "workers never retired"
            );
            std::thread::yield_now();
        }
        // The next round respawns to target and completes correctly.
        assert_eq!(
            pool.try_run(4, 6, |b| b + 1).unwrap(),
            vec![1, 2, 3, 4, 5, 6]
        );
        assert_eq!(
            lock_state(&pool.shared).alive,
            3,
            "round with threads=4 must respawn its 3 helpers"
        );
    }

    #[test]
    fn try_run_sequential_paths_also_contain_panics() {
        let pool = WorkerPool::new();
        // threads = 1 → sequential catching path.
        let err = pool
            .try_run(1, 4, |b| {
                if b == 2 {
                    panic!("sequential failure");
                }
                b
            })
            .unwrap_err();
        assert_eq!(err.block, 2);
        // Nested inside a pool round → POOL_BUSY sequential degradation.
        let outer = pool.try_run(4, 3, |outer| {
            let inner = WorkerPool::global().try_run(4, 3, move |b| {
                if outer == 1 && b == 1 {
                    panic!("nested failure");
                }
                b
            });
            match inner {
                Ok(v) => v.iter().sum::<usize>(),
                Err(rp) => 100 + rp.block,
            }
        });
        assert_eq!(outer.unwrap(), vec![3, 101, 3]);
    }

    #[test]
    fn run_blocks_checked_matches_run_blocks_on_success() {
        for threads in [1usize, 2, 4] {
            assert_eq!(
                run_blocks_checked(threads, 17, |b| b * 5).unwrap(),
                run_blocks(threads, 17, |b| b * 5),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn run_mut_blocks_updates_matching_chunks_at_any_thread_count() {
        // Elkan's maintenance shape: n "upper" values next to n*k "lower"
        // values, k = 3, cut into 4-row blocks (final block short).
        let k = 3usize;
        let n = 10usize;
        let reference: (Vec<f32>, Vec<f32>) = {
            let mut upper: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut lower: Vec<f32> = (0..n * k).map(|i| i as f32 * 0.5).collect();
            for i in 0..n {
                upper[i] += 1.0;
                for c in 0..k {
                    lower[i * k + c] -= 0.25;
                }
            }
            (upper, lower)
        };
        for threads in [1usize, 2, 4, 7] {
            let mut upper: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut lower: Vec<f32> = (0..n * k).map(|i| i as f32 * 0.5).collect();
            let rows = run_mut_blocks(threads, &mut upper, 4, &mut lower, 4 * k, |_, up, lo| {
                for u in up.iter_mut() {
                    *u += 1.0;
                }
                for l in lo.iter_mut() {
                    *l -= 0.25;
                }
                up.len()
            });
            assert_eq!(rows, vec![4, 4, 2], "threads={threads}");
            assert_eq!(upper, reference.0, "threads={threads}");
            assert_eq!(lower, reference.1, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "same number of blocks")]
    fn run_mut_blocks_rejects_mismatched_shapes() {
        let mut a = [0u8; 10];
        let mut b = [0u8; 4];
        let _ = run_mut_blocks(2, &mut a, 2, &mut b, 3, |_, _, _| ());
    }

    #[test]
    fn threads_from_env_is_stable() {
        assert_eq!(threads_from_env(), threads_from_env());
    }

    #[test]
    fn concurrent_try_run_callers_survive_respawn_after_panic() {
        // Shutdown-ordering stress: several caller threads race rounds on
        // one pool while a fraction of rounds panic, so callers repeatedly
        // queue on the job slot *while* panicked workers retire and the next
        // publisher respawns replacements.  Every round must either succeed
        // bit-identically to sequential or report the contained panic —
        // never hang, never corrupt another caller's round.
        let pool = Arc::new(WorkerPool::new());
        let iterations = 40usize;
        let handles: Vec<_> = (0..4usize)
            .map(|caller| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut ok_rounds = 0usize;
                    let mut contained = 0usize;
                    for i in 0..iterations {
                        let poison = (i + caller) % 3 == 0;
                        let result = pool.try_run(4, 16, move |b| {
                            if poison && b == 9 {
                                panic!("caller {caller} round {i} block {b}");
                            }
                            b * 2 + caller
                        });
                        match result {
                            Ok(v) => {
                                assert!(!poison, "poisoned round must not succeed");
                                let expect: Vec<usize> = (0..16).map(|b| b * 2 + caller).collect();
                                assert_eq!(v, expect, "caller {caller} round {i}");
                                ok_rounds += 1;
                            }
                            Err(rp) => {
                                assert!(poison, "clean round must not fail: {rp}");
                                assert_eq!(rp.block, 9);
                                contained += 1;
                            }
                        }
                    }
                    (ok_rounds, contained)
                })
            })
            .collect();
        for h in handles {
            let (ok_rounds, contained) = h.join().expect("caller thread panicked");
            assert!(ok_rounds > 0 && contained > 0);
            assert_eq!(ok_rounds + contained, iterations);
        }
        // The pool is still healthy after the storm.
        assert_eq!(pool.run(4, 5, |b| b), vec![0, 1, 2, 3, 4]);
    }

    /// Thread ids under `/proc/self/task` whose comm equals the pool-worker
    /// thread name (15 bytes — exactly the kernel's comm width).
    #[cfg(target_os = "linux")]
    fn pool_worker_tids() -> Vec<u64> {
        let mut tids = Vec::new();
        let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
            return tids;
        };
        for entry in entries.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let comm_path = format!("/proc/self/task/{tid}/comm");
            if let Ok(comm) = std::fs::read_to_string(comm_path) {
                if comm.trim_end() == "gkm-pool-worker" {
                    tids.push(tid);
                }
            }
        }
        tids
    }

    /// Cumulative CPU ticks (utime + stime) of one thread, from its stat
    /// line.  The comm field is parenthesised and may not contain further
    /// parens for our fixed thread name, so split after the last ')'.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks(tid: u64) -> Option<u64> {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // Fields after comm/state: utime is index 11, stime index 12
        // (proc(5) fields 14 and 15, 1-based over the full line).
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_pool_parks_without_busy_waiting() {
        // Regression for the "drained pool parks" guarantee: once a round
        // completes, resident workers must block on the condvar — a
        // busy-wait (e.g. a spin on the round counter) would burn a core per
        // worker for the lifetime of the process.  Measured via per-thread
        // CPU accounting: tids are snapshotted before the dedicated pool
        // exists, so concurrently-running tests' pool workers are excluded.
        let before: std::collections::HashSet<u64> = pool_worker_tids().into_iter().collect();
        let pool = WorkerPool::new();
        assert_eq!(pool.run(4, 8, |b| b), (0..8).collect::<Vec<_>>());
        // A spawned thread names itself once it first runs, and the caller
        // can finish 8 trivial blocks before that: until then its comm is
        // the inherited name.  Poll until the new workers show up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let ours: Vec<u64> = loop {
            let ours: Vec<u64> = pool_worker_tids()
                .into_iter()
                .filter(|tid| !before.contains(tid))
                .collect();
            if !ours.is_empty() || std::time::Instant::now() >= deadline {
                break ours;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert!(
            !ours.is_empty(),
            "a threads=4 round must leave resident workers parked"
        );
        // Let the final park settle, then look for a quiet window.  A parked
        // thread accrues zero ticks; a busy-waiting one accrues ~all of them
        // (a 250 ms window is ~25 ticks at CONFIG_HZ=100), so one zero-delta
        // window decides the question even on a loaded CI box.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut quiet = false;
        for _ in 0..5 {
            let start: u64 = ours.iter().filter_map(|&t| thread_cpu_ticks(t)).sum();
            std::thread::sleep(std::time::Duration::from_millis(250));
            let end: u64 = ours.iter().filter_map(|&t| thread_cpu_ticks(t)).sum();
            if end == start {
                quiet = true;
                break;
            }
        }
        assert!(
            quiet,
            "idle pool workers consumed CPU in every observation window — busy-wait?"
        );
        // And they are genuinely parked, not exited: the next round reuses
        // them and stays correct.
        assert_eq!(pool.run(4, 8, |b| b + 1), (1..9).collect::<Vec<_>>());
    }
}
