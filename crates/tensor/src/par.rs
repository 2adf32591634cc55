//! Deterministic chunked parallelism on one resident team of workers.
//!
//! The dense and sparse kernels parallelise over *output rows*, the
//! element-wise maps over disjoint runs of elements: each chunk is owned
//! by one thread and computed sequentially, and where the chunks start
//! and end depends only on the shape and the configured thread count —
//! never on which thread ran a chunk, or whether any worker did. So
//! floating-point results are identical to the single-threaded execution,
//! and every experiment in the reproduction is bit-for-bit reproducible
//! from its RNG seed.
//!
//! ## The team
//!
//! Every chunked call goes through one door, [`for_each_chunk`]. The
//! first call that wants more than one thread starts
//! `thread_count() - 1` workers, once, for the life of the process; a
//! process whose thread count is 1 (`SMGCN_THREADS=1`, or one allowed
//! CPU) or that never makes a call above the thresholds never starts
//! one. The caller publishes the call's chunk queue, drains it alongside
//! the workers — it is a participant, not a thread waiting in `join` —
//! and returns when the queue is empty and no worker is still inside it.
//!
//! An idle worker spins on the team's epoch for `SPIN` (200 µs), so that the
//! next call of a training step or of a batch of queries finds it hot
//! (about a microsecond from publish to its first chunk), then parks on a
//! condvar and costs nothing. Waking a parked worker is the cold path:
//! the caller does not wait for it, and takes every chunk itself if the
//! worker has not arrived by the time they are gone.
//!
//! The team serves one call at a time. A second thread that calls while
//! it is taken (a finetune beside a serving batch, `cargo test`'s
//! parallel tests), or a chunk that itself calls, runs its chunks inline
//! on its own thread — the same chunks, so the same bits.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Fewest multiply-adds a thread is given of a product, dense
/// (`m · n · k`) or sparse (`nnz · n`): 65 µs of one core on the exact
/// AVX-512 tile of the build host (2 cores, ≈ 32 G multiply-adds a
/// second each), about 30 µs on serving's fused tile. Measured there
/// (`par_handoff` in `benches/kernels.rs`): a call that finds the worker
/// spinning costs 1–2 µs beyond its work, so a split breaks even from
/// ≈ 100k multiply-adds; a call that finds it parked costs the caller a
/// 13 µs futex wake, and the worker arrives 50–80 µs late. The bar is
/// set for the second case: the wake is then at most a fifth of what
/// the call would have taken alone, and the late worker still finds
/// chunks. (A thread spawned per call, which this team replaces, only
/// started to pay between 25M and 50M multiply-adds.)
const PAR_THRESHOLD_MACS: usize = 1 << 21;

/// Fewest elements a thread is given of an element-wise map. On one
/// core of the build host `tanh` is 0.7 ns an element and a streaming
/// map (`add_assign`) 0.12–0.3 ns, so 32k elements are 23 µs and 4–10 µs
/// a thread: the cheapest map still does several hot handoffs' worth
/// (1–2 µs each) of work per thread, and the dearest one pays for a
/// cold wake.
const PAR_THRESHOLD_ELEMS: usize = 32 * 1024;

/// How long an idle worker spins before it parks. Of the gaps between
/// two chunked calls of a paper-scale training step (≈ 55 calls a step;
/// small ops fall in them) the median was 52 µs and 90% were under
/// 203 µs. The step's millisecond-long serial stretches are gone: the
/// loss's sum, the panel packing and the gradient norm run on the team,
/// and no multi-hot target is built. What is left serial between calls
/// is Adam's small parameters and the next batch's set-pooling operator
/// (≈ 0.25 ms), where the worker may park and is woken after (13 µs of
/// the caller's time, the worker 50–80 µs late). `train_paper` read the
/// same at 100, 200 and 400 µs within run-to-run noise (see CHANGES.md);
/// an idle process pays one budget of spinning per worker after its
/// last call, then nothing.
const SPIN: Duration = Duration::from_micros(200);

fn thread_count() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SMGCN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(16)
            })
    })
}

/// Threads worth using for a product of `macs` multiply-adds — `m · n ·
/// k` dense, `nnz · n` sparse: never more than the configured count, and
/// never so many that one owns less than `PAR_THRESHOLD_MACS` (2M).
/// Counting the reduction, not just the outputs, is what shares out a
/// weight gradient: 256 x 256 outputs, each a thousand steps long.
pub fn threads_for_macs(macs: usize) -> usize {
    thread_count().min(macs / PAR_THRESHOLD_MACS).max(1)
}

/// Threads worth using for an element-wise map over `elems` values:
/// never so many that one owns less than [`PAR_THRESHOLD_ELEMS`].
fn threads_for_elems(elems: usize) -> usize {
    thread_count().min(elems / PAR_THRESHOLD_ELEMS).max(1)
}

/// The split of an element-wise map over `elems` values: how many
/// threads ([`threads_for_elems`]) and the chunk length that shares the
/// values out between them (at least 1, so `chunks(len)` takes it).
pub(crate) fn split_elems(elems: usize) -> (usize, usize) {
    let threads = threads_for_elems(elems);
    (threads, elems.div_ceil(threads).max(1))
}

/// What a participant — the caller, or a worker — runs: "take chunks
/// off the call's queue until it is empty".
type Work<'a> = dyn Fn() + Sync + 'a;

/// What may only change under the team's lock.
struct Desk {
    /// The call in progress, for workers to join while seats remain.
    job: Option<&'static Work<'static>>,
    /// Workers the call still has chunks for.
    seats: usize,
    /// Workers parked on `wake`.
    parked: usize,
    /// The first panic a worker caught in the call's chunks.
    panic: Option<Box<dyn Any + Send>>,
}

struct Team {
    /// Starts the workers, on the first call that wants one.
    start: Once,
    desk: Mutex<Desk>,
    /// Counts published calls; bumped under the lock, watched without
    /// it by spinning workers.
    epoch: AtomicU64,
    /// Where workers park once [`SPIN`] has passed.
    wake: Condvar,
    /// Workers inside the published call. Raised under the lock, in the
    /// critical section that read `job` (the caller looks only after it
    /// has taken the lock to clear `job`); lowered with `Release` once
    /// the worker has left the closure for good, which the caller's
    /// `Acquire` wait observes.
    active: AtomicUsize,
    /// A caller has the team (`Acquire` to take, `Release` to give
    /// back: the next caller sees the desk as this one left it).
    taken: AtomicBool,
}

/// The process's team. Its workers are detached on purpose: they live
/// as long as the process, hold nothing between calls, and a panic in a
/// chunk is caught and handed to the caller, never lost with a
/// `JoinHandle`.
static TEAM: Team = Team {
    start: Once::new(),
    desk: Mutex::new(Desk {
        job: None,
        seats: 0,
        parked: 0,
        panic: None,
    }),
    epoch: AtomicU64::new(0),
    wake: Condvar::new(),
    active: AtomicUsize::new(0),
    taken: AtomicBool::new(false),
};

/// Spins until `ready()`, for [`SPIN`] at most; `false` if that passed.
/// (No clock is read by a wait that ends within the first 64 looks.)
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let mut start = None;
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.get_or_insert_with(Instant::now).elapsed() >= SPIN {
            return false;
        }
    }
}

impl Team {
    /// Every update under this lock is a handful of plain stores that
    /// leave the desk valid at each step, and no chunk runs under it, so
    /// a poisoned lock has nothing to tell.
    fn desk(&self) -> MutexGuard<'_, Desk> {
        self.desk.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: wait for a call, join it if it has a seat left,
    /// report a panic, leave.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let mut desk = self.next_call(seen);
            seen = self.epoch.load(Ordering::Acquire);
            let Some(work) = desk.job.filter(|_| desk.seats > 0) else {
                continue;
            };
            desk.seats -= 1;
            self.active.fetch_add(1, Ordering::Relaxed);
            drop(desk);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
                self.desk().panic.get_or_insert(payload);
            }
            self.active.fetch_sub(1, Ordering::Release);
        }
    }

    /// Blocks until a call later than `seen` has been published: spins
    /// for [`SPIN`], then parks. Returns holding the lock.
    fn next_call(&self, seen: u64) -> MutexGuard<'_, Desk> {
        let published = || self.epoch.load(Ordering::Acquire) != seen;
        if spin_until(published) {
            return self.desk();
        }
        let mut desk = self.desk();
        desk.parked += 1;
        // The epoch only moves under the lock, which this thread holds
        // or has released into the wait: the wake-up cannot be missed.
        while !published() {
            desk = self.wake.wait(desk).unwrap_or_else(PoisonError::into_inner);
        }
        desk.parked -= 1;
        desk
    }

    /// Runs `work` on the calling thread, which has taken the team, and
    /// on up to `seats` workers at once; returns when all of them have
    /// returned from it. A panic in any of them is re-raised here, after
    /// that.
    fn run(&'static self, seats: usize, work: &Work<'_>) {
        self.start.call_once(|| {
            for i in 1..thread_count() {
                // A worker that cannot be spawned is a seat nobody
                // takes: the caller drains the queue either way.
                let _ = std::thread::Builder::new()
                    .name(format!("smgcn-par-{i}"))
                    .spawn(|| self.serve());
            }
        });
        // SAFETY: the one lifetime erasure of the crate: `work` borrows
        // from the caller's stack, and a resident thread gets to call it.
        // It is sound because this function cannot be left — by return,
        // by a panic in the caller's own `work()`, or after a panic in a
        // worker's — while a worker can still reach the reference. The
        // only place a worker finds it is `desk.job`, read under the
        // team's lock, and in that same critical section the worker
        // raises `active`. `Turn::retire`, which runs on every way out
        // (`end`, or the drop guard during unwinding), clears `desk.job`
        // under that lock — from then on no worker can pick the
        // reference up, and every worker that did has been counted —
        // and only then waits for `active` to reach zero. A worker
        // lowers `active` (`Release`, met by the wait's `Acquire`) after
        // its call of `work` has returned or unwound into
        // `catch_unwind`, and does not touch the reference again.
        // `taken` keeps every other caller off the desk meanwhile.
        let job = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
        {
            let mut desk = self.desk();
            desk.job = Some(job);
            desk.seats = seats;
            self.epoch.fetch_add(1, Ordering::Release);
            if desk.parked > 0 {
                self.wake.notify_all();
            }
        }
        let turn = Turn(self);
        work();
        if let Some(payload) = turn.end() {
            panic::resume_unwind(payload);
        }
    }
}

/// A caller's hold on the team, from publishing its call to the moment
/// no worker can still be inside it.
struct Turn(&'static Team);

impl Turn {
    /// Withdraws the call, waits for the workers that joined it, gives
    /// the team back; returns what a worker's chunk panicked with.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let team = self.0;
        team.desk().job = None;
        let left = || team.active.load(Ordering::Acquire) == 0;
        if !spin_until(left) {
            // A worker that long in its chunk may be waiting for this
            // very core (an oversubscribed host): let it have it.
            while !left() {
                std::thread::yield_now();
            }
        }
        let payload = team.desk().panic.take();
        team.taken.store(false, Ordering::Release);
        payload
    }

    /// The way out when the caller's own chunks did not panic.
    fn end(self) -> Option<Box<dyn Any + Send>> {
        let payload = self.retire();
        std::mem::forget(self);
        payload
    }
}

impl Drop for Turn {
    /// The way out when they did: the caller's panic goes on unwinding,
    /// a worker's is dropped here.
    fn drop(&mut self) {
        self.retire();
    }
}

/// Calls `f` once on every item of `chunks`, on up to `threads` threads
/// at once: the one way this crate runs chunks. The items are handed out
/// in order, each to exactly one thread; `f` must compute each
/// independently of the others (disjoint `&mut` slices as items make the
/// borrow checker enforce it). What the chunks are is the caller's
/// decision alone — with `threads <= 1`, with the team taken by another
/// call, or with every worker asleep, this thread runs them all.
///
/// # Panics
/// Re-raises the panic of a chunk, after every thread has left `f`.
pub fn for_each_chunk<I, F>(threads: usize, chunks: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    if threads <= 1 || thread_count() <= 1 {
        chunks.for_each(f);
        return;
    }
    if TEAM.taken.swap(true, Ordering::Acquire) {
        chunks.for_each(f);
        return;
    }
    let queue = Mutex::new(chunks);
    TEAM.run(threads - 1, &|| loop {
        // The guard goes before `f` runs: a chunk that panics poisons
        // nothing, and the others are still handed out.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(chunk) => f(chunk),
            None => break,
        }
    });
}

/// Splits `data` (a row-major buffer of `rows` rows of `row_len` values)
/// into contiguous row chunks and invokes `f(first_row, chunk)` on each,
/// in parallel when the buffer is large enough for an element-wise map
/// (32k values a thread).
///
/// `f` must compute each chunk independently of the others (it receives a
/// disjoint `&mut` slice, so the borrow checker enforces this).
pub fn for_each_row_chunk<F>(data: &mut [f32], row_len: usize, rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    for_each_row_chunk_of(data, row_len, rows, threads_for_elems(data.len()), f);
}

/// [`for_each_row_chunk`] over rows of any per-row state, split into at
/// most `threads` chunks (the caller's decision: [`threads_for_macs`]
/// for a product). Returns the number of chunks the rows were split
/// into.
pub fn for_each_row_chunk_of<T, F>(
    data: &mut [T],
    row_len: usize,
    rows: usize,
    threads: usize,
    f: F,
) -> usize
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(data.len(), row_len * rows);
    if threads <= 1 || rows < 2 || row_len == 0 {
        f(0, data);
        return 1;
    }
    let chunk_rows = rows.div_ceil(threads);
    let chunks = data.chunks_mut(chunk_rows * row_len).enumerate();
    for_each_chunk(threads, chunks, |(i, chunk)| f(i * chunk_rows, chunk));
    rows.div_ceil(chunk_rows)
}

/// Computes `parts + 1` row boundaries over `rows` rows such that every
/// span carries roughly the same total cost, where `cum_cost[r]` is the
/// cost of rows `0..r` (an `indptr`-style prefix sum, length `rows + 1`).
///
/// Spans are half-open `bounds[i]..bounds[i + 1]` and may be empty when a
/// single row dominates; callers skip empty spans.
fn balanced_bounds(cum_cost: &[usize], parts: usize) -> Vec<usize> {
    let rows = cum_cost.len() - 1;
    let total = cum_cost[rows];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for p in 1..parts {
        let target = total * p / parts;
        let r = cum_cost
            .partition_point(|&c| c < target)
            .clamp(*bounds.last().expect("nonempty"), rows);
        bounds.push(r);
    }
    bounds.push(rows);
    bounds
}

/// Like [`for_each_row_chunk`], but for a sparse product: splits rows so
/// each chunk carries a roughly equal share of `cum_cost` (a length
/// `rows + 1` prefix sum of per-row cost, a CSR `indptr`) instead of an
/// equal row count, and sizes the split like every other product, by
/// multiply-adds (`nnz · row_len`, [`threads_for_macs`]).
///
/// Sparse operators over skewed graphs (co-occurrence degrees follow a
/// power law) would otherwise leave most threads idle while one crunches
/// the hub rows. Chunk boundaries never change per-row results, so output
/// remains bit-identical to the sequential execution.
pub fn for_each_row_chunk_balanced<F>(
    data: &mut [f32],
    row_len: usize,
    rows: usize,
    cum_cost: &[usize],
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(data.len(), row_len * rows);
    debug_assert_eq!(cum_cost.len(), rows + 1);
    let threads = threads_for_macs(cum_cost[rows].saturating_mul(row_len));
    if threads <= 1 || rows < 2 {
        f(0, data);
        return;
    }
    let bounds = balanced_bounds(cum_cost, threads);
    let mut rest = data;
    let chunks = bounds.windows(2).filter_map(|span| {
        let (r0, r1) = (span[0], span[1]);
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
        rest = tail;
        (r1 > r0).then_some((r0, chunk))
    });
    for_each_chunk(threads, chunks, |(r0, chunk)| f(r0, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    /// Rows and width of a buffer [`for_each_row_chunk`] splits.
    const ROWS: usize = 10_000;
    const ROW_LEN: usize = 16;

    /// Adds its row number to every value of a chunk: run over a zeroed
    /// buffer, row `r` holds `r` exactly when it was visited once.
    fn add_row_numbers(row_len: usize) -> impl Fn(usize, &mut [f32]) + Sync {
        move |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32;
                }
            }
        }
    }

    fn assert_rows_numbered(data: &[f32], row_len: usize) {
        for (r, row) in data.chunks_exact(row_len).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r}: {row:?}");
        }
    }

    /// One even split and one balanced split, both large enough for the
    /// team, each checked to have seen every row exactly once.
    fn split_both_ways() {
        let mut data = vec![0.0f32; ROWS * ROW_LEN];
        for_each_row_chunk(&mut data, ROW_LEN, ROWS, add_row_numbers(ROW_LEN));
        assert_rows_numbered(&data, ROW_LEN);
        // Skewed cost: row r costs 64 * (r % 17) entries (some rows free).
        let (rows, row_len) = (4_000, 32);
        let mut cum = vec![0usize];
        for r in 0..rows {
            cum.push(cum[r] + 64 * (r % 17));
        }
        assert!(cum[rows] * row_len >= 2 * PAR_THRESHOLD_MACS);
        let mut data = vec![0.0f32; rows * row_len];
        for_each_row_chunk_balanced(&mut data, row_len, rows, &cum, add_row_numbers(row_len));
        assert_rows_numbered(&data, row_len);
    }

    fn on_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("smgcn-par-"))
    }

    /// Spins (politely) until `flag` is set, for `patience` at most.
    fn wait_for(flag: &AtomicBool, patience: Duration) {
        let start = Instant::now();
        while !flag.load(Ordering::Acquire) && start.elapsed() < patience {
            std::thread::yield_now();
        }
    }

    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(text) => text.to_string(),
            Err(_) => "not a &str".to_string(),
        }
    }

    #[test]
    fn small_input_runs_inline() {
        let mut data = vec![0.0f32; 12];
        for_each_row_chunk(&mut data, 3, 4, |r0, chunk| {
            assert_eq!((r0, chunk.len()), (0, 12));
            add_row_numbers(3)(r0, chunk);
        });
        assert_rows_numbered(&data, 3);
    }

    #[test]
    fn large_inputs_cover_all_rows_exactly_once() {
        split_both_ways();
    }

    #[test]
    fn balanced_bounds_equalise_cost() {
        // One hub row with 90 of 100 nnz: equal-row splitting would give
        // one thread 92% of the work; balanced bounds isolate the hub.
        let per_row = [90usize, 2, 2, 2, 2, 2];
        let mut cum = vec![0usize];
        for w in per_row {
            cum.push(cum.last().unwrap() + w);
        }
        let bounds = balanced_bounds(&cum, 2);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&6));
        // The first span is just the hub row.
        assert_eq!(bounds[1], 1);
        // Monotone non-decreasing.
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_bounds_handle_zero_cost() {
        let cum = vec![0usize; 5]; // 4 rows, all empty
        let bounds = balanced_bounds(&cum, 3);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&4));
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_who_runs_them() {
        // Taken, the team sends the call down the inline path: the same
        // `(first_row, len)` chunks, in order, on this thread.
        let chunks_of = |data: &mut [f32]| {
            let seen = Mutex::new(Vec::new());
            for_each_row_chunk_of(data, ROW_LEN, ROWS, 3, |r0, chunk| {
                seen.lock().unwrap().push((r0, chunk.len()));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            seen
        };
        let shared = chunks_of(&mut vec![0.0f32; ROWS * ROW_LEN]);
        let per_chunk = ROWS.div_ceil(3);
        let expected: Vec<_> = (0..3)
            .map(|i| (i * per_chunk, per_chunk.min(ROWS - i * per_chunk) * ROW_LEN))
            .collect();
        assert_eq!(shared, expected);
        for_each_chunk(2, 0..1, |_| {
            assert_eq!(chunks_of(&mut vec![0.0f32; ROWS * ROW_LEN]), expected);
        });
    }

    #[test]
    fn eight_callers_at_once_each_see_every_row_once() {
        // One of them has the team at any moment; the others run their
        // chunks inline.
        let start = Arc::new(Barrier::new(8));
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..40 {
                        split_both_ways();
                    }
                })
            })
            .collect();
        for caller in callers {
            caller
                .join()
                .expect("a caller saw a row twice or not at all");
        }
    }

    #[test]
    fn a_call_from_inside_a_chunk_completes() {
        let inner_calls = AtomicUsize::new(0);
        for_each_chunk(2, 0..2, |_| {
            split_both_ways();
            inner_calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(inner_calls.into_inner(), 2);
    }

    #[test]
    fn a_panic_in_the_callers_chunk_fails_the_call_and_frees_the_team() {
        let caller_in = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_chunk(2, 0..2, |_| {
                if on_worker() {
                    // Leave the other chunk to the caller.
                    wait_for(&caller_in, Duration::from_secs(10));
                } else {
                    caller_in.store(true, Ordering::Release);
                    panic!("the caller's chunk");
                }
            });
        }));
        assert_eq!(message(outcome.unwrap_err()), "the caller's chunk");
        split_both_ways();
    }

    #[test]
    fn a_panic_in_a_workers_chunk_is_raised_on_the_caller() {
        if thread_count() == 1 {
            return; // no worker to panic
        }
        // A call only has a worker in it if no other test holds the team
        // just then: try until one joined (and panicked).
        let raised = (0..200).find_map(|_| {
            let worker_in = AtomicBool::new(false);
            panic::catch_unwind(AssertUnwindSafe(|| {
                for_each_chunk(2, 0..2, |_| {
                    if on_worker() {
                        worker_in.store(true, Ordering::Release);
                        panic!("a worker's chunk");
                    }
                    // A worker that is coming is here within a millisecond.
                    wait_for(&worker_in, Duration::from_millis(20));
                });
            }))
            .err()
        });
        let payload = raised.expect("no worker joined any of 200 calls");
        assert_eq!(message(payload), "a worker's chunk");
        // The worker that panicked is still serving.
        split_both_ways();
        assert!(await_parked(), "the team lost a worker to the panic");
    }

    /// `true` once every worker is parked (each `SPIN` after its last
    /// call; other tests' calls keep waking them, so give it a while).
    fn await_parked() -> bool {
        let start = Instant::now();
        while TEAM.desk().parked != thread_count() - 1 {
            if start.elapsed() > Duration::from_secs(60) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn idle_workers_park_and_a_later_call_wakes_them() {
        if thread_count() == 1 {
            return;
        }
        split_both_ways();
        assert!(TEAM.start.is_completed());
        assert!(await_parked(), "a worker is still spinning");
        split_both_ways();
    }

    #[test]
    fn a_process_with_one_thread_never_starts_a_worker() {
        const NAME: &str = "par::tests::a_process_with_one_thread_never_starts_a_worker";
        if thread_count() > 1 {
            // Ask a process that has one: this test alone, in a child.
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME, "--test-threads=1"])
                .env("SMGCN_THREADS", "1")
                .output()
                .expect("run this test binary again");
            let stdout = String::from_utf8_lossy(&child.stdout);
            assert!(
                child.status.success() && stdout.contains("1 passed"),
                "{stdout}{}",
                String::from_utf8_lossy(&child.stderr)
            );
            return;
        }
        split_both_ways();
        // Even a caller that insists on two chunks runs them itself.
        let mut data = vec![0.0f32; ROWS * ROW_LEN];
        let chunks = for_each_row_chunk_of(&mut data, ROW_LEN, ROWS, 2, add_row_numbers(ROW_LEN));
        assert_eq!(chunks, 2);
        assert_rows_numbered(&data, ROW_LEN);
        assert!(!TEAM.start.is_completed(), "a worker was started");
    }
}
