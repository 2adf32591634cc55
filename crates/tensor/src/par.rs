//! Deterministic chunked parallelism helpers built on `std::thread::scope`.
//!
//! The dense and sparse kernels parallelise over *output rows*: each thread
//! owns a disjoint row range and computes it sequentially, so floating-point
//! results are identical to the single-threaded execution regardless of
//! thread count. This keeps every experiment in the reproduction bit-for-bit
//! reproducible from its RNG seed.

use std::sync::OnceLock;

/// Work below this many output elements stays on the calling thread;
/// the thread-scope setup would dominate otherwise.
const PAR_THRESHOLD: usize = 64 * 1024;

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

/// A dense product's thread threshold, in multiply-adds: what one
/// [`PAR_THRESHOLD`] of outputs costs at a reduction length of 256 (the
/// paper's widest layer), about 400 µs of one core on the exact tiles.
/// Measured on the build host, a second thread only starts to pay
/// between 25M and 50M multiply-adds in all.
const PAR_THRESHOLD_MACS: usize = 256 * PAR_THRESHOLD;

/// Threads worth spawning for `work` output elements: never more than the
/// configured count, and never so many that a thread owns less than one
/// [`PAR_THRESHOLD`] of work (the spawn would cost more than it saves).
fn threads_for(work: usize) -> usize {
    thread_count().min(work / PAR_THRESHOLD).max(1)
}

/// Threads worth spawning for a dense product of `macs` multiply-adds
/// (`m * n * k`). Counting the reduction, not just the outputs, is what
/// shares out a weight gradient: 256 x 256 outputs, each a thousand
/// steps long.
pub fn threads_for_macs(macs: usize) -> usize {
    thread_count().min(macs / PAR_THRESHOLD_MACS).max(1)
}

/// Splits `data` (a row-major buffer of `rows` rows of `row_len` values)
/// into contiguous row chunks and invokes `f(first_row, chunk)` on each,
/// in parallel when the buffer is large enough.
///
/// `f` must compute each chunk independently of the others (it receives a
/// disjoint `&mut` slice, so the borrow checker enforces this).
pub fn for_each_row_chunk<F>(data: &mut [f32], row_len: usize, rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    for_each_row_chunk_of(data, row_len, rows, threads_for(data.len()), f);
}

/// [`for_each_row_chunk`] over rows of any per-row state, split over at
/// most `threads` threads (the caller's decision: [`threads_for_macs`]
/// for a dense product). Returns the number of chunks — threads — the
/// rows were split into.
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
    if threads <= 1 || rows < 2 {
        f(0, data);
        return 1;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (i, chunk) in data.chunks_mut(chunk_rows * row_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(i * chunk_rows, chunk));
        }
    });
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

/// Like [`for_each_row_chunk`], but splits rows so each chunk carries a
/// roughly equal share of `cum_cost` (a length `rows + 1` prefix sum of
/// per-row cost, e.g. a CSR `indptr`) instead of an equal row count.
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
    let work = cum_cost[rows].saturating_mul(row_len.max(1));
    let threads = threads_for(work);
    if threads <= 1 || rows < 2 {
        f(0, data);
        return;
    }
    let bounds = balanced_bounds(cum_cost, threads);
    std::thread::scope(|scope| {
        let mut rest = data;
        for span in bounds.windows(2) {
            let (r0, r1) = (span[0], span[1]);
            let (chunk, tail) = rest.split_at_mut((r1 - r0) * row_len);
            rest = tail;
            if r1 > r0 {
                let f = &f;
                scope.spawn(move || f(r0, chunk));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_input_runs_inline() {
        let mut data = vec![0.0f32; 12];
        for_each_row_chunk(&mut data, 3, 4, |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(3).enumerate() {
                row.fill((r0 + i) as f32);
            }
        });
        assert_eq!(
            data,
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        );
    }

    #[test]
    fn large_input_covers_all_rows_exactly_once() {
        let rows = 10_000;
        let row_len = 16;
        let mut data = vec![0.0f32; rows * row_len];
        for_each_row_chunk(&mut data, row_len, rows, |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(data[r * row_len + c], r as f32, "row {r} col {c}");
            }
        }
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
    fn balanced_chunking_covers_all_rows_exactly_once() {
        let rows = 4_000;
        let row_len = 32;
        // Skewed cost: row r costs r % 17 (some rows free).
        let mut cum = vec![0usize];
        for r in 0..rows {
            cum.push(cum.last().unwrap() + r % 17);
        }
        let mut data = vec![0.0f32; rows * row_len];
        for_each_row_chunk_balanced(&mut data, row_len, rows, &cum, |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(data[r * row_len + c], r as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn chunking_is_deterministic() {
        let rows = 5_000;
        let row_len = 32;
        let run = || {
            let mut data = vec![0.0f32; rows * row_len];
            for_each_row_chunk(&mut data, row_len, rows, |r0, chunk| {
                for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                    let r = r0 + i;
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((r * 31 + c * 7) % 97) as f32 * 0.123;
                    }
                }
            });
            data
        };
        assert_eq!(run(), run());
    }
}
