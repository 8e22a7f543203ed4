//! Stable parallel counting-sort scatter over per-worker row windows.
//!
//! A CSR build groups input items by row. The item space is split into
//! one static, contiguous slice per pool worker, and the sort runs in
//! three steps:
//!
//! 1. [`RowCounts::count`] — every worker histograms the rows of its own
//!    slice into a private table,
//! 2. [`RowCounts::scan`] — the tables are summed into row offsets, and
//!    each table entry becomes that worker's *window* into the row: the
//!    slots `offsets[row] + Σ counts of lower-numbered workers` onwards,
//!    as many as the worker counted,
//! 3. [`RowWindows::scatter`] — every worker walks its slice again and
//!    writes each item at its own window's cursor.
//!
//! Windows partition the output, so the hot loop has no atomics and no
//! write-shared cache lines. Slices are contiguous and workers are
//! ordered, so inside a row the slot order is input order at every
//! thread count: a deterministic, stable counting sort.

use crate::scan;
use crate::shared::SharedSlice;
use crate::{Schedule, ThreadPool};
use std::ops::Range;

/// One worker's claim on one row: a per-row count while counting, the
/// half-open slot range `[next, end)` still unwritten afterwards. The
/// cursor and its bound share a cache line, so checking every write
/// costs no extra miss.
#[derive(Clone, Copy, Default)]
struct Window {
    next: usize,
    end: usize,
}

/// The slice of `0..n_items` worker `tid` of `threads` owns in both the
/// count and the scatter pass.
fn worker_slice(n_items: usize, threads: usize, tid: usize) -> Range<usize> {
    let chunk = n_items.div_ceil(threads).max(1);
    (tid * chunk).min(n_items)..((tid + 1) * chunk).min(n_items)
}

/// Per-worker row histograms of an item space (step 1).
pub struct RowCounts {
    n_items: usize,
    n_rows: usize,
    tables: Vec<Vec<Window>>,
}

impl RowCounts {
    /// Counts, per worker slice, how many items of `0..n_items` land in
    /// each of `n_rows` rows. `row_of` returning `None` filters the item
    /// out.
    ///
    /// # Panics
    ///
    /// Panics when `row_of` names a row `>= n_rows`.
    pub fn count<F>(pool: &ThreadPool, n_rows: usize, n_items: usize, row_of: F) -> Self
    where
        F: Fn(usize) -> Option<usize> + Sync,
    {
        let threads = pool.num_threads();
        let mut tables: Vec<Vec<Window>> = vec![Vec::new(); threads];
        let slots = SharedSlice::new(&mut tables);
        pool.run(|tid| {
            let mut table = vec![Window::default(); n_rows];
            for i in worker_slice(n_items, threads, tid) {
                if let Some(row) = row_of(i) {
                    table[row].end += 1;
                }
            }
            // SAFETY: `run` hands every `tid < threads == slots.len()`
            // to exactly one body, so each slot has one writer.
            unsafe { slots.write(tid, table) };
        });
        RowCounts {
            n_items,
            n_rows,
            tables,
        }
    }

    /// Sums the histograms into row offsets and turns every count into
    /// its worker's window of the row (step 2).
    pub fn scan(mut self, pool: &ThreadPool) -> RowWindows {
        let n = self.n_rows;
        let mut offsets = vec![0usize; n + 1];
        {
            let merged = SharedSlice::new(&mut offsets[..n]);
            let tables = &self.tables;
            pool.for_each_index(n, Schedule::Static, |row| {
                let count = tables.iter().map(|t| t[row].end).sum();
                // SAFETY: one writer per row index, and `row < n`.
                unsafe { merged.write(row, count) };
            });
        }
        scan::exclusive_scan_in_place(pool, &mut offsets);
        {
            let tables: Vec<SharedSlice<'_, Window>> = self
                .tables
                .iter_mut()
                .map(|t| SharedSlice::new(t))
                .collect();
            let offsets = &offsets;
            pool.for_each_index(n, Schedule::Static, |row| {
                let mut next = offsets[row];
                for table in &tables {
                    // SAFETY: every table has `n` entries and entry
                    // `row` of each is touched by this iteration only.
                    unsafe {
                        let end = next + table.read(row).end;
                        table.write(row, Window { next, end });
                        next = end;
                    }
                }
            });
        }
        RowWindows {
            n_items: self.n_items,
            offsets,
            tables: self.tables,
        }
    }
}

/// Per-worker row windows over a scanned offset table (after step 2).
///
/// The fields are private and only [`RowCounts::scan`] builds the type,
/// which is what lets [`RowWindows::scatter`] be safe: window
/// `(worker, row)` is `offsets[row] + Σ lower workers' counts` plus this
/// worker's count, so the windows tile `0..offsets[n_rows]` without
/// overlap.
pub struct RowWindows {
    n_items: usize,
    offsets: Vec<usize>,
    tables: Vec<Vec<Window>>,
}

impl RowWindows {
    /// Scatters `item(i)`'s value into its row for every `i` of the
    /// counted item space (step 3). Returns the row offsets (`n_rows + 1`
    /// entries) and the sorted items: row `r` is
    /// `out[offsets[r]..offsets[r + 1]]`, in input order. `item` must
    /// agree with the `row_of` the counts came from; slots of items it
    /// now filters out hold `fill`.
    ///
    /// # Panics
    ///
    /// Panics when `pool` is not as wide as the pool that counted, or
    /// when a worker finds more items for a row than it counted (`item`
    /// disagrees with `row_of`).
    pub fn scatter<T, F>(mut self, pool: &ThreadPool, fill: T, item: F) -> (Vec<usize>, Vec<T>)
    where
        T: Clone + Send,
        F: Fn(usize) -> Option<(usize, T)> + Sync,
    {
        let threads = self.tables.len();
        assert_eq!(pool.num_threads(), threads, "pool width changed");
        let n_items = self.n_items;
        let total = *self.offsets.last().expect("n_rows + 1 offsets");
        let mut out = vec![fill; total];
        let slots = SharedSlice::new(&mut out);
        let tables = SharedSlice::new(&mut self.tables);
        pool.run(|tid| {
            // SAFETY: `run` hands every `tid < threads == tables.len()`
            // to exactly one body, so table `tid` has one borrower.
            let table = &mut unsafe { tables.range_mut(tid, tid + 1) }[0];
            for i in worker_slice(n_items, threads, tid) {
                if let Some((row, value)) = item(i) {
                    let window = &mut table[row];
                    assert!(
                        window.next < window.end,
                        "row {row} overflowed worker {tid}'s window (item disagrees with the count)"
                    );
                    // SAFETY: windows tile `0..total` without overlap
                    // (see the type docs) and the assert keeps this
                    // cursor inside its own window, so the slot is in
                    // bounds and no other write ever targets it.
                    unsafe { slots.write(window.next, value) };
                    window.next += 1;
                }
            }
        });
        (self.offsets, out)
    }
}

/// Fills `out[i] = f(i)` in parallel — the safe one-writer-per-index
/// special case (unzips, remaps, block-generated values).
pub fn fill_with<T, F>(pool: &ThreadPool, out: &mut [T], schedule: Schedule, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let shared = SharedSlice::new(out);
    pool.for_each_index(shared.len(), schedule, |i| {
        // SAFETY: one writer per index.
        unsafe { shared.write(i, f(i)) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts, scans and scatters `(row, i)` for every kept item.
    fn sort_by_row(
        pool: &ThreadPool,
        n_rows: usize,
        rows: &[Option<usize>],
    ) -> (Vec<usize>, Vec<usize>) {
        RowCounts::count(pool, n_rows, rows.len(), |i| rows[i])
            .scan(pool)
            .scatter(pool, usize::MAX, |i| rows[i].map(|r| (r, i)))
    }

    #[test]
    fn rows_hold_their_items_in_input_order() {
        // Pseudo-random rows with a filtered tenth: the expected output
        // is the item indices of each row, ascending.
        let rows: Vec<Option<usize>> = (0..5000usize)
            .map(|i| (i % 10 != 3).then_some((i * 2654435761) % 37))
            .collect();
        for threads in [1, 2, 7, 16] {
            let (offsets, out) = sort_by_row(&ThreadPool::new(threads), 37, &rows);
            assert_eq!(offsets.len(), 38);
            for r in 0..37 {
                let expect: Vec<usize> = (0..rows.len()).filter(|&i| rows[i] == Some(r)).collect();
                assert_eq!(
                    &out[offsets[r]..offsets[r + 1]],
                    expect.as_slice(),
                    "row {r} @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn degenerate_item_spaces() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            // No items at all, and no rows at all.
            assert_eq!(sort_by_row(&pool, 3, &[]), (vec![0; 4], vec![]));
            assert_eq!(sort_by_row(&pool, 0, &[]), (vec![0], vec![]));
            // Fewer items than workers: trailing workers own empty slices.
            let (offsets, out) = sort_by_row(&pool, 2, &[Some(1), Some(0)]);
            assert_eq!((offsets, out), (vec![0, 1, 2], vec![1, 0]));
            // One hub row receives every item.
            let hub = vec![Some(2); 1000];
            let (offsets, out) = sort_by_row(&pool, 4, &hub);
            assert_eq!(offsets, vec![0, 0, 0, 1000, 1000]);
            assert!(out.iter().copied().eq(0..1000));
            // Every item filtered out.
            assert_eq!(sort_by_row(&pool, 2, &[None; 9]), (vec![0; 3], vec![]));
        }
    }

    /// An impure `item`: the scatter pass sends everything to row 0
    /// although the count pass saw two rows.
    fn disagreeing_passes(threads: usize) {
        let pool = ThreadPool::new(threads);
        let windows = RowCounts::count(&pool, 2, 64, |i| Some(i % 2)).scan(&pool);
        windows.scatter(&pool, 0u8, |_| Some((0, 1u8)));
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn count_scatter_disagreement_panics() {
        disagreeing_passes(1);
    }

    #[test]
    #[should_panic]
    fn count_scatter_disagreement_panics_on_a_team() {
        disagreeing_passes(4);
    }

    #[test]
    #[should_panic(expected = "pool width")]
    fn narrower_pool_panics() {
        let windows =
            RowCounts::count(&ThreadPool::new(4), 1, 3, |_| Some(0)).scan(&ThreadPool::new(4));
        windows.scatter(&ThreadPool::new(2), 0u8, |_| Some((0, 1)));
    }

    #[test]
    fn fill_with_covers_every_index() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 777];
        fill_with(&pool, &mut out, Schedule::Guided, |i| i + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }
}
