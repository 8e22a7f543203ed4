//! The GAP reference frontier structure: a sliding queue plus per-thread
//! append buffers.
//!
//! A `SlidingQueue` holds the vertices of the *current* frontier in a
//! read-only window while threads append the *next* frontier past the
//! window's end; `slide_window` then advances the window over the newly
//! appended items. Per-thread [`QueueBuffer`]s batch appends (64 items per
//! flush) so threads touch the shared tail rarely — the same false-sharing
//! avoidance GKC describes in §III-E1.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded queue whose consumed prefix "slides" forward in windows.
///
/// Concurrent appends (through `&self`) go past the current window; the
/// window itself is only repositioned through `&mut self`, which gives the
/// necessary happens-before edge to read appended items safely.
#[derive(Debug)]
pub struct SlidingQueue<T> {
    storage: Box<[UnsafeCell<MaybeUninit<T>>]>,
    tail: AtomicUsize,
    window_start: usize,
    window_end: usize,
}

// Safety: concurrent mutation is confined to disjoint slots handed out by
// `tail.fetch_add`; reads only cover slots below `window_end`, which is only
// advanced with exclusive access.
unsafe impl<T: Send> Sync for SlidingQueue<T> {}

impl<T: Copy> SlidingQueue<T> {
    /// Creates a queue able to hold `capacity` items over its lifetime.
    pub fn new(capacity: usize) -> Self {
        let storage = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SlidingQueue {
            storage,
            tail: AtomicUsize::new(0),
            window_start: 0,
            window_end: 0,
        }
    }

    /// Appends one item past the current window.
    ///
    /// # Panics
    ///
    /// Panics if the queue's lifetime capacity is exhausted.
    pub fn push(&self, value: T) {
        self.append(&[value]);
    }

    /// Appends a batch of items past the current window.
    ///
    /// # Panics
    ///
    /// Panics if the queue's lifetime capacity is exhausted.
    pub(crate) fn append(&self, items: &[T]) {
        if items.is_empty() {
            return;
        }
        gapbs_telemetry::record(gapbs_telemetry::Counter::FrontierPushes, items.len() as u64);
        let start = self.tail.fetch_add(items.len(), Ordering::Relaxed);
        assert!(
            start + items.len() <= self.storage.len(),
            "sliding queue capacity {} exhausted",
            self.storage.len()
        );
        for (i, &v) in items.iter().enumerate() {
            // Safety: slots [start, start+len) were exclusively reserved by
            // the fetch_add above.
            unsafe {
                (*self.storage[start + i].get()).write(v);
            }
        }
    }

    /// Advances the window to cover everything appended since the last
    /// slide. Returns the new window length.
    pub fn slide_window(&mut self) -> usize {
        self.window_start = self.window_end;
        self.window_end = *self.tail.get_mut();
        self.window_len()
    }

    /// The current frontier window.
    pub fn window(&self) -> &[T] {
        // Safety: items below window_end were fully written before the
        // exclusive `slide_window` call that exposed them.
        unsafe {
            std::slice::from_raw_parts(
                self.storage.as_ptr().add(self.window_start) as *const T,
                self.window_len(),
            )
        }
    }

    /// Length of the current window.
    pub fn window_len(&self) -> usize {
        self.window_end - self.window_start
    }

    /// `true` when the current window holds no items.
    pub fn is_window_empty(&self) -> bool {
        self.window_len() == 0
    }

    /// Total number of items ever appended.
    #[cfg(test)]
    pub(crate) fn total_pushed(&self) -> usize {
        self.tail.load(Ordering::Relaxed)
    }

    /// Empties the queue and resets the window, reclaiming the full
    /// capacity.
    pub fn reset(&mut self) {
        *self.tail.get_mut() = 0;
        self.window_start = 0;
        self.window_end = 0;
    }
}

/// Per-thread append buffer for a [`SlidingQueue`].
///
/// Matches GAP's `QueueBuffer<T>`: pushes accumulate locally and spill to
/// the shared queue in one reservation when full or on `flush`.
#[derive(Debug)]
pub struct QueueBuffer<T> {
    items: Vec<T>,
    capacity: usize,
}

impl<T: Copy> QueueBuffer<T> {
    /// Default buffer capacity (GAP uses 64-item buffers).
    pub(crate) const DEFAULT_CAPACITY: usize = 64;

    /// Creates a buffer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a buffer holding up to `capacity` items between flushes.
    pub fn with_capacity(capacity: usize) -> Self {
        QueueBuffer {
            items: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Buffers one item, spilling to `queue` when the buffer is full.
    pub fn push(&mut self, value: T, queue: &SlidingQueue<T>) {
        self.items.push(value);
        if self.items.len() >= self.capacity {
            self.flush(queue);
        }
    }

    /// Spills all buffered items to `queue`.
    pub fn flush(&mut self, queue: &SlidingQueue<T>) {
        queue.append(&self.items);
        self.items.clear();
    }

    /// `true` when nothing is buffered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Copy> Default for QueueBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn windows_expose_appended_items_in_batches() {
        let mut q = SlidingQueue::new(16);
        q.push(1u32);
        q.push(2);
        assert_eq!(q.window_len(), 0, "window empty until slid");
        q.slide_window();
        assert_eq!(q.window(), &[1, 2]);
        q.push(3);
        assert_eq!(q.window(), &[1, 2], "window stable while appending");
        q.slide_window();
        assert_eq!(q.window(), &[3]);
        q.slide_window();
        assert!(q.is_window_empty());
    }

    #[test]
    fn reset_reclaims_capacity() {
        let mut q = SlidingQueue::new(2);
        q.push(1u32);
        q.push(2);
        q.reset();
        q.push(3);
        q.slide_window();
        assert_eq!(q.window(), &[3]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overflow_panics() {
        let q = SlidingQueue::new(1);
        q.push(1u32);
        q.push(2);
    }

    #[test]
    fn concurrent_buffered_appends_lose_nothing() {
        let n = 10_000usize;
        let mut q = SlidingQueue::new(n);
        let pool = ThreadPool::new(4);
        pool.run(|tid| {
            let mut buf = QueueBuffer::with_capacity(17);
            let mut i = tid;
            while i < n {
                buf.push(i as u32, &q);
                i += 4;
            }
            buf.flush(&q);
        });
        q.slide_window();
        let mut items: Vec<_> = q.window().to_vec();
        items.sort_unstable();
        let expected: Vec<u32> = (0..n as u32).collect();
        assert_eq!(items, expected);
    }

    #[test]
    fn queue_buffer_autoflushes_at_capacity() {
        let q = SlidingQueue::new(8);
        let mut buf = QueueBuffer::with_capacity(4);
        for i in 0..4u32 {
            buf.push(i, &q);
        }
        assert!(buf.is_empty(), "buffer should have spilled at capacity");
        assert_eq!(q.total_pushed(), 4);
    }
}
