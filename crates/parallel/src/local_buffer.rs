//! GKC-style thread-local output buffers.
//!
//! GKC sizes per-thread buffers to the L1/L2 cache and flushes them to the
//! shared output explicitly, so threads never write-share output lines
//! (§III-E1/E2). [`LocalBuffer`] reproduces the pattern generically: local
//! pushes, explicit flush through a caller-supplied sink.

/// A fixed-capacity thread-local buffer that spills through a sink closure.
#[derive(Debug)]
pub struct LocalBuffer<T> {
    items: Vec<T>,
    capacity: usize,
}

impl<T> LocalBuffer<T> {
    /// GKC sizes buffers to fit L1; 4 KiB of `u32`s is the analogue here.
    pub(crate) const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a buffer with the default cache-sized capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a buffer with a specific capacity.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        LocalBuffer {
            items: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Buffers `value`; when full, drains through `sink` first.
    pub fn push<S>(&mut self, value: T, sink: &mut S)
    where
        S: FnMut(&mut Vec<T>),
    {
        if self.items.len() >= self.capacity {
            self.flush(sink);
        }
        self.items.push(value);
    }

    /// Drains every buffered item through `sink`.
    pub fn flush<S>(&mut self, sink: &mut S)
    where
        S: FnMut(&mut Vec<T>),
    {
        if !self.items.is_empty() {
            gapbs_telemetry::record(
                gapbs_telemetry::Counter::FrontierPushes,
                self.items.len() as u64,
            );
            sink(&mut self.items);
            self.items.clear();
        }
    }

    /// `true` when nothing is buffered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> Default for LocalBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_at_capacity_before_push() {
        use std::cell::RefCell;
        let flushed = RefCell::new(Vec::new());
        let mut buf = LocalBuffer::with_capacity(2);
        let mut sink = |items: &mut Vec<u32>| flushed.borrow_mut().extend(items.iter().copied());
        buf.push(1, &mut sink);
        buf.push(2, &mut sink);
        assert!(flushed.borrow().is_empty());
        buf.push(3, &mut sink); // triggers spill of {1,2}
        assert_eq!(*flushed.borrow(), vec![1, 2]);
        buf.flush(&mut sink);
        assert_eq!(*flushed.borrow(), vec![1, 2, 3]);
        assert!(buf.is_empty());
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let mut calls = 0;
        let mut buf: LocalBuffer<u8> = LocalBuffer::new();
        buf.flush(&mut |_| calls += 1);
        assert_eq!(calls, 0);
    }
}
