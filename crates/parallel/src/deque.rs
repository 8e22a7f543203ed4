//! Per-worker chunked index deques with range stealing.
//!
//! `Dynamic`/`Guided` loop scheduling used to serialize every chunk
//! claim through one shared atomic counter; on skewed power-law loops
//! that line is the hottest in the region. Here the index space
//! `0..n` is pre-split into one contiguous range per worker, each held
//! in a single packed atomic word. The owner claims chunks off the low
//! end of its own range — an uncontended CAS in the common case — and a
//! worker that drains its range steals the *high half* of a victim's
//! remainder, installing the stolen range as its new local one.
//!
//! Exactly-once delivery is structural: every index lives in exactly
//! one range word at a time, a successful claim CAS removes `[lo,
//! lo+chunk)` from the word atomically, and consumed indices can never
//! re-enter any word (ranges only shrink or move). That also rules out
//! ABA on the steal CAS — reassembling a previously observed `(lo, hi)`
//! bit pattern would require already-claimed indices to reappear.
//!
//! Ranges pack as two `u32` halves of one `AtomicU64`, so this
//! structure covers loops up to `u32::MAX` indices; the pool falls back
//! to a shared counter beyond that (no graph in the reproduction comes
//! within 8 bits of the limit).

use std::sync::atomic::{AtomicU64, Ordering};

/// Largest `n` the packed representation covers.
pub(crate) const MAX_INDEX: usize = u32::MAX as usize;

/// How a worker sizes the chunk it claims from its local range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkPolicy {
    /// Claim exactly `min(size, remaining)` indices (OpenMP `dynamic`).
    Fixed(usize),
    /// Claim half the local remainder, at least one index — chunks
    /// shrink geometrically toward the loop tail (OpenMP `guided`).
    Half,
}

impl ChunkPolicy {
    /// Chunk to claim from a range with `remaining` indices left.
    ///
    /// The size is computed *inside* the claiming CAS loop from the
    /// freshly loaded remainder, so two racing claimants can never size
    /// their chunks from the same stale "remaining" (the bug the old
    /// shared-counter `Guided` had), and a claim costs one atomic.
    #[inline]
    fn chunk(self, remaining: usize) -> usize {
        match self {
            ChunkPolicy::Fixed(size) => size.clamp(1, remaining),
            ChunkPolicy::Half => (remaining / 2).max(1),
        }
    }
}

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// One range word per worker, padded so owners' claims never share a
/// cache line.
#[repr(align(128))]
#[derive(Debug)]
struct Slot(AtomicU64);

/// The per-worker loop ranges of one parallel region.
#[derive(Debug)]
pub(crate) struct RangeDeques {
    slots: Vec<Slot>,
}

impl RangeDeques {
    /// Splits `0..n` into `workers` near-equal contiguous ranges.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_INDEX` or `workers == 0`.
    pub(crate) fn split(n: usize, workers: usize) -> Self {
        assert!(
            n <= MAX_INDEX,
            "loop of {n} indices exceeds the packed range"
        );
        assert!(workers > 0, "need at least one worker");
        let per = n.div_ceil(workers);
        let slots = (0..workers)
            .map(|w| {
                let lo = (w * per).min(n);
                let hi = ((w + 1) * per).min(n);
                Slot(AtomicU64::new(pack(lo as u32, hi as u32)))
            })
            .collect();
        RangeDeques { slots }
    }

    /// Claims the next chunk from `worker`'s own range: `Some((lo, hi))`
    /// to execute, or `None` when the local range is empty.
    pub(crate) fn claim(&self, worker: usize, policy: ChunkPolicy) -> Option<(usize, usize)> {
        let slot = &self.slots[worker].0;
        let mut word = slot.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(word);
            let remaining = (hi - lo) as usize;
            if remaining == 0 {
                return None;
            }
            let chunk = policy.chunk(remaining) as u32;
            match slot.compare_exchange_weak(
                word,
                pack(lo + chunk, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo as usize, (lo + chunk) as usize)),
                Err(actual) => word = actual, // a thief moved our high end
            }
        }
    }

    /// Tries to steal the high half of some victim's remainder and
    /// install it as `thief`'s new local range. Returns `true` on
    /// success (the thief's slot is non-empty again); `false` when every
    /// victim looked empty. Each successful steal adds one to `steals`.
    ///
    /// Must only be called when `thief`'s own slot is empty — installing
    /// uses a plain store, which is sound because an empty slot is never
    /// CASed by other workers (they skip empty victims).
    pub(crate) fn steal(&self, thief: usize, steals: &mut u64) -> bool {
        let workers = self.slots.len();
        for offset in 1..workers {
            let victim = (thief + offset) % workers;
            let slot = &self.slots[victim].0;
            let mut word = slot.load(Ordering::Acquire);
            loop {
                let (lo, hi) = unpack(word);
                let remaining = hi - lo;
                if remaining == 0 {
                    break; // next victim
                }
                let take = remaining.div_ceil(2);
                let mid = hi - take;
                match slot.compare_exchange_weak(
                    word,
                    pack(lo, mid),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.slots[thief].0.store(pack(mid, hi), Ordering::Release);
                        *steals += 1;
                        return true;
                    }
                    Err(actual) => word = actual, // contended victim: re-read
                }
            }
        }
        false
    }

    /// Whether every slot is empty *at observation time*. A range being
    /// moved by an in-flight steal is invisible here, so `true` means
    /// "nothing left to grab", not "all indices executed" — the thief
    /// holding the moving range still runs it before the region barrier.
    #[cfg(test)]
    pub(crate) fn looks_drained(&self) -> bool {
        self.slots.iter().all(|s| {
            let (lo, hi) = unpack(s.0.load(Ordering::Acquire));
            lo >= hi
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn split_covers_the_range_disjointly() {
        for (n, workers) in [(10, 3), (3, 8), (0, 4), (100, 1), (7, 7)] {
            let deques = RangeDeques::split(n, workers);
            let mut seen = vec![false; n];
            for w in 0..workers {
                while let Some((lo, hi)) = deques.claim(w, ChunkPolicy::Fixed(1)) {
                    for (i, s) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                        assert!(!*s, "index {i} delivered twice (n={n} w={workers})");
                        *s = true;
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "n={n} workers={workers} missed indices"
            );
        }
    }

    #[test]
    fn fixed_policy_claims_bounded_chunks() {
        let deques = RangeDeques::split(100, 1);
        let (lo, hi) = deques.claim(0, ChunkPolicy::Fixed(16)).unwrap();
        assert_eq!((lo, hi), (0, 16));
        let (lo, hi) = deques.claim(0, ChunkPolicy::Fixed(1000)).unwrap();
        assert_eq!((lo, hi), (16, 100), "chunk clamps to the remainder");
    }

    #[test]
    fn half_policy_shrinks_geometrically() {
        let deques = RangeDeques::split(64, 1);
        let mut sizes = Vec::new();
        while let Some((lo, hi)) = deques.claim(0, ChunkPolicy::Half) {
            sizes.push(hi - lo);
        }
        assert_eq!(sizes[0], 32);
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 64);
    }

    #[test]
    fn steal_takes_the_high_half() {
        let deques = RangeDeques::split(80, 2);
        // Drain worker 1's own range, then steal from worker 0.
        while deques.claim(1, ChunkPolicy::Fixed(40)).is_some() {}
        let mut steals = 0;
        assert!(deques.steal(1, &mut steals));
        assert_eq!(steals, 1);
        // Worker 1 now owns [20, 40); worker 0 keeps [0, 20).
        assert_eq!(deques.claim(1, ChunkPolicy::Fixed(64)), Some((20, 40)));
        assert_eq!(deques.claim(0, ChunkPolicy::Fixed(64)), Some((0, 20)));
        assert!(deques.looks_drained());
        assert!(!deques.steal(1, &mut steals), "nothing left to steal");
    }

    #[test]
    fn contended_claims_deliver_exactly_once() {
        let n = 100_000;
        let threads = 8;
        for policy in [ChunkPolicy::Fixed(7), ChunkPolicy::Half] {
            let deques = RangeDeques::split(n, threads);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..threads {
                    let deques = &deques;
                    let hits = &hits;
                    s.spawn(move || {
                        let mut steals = 0;
                        loop {
                            while let Some((lo, hi)) = deques.claim(w, policy) {
                                for h in hits.iter().take(hi).skip(lo) {
                                    h.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            if !deques.steal(w, &mut steals) {
                                break;
                            }
                        }
                    });
                }
            });
            let bad: Vec<usize> = (0..n)
                .filter(|&i| hits[i].load(Ordering::Relaxed) != 1)
                .collect();
            assert!(
                bad.is_empty(),
                "{policy:?}: bad indices {:?}",
                &bad[..bad.len().min(8)]
            );
        }
    }
}
