//! Dense atomic bitmaps, the visited-set / frontier representation most
//! frameworks in the paper use ("a dense bitvector", §III-B).

use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = 64;

/// A fixed-size bitmap with atomic set operations, safe to share across
/// threads during a traversal.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates an all-zero bitmap over `len` bits.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(BITS)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitmap { words, len }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        let word = self.words[i / BITS].load(Ordering::Relaxed);
        word & (1u64 << (i % BITS)) != 0
    }

    /// Sets bit `i` (idempotent).
    pub fn set(&self, i: usize) {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.words[i / BITS].fetch_or(1u64 << (i % BITS), Ordering::Relaxed);
    }

    /// Atomically sets bit `i`, returning `true` iff this call was the one
    /// that flipped it from 0 to 1 — the "claim" primitive BFS uses to make
    /// exactly one thread the parent-writer of a vertex.
    pub fn set_if_unset(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        let mask = 1u64 << (i % BITS);
        let prev = self.words[i / BITS].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Clears every bit.
    pub fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of backing 64-bit words.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Relaxed load of backing word `wi` (bits `wi*64 .. wi*64+64`).
    ///
    /// # Panics
    ///
    /// Panics if `wi >= num_words()`.
    pub fn load_word(&self, wi: usize) -> u64 {
        self.words[wi].load(Ordering::Relaxed)
    }

    /// Relaxed store of backing word `wi` — the bulk counterpart of
    /// [`AtomicBitmap::set`] for word-parallel clears and copies.
    ///
    /// # Panics
    ///
    /// Panics if `wi >= num_words()`.
    pub fn store_word(&self, wi: usize, value: u64) {
        self.words[wi].store(value, Ordering::Relaxed);
    }

    /// Copies the contents of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&self, other: &AtomicBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (dst, src) in self.words.iter().zip(&other.words) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * BITS + tz)
                }
            })
        })
    }
}

impl Clone for AtomicBitmap {
    fn clone(&self) -> Self {
        let words = self
            .words
            .iter()
            .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
            .collect();
        AtomicBitmap {
            words,
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let bm = AtomicBitmap::new(200);
        for i in [0, 63, 64, 65, 127, 128, 199] {
            assert!(!bm.get(i));
            bm.set(i);
            assert!(bm.get(i));
        }
        assert_eq!(bm.count_ones(), 7);
    }

    #[test]
    fn set_if_unset_claims_exactly_once() {
        let bm = AtomicBitmap::new(10);
        assert!(bm.set_if_unset(3));
        assert!(!bm.set_if_unset(3));
        assert!(bm.get(3));
    }

    #[test]
    fn concurrent_claims_are_exclusive() {
        use crate::pool::ThreadPool;
        use std::sync::atomic::AtomicUsize;
        let bm = AtomicBitmap::new(1000);
        let claims = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        pool.run(|_| {
            for i in 0..1000 {
                if bm.set_if_unset(i) {
                    claims.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(claims.into_inner(), 1000);
    }

    #[test]
    fn iter_ones_ascends() {
        let bm = AtomicBitmap::new(130);
        for i in [5, 64, 129] {
            bm.set(i);
        }
        let ones: Vec<_> = bm.iter_ones().collect();
        assert_eq!(ones, vec![5, 64, 129]);
    }

    #[test]
    fn clear_resets_all() {
        let bm = AtomicBitmap::new(70);
        bm.set(69);
        bm.clear();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        AtomicBitmap::new(8).get(8);
    }
}
