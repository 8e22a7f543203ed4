//! GraphBLAS vectors with switchable storage.
//!
//! SuiteSparse internally moves vectors between a sparse list, a bitmap
//! and a full array; the paper notes the BFS converts `q` to a bitmap for
//! pull steps and to a sparse list for push steps, *with the conversion
//! time included in the run time*. [`GrbVector`] exposes the same three
//! representations and explicit conversions so the kernels can (and must)
//! pay that cost.
//!
//! The operation engine leans on three things this module provides:
//! a **cached entry count** (`nvals` is O(1), never a scan), a
//! **word-packed presence bitmap** for Bitmap storage (mask tests are one
//! `u64` probe instead of a binary search), and **slice accessors**
//! (`sparse_entries`/`full_values`/`bitmap_slots`) so hot loops iterate
//! borrowed slices instead of a `Box<dyn Iterator>`.

use crate::GrbIndex;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};

/// Storage representation of a vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Sorted `(index, value)` list — best for very sparse vectors.
    Sparse,
    /// Presence bitmap plus value slots — best for medium density and
    /// O(1) membership tests.
    Bitmap,
    /// Every entry present — best for dense data like PageRank scores.
    Full,
}

#[derive(Debug, Clone)]
enum Repr<T> {
    Sparse(Vec<(GrbIndex, T)>),
    Bitmap {
        /// Presence bits, one word per 64 indices (`words[i / 64] >> (i % 64) & 1`).
        words: Vec<u64>,
        /// Value slots; `slots[i]` is `Some` exactly when bit `i` is set.
        slots: Vec<Option<T>>,
    },
    Full(Vec<T>),
}

/// Below this logical length the pooled conversion paths run serially —
/// region launch overhead would dominate the data movement.
const CONVERT_CUTOFF: usize = 1 << 12;

/// Index block width for ordered parallel gathers (Bitmap/Full → Sparse).
const GATHER_BLOCK: usize = 1 << 12;

fn word_count(n: GrbIndex) -> usize {
    (n as usize).div_ceil(64)
}

/// Builds the presence words for a sorted unique entry list.
fn words_of_entries<T>(n: GrbIndex, entries: &[(GrbIndex, T)]) -> Vec<u64> {
    let mut words = vec![0u64; word_count(n)];
    for &(i, _) in entries {
        words[i as usize / 64] |= 1 << (i % 64);
    }
    words
}

/// A GraphBLAS vector of logical length `n` with explicit entries.
#[derive(Debug, Clone)]
pub struct GrbVector<T> {
    n: GrbIndex,
    /// Cached entry count; maintained by every mutating method.
    nvals: u64,
    repr: Repr<T>,
}

impl<T: Clone> GrbVector<T> {
    /// An empty sparse vector of length `n`.
    pub fn new(n: GrbIndex) -> Self {
        GrbVector {
            n,
            nvals: 0,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// A full vector with every entry set to `fill`.
    pub(crate) fn full(n: GrbIndex, fill: T) -> Self {
        GrbVector {
            n,
            nvals: n,
            repr: Repr::Full(vec![fill; n as usize]),
        }
    }

    /// A sparse vector from `(index, value)` entries.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or duplicated.
    pub fn from_entries(n: GrbIndex, mut entries: Vec<(GrbIndex, T)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate index {}", w[0].0);
        }
        if let Some(&(last, _)) = entries.last() {
            assert!(last < n, "index {last} out of range {n}");
        }
        GrbVector {
            n,
            nvals: entries.len() as u64,
            repr: Repr::Sparse(entries),
        }
    }

    /// A sparse vector from entries already sorted by index — the
    /// operation engine's constructor for outputs it produced in order.
    ///
    /// # Panics
    ///
    /// Panics if the last index is out of range; sortedness and
    /// uniqueness are debug-asserted.
    pub(crate) fn from_sorted_entries(n: GrbIndex, entries: Vec<(GrbIndex, T)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        if let Some(&(last, _)) = entries.last() {
            assert!(last < n, "index {last} out of range {n}");
        }
        GrbVector {
            n,
            nvals: entries.len() as u64,
            repr: Repr::Sparse(entries),
        }
    }

    /// Logical length.
    pub(crate) fn size(&self) -> GrbIndex {
        self.n
    }

    /// Number of stored entries — O(1), the count is cached.
    pub fn nvals(&self) -> u64 {
        self.nvals
    }

    /// Current storage representation.
    pub(crate) fn storage(&self) -> Storage {
        match &self.repr {
            Repr::Sparse(_) => Storage::Sparse,
            Repr::Bitmap { .. } => Storage::Bitmap,
            Repr::Full(_) => Storage::Full,
        }
    }

    /// Value at `i`, if present.
    pub fn get(&self, i: GrbIndex) -> Option<&T> {
        match &self.repr {
            Repr::Sparse(v) => v
                .binary_search_by_key(&i, |&(idx, _)| idx)
                .ok()
                .map(|pos| &v[pos].1),
            Repr::Bitmap { slots, .. } => slots[i as usize].as_ref(),
            Repr::Full(v) => Some(&v[i as usize]),
        }
    }

    /// `true` if entry `i` exists. Bitmap storage answers with one word
    /// probe.
    pub fn contains(&self, i: GrbIndex) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.binary_search_by_key(&i, |&(idx, _)| idx).is_ok(),
            Repr::Bitmap { words, .. } => words[i as usize / 64] >> (i % 64) & 1 != 0,
            Repr::Full(_) => true,
        }
    }

    /// Sets entry `i` to `value` (inserting if absent).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set(&mut self, i: GrbIndex, value: T) {
        assert!(i < self.n, "index {i} out of range {}", self.n);
        match &mut self.repr {
            Repr::Sparse(v) => {
                match v.binary_search_by_key(&i, |&(idx, _)| idx) {
                    Ok(pos) => v[pos].1 = value,
                    Err(pos) => v.insert(pos, (i, value)),
                }
                self.nvals = v.len() as u64;
            }
            Repr::Bitmap { words, slots } => {
                let (w, b) = (i as usize / 64, i % 64);
                if words[w] >> b & 1 == 0 {
                    words[w] |= 1 << b;
                    self.nvals += 1;
                }
                slots[i as usize] = Some(value);
            }
            Repr::Full(v) => v[i as usize] = value,
        }
    }

    /// Iterates `(index, value)` entries in ascending index order.
    ///
    /// Hot loops should prefer the slice accessors (`sparse_entries`,
    /// `full_values`, `bitmap_slots`) over this boxed iterator.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (GrbIndex, &T)> + '_> {
        match &self.repr {
            Repr::Sparse(v) => Box::new(v.iter().map(|(i, t)| (*i, t))),
            Repr::Bitmap { slots, .. } => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| e.as_ref().map(|t| (i as GrbIndex, t))),
            ),
            Repr::Full(v) => Box::new(v.iter().enumerate().map(|(i, t)| (i as GrbIndex, t))),
        }
    }

    /// The sorted entry slice, when in Sparse storage.
    pub(crate) fn sparse_entries(&self) -> Option<&[(GrbIndex, T)]> {
        match &self.repr {
            Repr::Sparse(v) => Some(v),
            _ => None,
        }
    }

    /// The dense value slice, when in Full storage.
    pub(crate) fn full_values(&self) -> Option<&[T]> {
        match &self.repr {
            Repr::Full(v) => Some(v),
            _ => None,
        }
    }

    /// The presence words and value slots, when in Bitmap storage.
    pub(crate) fn bitmap_slots(&self) -> Option<(&[u64], &[Option<T>])> {
        match &self.repr {
            Repr::Bitmap { words, slots } => Some((words, slots)),
            _ => None,
        }
    }

    /// Converts to the requested representation, returning the number of
    /// entries moved (a proxy for the conversion cost SuiteSparse pays).
    /// Converting to `Full` requires a `fill` for missing entries.
    pub fn convert(&mut self, to: Storage, fill: Option<T>) -> u64 {
        let moved = self.nvals;
        let n = self.n as usize;
        let old = std::mem::replace(&mut self.repr, Repr::Sparse(Vec::new()));
        self.repr = match to {
            Storage::Sparse => {
                let mut entries: Vec<(GrbIndex, T)> = Vec::new();
                collect_entries(old, &mut entries);
                self.nvals = entries.len() as u64;
                Repr::Sparse(entries)
            }
            Storage::Bitmap => {
                let mut slots: Vec<Option<T>> = vec![None; n];
                let mut entries = Vec::new();
                collect_entries(old, &mut entries);
                let words = words_of_entries(self.n, &entries);
                for (i, t) in entries {
                    slots[i as usize] = Some(t);
                }
                Repr::Bitmap { words, slots }
            }
            Storage::Full => {
                let fill = fill.expect("converting to Full requires a fill value");
                let mut values = vec![fill; n];
                let mut entries = Vec::new();
                collect_entries(old, &mut entries);
                for (i, t) in entries {
                    values[i as usize] = t;
                }
                self.nvals = self.n;
                Repr::Full(values)
            }
        };
        moved
    }

    /// Direct slice access for full vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vector is not in `Full` storage.
    pub(crate) fn as_full_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Full(v) => v,
            _ => panic!("vector is not in Full storage"),
        }
    }

    /// Mutable slice access for full vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vector is not in `Full` storage.
    pub(crate) fn as_full_slice_mut(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Full(v) => v,
            _ => panic!("vector is not in Full storage"),
        }
    }
}

impl<T: Clone + Send + Sync> GrbVector<T> {
    /// [`convert`](GrbVector::convert) with the entry movement running on
    /// `pool` above a size cutoff. Output is value-identical to the
    /// serial conversion at every pool size.
    pub(crate) fn convert_in(&mut self, to: Storage, fill: Option<T>, pool: &ThreadPool) -> u64 {
        let n = self.n as usize;
        if pool.num_threads() == 1 || n < CONVERT_CUTOFF || self.storage() == to {
            return self.convert(to, fill);
        }
        let moved = self.nvals;
        match (
            std::mem::replace(&mut self.repr, Repr::Sparse(Vec::new())),
            to,
        ) {
            // Sparse → Bitmap: the BFS pull-side conversion. Slot scatter
            // is parallel (entries are unique, so writes are disjoint);
            // the presence words are a serial O(nnz) bit pass.
            (Repr::Sparse(entries), Storage::Bitmap) => {
                let words = words_of_entries(self.n, &entries);
                let mut slots: Vec<Option<T>> = vec![None; n];
                let out = SharedSlice::new(&mut slots);
                pool.for_each_index(entries.len(), Schedule::Static, |e| {
                    let (i, t) = entries[e].clone();
                    // SAFETY: entry indices are unique, so each slot has
                    // one writer.
                    unsafe { out.write(i as usize, Some(t)) };
                });
                self.repr = Repr::Bitmap { words, slots };
            }
            // Sparse → Full: parallel scatter over the fill background.
            (Repr::Sparse(entries), Storage::Full) => {
                let fill = fill.expect("converting to Full requires a fill value");
                let mut values = vec![fill; n];
                let out = SharedSlice::new(&mut values);
                pool.for_each_index(entries.len(), Schedule::Static, |e| {
                    let (i, t) = entries[e].clone();
                    // SAFETY: entry indices are unique.
                    unsafe { out.write(i as usize, t.clone()) };
                });
                self.nvals = self.n;
                self.repr = Repr::Full(values);
            }
            // Bitmap/Full → Sparse: ordered parallel gather — fixed index
            // blocks collect independently and concatenate in block
            // order, so the entry list is sorted and identical to the
            // serial gather.
            (old @ (Repr::Bitmap { .. } | Repr::Full(_)), Storage::Sparse) => {
                let blocks = n.div_ceil(GATHER_BLOCK);
                let mut per_block: Vec<Vec<(GrbIndex, T)>> = vec![Vec::new(); blocks];
                let out = SharedSlice::new(&mut per_block);
                pool.for_each_index(blocks, Schedule::Dynamic(1), |b| {
                    let lo = b * GATHER_BLOCK;
                    let hi = (lo + GATHER_BLOCK).min(n);
                    let mut local = Vec::new();
                    match &old {
                        Repr::Bitmap { slots, .. } => {
                            for (i, e) in slots[lo..hi].iter().enumerate() {
                                if let Some(t) = e {
                                    local.push(((lo + i) as GrbIndex, t.clone()));
                                }
                            }
                        }
                        Repr::Full(v) => {
                            for (i, t) in v[lo..hi].iter().enumerate() {
                                local.push(((lo + i) as GrbIndex, t.clone()));
                            }
                        }
                        Repr::Sparse(_) => unreachable!("matched Bitmap/Full above"),
                    }
                    // SAFETY: one writer per block slot.
                    unsafe { out.write(b, local) };
                });
                let mut entries = Vec::with_capacity(moved as usize);
                for block in per_block {
                    entries.extend(block);
                }
                self.nvals = entries.len() as u64;
                self.repr = Repr::Sparse(entries);
            }
            // Remaining combinations are cold in the kernels; restore and
            // take the serial path.
            (old, _) => {
                self.repr = old;
                return self.convert(to, fill);
            }
        }
        moved
    }
}

fn collect_entries<T>(repr: Repr<T>, out: &mut Vec<(GrbIndex, T)>) {
    match repr {
        Repr::Sparse(v) => out.extend(v),
        Repr::Bitmap { slots, .. } => out.extend(
            slots
                .into_iter()
                .enumerate()
                .filter_map(|(i, e)| e.map(|t| (i as GrbIndex, t))),
        ),
        Repr::Full(v) => out.extend(v.into_iter().enumerate().map(|(i, t)| (i as GrbIndex, t))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_set_get_roundtrip() {
        let mut v: GrbVector<i32> = GrbVector::new(10);
        assert_eq!(v.nvals(), 0);
        v.set(3, 30);
        v.set(7, 70);
        v.set(3, 31); // overwrite
        assert_eq!(v.get(3), Some(&31));
        assert_eq!(v.get(4), None);
        assert_eq!(v.nvals(), 2);
    }

    #[test]
    fn conversions_preserve_entries() {
        let mut v = GrbVector::from_entries(8, vec![(1, 'a'), (5, 'b')]);
        for (to, fill) in [
            (Storage::Bitmap, None),
            (Storage::Sparse, None),
            (Storage::Full, Some('?')),
        ] {
            let moved = v.convert(to, fill);
            assert_eq!(moved, 2, "both entries move on every conversion");
            assert_eq!(v.storage(), to);
            assert_eq!(v.get(1), Some(&'a'));
            assert_eq!(v.get(5), Some(&'b'));
        }
        // Full storage fills the holes.
        assert_eq!(v.get(0), Some(&'?'));
        assert_eq!(v.nvals(), 8);
    }

    #[test]
    fn iter_is_index_ordered() {
        let v = GrbVector::from_entries(10, vec![(7, 1), (2, 2), (4, 3)]);
        let idx: Vec<GrbIndex> = v.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_entries_rejected() {
        let _ = GrbVector::from_entries(4, vec![(1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_rejected() {
        let mut v: GrbVector<u8> = GrbVector::new(2);
        v.set(2, 0);
    }

    #[test]
    fn full_slice_access() {
        let mut v = GrbVector::full(3, 1.5f64);
        v.as_full_slice_mut()[1] = 2.5;
        assert_eq!(v.as_full_slice(), &[1.5, 2.5, 1.5]);
    }

    #[test]
    fn nvals_stays_cached_through_mutation_and_conversion() {
        let mut v: GrbVector<u8> = GrbVector::new(200);
        v.convert(Storage::Bitmap, None);
        for i in 0..100 {
            v.set(i * 2, i as u8);
        }
        v.set(0, 9); // overwrite must not double-count
        assert_eq!(v.nvals(), 100);
        assert!(v.contains(0) && v.contains(198) && !v.contains(1));
        v.convert(Storage::Sparse, None);
        assert_eq!(v.nvals(), 100);
        v.convert(Storage::Full, Some(0));
        assert_eq!(v.nvals(), 200);
    }

    #[test]
    fn pooled_convert_matches_serial_convert() {
        let n: GrbIndex = 3 * CONVERT_CUTOFF as GrbIndex;
        let entries: Vec<(GrbIndex, u32)> = (0..n).step_by(3).map(|i| (i, i as u32)).collect();
        let pool = ThreadPool::new(4);
        for (to, fill) in [
            (Storage::Bitmap, None),
            (Storage::Sparse, None),
            (Storage::Full, Some(0)),
            (Storage::Sparse, None),
        ] {
            let mut serial = GrbVector::from_entries(n, entries.clone());
            let mut pooled = GrbVector::from_entries(n, entries.clone());
            // Walk both through the same conversion chain.
            serial.convert(Storage::Bitmap, None);
            pooled.convert_in(Storage::Bitmap, None, &pool);
            let a = serial.convert(to, fill);
            let b = pooled.convert_in(to, fill, &pool);
            assert_eq!(a, b, "moved counts diverge for {to:?}");
            assert_eq!(serial.nvals(), pooled.nvals());
            assert_eq!(serial.storage(), pooled.storage());
            assert!(
                serial.iter().eq(pooled.iter()),
                "entries diverge for {to:?}"
            );
        }
    }
}
