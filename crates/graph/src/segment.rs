//! Backing storage for CSR arrays: owned vectors, or borrowed views
//! into a reference-counted region (an mmap'ed snapshot file, or a
//! decoded buffer shared between the weighted and unweighted forms of
//! one graph).
//!
//! Every accessor on [`crate::CsrGraph`] returns plain slices, so the
//! kernels never see the distinction; the point of [`Segment`] is that
//! a snapshot load can hand the adjacency arrays straight out of the
//! page cache without copying them, while the builder keeps producing
//! ordinary `Vec`s.

use std::sync::Arc;

/// Marker for plain-old-data element types that may back a [`Segment`]
/// and be reinterpreted from raw snapshot bytes: fixed layout, no
/// padding, no drop glue, any bit pattern valid.
///
/// # Safety
///
/// Implementors must be `repr`-stable primitives with the above
/// properties.
pub(crate) unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}

/// Reinterprets a typed slice as its underlying bytes.
pub(crate) fn as_bytes<T: Pod>(slice: &[T]) -> &[u8] {
    // Safety: T is Pod (no padding, fixed layout); the byte length
    // cannot overflow because the slice exists.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice)) }
}

/// A read-only byte region: an `mmap`'ed file on 64-bit unix targets,
/// or a heap buffer elsewhere (and whenever `mmap` fails). The heap
/// fallback is allocated 8-byte-aligned so typed views are valid either
/// way; file sections are 64-byte-aligned on top of that.
pub(crate) struct MapRegion {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap {
        raw: *mut core::ffi::c_void,
    },
    Heap(#[allow(dead_code)] Vec<u64>),
}

// Safety: the region is read-only for its whole lifetime; the pointer
// refers to memory owned by `backing` (the mapping or the heap buffer).
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! Minimal raw `mmap` bindings. The workspace carries no external
    //! crates, so the two syscalls the snapshot loader needs are
    //! declared directly against the platform libc that every unix
    //! Rust target already links.
    use core::ffi::c_void;

    pub(crate) const PROT_READ: i32 = 1;
    pub(crate) const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MapRegion {
    /// Opens `path` read-only: `mmap` where available, a full read into
    /// an aligned heap buffer otherwise. `force_heap` takes the heap path
    /// even where `mmap` exists; non-unix targets always take it.
    pub(crate) fn open_with(
        path: &std::path::Path,
        force_heap: bool,
    ) -> std::io::Result<MapRegion> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file exceeds addressable memory",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Self::heap(Vec::new(), 0));
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let _ = force_heap;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if !force_heap {
            use std::os::unix::io::AsRawFd;
            let raw = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if raw as isize != -1 {
                return Ok(MapRegion {
                    ptr: raw as *const u8,
                    len,
                    backing: Backing::Mmap { raw },
                });
            }
        }
        Self::read_heap(file, len)
    }

    /// Reads the whole file into an 8-byte-aligned heap buffer.
    fn read_heap(mut file: std::fs::File, len: usize) -> std::io::Result<MapRegion> {
        use std::io::Read;
        let mut words = vec![0u64; len.div_ceil(8)];
        // Safety: the u64 buffer covers at least `len` bytes and u64 has
        // no invalid bit patterns.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        Ok(Self::heap(words, len))
    }

    fn heap(words: Vec<u64>, len: usize) -> MapRegion {
        MapRegion {
            ptr: words.as_ptr() as *const u8,
            len,
            backing: Backing::Heap(words),
        }
    }

    /// The mapped bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // Safety: ptr/len describe the live mapping or heap buffer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Region length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when the region is a real memory mapping (as opposed to
    /// the heap fallback).
    pub(crate) fn is_mmap(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mmap { .. } => true,
            Backing::Heap(_) => false,
        }
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mmap { raw } = self.backing {
            // Safety: raw/len came from a successful mmap and are
            // unmapped exactly once.
            unsafe { sys::munmap(raw, self.len) };
        }
    }
}

impl std::fmt::Debug for MapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapRegion")
            .field("len", &self.len)
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// A read-only typed array that is either owned (builder output) or a
/// view into a shared region (snapshot load, shared decode buffer).
/// Dereferences to `&[T]`; equality, ordering and hashing follow the
/// slice contents regardless of backing.
pub(crate) struct Segment<T: Pod> {
    repr: Repr<T>,
}

enum Repr<T: Pod> {
    Owned(Vec<T>),
    View {
        ptr: *const T,
        len: usize,
        /// Keeps the backing storage (a [`MapRegion`] or a shared
        /// `Vec`) alive for as long as this view exists.
        _owner: Arc<dyn std::any::Any + Send + Sync>,
    },
}

// Safety: views are immutable and their owner is Send + Sync.
unsafe impl<T: Pod> Send for Segment<T> {}
unsafe impl<T: Pod> Sync for Segment<T> {}

impl<T: Pod> Segment<T> {
    /// Wraps an owned vector.
    pub(crate) fn from_vec(v: Vec<T>) -> Segment<T> {
        Segment {
            repr: Repr::Owned(v),
        }
    }

    /// A cheap view of a shared vector (used to share one decoded
    /// target array between a graph and its weighted companion).
    pub(crate) fn from_shared_vec(v: Arc<Vec<T>>) -> Segment<T> {
        let ptr = v.as_ptr();
        let len = v.len();
        Segment {
            repr: Repr::View {
                ptr,
                len,
                _owner: v,
            },
        }
    }

    /// A zero-copy view of `len` elements at `byte_offset` inside
    /// `region`. Returns `None` if the range is out of bounds or
    /// misaligned for `T`.
    pub(crate) fn from_region(
        region: &Arc<MapRegion>,
        byte_offset: usize,
        len: usize,
    ) -> Option<Segment<T>> {
        let elem = std::mem::size_of::<T>();
        let byte_len = len.checked_mul(elem)?;
        let end = byte_offset.checked_add(byte_len)?;
        if end > region.len() {
            return None;
        }
        let ptr = unsafe { region.ptr.add(byte_offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Segment {
            repr: Repr::View {
                ptr: ptr as *const T,
                len,
                _owner: Arc::clone(region) as Arc<dyn std::any::Any + Send + Sync>,
            },
        })
    }

    /// The elements as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::View { ptr, len, .. } => {
                if *len == 0 {
                    &[]
                } else {
                    // Safety: ptr/len were bounds- and alignment-checked
                    // at construction and the owner is kept alive.
                    unsafe { std::slice::from_raw_parts(*ptr, *len) }
                }
            }
        }
    }

    /// `true` when this segment borrows shared storage rather than
    /// owning its elements.
    #[cfg(test)]
    pub(crate) fn is_view(&self) -> bool {
        matches!(self.repr, Repr::View { .. })
    }
}

impl<T: Pod> std::ops::Deref for Segment<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Segment<T> {
    fn from(v: Vec<T>) -> Segment<T> {
        Segment::from_vec(v)
    }
}

impl<T: Pod> Default for Segment<T> {
    fn default() -> Self {
        Segment::from_vec(Vec::new())
    }
}

impl<T: Pod> Clone for Segment<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            // Owned data is deep-copied (the pre-segment semantics);
            // views clone the pointer and bump the owner refcount.
            Repr::Owned(v) => Segment::from_vec(v.clone()),
            Repr::View { ptr, len, _owner } => Segment {
                repr: Repr::View {
                    ptr: *ptr,
                    len: *len,
                    _owner: Arc::clone(_owner),
                },
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Segment<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Pod + PartialEq> PartialEq for Segment<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Segment<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_segment_behaves_like_its_vec() {
        let s = Segment::from_vec(vec![1u32, 2, 3]);
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_view());
        let c = s.clone();
        assert_eq!(s, c);
    }

    #[test]
    fn shared_vec_views_alias_without_copying() {
        let v = Arc::new(vec![7u32, 8, 9]);
        let a = Segment::from_shared_vec(Arc::clone(&v));
        let b = a.clone();
        assert!(a.is_view() && b.is_view());
        assert_eq!(a.as_ptr(), b.as_ptr(), "clones alias the same storage");
        assert_eq!(&b[..], &[7, 8, 9]);
    }

    #[test]
    fn map_region_round_trips_file_bytes() {
        let dir = std::env::temp_dir().join(format!("gapbs-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096 + 13).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();

        let region = Arc::new(MapRegion::open_with(&path, false).unwrap());
        assert_eq!(region.as_bytes(), &payload[..]);

        // A typed view over the first 1024 u32 words matches a CPU-side
        // reinterpretation of the same bytes.
        let seg: Segment<u32> = Segment::from_region(&region, 0, 1024).unwrap();
        let expect: Vec<u32> = payload[..4096]
            .chunks_exact(4)
            .map(|c| u32::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(&seg[..], &expect[..]);

        // Out-of-bounds and misaligned views are refused.
        assert!(Segment::<u32>::from_region(&region, 0, region.len()).is_none());
        assert!(Segment::<u32>::from_region(&region, 1, 4).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_matches_mmap() {
        let dir = std::env::temp_dir().join(format!("gapbs-seg-fb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let payload: Vec<u8> = (0..999u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let mapped = MapRegion::open_with(&path, false).unwrap();
        let heaped = MapRegion::open_with(&path, true).unwrap();
        assert!(!heaped.is_mmap());
        assert_eq!(mapped.as_bytes(), heaped.as_bytes());
        std::fs::remove_file(&path).ok();
    }
}
