//! Owned-or-mapped storage: the [`SharedSlice`] backing the columns of
//! the [`SeqStore`](crate::SeqStore).
//!
//! A [`SharedSlice<T>`] is either a plain owned `Vec<T>` (the result of
//! building a database in memory) or a borrowed window into a reference-
//! counted snapshot image (the result of [`snapshot`](crate::snapshot)
//! loading — typically an `mmap`ed file). Reads go through `Deref<Target =
//! [T]>` either way, so the mining stack is oblivious to where the bytes
//! live: a store reconstructed from a snapshot hands out the **same**
//! `&[u32]` / `&[EventId]` slices as one built from text, with zero copies.
//!
//! Mutation ([`SharedSlice::to_mut`]) is copy-on-write: a mapped slice is
//! materialized into an owned `Vec` first. Builders always start owned, so
//! in practice the copy only happens if someone appends to a database that
//! was opened from a snapshot.

// The mapped variant stores a raw pointer into memory owned by the
// reference-counted image; this is the one place (besides `snapshot`)
// where seqdb needs `unsafe`. Safety arguments are local and documented.
#![allow(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::catalog::EventId;

/// A contiguous run of `T`s that is either owned (a `Vec<T>`) or a
/// zero-copy window into a shared, immutable allocation (a snapshot image).
///
/// Cloning is cheap for mapped slices (one `Arc` bump) and a deep copy for
/// owned ones. Equality compares contents, so two stores are equal exactly
/// when they hold the same data, regardless of where the bytes live.
pub struct SharedSlice<T: Copy + 'static> {
    inner: Inner<T>,
}

enum Inner<T: Copy> {
    /// Heap-owned storage, the product of in-memory building.
    Owned(Vec<T>),
    /// A window into an immutable allocation kept alive by `_owner`
    /// (in practice an `Arc<SnapshotImage>`). Invariants upheld by the
    /// constructor: `ptr` is aligned for `T`, valid for `len` elements,
    /// and the memory is never written for the owner's whole lifetime.
    Mapped {
        _owner: Arc<dyn Any + Send + Sync>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: the mapped variant points into memory that is immutable and kept
// alive by the `Arc` owner, so sharing it across threads is no different
// from sharing an `Arc<[T]>`. `T: Send + Sync` carries over from the data.
unsafe impl<T: Copy + Send + Sync> Send for SharedSlice<T> {}
// SAFETY: same argument as `Send` above — shared access to immutable memory.
unsafe impl<T: Copy + Send + Sync> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    /// Wraps a window into `owner`'s allocation without copying.
    ///
    /// # Safety
    ///
    /// `ptr` must be aligned for `T` and valid for reads of `len` elements
    /// for as long as `owner` is alive, and the pointed-to memory must never
    /// be mutated. The snapshot loader is the only caller; it validates
    /// bounds and alignment against the image header before constructing.
    pub(crate) unsafe fn from_raw_parts(
        owner: Arc<dyn Any + Send + Sync>,
        ptr: *const T,
        len: usize,
    ) -> Self {
        Self {
            inner: Inner::Mapped {
                _owner: owner,
                ptr,
                len,
            },
        }
    }

    /// Returns `true` when this slice borrows a snapshot image rather than
    /// owning its storage.
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// Mutable access to the underlying `Vec`, materializing a mapped slice
    /// into owned storage first (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if self.is_mapped() {
            self.inner = Inner::Owned(self.as_slice().to_vec());
        }
        match &mut self.inner {
            Inner::Owned(vec) => vec,
            Inner::Mapped { .. } => unreachable!("mapped slice was just materialized"),
        }
    }

    /// The elements as a plain slice (same as `Deref`).
    pub fn as_slice(&self) -> &[T] {
        self
    }
}

impl<T: Copy> Deref for SharedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(vec) => vec,
            // SAFETY: constructor invariants — aligned, in-bounds, immutable,
            // kept alive by `_owner` which this value holds.
            Inner::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: Copy> Default for SharedSlice<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<T: Copy> From<Vec<T>> for SharedSlice<T> {
    fn from(vec: Vec<T>) -> Self {
        Self {
            inner: Inner::Owned(vec),
        }
    }
}

impl<T: Copy> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(vec) => Self {
                inner: Inner::Owned(vec.clone()),
            },
            Inner::Mapped { _owner, ptr, len } => Self {
                inner: Inner::Mapped {
                    _owner: Arc::clone(_owner),
                    ptr: *ptr,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq> Eq for SharedSlice<T> {}

impl<T: Copy + fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSlice")
            .field("mapped", &self.is_mapped())
            .field("data", &self.as_slice())
            .finish()
    }
}

impl<T: Copy> FromIterator<T> for SharedSlice<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

/// Reinterprets a slice of [`EventId`]s as their raw `u32` values.
///
/// Sound because `EventId` is a `#[repr(transparent)]` newtype over `u32`.
/// Used by the snapshot writer so the event arena serializes as one plain
/// `u32` section.
pub(crate) fn event_ids_as_u32s(ids: &[EventId]) -> &[u32] {
    // SAFETY: EventId is repr(transparent) over u32, so layout, size, and
    // alignment are identical and every bit pattern is valid for both.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u32>(), ids.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip_and_equality() {
        let a: SharedSlice<u32> = vec![1, 2, 3].into();
        let b: SharedSlice<u32> = vec![1, 2, 3].into();
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert!(!a.is_mapped());
        assert_eq!(a.clone(), a);
    }

    #[test]
    fn mapped_slice_reads_through_owner_and_copies_on_write() {
        let backing: Arc<Vec<u32>> = Arc::new(vec![7, 8, 9]);
        let owner: Arc<dyn Any + Send + Sync> = backing.clone();
        // SAFETY: `owner` keeps `backing` alive for the slice's lifetime and
        // the Vec's buffer is aligned, initialized, and never written again.
        let mut shared =
            unsafe { SharedSlice::from_raw_parts(owner, backing.as_ptr(), backing.len()) };
        assert!(shared.is_mapped());
        assert_eq!(&shared[..], &[7, 8, 9]);
        let cloned = shared.clone();
        assert!(cloned.is_mapped());
        shared.to_mut().push(10);
        assert!(!shared.is_mapped());
        assert_eq!(&shared[..], &[7, 8, 9, 10]);
        assert_eq!(&cloned[..], &[7, 8, 9]);
    }

    #[test]
    fn event_id_cast_preserves_values() {
        let ids = [EventId(0), EventId(42), EventId(u32::MAX)];
        assert_eq!(event_ids_as_u32s(&ids), &[0, 42, u32::MAX]);
    }
}
