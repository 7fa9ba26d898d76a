//! `Cow`-style array backing: owned `Vec<T>` or a borrowed view into a
//! memory-mapped file.
//!
//! Every array the query path reads — CSR offsets, packed posting-block
//! payloads, per-list statistics — is stored as a [`Seg<T>`]. The owned
//! variant is what the builder produces;
//! the mapped variant points straight into an `mmap(2)`'d shard file, so
//! a warm open borrows the page cache instead of re-copying megabytes
//! into fresh allocations, and N processes mapping the same file share
//! one physical copy.
//!
//! `Seg<T>` derefs to `&[T]`, so consumers index it exactly like the
//! `Vec` it replaces. Mutation goes through [`Seg::to_mut`] (or
//! `DerefMut`), which copies a mapped segment into an owned one first —
//! the same copy-on-write contract as [`std::borrow::Cow`]. The scorer
//! never mutates, so the hot path stays zero-copy.

use std::any::Any;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An array of plain-old-data values, either owned or borrowed from a
/// reference-counted memory mapping.
pub enum Seg<T: Copy + 'static> {
    /// Heap-allocated storage (builder output).
    Owned(Vec<T>),
    /// A view into memory kept alive by `owner` (an `Arc` over the mmap).
    /// Invariant (upheld by [`Seg::from_owner`]): `ptr` is aligned for
    /// `T`, valid for `len` elements, and outlives every clone of
    /// `owner`.
    Mapped {
        /// Keeps the mapping alive; dropping the last clone unmaps.
        owner: Arc<dyn Any + Send + Sync>,
        /// First element (aligned, non-null even when `len == 0`).
        ptr: *const T,
        /// Element count.
        len: usize,
    },
}

// SAFETY: a mapped segment is an immutable view of read-only memory whose
// lifetime is pinned by the `Arc` owner; `T` is plain old data (`Copy`),
// so sharing the view across threads is sound.
unsafe impl<T: Copy + Send + Sync> Send for Seg<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for Seg<T> {}

impl<T: Copy> Seg<T> {
    /// Wraps a raw view whose memory is owned by `owner`.
    ///
    /// # Safety
    /// `ptr` must be aligned for `T` and valid for reads of `len`
    /// elements for as long as any clone of `owner` is alive, and the
    /// memory must never be mutated while mapped.
    pub unsafe fn from_owner(owner: Arc<dyn Any + Send + Sync>, ptr: *const T, len: usize) -> Self {
        debug_assert!(ptr.align_offset(std::mem::align_of::<T>()) == 0);
        Seg::Mapped { owner, ptr, len }
    }

    /// The segment as a slice — the only accessor the query path uses.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Seg::Owned(v) => v.as_slice(),
            // SAFETY: the `from_owner` contract guarantees `ptr`/`len`
            // describe live, aligned, immutable memory.
            Seg::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Copy-on-write mutable access: a mapped segment is first copied
    /// into an owned `Vec` (the mapping itself is never written).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Seg::Mapped { .. } = self {
            *self = Seg::Owned(self.as_slice().to_vec());
        }
        match self {
            Seg::Owned(v) => v,
            Seg::Mapped { .. } => unreachable!("mapped segment was just converted to owned"),
        }
    }

    /// Extracts an owned `Vec`, copying when mapped.
    pub fn into_vec(self) -> Vec<T> {
        match self {
            Seg::Owned(v) => v,
            Seg::Mapped { .. } => self.as_slice().to_vec(),
        }
    }

    /// Whether this segment borrows from a mapping (no heap copy).
    pub fn is_mapped(&self) -> bool {
        matches!(self, Seg::Mapped { .. })
    }
}

impl<T: Copy> Deref for Seg<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for Seg<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.to_mut().as_mut_slice()
    }
}

impl<T: Copy> Default for Seg<T> {
    fn default() -> Self {
        Seg::Owned(Vec::new())
    }
}

impl<T: Copy> From<Vec<T>> for Seg<T> {
    fn from(v: Vec<T>) -> Self {
        Seg::Owned(v)
    }
}

impl<T: Copy> Clone for Seg<T> {
    fn clone(&self) -> Self {
        match self {
            Seg::Owned(v) => Seg::Owned(v.clone()),
            Seg::Mapped { owner, ptr, len } => {
                Seg::Mapped { owner: Arc::clone(owner), ptr: *ptr, len: *len }
            }
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for Seg<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq> PartialEq<Vec<T>> for Seg<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Seg<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_mapped() {
            write!(f, "Mapped")?;
        }
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped_from(backing: Arc<Vec<u32>>) -> Seg<u32> {
        let ptr = backing.as_ptr();
        let len = backing.len();
        // SAFETY: the Arc keeps the Vec's buffer alive and unmoved.
        unsafe { Seg::from_owner(backing, ptr, len) }
    }

    #[test]
    fn owned_and_mapped_read_identically() {
        let data = vec![3u32, 1, 4, 1, 5];
        let owned: Seg<u32> = data.clone().into();
        let mapped = mapped_from(Arc::new(data.clone()));
        assert!(mapped.is_mapped() && !owned.is_mapped());
        assert_eq!(&owned[..], &data[..]);
        assert_eq!(&mapped[..], &data[..]);
        assert_eq!(owned, mapped);
        assert_eq!(mapped.clone(), mapped);
    }

    #[test]
    fn to_mut_copies_mapped_on_write() {
        let backing = Arc::new(vec![7u32, 8, 9]);
        let mut seg = mapped_from(Arc::clone(&backing));
        seg[1] = 80;
        assert!(!seg.is_mapped(), "write must detach from the mapping");
        assert_eq!(&seg[..], &[7, 80, 9]);
        assert_eq!(&backing[..], &[7, 8, 9], "the mapping is never written");
    }

    #[test]
    fn empty_default_and_into_vec() {
        let seg: Seg<u64> = Seg::default();
        assert!(seg.is_empty() && !seg.is_mapped());
        let backing = Arc::new(vec![1u64, 2]);
        let seg = mapped_from_u64(Arc::clone(&backing));
        assert_eq!(seg.into_vec(), vec![1, 2]);
    }

    fn mapped_from_u64(backing: Arc<Vec<u64>>) -> Seg<u64> {
        let ptr = backing.as_ptr();
        let len = backing.len();
        unsafe { Seg::from_owner(backing, ptr, len) }
    }
}
