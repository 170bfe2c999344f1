//! Hand-rolled SmallVec-style storage for short lists.
//!
//! The router hot path builds many tiny lists per event — the peers on a
//! flapped link, the prefixes one UPDATE touched, the prefixes withdrawn in
//! one flush round — every route carries one (the leading AS_SEQUENCE of
//! its AS_PATH), and so does every message: the prefix lists of an UPDATE
//! and the wire bytes of its envelope. Almost all of them hold a handful of
//! elements, so a heap `Vec` pays an allocation for nothing. An
//! [`InlineVec<T, N>`] keeps up to `N` elements in a plain array inside
//! itself and moves to one heap vector only when a list actually grows past
//! that — the common case allocates zero bytes. Either way the elements are
//! one contiguous slice.
//!
//! `T: Copy + Default` keeps the implementation `unsafe`-free (the inline
//! slots are pre-initialized with `T::default()`); the lists this is for
//! carry `Prefix`, `Asn`, peer indices and bytes, all trivially copyable.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector that stores up to `N` elements inline and moves all of them to
/// the heap beyond that. `N` is at most 255.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, slots: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::from_slice(&[])
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Empty list, nothing allocated.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Empty list with room for `n` elements: allocated (exactly once, if
    /// it does not grow past `n`) only when `n` exceeds `N`.
    pub fn with_capacity(n: usize) -> Self {
        if n <= N {
            Self::default()
        } else {
            InlineVec(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// A copy of `elems`: inline when they fit, otherwise one heap vector
    /// of exactly their length.
    pub(crate) fn from_slice(elems: &[T]) -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is one byte") };
        if elems.len() <= N {
            let mut slots = [T::default(); N];
            slots[..elems.len()].copy_from_slice(elems);
            InlineVec(Repr::Inline {
                len: elems.len() as u8,
                slots,
            })
        } else {
            InlineVec(Repr::Heap(elems.to_vec()))
        }
    }

    /// The elements in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// True when the elements live on the heap.
    // detlint: allow test-oracle read-only view the allocation tests check
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Append an element; allocation-free until the list exceeds `N`.
    pub(crate) fn push(&mut self, v: T) {
        self.insert(self.len(), v);
    }

    /// Insert an element at `index`, shifting everything after it.
    ///
    /// # Panics
    /// When `index > len`.
    pub(crate) fn insert(&mut self, index: usize, v: T) {
        match &mut self.0 {
            Repr::Inline { len, slots } if (*len as usize) < N => {
                let n = *len as usize;
                assert!(index <= n, "insertion index {index} out of 0..={n}");
                slots.copy_within(index..n, index + 1);
                slots[index] = v;
                *len += 1;
            }
            Repr::Inline { slots, .. } => {
                let mut heap = Vec::with_capacity(2 * N + 2);
                heap.extend_from_slice(slots);
                heap.insert(index, v);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.insert(index, v),
        }
    }

    /// Keep the first `len` elements (no-op when there are fewer).
    pub(crate) fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Inline { len: cur, .. } if len < *cur as usize => *cur = len as u8,
            Repr::Inline { .. } => {}
            Repr::Heap(v) => v.truncate(len),
        }
    }
}

/// The list is its slice: `len`, `iter`, indexing, `contains`, … all come
/// from `[T]`, and elements can be overwritten in place.
impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

/// A vector that fits is copied inline and freed; a longer one becomes the
/// heap storage as it is.
impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            Self::from_slice(&v)
        } else {
            InlineVec(Repr::Heap(v))
        }
    }
}

impl<T: Copy + Default, const N: usize, const K: usize> From<[T; K]> for InlineVec<T, N> {
    fn from(elems: [T; K]) -> Self {
        Self::from_slice(&elems)
    }
}

// Equality, hashing and `Debug` see the elements only, never where they are
// stored.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Owning iterator of an [`InlineVec`].
#[derive(Debug, Clone)]
pub struct IntoIter<T: Copy + Default, const N: usize> {
    list: InlineVec<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let v = self.list.as_slice().get(self.next).copied();
        self.next += 1;
        v
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_capacity_preserving_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..7 {
            v.push(i);
        }
        assert_eq!(v.len(), 7);
        assert!(v.spilled());
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        assert_eq!(
            v.into_iter().collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
    }

    #[test]
    fn collect_and_borrowing_iteration() {
        let v: InlineVec<u32, 4> = (0..6).collect();
        let mut sum = 0;
        for &x in &v {
            sum += x;
        }
        assert_eq!(sum, 15);
    }

    #[test]
    fn insert_shifts_and_crosses_the_inline_boundary() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        for x in [30, 10, 20, 0] {
            let at = v.as_slice().partition_point(|&y| y < x);
            v.insert(at, x);
        }
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 10, 20, 30]);
        v.insert(4, 40);
        assert_eq!(v.as_slice(), &[0, 10, 20, 30, 40]);
    }

    #[test]
    fn equality_and_hash_ignore_where_the_elements_live() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &InlineVec<u32, 4>| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let inline: InlineVec<u32, 4> = (0..3).collect();
        let mut heap: InlineVec<u32, 4> = InlineVec::with_capacity(9);
        heap.extend(0..6);
        assert!(heap.spilled() && !inline.spilled());
        assert_ne!(inline, heap);
        heap.truncate(3);
        assert_eq!(inline, heap);
        assert_eq!(hash(&inline), hash(&heap));
        assert_eq!(format!("{heap:?}"), "[0, 1, 2]");
    }

    #[test]
    fn copies_and_conversions_go_inline_when_they_fit() {
        let fits: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2, 3, 4]);
        assert!(!fits.spilled());
        let long: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2, 3, 4, 5]);
        assert!(long.spilled());
        assert_eq!(*long, [1, 2, 3, 4, 5]);
        assert_eq!(InlineVec::<u8, 4>::from(vec![1, 2, 3, 4]), fits);
        assert!(!InlineVec::<u8, 4>::from(vec![1, 2, 3, 4]).spilled());
        assert_eq!(InlineVec::<u8, 4>::from(vec![1, 2, 3, 4, 5]), long);
        assert_eq!(InlineVec::<u8, 4>::from([1, 2, 3, 4]), fits);
    }

    #[test]
    fn elements_can_be_overwritten_in_place() {
        let mut inline: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2, 3]);
        let mut heap: InlineVec<u8, 2> = InlineVec::from_slice(&[1, 2, 3]);
        inline[2] ^= 0xFF;
        heap[2] ^= 0xFF;
        assert_eq!(*inline, [1, 2, 0xFC]);
        assert_eq!(*heap, *inline);
        assert_eq!((inline.len(), inline.first()), (3, Some(&1)));
    }

    #[test]
    fn clear_resets_but_keeps_usable() {
        let mut v: InlineVec<u32, 2> = (0..5).collect();
        v.truncate(0);
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        v.push(9);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![9]);
    }
}
