//! A hand-rolled small-vector: inline storage for the first `N` elements,
//! heap spill beyond.
//!
//! The simulator's packet hot path attaches a short list of content spans
//! to every data segment; the overwhelmingly common case is 0–2 spans
//! (a segment inside one application chunk, or straddling one boundary).
//! Storing those inline makes segment construction, trace recording and
//! event delivery allocation-free, which is worth a measured ~1.5–2× in
//! simulator events/sec (see `bench_tcpsim`). No external dependency:
//! the workspace is offline-only, and the type needs a dozen methods, not
//! a crate.
//!
//! Design constraints:
//! * `T: Copy + Default` — the element slots are plain values, so the
//!   implementation stays safe (`simcore` forbids `unsafe`) and `clone`
//!   of an un-spilled vector is a bitwise copy.
//! * Equality, ordering of iteration and `Debug` all go through
//!   [`SmallVec::as_slice`], so an inline vector and a spilled vector
//!   with equal elements are equal — representation is invisible.
//! * Once spilled, a vector stays spilled (no shrink-back on `clear`):
//!   re-inlining would save nothing on the hot path, which never spills.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The backing representation: inline slots or a spilled `Vec`.
#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

/// A vector with inline capacity `N`, spilling to the heap beyond.
#[derive(Clone)]
pub struct SmallVec<T: Copy + Default, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> SmallVec<T, N> {
        SmallVec {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the contents have spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Appends an element, spilling to the heap on overflow of the
    /// inline capacity.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < N {
                    buf[n] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2 + 1);
                    v.extend_from_slice(&buf[..n]);
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element, or `None` when empty. The
    /// representation is kept: a spilled vector stays spilled even when
    /// popped back under the inline capacity (mirroring [`clear`]).
    ///
    /// [`clear`]: SmallVec::clear
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(buf[*len as usize])
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Removes all elements (keeps the current representation).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Iterates by reference (same order as insertion).
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SmallVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            v.into_iter().collect()
        } else {
            SmallVec {
                repr: Repr::Heap(v),
            }
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owned iterator: yields elements by value (they are `Copy`).
pub struct IntoIter<T: Copy + Default, const N: usize> {
    inner: SmallVec<T, N>,
    pos: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let out = self.inner.as_slice().get(self.pos).copied();
        self.pos += out.is_some() as usize;
        out
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.inner.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<T: Copy + Default, const N: usize> ExactSizeIterator for IntoIter<T, N> {}

impl<T: Copy + Default, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter {
            inner: self,
            pos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Sv = SmallVec<u32, 2>;

    #[test]
    fn starts_empty_and_inline() {
        let v = Sv::new();
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn inline_to_spill_transition() {
        let mut v = Sv::new();
        v.push(1);
        assert!(!v.spilled());
        v.push(2);
        assert!(!v.spilled(), "exactly N elements still inline");
        assert_eq!(v.as_slice(), &[1, 2]);
        v.push(3);
        assert!(v.spilled(), "N+1 elements must spill");
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        v.push(4);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn clone_and_eq_are_representation_independent() {
        // An inline vector and a spilled vector with the same elements
        // compare equal.
        let inline: Sv = vec![7, 8].into();
        let mut spilled = Sv::new();
        for x in [7, 8, 9] {
            spilled.push(x);
        }
        assert!(spilled.spilled());
        spilled.clear();
        spilled.push(7);
        spilled.push(8);
        assert!(spilled.spilled(), "clear keeps the heap representation");
        assert!(!inline.spilled());
        assert_eq!(inline, spilled);

        let c = spilled.clone();
        assert_eq!(c, spilled);
        let c2 = inline.clone();
        assert_eq!(c2, inline);
        assert!(!c2.spilled());
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut v = Sv::new();
        for x in 0..10 {
            v.push(x);
        }
        let by_ref: Vec<u32> = v.iter().copied().collect();
        assert_eq!(by_ref, (0..10).collect::<Vec<_>>());
        let owned: Vec<u32> = v.clone().into_iter().collect();
        assert_eq!(owned, by_ref);
        // ExactSizeIterator agrees.
        assert_eq!(v.clone().into_iter().len(), 10);
        // Deref gives slice iteration too.
        let slice_sum: u32 = v.iter().sum();
        assert_eq!(slice_sum, 45);
    }

    #[test]
    fn from_vec_inlines_small_and_adopts_large() {
        let small: Sv = vec![1].into();
        assert!(!small.spilled());
        let large: Sv = vec![1, 2, 3, 4].into();
        assert!(large.spilled());
        assert_eq!(large.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn mutation_through_slice() {
        let mut v: Sv = vec![1, 2].into();
        v[0] = 9;
        assert_eq!(v.as_slice(), &[9, 2]);
        let mut w: Sv = vec![1, 2, 3].into();
        w[2] = 7;
        assert_eq!(w.as_slice(), &[1, 2, 7]);
    }

    #[test]
    fn extend_and_collect() {
        let mut v = Sv::new();
        v.extend([1, 2, 3]);
        assert_eq!(v.len(), 3);
        let w: Sv = (0..5).collect();
        assert_eq!(w.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_pop_across_the_spill_boundary() {
        // Walk len 0→3→0 across the N=2 boundary and back: contents
        // stay LIFO-correct through the spill, and the representation
        // is sticky (spilling is one-way, popping never re-inlines).
        let mut v = Sv::new();
        assert_eq!(v.pop(), None, "pop on empty inline is None");
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3);
        assert!(v.spilled(), "crossing len 2→3 spills");
        assert_eq!(
            v.pop(),
            Some(3),
            "crossing len 3→2 pops the spilled element"
        );
        assert!(v.spilled(), "popping back under N keeps the heap repr");
        assert_eq!(v.as_slice(), &[1, 2]);
        v.push(3);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None, "pop on empty heap repr is None");
        assert!(v.is_empty());
        assert!(v.spilled());

        // The same walk entirely inside the inline capacity never
        // allocates a heap repr.
        let mut w = Sv::new();
        w.push(8);
        w.push(9);
        assert_eq!(w.pop(), Some(9));
        assert_eq!(w.pop(), Some(8));
        assert_eq!(w.pop(), None);
        assert!(!w.spilled(), "inline-only push/pop must stay inline");
    }

    #[test]
    fn clone_then_mutate_does_not_alias() {
        // Inline clones are bitwise copies and heap clones deep-copy
        // the Vec; mutating either side must never show through on the
        // other, in any mutation direction.
        let original: Sv = vec![1, 2].into();
        let mut copy = original.clone();
        copy[0] = 99;
        copy.push(3);
        assert_eq!(original.as_slice(), &[1, 2], "inline clone aliased");
        assert_eq!(copy.as_slice(), &[99, 2, 3]);

        let mut spilled: Sv = vec![4, 5, 6].into();
        assert!(spilled.spilled());
        let frozen = spilled.clone();
        spilled[1] = 0;
        spilled.pop();
        assert_eq!(frozen.as_slice(), &[4, 5, 6], "heap clone aliased");
        assert_eq!(spilled.as_slice(), &[4, 0]);

        // Mutating the original after cloning leaves the clone alone too.
        let mut base = Sv::new();
        base.push(7);
        let snap = base.clone();
        base.push(8);
        base.push(9); // spills base, not snap
        assert!(base.spilled());
        assert!(!snap.spilled());
        assert_eq!(snap.as_slice(), &[7]);
    }

    #[test]
    fn eq_across_inline_and_spilled_representations() {
        // Equality is contents-only in all four repr pairings.
        let inline_a: Sv = vec![1, 2].into();
        let inline_b: Sv = vec![1, 2].into();
        let mut heap_a: Sv = vec![1, 2, 3].into();
        heap_a.pop();
        let mut heap_b: Sv = vec![9, 9, 9].into();
        heap_b.clear();
        heap_b.extend([1, 2]);
        assert!(heap_a.spilled() && heap_b.spilled());

        assert_eq!(inline_a, inline_b); // inline == inline
        assert_eq!(inline_a, heap_a); // inline == heap
        assert_eq!(heap_a, inline_a); // heap == inline
        assert_eq!(heap_a, heap_b); // heap == heap

        // ...and inequality is detected regardless of representation.
        let other_inline: Sv = vec![1, 9].into();
        assert_ne!(inline_a, other_inline);
        assert_ne!(heap_a, other_inline);
        let mut longer = heap_b.clone();
        longer.push(3);
        assert_ne!(heap_a, longer);
        // Empty inline == empty (cleared) heap.
        let empty_heap = {
            let mut v: Sv = vec![1, 2, 3].into();
            v.clear();
            v
        };
        assert_eq!(Sv::new(), empty_heap);
    }
}
