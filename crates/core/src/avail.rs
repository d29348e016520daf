//! Availability-tracking primitives for the solver hot paths.
//!
//! Every greedy heuristic in this workspace maintains "which candidates
//! are still available" while it assembles a `k`-set. The seed code did
//! that with `Vec::retain` (`O(n)` **per removal**) and `Vec<bool>`
//! membership flags reallocated per request. This module provides the
//! two structures the engine, GMM, and the coreset Gonzalez phase share
//! instead:
//!
//! * [`IndexSet`] — a swap-remove index set: `O(1)` removal, `O(1)`
//!   membership, and a dense slice of the survivors for scans. The
//!   iteration order is *not* sorted (swap-remove scrambles it), so
//!   callers whose tie-break rules depend on scan order must iterate
//!   item ids and filter by [`IndexSet::contains`] instead — that is
//!   exactly what [`crate::engine`] does for its odd-`k` marginal scan.
//! * [`GenMarks`] — a generation-stamped membership bitmap: `reset` is
//!   `O(1)` (a generation bump; storage grows monotonically and is
//!   reused across requests), so steady-state serving re-zeroes nothing
//!   and allocates nothing.

/// A set over `0..n` with `O(1)` swap-removal and membership, plus a
/// dense slice of the remaining items for linear scans.
///
/// `items` holds the survivors in arbitrary order; `pos[i]` is `i`'s
/// position in `items`, or `usize::MAX` once removed.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexSet {
    items: Vec<usize>,
    pos: Vec<usize>,
}

impl IndexSet {
    /// Refills the set with `0..n`, reusing existing storage.
    pub(crate) fn reset(&mut self, n: usize) {
        self.items.clear();
        self.items.extend(0..n);
        self.pos.clear();
        self.pos.extend(0..n);
    }

    /// Whether `i` is still in the set.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.pos[i] != usize::MAX
    }

    /// Removes `i` in `O(1)` by swapping the last survivor into its
    /// slot. No-op if `i` was already removed.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        let p = self.pos[i];
        if p == usize::MAX {
            return;
        }
        self.items.swap_remove(p);
        if let Some(&moved) = self.items.get(p) {
            self.pos[moved] = p;
        }
        self.pos[i] = usize::MAX;
    }

    /// The survivors as a dense slice, in **arbitrary** order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.items
    }
}

/// A generation-stamped membership bitmap: `mark`/`is_marked` are
/// `O(1)`, and so is `reset` — it bumps the generation instead of
/// zeroing storage, so a scratch-held instance serves any number of
/// requests without reallocating or touching `O(n)` memory up front.
#[derive(Clone, Debug, Default)]
pub(crate) struct GenMarks {
    stamp: Vec<u64>,
    gen: u64,
}

impl GenMarks {
    /// An empty bitmap (no storage until the first [`GenMarks::reset`]).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Clears all marks (O(1)) and guarantees capacity for ids `< n`.
    pub(crate) fn reset(&mut self, n: usize) {
        self.gen += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Marks `i`.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.stamp[i] = self.gen;
    }

    /// Whether `i` is marked in the current generation.
    #[inline]
    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.stamp[i] == self.gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_set_swap_removal_and_membership() {
        let mut s = IndexSet::default();
        s.reset(5);
        assert_eq!(s.as_slice().len(), 5);
        assert!(s.contains(3));
        s.remove(1);
        s.remove(3);
        assert_eq!(s.as_slice().len(), 3);
        assert!(!s.contains(1));
        assert!(!s.contains(3));
        let mut left: Vec<usize> = s.as_slice().to_vec();
        left.sort_unstable();
        assert_eq!(left, vec![0, 2, 4]);
        // Double-removal is a no-op.
        s.remove(3);
        assert_eq!(s.as_slice().len(), 3);
        // Reset reuses storage and restores everything.
        s.reset(4);
        assert_eq!(s.as_slice().len(), 4);
        assert!(s.contains(1));
    }

    #[test]
    fn index_set_remove_all_then_reset() {
        let mut s = IndexSet::default();
        s.reset(3);
        for i in 0..3 {
            s.remove(i);
        }
        assert!(s.as_slice().is_empty());
        s.reset(2);
        assert_eq!(s.as_slice().len(), 2);
    }

    #[test]
    fn gen_marks_reset_is_generational() {
        let mut m = GenMarks::new();
        m.reset(4);
        m.mark(2);
        assert!(m.is_marked(2));
        assert!(!m.is_marked(0));
        m.reset(4);
        assert!(!m.is_marked(2), "reset must clear marks without zeroing");
        // Growing reset extends storage.
        m.reset(8);
        m.mark(7);
        assert!(m.is_marked(7));
    }
}
