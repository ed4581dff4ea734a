//! A tiny ordered map keyed by [`WindowId`], tuned for triage's
//! access pattern.
//!
//! [`crate::StreamTriage`] keeps per-window state (rows, counts,
//! synopsis pairs, pending synopsis points) for the handful of windows
//! that are open at once — almost always one or two, a few for hopping
//! specs. Every folded tuple touches this state, so a generic
//! `BTreeMap` would pay a tree descent per touch. A sorted vector with a last-entry fast path makes the
//! common case (time-ordered arrivals hitting the newest window) one
//! comparison, while keeping oldest-first iteration for window close.

use dt_types::{DtResult, WindowId};

/// Sorted-by-id vector map. All operations assume (and preserve)
/// ascending id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct WinMap<T> {
    entries: Vec<(WindowId, T)>,
}

impl<T> WinMap<T> {
    pub fn new() -> Self {
        WinMap {
            entries: Vec::new(),
        }
    }

    /// Locate `w`: `Ok(index)` if present, `Err(insertion index)` if
    /// not. Fast-paths the newest window before binary-searching.
    #[inline]
    fn pos(&self, w: WindowId) -> Result<usize, usize> {
        match self.entries.last() {
            Some(&(last, _)) if last == w => Ok(self.entries.len() - 1),
            Some(&(last, _)) if last < w => Err(self.entries.len()),
            None => Err(0),
            _ => self.entries.binary_search_by_key(&w, |&(id, _)| id),
        }
    }

    pub fn get_mut(&mut self, w: WindowId) -> Option<&mut T> {
        self.pos(w).ok().map(|i| &mut self.entries[i].1)
    }

    /// Mutable access, inserting `make()` first if `w` is absent; the
    /// map is unchanged when `make` errors.
    pub fn get_or_try_insert_with(
        &mut self,
        w: WindowId,
        make: impl FnOnce() -> DtResult<T>,
    ) -> DtResult<&mut T> {
        let i = match self.pos(w) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (w, make()?));
                i
            }
        };
        Ok(&mut self.entries[i].1)
    }

    /// The oldest window's id, if any.
    pub fn first_id(&self) -> Option<WindowId> {
        self.entries.first().map(|&(w, _)| w)
    }

    /// The newest window's id, if any.
    pub fn last_id(&self) -> Option<WindowId> {
        self.entries.last().map(|&(w, _)| w)
    }

    pub fn remove(&mut self, w: WindowId) -> Option<T> {
        self.pos(w).ok().map(|i| self.entries.remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins<T>(m: &mut WinMap<T>, w: WindowId, v: T) -> &mut T {
        m.get_or_try_insert_with(w, || Ok(v)).unwrap()
    }

    #[test]
    fn insert_ordered_and_out_of_order() {
        let mut m: WinMap<&str> = WinMap::new();
        *ins(&mut m, 5, "e") = "five";
        *ins(&mut m, 1, "a") = "one";
        *ins(&mut m, 3, "c") = "three";
        assert_eq!(m.first_id(), Some(1));
        assert_eq!(m.last_id(), Some(5));
        assert_eq!(m.get_mut(3).copied(), Some("three"));
        assert_eq!(m.get_mut(2), None);
    }

    #[test]
    fn get_or_insert_reuses_existing() {
        let mut m: WinMap<u32> = WinMap::new();
        *ins(&mut m, 7, 1) += 1;
        *ins(&mut m, 7, 100) += 1;
        assert_eq!(m.get_mut(7).copied(), Some(3));
    }

    #[test]
    fn try_insert_propagates_error_without_inserting() {
        let mut m: WinMap<u32> = WinMap::new();
        assert!(m
            .get_or_try_insert_with(2, || Err(dt_types::DtError::config("nope")))
            .is_err());
        assert_eq!(m.get_mut(2), None);
        assert_eq!(*m.get_or_try_insert_with(2, || Ok(9)).unwrap(), 9);
    }

    #[test]
    fn remove_keeps_order() {
        let mut m: WinMap<u32> = WinMap::new();
        for w in [0, 1, 2] {
            ins(&mut m, w, w as u32);
        }
        assert_eq!(m.remove(1), Some(1));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.first_id(), Some(0));
        assert_eq!(m.last_id(), Some(2));
        assert_eq!(m.get_mut(2).copied(), Some(2));
    }
}
