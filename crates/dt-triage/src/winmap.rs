//! A tiny ordered map keyed by [`WindowId`], tuned for the pipeline's
//! access pattern.
//!
//! The pipeline keeps per-window state (stats, synopsis pairs,
//! pending synopsis points) for the handful of windows that are open
//! at once — almost always one or two, a few for hopping specs. Every
//! arriving tuple touches this state two or three times, so the
//! generic `BTreeMap` it used to live in paid a tree descent per
//! touch. A sorted vector with a last-entry fast path makes the
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

    pub fn get(&self, w: WindowId) -> Option<&T> {
        self.pos(w).ok().map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, w: WindowId) -> Option<&mut T> {
        self.pos(w).ok().map(|i| &mut self.entries[i].1)
    }

    /// Mutable access, inserting `make()` first if `w` is absent.
    pub fn get_or_insert_with(&mut self, w: WindowId, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.pos(w) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (w, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// [`WinMap::get_or_insert_with`] for fallible constructors; the
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

    /// All window ids, oldest first.
    pub fn ids(&self) -> impl Iterator<Item = WindowId> + '_ {
        self.entries.iter().map(|&(w, _)| w)
    }

    pub fn remove(&mut self, w: WindowId) -> Option<T> {
        self.pos(w).ok().map(|i| self.entries.remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_ordered_and_out_of_order() {
        let mut m: WinMap<&str> = WinMap::new();
        *m.get_or_insert_with(5, || "e") = "five";
        *m.get_or_insert_with(1, || "a") = "one";
        *m.get_or_insert_with(3, || "c") = "three";
        assert_eq!(m.ids().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.first_id(), Some(1));
        assert_eq!(m.get(3), Some(&"three"));
        assert_eq!(m.get(2), None);
    }

    #[test]
    fn get_or_insert_reuses_existing() {
        let mut m: WinMap<u32> = WinMap::new();
        *m.get_or_insert_with(7, || 1) += 1;
        *m.get_or_insert_with(7, || 100) += 1;
        assert_eq!(m.get(7), Some(&3));
    }

    #[test]
    fn try_insert_propagates_error_without_inserting() {
        let mut m: WinMap<u32> = WinMap::new();
        assert!(m
            .get_or_try_insert_with(2, || Err(dt_types::DtError::config("nope")))
            .is_err());
        assert_eq!(m.get(2), None);
        assert_eq!(*m.get_or_try_insert_with(2, || Ok(9)).unwrap(), 9);
    }

    #[test]
    fn remove_keeps_order() {
        let mut m: WinMap<u32> = WinMap::new();
        for w in [0, 1, 2] {
            m.get_or_insert_with(w, || w as u32);
        }
        assert_eq!(m.remove(1), Some(1));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.ids().collect::<Vec<_>>(), vec![0, 2]);
    }
}
