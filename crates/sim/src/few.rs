//! A short list kept inline: the few pages a block read faults in, the key
//! a point lookup parses a block into. Up to `N` items it lives wherever
//! its owner does (on the stack, for a local); past that it moves to the
//! heap. It lives here, beside [`crate::hash`], because the crates above
//! share it.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list of `Copy` items kept inline up to `N` of them, on the heap past
/// that. Dereferences to its items.
#[derive(Clone)]
pub struct Few<T, const N: usize> {
    len: usize,
    /// The items while `len <= N`.
    inline: [T; N],
    /// All the items while `len > N`.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for Few<T, N> {
    fn default() -> Self {
        Few {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Few<T, N> {
    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        self.extend_from_slice(std::slice::from_ref(&item));
    }

    /// Appends `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        let len = self.len + items.len();
        if len <= N {
            self.inline[self.len..len].copy_from_slice(items);
        } else {
            if self.len <= N {
                self.spill.clear();
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.extend_from_slice(items);
        }
        self.len = len;
    }

    /// Keeps the first `len` items.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if self.len > N {
            if len <= N {
                self.inline[..len].copy_from_slice(&self.spill[..len]);
            } else {
                self.spill.truncate(len);
            }
        }
        self.len = len;
    }
}

impl<T, const N: usize> Deref for Few<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T, const N: usize> DerefMut for Few<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl<T, const N: usize> fmt::Debug for Few<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Few").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A `Few` holds what a `Vec` holds through any tape of pushes,
        /// appends and truncations, across the inline bound both ways.
        #[test]
        fn few_matches_a_vec(
            tape in prop::collection::vec(
                (0u8..3, 0usize..40, prop::collection::vec(any::<u8>(), 0..20)),
                1..60,
            ),
        ) {
            let (mut few, mut reference) = (Few::<u8, 8>::default(), Vec::new());
            for (op, keep, bytes) in tape {
                match op {
                    0 => {
                        few.truncate(keep);
                        reference.truncate(keep);
                    }
                    1 => {
                        few.extend_from_slice(&bytes);
                        reference.extend_from_slice(&bytes);
                    }
                    _ => {
                        few.push(keep as u8);
                        reference.push(keep as u8);
                    }
                }
                prop_assert_eq!(&few[..], &reference[..]);
            }
            few.sort_unstable();
            reference.sort_unstable();
            prop_assert_eq!(&few[..], &reference[..]);
        }
    }
}
