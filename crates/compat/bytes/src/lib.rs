//! Offline stand-in for the `bytes` crate covering the API surface used
//! by `pgasm-mpisim`'s message substrate: [`Bytes`], a cheaply
//! cloneable immutable buffer (`Arc`-backed).

use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply cloneable byte buffer. A clone shares the same
/// allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }

    /// View over static data (copied here; the allocation-free upstream
    /// optimisation is irrelevant at these message sizes).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Bytes in this buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy the buffer out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v.into_boxed_slice()) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_the_allocation_and_compares_equal() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        assert!(std::ptr::eq(b.as_ptr(), c.as_ptr()));
        assert_eq!(b, c);
        assert_eq!(&*c, &[1, 2, 3, 4, 5]);
        assert_eq!(c.to_vec(), vec![1, 2, 3, 4, 5]);
        assert_eq!((c.len(), Bytes::new().is_empty()), (5, true));
    }
}
