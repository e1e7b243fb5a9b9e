//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no crate registry, so the workspace vendors
//! the tiny subset of `bytes` it actually uses: [`Bytes`], an immutable,
//! cheaply clonable byte buffer. Static payloads stay zero-copy;
//! heap payloads share one reference-counted allocation, so cloning a
//! message for a broadcast tree costs an atomic increment, not a copy —
//! the same property the real crate provides on this API subset.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable contiguous byte buffer.
#[derive(Clone)]
pub enum Bytes {
    /// Borrowed from static storage (zero allocation).
    Static(&'static [u8]),
    /// Shared heap allocation (clone = refcount bump).
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Self {
        Bytes::Static(&[])
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes::Static(s)
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The underlying bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(s) => s,
            Bytes::Shared(a) => a,
        }
    }

    /// Copy the bytes into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
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
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::Shared(v.into())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::Static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::Static(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn static_buffers_are_zero_copy() {
        let a = Bytes::from_static(b"hello");
        assert_eq!(a.len(), 5);
        assert_eq!(&a[..2], b"he");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn chunks_and_iteration_work_via_deref() {
        let a = Bytes::from((0u8..16).collect::<Vec<_>>());
        assert_eq!(a.chunks_exact(8).count(), 2);
        assert_eq!(a.iter().copied().sum::<u8>(), 120);
    }
}
