//! Word storage backends: owned `Vec<u64>` vs zero-copy views.
//!
//! The paper's workflow serializes indexes to disk after construction and
//! re-opens them repeatedly (fold-over keeps *several* index versions on
//! disk; the 170TB build produces a 1.8TB artifact). Re-opening must not
//! re-copy terabytes: [`WordStore::View`] lets a BFU matrix (core's
//! `Rambo::open_view`) borrow its word payload straight out of a
//! caller-provided `Arc<[u8]>` — typically a memory-mapped index file — with
//! **zero word copies**. The matrix record 8-byte-aligns its word payload
//! (see [`write_word_padding`]) so the borrowed bytes can be reinterpreted
//! as `&[u64]` in place.
//!
//! Views are copy-on-write: any mutating operation promotes the storage to
//! [`WordStore::Owned`] first (one copy, once), so read-mostly workloads pay
//! nothing and the matrix's mutable API keeps working unchanged.

use crate::error::DecodeError;
use std::sync::Arc;

/// A borrowed, 8-byte-aligned window of `u64` words inside a shared byte
/// buffer (an mmap'd index file, a loaded `Vec<u8>`, …).
#[derive(Clone)]
pub struct WordView {
    buf: Arc<[u8]>,
    /// Byte offset of the first word inside `buf`.
    start: usize,
    /// Number of `u64` words in the window.
    words: usize,
}

impl WordView {
    /// Create a view of `words` little-endian `u64`s starting `start` bytes
    /// into `buf`.
    ///
    /// # Errors
    /// [`DecodeError`] when the window overruns the buffer, the word payload
    /// is not 8-byte-aligned in memory, or the target is big-endian (the
    /// on-disk words are little-endian; reinterpreting them in place is only
    /// sound where native order matches).
    pub fn new(buf: Arc<[u8]>, start: usize, words: usize) -> Result<Self, DecodeError> {
        if cfg!(target_endian = "big") {
            return Err(DecodeError::new(
                "zero-copy word views require a little-endian target",
            ));
        }
        let bytes = words
            .checked_mul(8)
            .ok_or_else(|| DecodeError::new("word view size overflow"))?;
        let end = start
            .checked_add(bytes)
            .ok_or_else(|| DecodeError::new("word view size overflow"))?;
        if end > buf.len() {
            return Err(DecodeError::new("word view overruns its buffer"));
        }
        if !(buf.as_ptr() as usize + start).is_multiple_of(8) {
            return Err(DecodeError::new(
                "word view payload is not 8-byte-aligned; re-serialize or load via the copying path",
            ));
        }
        Ok(Self { buf, start, words })
    }

    /// The words of the window, borrowed from the backing buffer.
    #[inline]
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        cast_words(&self.buf[self.start..self.start + self.words * 8])
    }
}

impl std::fmt::Debug for WordView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordView")
            .field("start", &self.start)
            .field("words", &self.words)
            .field("buf_len", &self.buf.len())
            .finish()
    }
}

/// Reinterpret an 8-byte-aligned little-endian byte slice as `&[u64]`.
///
/// The crate's only unsafe site. Soundness:
/// * the pointer is 8-byte-aligned (checked by [`WordView::new`], re-asserted
///   here);
/// * the length is an exact multiple of 8 (sliced by the caller);
/// * every bit pattern is a valid `u64`, so no validity invariant can break;
/// * the returned lifetime is tied to the input borrow, so the `Arc` keeps
///   the bytes alive for as long as the words are in use;
/// * `u64` reads require native byte order to agree with the on-disk
///   little-endian words — enforced at view construction (LE targets only).
#[allow(unsafe_code)]
fn cast_words(bytes: &[u8]) -> &[u64] {
    debug_assert_eq!(bytes.len() % 8, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    // SAFETY: alignment and length are checked above (and at WordView
    // construction); u64 has no invalid bit patterns; lifetime is inherited
    // from `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

/// Append the word-payload alignment padding: one pad-length byte plus up
/// to 7 zero bytes, sized so the next byte written to `out` lands on an
/// 8-byte boundary *relative to the start of `out`*. Every serializer in
/// the workspace shares this (and [`skip_word_padding`]) so the padding
/// rules cannot drift between formats.
pub fn write_word_padding(out: &mut Vec<u8>) {
    let pad = (8 - (out.len() + 1) % 8) % 8;
    out.push(pad as u8);
    out.extend(std::iter::repeat_n(0u8, pad));
}

/// Consume and validate padding written by [`write_word_padding`],
/// advancing `buf` past it.
///
/// # Errors
/// [`DecodeError`] on truncation, an out-of-range pad length, or non-zero
/// pad bytes.
pub fn skip_word_padding(buf: &mut &[u8]) -> Result<(), DecodeError> {
    let (&pad, rest) = buf
        .split_first()
        .ok_or_else(|| DecodeError::new("word padding truncated"))?;
    let pad = pad as usize;
    if pad >= 8 {
        return Err(DecodeError::new("word padding length out of range"));
    }
    if rest.len() < pad {
        return Err(DecodeError::new("word padding truncated"));
    }
    if rest[..pad].iter().any(|&b| b != 0) {
        return Err(DecodeError::new("word padding bytes must be zero"));
    }
    *buf = &rest[pad..];
    Ok(())
}

/// Storage behind a dense bit structure: owned words, or a zero-copy view
/// into a shared byte buffer.
#[derive(Clone, Debug)]
pub enum WordStore {
    /// Heap-owned words (the default; produced by construction and by the
    /// copying decode paths).
    Owned(Vec<u64>),
    /// Borrowed words inside an `Arc<[u8]>` (produced by core's `open_view`
    /// load path). Promoted to [`WordStore::Owned`] on first mutation.
    View(WordView),
}

impl WordStore {
    /// The stored words, whatever the backend.
    #[inline]
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        match self {
            Self::Owned(v) => v,
            Self::View(v) => v.as_words(),
        }
    }

    /// Number of stored words.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Owned(v) => v.len(),
            Self::View(v) => v.words,
        }
    }

    /// True when no words are stored.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the zero-copy backend.
    #[inline]
    #[must_use]
    pub fn is_view(&self) -> bool {
        matches!(self, Self::View(_))
    }

    /// Mutable word access; a view is promoted to owned storage first
    /// (copy-on-write — this is the one place a view's payload is copied).
    #[inline]
    pub fn to_mut(&mut self) -> &mut Vec<u64> {
        if let Self::View(v) = self {
            *self = Self::Owned(v.as_words().to_vec());
        }
        match self {
            Self::Owned(v) => v,
            Self::View(_) => unreachable!("view was just promoted"),
        }
    }
}

impl From<Vec<u64>> for WordStore {
    fn from(words: Vec<u64>) -> Self {
        Self::Owned(words)
    }
}

impl PartialEq for WordStore {
    /// Backend-agnostic equality: two stores are equal when they hold the
    /// same words, regardless of who owns them.
    fn eq(&self, other: &Self) -> bool {
        self.as_words() == other.as_words()
    }
}

impl Eq for WordStore {}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_of(words: &[u64]) -> Arc<[u8]> {
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.into()
    }

    #[test]
    fn view_reads_back_words() {
        let words = [1u64, u64::MAX, 0xDEAD_BEEF];
        let buf = arc_of(&words);
        // Arc<[u8]> payloads start at an 8-aligned address in practice; the
        // constructor would reject the rare case where they do not.
        if let Ok(v) = WordView::new(buf, 0, 3) {
            assert_eq!(v.as_words(), &words);
        }
    }

    #[test]
    fn view_rejects_overrun() {
        let buf = arc_of(&[1, 2]);
        assert!(WordView::new(buf, 8, 2).is_err());
    }

    #[test]
    fn view_rejects_misalignment() {
        let buf = arc_of(&[1, 2, 3]);
        if (buf.as_ptr() as usize).is_multiple_of(8) {
            assert!(WordView::new(buf, 4, 1).is_err());
        }
    }

    #[test]
    fn store_copy_on_write_promotes() {
        let words = [7u64, 8, 9];
        let buf = arc_of(&words);
        let Ok(view) = WordView::new(buf, 0, 3) else {
            return; // misaligned Arc payload on this platform; nothing to test
        };
        let mut store = WordStore::View(view);
        assert!(store.is_view());
        assert_eq!(store.as_words(), &words);
        store.to_mut()[1] = 100;
        assert!(!store.is_view());
        assert_eq!(store.as_words(), &[7, 100, 9]);
    }

    #[test]
    fn padding_roundtrips_at_every_offset() {
        for lead in 0..9usize {
            let mut out = vec![0xAAu8; lead];
            write_word_padding(&mut out);
            assert!(out.len().is_multiple_of(8), "lead {lead}");
            let mut slice = &out[lead..];
            skip_word_padding(&mut slice).unwrap();
            assert!(slice.is_empty(), "lead {lead}");
        }
    }

    #[test]
    fn padding_rejects_corruption() {
        let mut empty: &[u8] = &[];
        assert!(skip_word_padding(&mut empty).is_err());
        let mut bad_len: &[u8] = &[9];
        assert!(skip_word_padding(&mut bad_len).is_err());
        let mut short: &[u8] = &[3, 0];
        assert!(skip_word_padding(&mut short).is_err());
        let mut dirty: &[u8] = &[2, 0, 1];
        assert!(skip_word_padding(&mut dirty).is_err());
    }

    #[test]
    fn store_equality_crosses_backends() {
        let words = vec![3u64, 4];
        let buf = arc_of(&words);
        let owned = WordStore::Owned(words.clone());
        if let Ok(view) = WordView::new(buf, 0, 2) {
            assert_eq!(owned, WordStore::View(view));
        }
        assert_ne!(owned, WordStore::Owned(vec![3, 5]));
    }
}
