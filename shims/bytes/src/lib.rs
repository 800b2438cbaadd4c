//! In-tree, dependency-free replacement for the subset of the [`bytes`]
//! crate this workspace uses: cheaply-cloneable immutable [`Bytes`]
//! views, a growable [`BytesMut`] builder, and the [`Buf`]/[`BufMut`]
//! cursor traits (big-endian accessors only — the wire codec is
//! big-endian throughout).
//!
//! The build environment has no network access, so external crates are
//! replaced by shims that keep the public surface source-compatible.
//!
//! Buffer ownership: a [`Bytes`] is a `u32` range over one of three
//! storages, and every clone, [`Bytes::slice`] and [`Bytes::split_to`]
//! shares the storage it was cut from.
//!
//! * **Static** — `&'static [u8]` ([`Bytes::new`], [`Bytes::from_static`]):
//!   nothing is allocated or counted.
//! * **Slab** — `Arc<[u8]>`: the reference counts and the bytes live in
//!   *one* allocation. [`Bytes::filled`] allocates it zeroed at its final
//!   size, takes the `&mut [u8]` once (the only uniqueness check) and lets
//!   the caller write through a [`SlabCursor`]; [`Bytes::copy_from_slice`]
//!   is the same allocation filled by one `memcpy`. This is what an encoded
//!   message is.
//! * **Adopted** — `Arc<Vec<u8>>`: a growable buffer someone already
//!   built, taken whole. [`BytesMut::freeze`] and `Bytes::from(Vec<u8>)`
//!   move the `Vec` behind a new `Arc` (no second buffer, no memcpy, one
//!   small header allocation); `Bytes::from(Arc<Vec<u8>>)` adopts a buffer
//!   its owner keeps a handle to (a process image being served to a
//!   migration): that `Arc` is the storage itself, so nothing is
//!   allocated, and the owner's later writes go through `Arc::make_mut`,
//!   which copies for as long as a view is alive (the real crate has no
//!   such `From` impl; `Bytes::from_owner` is its nearest equivalent).
//!
//! A view's range is two `u32`s, which keeps the handle at 32 bytes with
//! three storages (every queued message and in-flight frame carries one).
//! Every length in this workspace is `u32`-bounded already; a buffer
//! longer than `u32::MAX` bytes is refused with a panic, never wrapped.
//! (The real crate reaches the same ownership rules through a vtable and
//! raw pointers and has no in-place constructor; this shim stays inside
//! safe Rust.)
//!
//! [`bytes`]: https://docs.rs/bytes

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
///
/// Clones share the same backing allocation; [`Bytes::slice`] and
/// [`Bytes::split_to`] produce zero-copy sub-views.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    // `start <= end <= storage length`. Two `u32`s, not two `usize`s:
    // with them the handle stays 32 bytes beside a three-way `Storage`.
    start: u32,
    end: u32,
}

/// Where a view's bytes live.
#[derive(Clone)]
enum Storage {
    /// Borrowed for the life of the program: nothing to allocate or count.
    Static(&'static [u8]),
    /// Reference counts and bytes in one allocation, built at its final
    /// size by [`Bytes::filled`] or [`Bytes::copy_from_slice`].
    Slab(Arc<[u8]>),
    /// A growable buffer built elsewhere (a builder's `Vec`, a process
    /// image), handed over whole behind the `Arc`.
    Adopted(Arc<Vec<u8>>),
}

/// The end of a view over a whole `len`-byte storage. Refuses a buffer a
/// `u32` range cannot describe; nothing in this workspace builds one.
#[inline]
const fn whole(len: usize) -> u32 {
    assert!(
        len <= u32::MAX as usize,
        "Bytes ranges are u32: a buffer over 4 GiB is refused, not wrapped"
    );
    len as u32
}

impl Bytes {
    /// An empty `Bytes`. Does not allocate.
    #[inline]
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wrap a static byte slice without copying or allocating.
    #[inline]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Storage::Static(bytes),
            start: 0,
            end: whole(bytes.len()),
        }
    }

    /// Copy `data` into a fresh `Bytes`: one allocation, one `memcpy`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes {
            end: whole(data.len()),
            data: Storage::Slab(Arc::from(data)),
            start: 0,
        }
    }

    /// Build a `Bytes` in place: allocate `len` zeroed bytes together with
    /// their reference counts — one allocation — and let `fill` write them
    /// through a [`SlabCursor`], front to back. The view is what `fill`
    /// wrote: exactly `len` bytes when the announced length was right, the
    /// written prefix when it wrote fewer, the first `len` when it tried
    /// to write more (the surplus is dropped and counted in
    /// [`SlabCursor::overflow`], never written and never a panic).
    ///
    /// The buffer's uniqueness is checked once, here, not per `put_*`:
    /// that is why `fill` gets a borrowed cursor rather than a builder.
    pub fn filled(len: usize, fill: impl FnOnce(&mut SlabCursor<'_>)) -> Self {
        // Refused before it is allocated.
        whole(len);
        let mut slab: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        // Nobody else can hold the handle yet, so `get_mut` succeeds.
        let out = Arc::get_mut(&mut slab).unwrap_or_default();
        debug_assert_eq!(out.len(), len);
        let mut cursor = SlabCursor {
            out,
            at: 0,
            lost: 0,
        };
        fill(&mut cursor);
        // `at <= len`, which `whole` admitted above.
        let end = cursor.at as u32;
        Bytes {
            data: Storage::Slab(slab),
            start: 0,
            end,
        }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view over `range` (indices relative to this view).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice out of bounds: {lo}..{hi} of {}",
            self.len()
        );
        // Both are at most `len()`, which is a difference of two `u32`s.
        Bytes {
            data: self.data.clone(),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} of {}",
            self.len()
        );
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at as u32,
        };
        self.start += at as u32;
        head
    }

    /// Copy the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.data {
            Storage::Static(s) => s,
            Storage::Slab(s) => s,
            Storage::Adopted(v) => v,
        };
        &all[self.start as usize..self.end as usize]
    }
}

/// The write side of [`Bytes::filled`]: a cursor over the slab's zeroed
/// bytes. It is a [`BufMut`] of fixed size — a write that does not fit is
/// cut at the end of the slab and the rest counted, not appended.
pub struct SlabCursor<'a> {
    out: &'a mut [u8],
    at: usize,
    lost: usize,
}

impl SlabCursor<'_> {
    /// Bytes offered beyond the announced length, and dropped. Non-zero
    /// means whoever sized the slab (a `wire_len`) disagrees with whoever
    /// filled it (an `encode`).
    #[inline]
    pub fn overflow(&self) -> usize {
        self.lost
    }

    /// The write that does not fit: keep what does, count what does not.
    #[cold]
    #[inline(never)]
    fn put_clamped(&mut self, src: &[u8]) {
        let room = self.out.len() - self.at;
        self.out[self.at..].copy_from_slice(&src[..room]);
        self.at = self.out.len();
        self.lost = self.lost.saturating_add(src.len() - room);
    }
}

impl BufMut for SlabCursor<'_> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        // `get_mut` on the exact range keeps a fixed-width put a
        // fixed-width copy; clamping with `min` here would turn every
        // `put_u16` into a variable-length `memcpy`. (Neither operand can
        // exceed `isize::MAX`, so the sum cannot wrap.)
        match self.out.get_mut(self.at..self.at + src.len()) {
            Some(dst) => {
                dst.copy_from_slice(src);
                self.at += src.len();
            }
            None => self.put_clamped(src),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the `Vec`'s buffer as it is: no copy, no reallocation.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes::from(Arc::new(v))
    }
}

impl From<Arc<Vec<u8>>> for Bytes {
    /// Adopts a buffer someone else also holds: the `Arc` *is* the shared
    /// storage, so this is a move — no copy, no allocation. The view stays
    /// valid whatever the other holders do, because they can only write
    /// through [`Arc::make_mut`], which copies while this view exists.
    fn from(v: Arc<Vec<u8>>) -> Self {
        Bytes {
            end: whole(v.len()),
            data: Storage::Adopted(v),
            start: 0,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(Vec::from(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer; freeze into an immutable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// New empty buffer with `cap` bytes of capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clear contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear()
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend)
    }

    /// Convert into an immutable [`Bytes`] over the same buffer (no copy).
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", &self.buf)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter)
    }
}

/// Read cursor over a contiguous byte source. Integer reads are
/// big-endian, matching the wire codec.
///
/// Panics on underflow, like the real crate.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Read a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Read a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }

    /// Copy `dst.len()` bytes out, consuming them.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "advance out of bounds: {cnt} of {}",
            self.len()
        );
        self.start += cnt as u32;
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a growable byte sink. Integer writes are
/// big-endian, matching the wire codec.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        let run = [val; 64];
        let mut left = cnt;
        while left > 0 {
            let n = left.min(run.len());
            self.put_slice(&run[..n]);
            left -= n;
        }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut b = BytesMut::new();
        b.put_u8(0xab);
        b.put_u16(0x1234);
        b.put_u32(0xdead_beef);
        b.put_u64(0x0102_0304_0506_0708);
        let mut r = b.freeze();
        assert_eq!(r.len(), 15);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xdead_beef);
        assert_eq!(r.get_u64(), 0x0102_0304_0506_0708);
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6, "original untouched");
    }

    #[test]
    fn freeze_hands_the_buffer_over_without_copying() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(b"exact-size wire image");
        let before = b.as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), before, "same buffer, not a copy");
        assert_eq!(&frozen[..], b"exact-size wire image");
        // The same rule for a `Vec` (and so a `String` or boxed slice).
        let v = vec![7u8; 100];
        let before = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), before);
    }

    #[test]
    fn clone_slice_and_split_share_the_frozen_buffer() {
        let b = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let base = b.as_ptr();
        assert_eq!(b.clone().as_ptr(), base);
        assert_eq!(b.slice(4..20).as_ptr(), base.wrapping_add(4));
        assert_eq!(b.slice(4..20).slice(2..).as_ptr(), base.wrapping_add(6));
        let mut rest = b.clone();
        let head = rest.split_to(10);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(10));
        let mut cursor = b.clone();
        cursor.advance(3);
        assert_eq!(cursor.as_ptr(), base.wrapping_add(3));
        // Views outlive the handle they were cut from.
        drop(b);
        assert_eq!(&head[..], &(0u8..10).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn an_adopted_arc_is_the_storage() {
        let owner = Arc::new((0u8..64).collect::<Vec<u8>>());
        let base = owner.as_ptr();
        let b = Bytes::from(Arc::clone(&owner));
        // Adoption moved the handle in: the same allocation, one more
        // reference, nothing new.
        assert_eq!(b.as_ptr(), base);
        assert_eq!(Arc::strong_count(&owner), 2);
        // Every view cut from it shares it too.
        let mut rest = b.clone();
        let head = rest.split_to(16);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(16));
        assert_eq!(b.slice(8..24).as_ptr(), base.wrapping_add(8));
        assert_eq!(Arc::strong_count(&owner), 4);
        // The owner writes through `make_mut`: it gets a copy, the views
        // keep the bytes they were given.
        let mut owner = owner;
        Arc::make_mut(&mut owner)[0] = 0xff;
        assert_ne!(owner.as_ptr(), base);
        assert_eq!(b[0], 0);
        assert_eq!(head.as_ptr(), base);
        // Views keep the buffer alive after the owner is gone; an empty
        // buffer is adopted like any other.
        drop(owner);
        assert_eq!(&b[..4], &[0, 1, 2, 3]);
        assert!(Bytes::from(Arc::new(Vec::new())).is_empty());
    }

    #[test]
    fn static_and_empty_views_borrow_instead_of_allocating() {
        // Usable in a constant: no allocation can hide in there.
        const EMPTY: Bytes = Bytes::new();
        const GREETING: Bytes = Bytes::from_static(b"hello");
        static TEXT: &[u8] = b"static text";
        assert!(EMPTY.is_empty());
        assert_eq!(Bytes::default(), EMPTY);
        assert_eq!(&GREETING[..], b"hello");
        assert_eq!(Bytes::from_static(TEXT).as_ptr(), TEXT.as_ptr());
        assert_eq!(Bytes::from(TEXT).as_ptr(), TEXT.as_ptr());
        assert_eq!(Bytes::from("static text").len(), TEXT.len());
        assert_eq!(
            Bytes::from_static(TEXT).slice(7..),
            Bytes::from_static(b"text")
        );
        assert!(Bytes::from(Vec::new()).is_empty());
        assert!(BytesMut::new().freeze().is_empty());
    }

    #[test]
    fn filled_writes_in_place_into_one_slab() {
        let b = Bytes::filled(15, |out| {
            out.put_u8(0xab);
            out.put_u16(0x1234);
            out.put_u32(0xdead_beef);
            out.put_u64(0x0102_0304_0506_0708);
            assert_eq!(out.overflow(), 0);
        });
        assert!(matches!(b.data, Storage::Slab(_)));
        let mut r = b.clone();
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xdead_beef);
        assert_eq!(r.get_u64(), 0x0102_0304_0506_0708);
        assert!(!r.has_remaining());
        // Views of a slab share it like views of any other storage.
        let base = b.as_ptr();
        assert_eq!(b.clone().as_ptr(), base);
        assert_eq!(b.slice(3..).as_ptr(), base.wrapping_add(3));
        let mut rest = b.clone();
        assert_eq!(rest.split_to(7).as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(7));
        drop(b);
        assert_eq!(rest.len(), 8, "a view keeps the slab alive");
        // Padding comes out of the same cursor, in runs longer than one
        // `put_slice`.
        let padded = Bytes::filled(8 + 200, |out| {
            out.put_u64(7);
            out.put_bytes(0x5a, 200);
        });
        assert_eq!(padded.len(), 208);
        assert!(padded[8..].iter().all(|&b| b == 0x5a));
        // Nothing to hold: `fill` still runs, and everything overflows.
        let empty = Bytes::filled(0, |out| {
            out.put_u8(1);
            assert_eq!(out.overflow(), 1);
        });
        assert!(empty.is_empty());
    }

    #[test]
    fn a_fill_that_disagrees_with_its_length_is_clamped_not_fatal() {
        // One byte short: the view is the written prefix.
        let short = Bytes::filled(8, |out| {
            out.put_u32(0x0102_0304);
            out.put_slice(&[5, 6, 7]);
            assert_eq!(out.overflow(), 0);
        });
        assert_eq!(&short[..], &[1, 2, 3, 4, 5, 6, 7]);
        // One byte long: cut at the announced length, the surplus counted,
        // and later writes all dropped.
        let mut lost = 0;
        let long = Bytes::filled(8, |out| {
            out.put_u32(0x0102_0304);
            out.put_u32(0x0506_0708);
            out.put_u8(9);
            assert_eq!(out.overflow(), 1);
            out.put_u16(0x0a0b);
            lost = out.overflow();
        });
        assert_eq!(&long[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(lost, 3);
        // A write straddling the end keeps the part that fits.
        let straddle = Bytes::filled(3, |out| {
            out.put_u16(0x0102);
            out.put_u32(0x0304_0506);
            assert_eq!(out.overflow(), 3);
        });
        assert_eq!(&straddle[..], &[1, 2, 3]);
    }

    #[test]
    fn copy_from_slice_is_one_slab() {
        assert!(matches!(
            Bytes::copy_from_slice(&[]).data,
            Storage::Static(_)
        ));
        for len in [1usize, 17] {
            let src: Vec<u8> = (0..len as u8).collect();
            let b = Bytes::copy_from_slice(&src);
            assert!(matches!(b.data, Storage::Slab(_)));
            assert_eq!(b, src);
            assert_ne!(b.as_ptr(), src.as_ptr(), "a copy, not a view");
        }
    }

    #[test]
    fn the_handle_stays_32_bytes_and_its_range_is_checked() {
        // Every queued message, unacked entry and in-flight frame holds one.
        assert!(std::mem::size_of::<Bytes>() <= 32);
        assert_eq!(whole(0), 0);
        assert_eq!(whole(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "over 4 GiB")]
    fn a_buffer_a_u32_range_cannot_describe_is_refused() {
        // Refused before anything is allocated, so this is cheap to ask.
        let _ = Bytes::filled(u32::MAX as usize + 1, |_| {});
    }

    #[test]
    fn bytes_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bytes>();
        assert_send_sync::<BytesMut>();
        let b = Bytes::from(vec![1, 2, 3]);
        let view = b.slice(1..);
        let sum: u8 = std::thread::spawn(move || view.iter().sum())
            .join()
            .expect("reader thread");
        assert_eq!(sum, 5);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::from(vec![0, 1, 2, 3]).slice(1..);
        assert_eq!(a, b);
        // Where the bytes live is not part of the value.
        assert_eq!(a, Bytes::from_static(&[1, 2, 3]));
        assert_eq!(a, &[1u8, 2, 3][..]);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_ne!(a, Bytes::new());
    }

    #[test]
    fn debug_is_printable() {
        let b = Bytes::from_static(b"ok\x01");
        assert_eq!(format!("{b:?}"), "b\"ok\\x01\"");
        assert_eq!(
            format!("{:?}", Bytes::from(b"ok\x01".to_vec())),
            "b\"ok\\x01\""
        );
    }
}
