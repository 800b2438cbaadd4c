//! Byte-exact wire codec.
//!
//! DEMOS/MP's cost evaluation (§6) is denominated in messages and bytes, so
//! the reproduction encodes everything that crosses the simulated network
//! through this small hand-rolled codec rather than an opaque serializer.
//! Every encoding is deterministic and its length is reported by
//! [`Wire::wire_len`], which lets the benchmark harness account for each
//! byte the paper counts (8-byte forwarding addresses, 6–12-byte
//! administrative messages, 250/600-byte state records, …).
//!
//! All integers are big-endian. Variable-length fields carry explicit
//! length prefixes. Decoding never panics: malformed input yields
//! [`WireError`].
//!
//! What is hand-written is the primitive layer: the integers and `bool`
//! below, the ids, and the length-prefixed byte string ([`Prefixed`]). A
//! protocol message is a declaration over them — a tagged enum is defined
//! as a plain `pub enum` and given its layout as one
//! [`wire_enum!`](crate::wire_enum) table, a row per variant, from which
//! `encode`, `decode` and `wire_len` are all generated, so the three cannot
//! disagree. A new message is one variant plus one row in the table.
//!
//! The types whose layout is not a tagged row keep a hand-written
//! `impl Wire`: `MsgHeader` (one 21-byte array), `Link` (its area rides
//! only when `HAS_AREA` is set), `Message`, the ids, and outside this
//! crate `LinkTable`, `Checkpoint`, `ImageLayout` and `net::Frame` (a
//! field that never crosses the wire, and a length check ahead of its
//! tag).

use bytes::{Buf, BufMut, Bytes, SlabCursor};
use core::fmt;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the named field could be read.
    Truncated(&'static str),
    /// A tag/discriminant byte had no corresponding variant.
    BadTag {
        /// Type being decoded.
        what: &'static str,
        /// Offending tag value.
        tag: u16,
    },
    /// A length prefix exceeded the remaining buffer or a sanity bound.
    BadLength {
        /// Type being decoded.
        what: &'static str,
        /// Claimed length.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated input while decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "unknown tag {tag:#x} for {what}"),
            WireError::BadLength { what, len } => {
                write!(f, "implausible length {len} while decoding {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Types with a deterministic binary encoding.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decode a value from the front of `buf`, consuming exactly the bytes
    /// of one encoded value.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Exact length in bytes that [`Wire::encode`] will append, computed
    /// arithmetically (never by encoding): [`Wire::to_bytes`] sizes its one
    /// buffer from it, so a value is serialised exactly once.
    fn wire_len(&self) -> usize;

    /// Encode into a fresh buffer of exactly [`Wire::wire_len`] bytes,
    /// in place: one allocation holds the bytes and their reference
    /// counts, and `encode` fills it.
    fn to_bytes(&self) -> Bytes {
        encode_exact(self.wire_len(), |out| self.encode(out))
    }

    /// Decode a value that must occupy the *entire* buffer.
    fn from_bytes(bytes: &Bytes) -> Result<Self, WireError> {
        let mut b = bytes.clone();
        let v = Self::decode(&mut b)?;
        if b.has_remaining() {
            return Err(WireError::BadLength {
                what: "trailing bytes",
                len: b.remaining(),
            });
        }
        Ok(v)
    }
}

/// The sink behind [`Wire::to_bytes`] and
/// [`Message::encode_with_body`](crate::Message::encode_with_body): `len`
/// bytes allocated once, filled once. A `len` that disagrees with what
/// `fill` writes is a bug in some `wire_len` — a debug build stops on it;
/// a release build keeps what was written, cut at `len`, and counts it in
/// [`codec_stats`] (encode sits on every kernel handler path: a handler
/// must degrade, not die).
pub(crate) fn encode_exact(len: usize, fill: impl FnOnce(&mut SlabCursor<'_>)) -> Bytes {
    let mut overflow = 0;
    let bytes = Bytes::filled(len, |out| {
        fill(out);
        overflow = out.overflow();
    });
    let exact = overflow == 0 && bytes.len() == len;
    debug_assert!(exact, "wire_len disagrees with encode");
    if !exact {
        codec_stats::note_clamp();
    }
    bytes
}

/// Encode then decode a value — test helper used across the workspace.
pub fn roundtrip<T: Wire>(v: &T) -> Result<T, WireError> {
    let bytes = v.to_bytes();
    T::from_bytes(&bytes)
}

/// Read a length-prefixed (`u32`) byte string bounded by `max`.
pub fn get_bytes(buf: &mut Bytes, what: &'static str, max: usize) -> Result<Bytes, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated(what));
    }
    let len = usize::try_from(buf.get_u32()).map_err(|_| WireError::BadLength {
        what,
        len: usize::MAX,
    })?;
    if len > max || len > buf.remaining() {
        return Err(WireError::BadLength { what, len });
    }
    Ok(buf.split_to(len))
}

/// Longest byte string a `u32` length prefix can describe.
pub(crate) fn max_prefixed_len() -> usize {
    usize::try_from(u32::MAX).unwrap_or(usize::MAX)
}

/// Bytes [`put_bytes`] / [`put_string`] append for an `n`-byte input:
/// the `u32` prefix plus the (clamped) contents.
pub fn bytes_len(n: usize) -> usize {
    4 + n.min(max_prefixed_len())
}

/// Write a length-prefixed (`u32`) byte string. Inputs longer than the
/// prefix can express are truncated (and counted in [`codec_stats`])
/// rather than aborting: encode sits on every kernel handler path, and a
/// handler must degrade, not die. Honest senders never hit the clamp —
/// every protocol payload is bounded far below 4 GiB.
pub fn put_bytes(buf: &mut impl BufMut, bytes: &[u8]) {
    let max = max_prefixed_len();
    let bytes = if bytes.len() > max {
        codec_stats::note_clamp();
        &bytes[..max]
    } else {
        bytes
    };
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    buf.put_u32(len);
    buf.put_slice(bytes);
}

/// Encode-side degradation counters. A nonzero value means some encode
/// clamped an out-of-invariant field instead of panicking — always a bug
/// upstream, but one that drops data instead of a kernel.
pub mod codec_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CLAMPED: AtomicU64 = AtomicU64::new(0);

    /// Record one clamped encode.
    pub(crate) fn note_clamp() {
        CLAMPED.fetch_add(1, Ordering::Relaxed);
    }

    /// Total clamped encodes since process start.
    pub fn clamped() -> u64 {
        CLAMPED.load(Ordering::Relaxed)
    }
}

/// Read a length-prefixed UTF-8 string (lossy on invalid UTF-8 is *not*
/// permitted; invalid bytes are an error).
pub fn get_string(buf: &mut Bytes, what: &'static str, max: usize) -> Result<String, WireError> {
    let bytes = get_bytes(buf, what, max)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadLength {
        what,
        len: bytes.len(),
    })
}

/// Write a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A field that travels behind a `u32` length prefix: what a
/// [`wire_enum!`](crate::wire_enum) row marks `field: Type[max]`.
pub trait Prefixed: Sized {
    /// Write the prefix and the contents.
    fn put(&self, buf: &mut impl BufMut);

    /// Length of the contents alone; [`bytes_len`] of it is what
    /// [`Prefixed::put`] appends.
    fn content_len(&self) -> usize;

    /// Read the prefix and at most `max` bytes of contents.
    fn get(buf: &mut Bytes, what: &'static str, max: usize) -> Result<Self, WireError>;
}

impl Prefixed for Bytes {
    fn put(&self, buf: &mut impl BufMut) {
        put_bytes(buf, self);
    }
    fn content_len(&self) -> usize {
        self.len()
    }
    fn get(buf: &mut Bytes, what: &'static str, max: usize) -> Result<Self, WireError> {
        get_bytes(buf, what, max)
    }
}

impl Prefixed for String {
    fn put(&self, buf: &mut impl BufMut) {
        put_string(buf, self);
    }
    fn content_len(&self) -> usize {
        self.len()
    }
    fn get(buf: &mut Bytes, what: &'static str, max: usize) -> Result<Self, WireError> {
        get_string(buf, what, max)
    }
}

/// The layout of a tagged enum, written once: generates its whole
/// `impl Wire` from one row per variant.
///
/// ```text
/// wire_enum! { MoveDataMsg: u8 {
///     3 => Data { op: u16, seq: u32, bytes: Bytes[MAX_PAYLOAD] },
///     4 => Ack { op: u16, seq: u32 },
/// } }
/// ```
///
/// The head names the enum and the integer type of its tag. A row is
/// `tag => Variant { field: Type, … }`: the tag value, then the variant's
/// fields in wire order, each of a type that is itself [`Wire`]. A field
/// written `field: Type[max]` is length-prefixed ([`Prefixed`]: `Bytes`
/// or `String`), and `max` is the longest contents its decoder accepts.
/// A variant without fields is `tag => Variant {}`.
///
/// The enum itself stays a plain item next to the table, so rustdoc, the
/// field docs and `demos-lint` (D007 parses the definitions) see it; the
/// field list is therefore written twice, and rustc holds the two
/// together — the generated patterns name every field and the generated
/// `match` has no wildcard arm, so a table that misses a field or a
/// variant does not compile.
#[macro_export]
macro_rules! wire_enum {
    ($name:ident: $tag:ty { $(
        $t:literal => $variant:ident { $($field:ident: $fty:ty $([$max:expr])?),* $(,)? }
    ),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut impl ::bytes::BufMut) {
                match self { $(
                    $name::$variant { $($field),* } => {
                        <$tag as $crate::wire::Wire>::encode(&$t, buf);
                        $($crate::wire_enum!(@put buf, $field $(, $max)?);)*
                    }
                )* }
            }

            fn wire_len(&self) -> usize {
                match self { $(
                    $name::$variant { $($field),* } => {
                        <$tag as $crate::wire::Wire>::wire_len(&$t)
                            $(+ $crate::wire_enum!(@len $field $(, $max)?))*
                    }
                )* }
            }

            fn decode(buf: &mut ::bytes::Bytes) -> Result<Self, $crate::wire::WireError> {
                let tag = <$tag as $crate::wire::Wire>::decode(buf)
                    .map_err(|_| $crate::wire::WireError::Truncated(stringify!($name)))?;
                match tag {
                    $($t => Ok($name::$variant {
                        $($field: $crate::wire_enum!(@get buf, $variant.$field: $fty $(, $max)?)),*
                    }),)*
                    _ => Err($crate::wire::WireError::BadTag {
                        what: stringify!($name),
                        tag: u16::from(tag),
                    }),
                }
            }
        }
    };
    (@put $buf:ident, $field:ident) => { $crate::wire::Wire::encode($field, $buf) };
    (@put $buf:ident, $field:ident, $max:expr) => { $crate::wire::Prefixed::put($field, $buf) };
    (@len $field:ident) => { $crate::wire::Wire::wire_len($field) };
    (@len $field:ident, $max:expr) => {
        $crate::wire::bytes_len($crate::wire::Prefixed::content_len($field))
    };
    (@get $buf:ident, $variant:ident.$field:ident: $fty:ty) => {
        <$fty as $crate::wire::Wire>::decode($buf)?
    };
    (@get $buf:ident, $variant:ident.$field:ident: $fty:ty, $max:expr) => {
        <$fty as $crate::wire::Prefixed>::get(
            $buf,
            concat!(stringify!($variant), ".", stringify!($field)),
            $max,
        )?
    };
}

impl Wire for u8 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("u8"));
        }
        Ok(buf.get_u8())
    }
    fn wire_len(&self) -> usize {
        1
    }
}

/// One byte: written 0 or 1, read as "any non-zero byte is true".
impl Wire for bool {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated("bool"));
        }
        Ok(buf.get_u8() != 0)
    }
    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated("u16"));
        }
        Ok(buf.get_u16())
    }
    fn wire_len(&self) -> usize {
        2
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 4 {
            return Err(WireError::Truncated("u32"));
        }
        Ok(buf.get_u32())
    }
    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError::Truncated("u64"));
        }
        Ok(buf.get_u64())
    }
    fn wire_len(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(roundtrip(&0xabu8).unwrap(), 0xab);
        assert_eq!(roundtrip(&true), Ok(true));
        assert_eq!(bool::from_bytes(&Bytes::from_static(&[2])), Ok(true));
        assert_eq!(roundtrip(&0xabcdu16).unwrap(), 0xabcd);
        assert_eq!(roundtrip(&0xdead_beefu32).unwrap(), 0xdead_beef);
        assert_eq!(
            roundtrip(&0x0123_4567_89ab_cdefu64).unwrap(),
            0x0123_4567_89ab_cdef
        );
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut buf = BytesMut::new();
        1u16.encode(&mut buf);
        0u8.encode(&mut buf);
        let bytes = buf.freeze();
        assert!(u16::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bytes_helpers_roundtrip() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"hello");
        put_string(&mut buf, "world");
        let mut b = buf.freeze();
        assert_eq!(&get_bytes(&mut b, "t", 1024).unwrap()[..], b"hello");
        assert_eq!(get_string(&mut b, "t", 1024).unwrap(), "world");
        assert!(!b.has_remaining());
    }

    #[test]
    fn bytes_helper_bounds() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0u8; 64]);
        let mut b = buf.freeze();
        assert!(matches!(
            get_bytes(&mut b, "t", 32),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn bytes_helper_truncation() {
        // Length prefix claims more data than present.
        let mut buf = BytesMut::new();
        buf.put_u32(100);
        buf.put_slice(&[1, 2, 3]);
        let mut b = buf.freeze();
        assert!(get_bytes(&mut b, "t", 1024).is_err());
    }

    #[test]
    fn invalid_utf8_is_error() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut b = buf.freeze();
        assert!(get_string(&mut b, "t", 16).is_err());
    }
}
