//! Process memory images.
//!
//! A DEMOS/MP process (Figure 2-2) consists of the program being executed
//! together with its data and stack. We cannot ship real machine code
//! between simulated machines, so an image's *code segment* carries the
//! program's registered name (plus padding to the declared code size) and
//! its *data segment* carries the program's serialized state (plus padding
//! to the declared data size). Migration transfers these exact bytes with
//! the move-data facility, so transfer cost scales with image size the way
//! the paper describes (§6: "for non-trivial processes, the size of the
//! program and data overshadow the size of the system information").

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};
use demos_types::wire::{self, Wire, WireError};

/// Maximum accepted program-name length in a code segment.
const MAX_NAME: usize = 256;
/// Maximum accepted serialized program state.
const MAX_STATE: usize = 16 << 20;

/// Declared segment sizes for a process image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageLayout {
    /// Code segment bytes (≥ name length + 2).
    pub code: u32,
    /// Data segment bytes (≥ serialized state length + 4).
    pub data: u32,
    /// Stack segment bytes.
    pub stack: u32,
}

impl Default for ImageLayout {
    fn default() -> Self {
        // A small utility process of the era: 8 KiB text, 4 KiB data,
        // 2 KiB stack.
        ImageLayout {
            code: 8 * 1024,
            data: 4 * 1024,
            stack: 2 * 1024,
        }
    }
}

impl ImageLayout {
    /// Encoded size: three `u32` segment lengths.
    pub const WIRE_LEN: usize = 12;

    /// Total image bytes.
    pub fn total(&self) -> u32 {
        self.code + self.data + self.stack
    }
}

/// The flat form's header: three big-endian `u32` segment lengths.
const HEADER: usize = 12;

/// The memory of one process: code, data and stack segments, held in the
/// one *flat* form migration transfers —
/// `[code_len u32][data_len u32][stack_len u32][code][data][stack]` — in
/// one shared buffer. The segments are slices of it; nothing is ever
/// flattened or split.
///
/// The buffer is shared, not copied, with whoever reads it while the
/// process lives on: the move-data serve of migration step 5
/// ([`Self::shared_flat`]), a [`crate::Checkpoint`], a clone. Every
/// mutation goes through [`Arc::make_mut`], so a sharer keeps the bytes
/// it was given even if the process thaws after an aborted migration and
/// runs on (copy-on-write); an unshared image is mutated in place
/// (DESIGN.md §9, "Life of a migrated image").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessImage {
    flat: Arc<Vec<u8>>,
    /// Where the data and the stack segment start in `flat` (the code
    /// segment starts at [`HEADER`]).
    data_at: usize,
    stack_at: usize,
}

impl ProcessImage {
    /// Build an image for program `name` with initial serialized `state`.
    ///
    /// Segments are padded (never truncated) to the layout's declared
    /// sizes, so `total_len() >= layout.total()` and transfer costs track
    /// the declared process size. One allocation: header, name and state
    /// are written straight into the zeroed flat buffer.
    pub fn build(name: &str, state: &[u8], layout: ImageLayout) -> Self {
        let code_len = (layout.code as usize).max(2 + name.len());
        let data_len = (layout.data as usize).max(4 + state.len());
        let data_at = HEADER + code_len;
        let stack_at = data_at + data_len;
        let mut flat = vec![0; stack_at + layout.stack as usize];
        flat[0..4].copy_from_slice(&(code_len as u32).to_be_bytes());
        flat[4..8].copy_from_slice(&(data_len as u32).to_be_bytes());
        flat[8..12].copy_from_slice(&layout.stack.to_be_bytes());
        flat[HEADER..HEADER + 2].copy_from_slice(&(name.len() as u16).to_be_bytes());
        flat[HEADER + 2..HEADER + 2 + name.len()].copy_from_slice(name.as_bytes());
        write_state(&mut flat[data_at..stack_at], state);
        ProcessImage {
            flat: Arc::new(flat),
            data_at,
            stack_at,
        }
    }

    /// Code segment: `[name_len u16][name][zero padding]`.
    pub fn code(&self) -> &[u8] {
        &self.flat[HEADER..self.data_at]
    }

    /// Data segment: `[state_len u32][state][zero padding]`.
    pub fn data(&self) -> &[u8] {
        &self.flat[self.data_at..self.stack_at]
    }

    /// Stack segment (simulated; zeroed).
    pub fn stack(&self) -> &[u8] {
        &self.flat[self.stack_at..]
    }

    /// Program name recorded in the code segment. Parses the header in
    /// place — only the name bytes themselves are copied out, never the
    /// whole (padded) segment.
    pub fn program_name(&self) -> Result<String, WireError> {
        let code = self.code();
        let Some(hdr) = code.get(..2) else {
            return Err(WireError::Truncated("code segment"));
        };
        let len = u16::from_be_bytes([hdr[0], hdr[1]]) as usize;
        if len > MAX_NAME {
            return Err(WireError::BadLength {
                what: "program name",
                len,
            });
        }
        let Some(name) = code.get(2..2 + len) else {
            return Err(WireError::BadLength {
                what: "program name",
                len,
            });
        };
        String::from_utf8(name.to_vec()).map_err(|_| WireError::BadLength {
            what: "program name utf8",
            len,
        })
    }

    /// Serialized program state recorded in the data segment. Copies only
    /// the `len` state bytes, not the whole (padded, possibly hundreds of
    /// KiB) segment it sits in.
    pub fn load_state(&self) -> Result<Bytes, WireError> {
        let data = self.data();
        let Some(hdr) = data.get(..4) else {
            return Err(WireError::Truncated("data segment"));
        };
        let len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        if len > MAX_STATE {
            return Err(WireError::BadLength {
                what: "program state",
                len,
            });
        }
        let Some(state) = data.get(4..4 + len) else {
            return Err(WireError::BadLength {
                what: "program state",
                len,
            });
        };
        Ok(Bytes::copy_from_slice(state))
    }

    /// (Re-)store program state into the data segment, preserving at least
    /// `min_len` bytes of segment. In place while the segment keeps its
    /// size; a state that outgrew it (or shrank back into `min_len`)
    /// reassembles the buffer around the resized segment: the memory-table
    /// side of "definition of memory … if necessary", §3.1 step 5.
    pub fn store_state(&mut self, state: &[u8], min_len: usize) {
        let data_len = min_len.max(4 + state.len());
        if data_len != self.data().len() {
            let stack_at = self.data_at + data_len;
            let mut flat = Vec::with_capacity(stack_at + self.stack().len());
            flat.extend_from_slice(&self.flat[..self.data_at]);
            flat.resize(stack_at, 0);
            flat.extend_from_slice(self.stack());
            flat[4..8].copy_from_slice(&(data_len as u32).to_be_bytes());
            self.flat = Arc::new(flat);
            self.stack_at = stack_at;
        }
        let data = &mut Arc::make_mut(&mut self.flat)[self.data_at..self.stack_at];
        write_state(data, state);
        data[4 + state.len()..].fill(0);
    }

    /// Total image size in bytes — what migration step 5 transfers.
    pub fn total_len(&self) -> usize {
        self.flat.len() - HEADER
    }

    /// Length of the flat form — what sizes a migration offer.
    pub fn flat_len(&self) -> usize {
        self.flat.len()
    }

    /// The flat form for a whole-image move-data read (step 5 of §3.1
    /// uses one data move for "code, data, and stack"): shares the image's
    /// buffer, and later writes to the image do not show through.
    pub fn shared_flat(&self) -> Bytes {
        Bytes::from(Arc::clone(&self.flat))
    }

    /// A copy of the flat form.
    pub fn to_flat(&self) -> Vec<u8> {
        Vec::clone(&self.flat)
    }

    /// [`Self::from_flat_vec`] over a copy of `bytes`.
    pub fn from_flat(bytes: &[u8]) -> Result<Self, WireError> {
        Self::from_flat_vec(bytes.to_vec())
    }

    /// Adopt a reassembled flat form as the image: the header is checked
    /// against the buffer's length and the buffer is kept as it is.
    pub fn from_flat_vec(flat: Vec<u8>) -> Result<Self, WireError> {
        let Some(hdr) = flat.get(..HEADER) else {
            return Err(WireError::Truncated("image header"));
        };
        let code_len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as u64;
        let data_len = u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as u64;
        let stack_len = u32::from_be_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]) as u64;
        let total = code_len + data_len + stack_len;
        if total != (flat.len() - HEADER) as u64 {
            return Err(WireError::BadLength {
                what: "image segments",
                len: total as usize,
            });
        }
        let data_at = HEADER + code_len as usize;
        Ok(ProcessImage {
            stack_at: data_at + data_len as usize,
            data_at,
            flat: Arc::new(flat),
        })
    }

    /// Read `len` bytes at `offset` of the *data segment* — the region
    /// user-level data-area links grant access to (§2.2).
    pub fn read_data(&self, offset: u32, len: u32) -> Option<&[u8]> {
        let start = offset as usize;
        let end = start.checked_add(len as usize)?;
        self.data().get(start..end)
    }

    /// Write into the data segment at `offset`.
    pub fn write_data(&mut self, offset: u32, bytes: &[u8]) -> bool {
        let start = offset as usize;
        let Some(end) = start.checked_add(bytes.len()) else {
            return false;
        };
        if end > self.data().len() {
            return false;
        }
        let at = self.data_at + start;
        Arc::make_mut(&mut self.flat)[at..at + bytes.len()].copy_from_slice(bytes);
        true
    }
}

/// Write `[state_len u32][state]` at the head of a data segment; the
/// caller owns the zero padding behind it.
fn write_state(segment: &mut [u8], state: &[u8]) {
    segment[..4].copy_from_slice(&(state.len() as u32).to_be_bytes());
    segment[4..4 + state.len()].copy_from_slice(state);
}

/// Convenience: encode an image layout for the memory tables of the
/// resident state.
impl Wire for ImageLayout {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.code);
        buf.put_u32(self.data);
        buf.put_u32(self.stack);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < Self::WIRE_LEN {
            return Err(WireError::Truncated("ImageLayout"));
        }
        Ok(ImageLayout {
            code: buf.get_u32(),
            data: buf.get_u32(),
            stack: buf.get_u32(),
        })
    }

    fn wire_len(&self) -> usize {
        Self::WIRE_LEN
    }
}

/// Encode a name + state pair as used by spawn requests.
pub fn encode_spawn_blob(name: &str, state: &[u8]) -> Bytes {
    let len = wire::bytes_len(name.len()) + wire::bytes_len(state.len());
    Bytes::filled(len, |out| {
        wire::put_string(out, name);
        wire::put_bytes(out, state);
    })
}

/// Decode a spawn blob.
pub fn decode_spawn_blob(bytes: &Bytes) -> Result<(String, Bytes), WireError> {
    let mut buf = bytes.clone();
    let name = wire::get_string(&mut buf, "spawn.name", MAX_NAME)?;
    let state = wire::get_bytes(&mut buf, "spawn.state", MAX_STATE)?;
    Ok((name, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse() {
        let img = ProcessImage::build("pingpong", b"state!", ImageLayout::default());
        assert_eq!(img.program_name().unwrap(), "pingpong");
        assert_eq!(&img.load_state().unwrap()[..], b"state!");
        assert_eq!(img.code().len(), 8 * 1024);
        assert_eq!(img.data().len(), 4 * 1024);
        assert_eq!(img.stack().len(), 2 * 1024);
        assert_eq!(img.total_len() as u32, ImageLayout::default().total());
    }

    #[test]
    fn state_larger_than_declared_grows_segment() {
        let layout = ImageLayout {
            code: 64,
            data: 8,
            stack: 0,
        };
        let img = ProcessImage::build("p", &[7u8; 100], layout);
        assert_eq!(&img.load_state().unwrap()[..], &[7u8; 100][..]);
        assert!(img.data().len() >= 104);
    }

    #[test]
    fn restore_state_in_place() {
        let mut img = ProcessImage::build("p", b"old", ImageLayout::default());
        img.store_state(b"newer state", img.data().len());
        assert_eq!(&img.load_state().unwrap()[..], b"newer state");
        assert_eq!(img.data().len(), 4 * 1024, "declared size preserved");
    }

    #[test]
    fn flat_roundtrip() {
        let img = ProcessImage::build(
            "prog",
            b"abc",
            ImageLayout {
                code: 100,
                data: 50,
                stack: 25,
            },
        );
        let flat = img.to_flat();
        let back = ProcessImage::from_flat(&flat).unwrap();
        assert_eq!(back, img);
        assert_eq!(flat.len(), 12 + img.total_len());
        assert_eq!(
            img.flat_len(),
            flat.len(),
            "arithmetic flat length matches the built blob"
        );
    }

    #[test]
    fn flat_rejects_bad_lengths() {
        let img = ProcessImage::build(
            "prog",
            b"abc",
            ImageLayout {
                code: 64,
                data: 16,
                stack: 0,
            },
        );
        let mut flat = img.to_flat();
        flat.pop();
        assert!(ProcessImage::from_flat(&flat).is_err());
    }

    #[test]
    fn data_window_access() {
        let mut img = ProcessImage::build(
            "p",
            b"",
            ImageLayout {
                code: 16,
                data: 64,
                stack: 0,
            },
        );
        assert!(img.write_data(10, b"hello"));
        assert_eq!(img.read_data(10, 5).unwrap(), b"hello");
        assert!(img.read_data(60, 10).is_none(), "out of bounds read");
        assert!(!img.write_data(u32::MAX, b"x"), "overflow guarded");
    }

    #[test]
    fn corrupt_code_segment_is_error() {
        // One code byte, no data, no stack.
        let img = ProcessImage::from_flat(&[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff]).unwrap();
        assert!(img.program_name().is_err());
        assert!(img.load_state().is_err());
    }

    #[test]
    fn spawn_blob_roundtrip() {
        let blob = encode_spawn_blob("fs", b"\x01\x02");
        let (name, state) = decode_spawn_blob(&blob).unwrap();
        assert_eq!(name, "fs");
        assert_eq!(&state[..], b"\x01\x02");
    }
}
