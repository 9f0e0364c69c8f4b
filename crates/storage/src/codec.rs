//! Hand-rolled binary codec and CRC-32.
//!
//! The workspace's vendored `serde` is derive-only, so WAL record encodings
//! are written by hand against these helpers. Everything is little-endian;
//! decoding never panics — a truncated or garbage buffer yields `None`, which
//! the recovery scan treats as a torn tail.

const CRC_POLY: u32 = 0xEDB8_8320;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Bytes in a frame header: `[len u32 LE][crc32(payload) u32 LE]`, the
/// framing shared by WAL segments and the live plane's socket streams.
pub const FRAME_HEADER: usize = 8;

/// The header of the frame that carries `payload`.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Splits a frame header into the payload length and the payload's
/// expected CRC. Bounding the length is the caller's job: what counts as
/// absurd differs between a log record and a socket frame.
pub fn parse_frame_header(header: &[u8; FRAME_HEADER]) -> (usize, u32) {
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    (len as usize, crc)
}

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Panic-free decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub fn bool(&mut self) -> Option<bool> {
        self.u8().map(|b| b != 0)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Option<usize> {
        self.u64().map(|v| v as usize)
    }

    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn round_trip() {
        let mut e = Enc::new();
        e.u8(7).bool(true).u32(0xDEAD_BEEF).u64(u64::MAX).bytes(b"hello");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.bool(), Some(true));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(d.bytes(), Some(&b"hello"[..]));
        assert!(d.is_empty());
    }

    #[test]
    fn frame_header_round_trips() {
        let header = frame_header(b"payload");
        assert_eq!(parse_frame_header(&header), (7, crc32(b"payload")));
    }

    #[test]
    fn truncated_decode_is_none_not_panic() {
        let mut e = Enc::new();
        e.u64(42).bytes(b"abcdef");
        let buf = e.finish();
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            // Whatever sequence of reads, a short buffer must yield None.
            let _ = d.u64().and_then(|_| d.bytes());
        }
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(d.bytes(), None, "length prefix larger than buffer");
    }
}
