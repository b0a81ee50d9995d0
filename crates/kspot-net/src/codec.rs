//! The byte codec of the two untrusted-input boundaries: the wire protocol
//! (`kspot-serve`'s `proto`, ADR-007) and the checkpoint format (`kspot-store`'s
//! `format`, ADR-009/013).
//!
//! Both lay out fixed-width **big-endian** integers, written with [`put_u16`],
//! [`put_u32`] and [`put_u64`] and read back through a [`Reader`].  Every read is
//! bounds-checked, a declared element count is checked against the bytes actually
//! left before anything is sized by it ([`Reader::count`]), and a malformed input is
//! a [`CodecError`], never a panic.  What is particular to one boundary stays with it:
//! the wire's length-prefixed strings and frames, the store's magic, version and seal.
//! Each maps [`CodecError`] onto its own error type with a `From` impl.

/// Appends `v` big-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Why a [`Reader`] refused its input; each boundary maps it onto its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before what was read — or declared — was complete.
    Truncated,
    /// The structure ended but bytes remain.
    TrailingBytes,
}

/// A bounds-checked cursor over untrusted bytes.  A read that fails leaves the
/// position where it was.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    /// Never past `bytes.len()`.
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at `pos`; [`CodecError::Truncated`] if `pos`
    /// is past the end.
    #[inline]
    pub fn at(bytes: &'a [u8], pos: usize) -> Result<Self, CodecError> {
        if pos > bytes.len() {
            return Err(CodecError::Truncated);
        }
        Ok(Self { bytes, pos })
    }

    /// Bytes read so far, counted from the start of the input.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, _) = self.bytes[self.pos..]
            .split_at_checked(n)
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let head = *self.bytes[self.pos..]
            .first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    /// The next big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    /// The next big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Validates a declared element count against the bytes actually left — at least
    /// `elem_bytes` per element — so a hostile count can never size an allocation.
    #[inline]
    pub fn count(&self, declared: u32, elem_bytes: usize) -> Result<usize, CodecError> {
        let declared = declared as usize;
        if declared
            .checked_mul(elem_bytes)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CodecError::Truncated);
        }
        Ok(declared)
    }

    /// Ends the read: [`CodecError::TrailingBytes`] unless every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_writes_and_reads_big_endian_known_answers() {
        let mut out = vec![0xAB];
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x0304_0506);
        put_u64(&mut out, 0x0708_090A_0B0C_0D0E);
        assert_eq!(out, [0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);

        let mut r = Reader::at(&out, 0).expect("in bounds");
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!((r.pos(), r.remaining()), (15, 0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn codec_reads_fail_at_the_end_without_moving() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::at(&bytes, 1).expect("in bounds");
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(
            r.take(3),
            Err(CodecError::Truncated),
            "one byte past the end"
        );
        assert_eq!(r.pos(), 1, "a failed read consumes nothing");
        assert_eq!(r.take(1), Ok(&[2u8][..]), "before the end");
        assert_eq!(r.u16(), Err(CodecError::Truncated));
        assert_eq!(r.take(1), Ok(&[3u8][..]), "up to the end");
        assert_eq!(r.take(0), Ok(&[][..]), "nothing, at the end");
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn codec_counts_are_checked_against_the_bytes_left() {
        let bytes = [0u8; 16];
        let mut r = Reader::at(&bytes, 0).expect("in bounds");
        assert_eq!(r.count(4, 4), Ok(4), "exactly the bytes left");
        assert_eq!(r.count(3, 4), Ok(3), "fewer");
        assert_eq!(
            r.count(5, 4),
            Err(CodecError::Truncated),
            "one element past the end"
        );
        assert_eq!(r.count(0, usize::MAX), Ok(0));
        assert_eq!(
            r.count(u32::MAX, usize::MAX),
            Err(CodecError::Truncated),
            "overflows usize"
        );
        assert_eq!(
            r.count(2, usize::MAX / 2 + 1),
            Err(CodecError::Truncated),
            "overflows by one"
        );
        r.take(12).expect("12 of 16 bytes");
        assert_eq!(r.count(1, 4), Ok(1));
        assert_eq!(
            r.count(1, 5),
            Err(CodecError::Truncated),
            "counts what is left, not the input"
        );
    }

    #[test]
    fn codec_finish_wants_every_byte_and_at_wants_an_in_bounds_start() {
        let bytes = [0u8; 4];
        let mut r = Reader::at(&bytes, 0).expect("in bounds");
        r.u16().expect("2 of 4 bytes");
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        assert_eq!(
            Reader::at(&bytes, 4).map(|r| r.remaining()),
            Ok(0),
            "at the end"
        );
        assert_eq!(
            Reader::at(&bytes, 5).err(),
            Some(CodecError::Truncated),
            "past the end"
        );
        assert_eq!(
            Reader::at(&[], usize::MAX).err(),
            Some(CodecError::Truncated)
        );
    }
}
