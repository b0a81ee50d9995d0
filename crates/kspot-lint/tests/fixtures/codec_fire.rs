// Fixture: the codec both byte boundaries read through is fenced like them — a
// host-order read (R3) and a declared count sizing a buffer before it is checked
// against the bytes left (R6).
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn u32(&mut self) -> Option<u32> {
        let head = *self.bytes[self.pos..].first_chunk::<4>()?;
        self.pos += 4;
        Some(u32::from_ne_bytes(head))
    }

    pub fn words(&mut self) -> Option<Vec<u32>> {
        let declared = self.u32()? as usize;
        let mut words = Vec::with_capacity(declared);
        for _ in 0..declared {
            words.push(self.u32()?);
        }
        Some(words)
    }
}
