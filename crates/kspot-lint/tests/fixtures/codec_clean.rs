// Fixture: the codec as it is written — big-endian reads, and every declared count
// checked against the bytes left before it sizes anything.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn u32(&mut self) -> Option<u32> {
        let head = *self.bytes[self.pos..].first_chunk::<4>()?;
        self.pos += 4;
        Some(u32::from_be_bytes(head))
    }

    pub fn count(&self, declared: u32, elem_bytes: usize) -> Option<usize> {
        let need = (declared as usize).checked_mul(elem_bytes)?;
        (need <= self.bytes.len() - self.pos).then_some(declared as usize)
    }

    pub fn words(&mut self) -> Option<Vec<u32>> {
        let declared = self.u32()?;
        let n = self.count(declared, 4)?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.u32()?);
        }
        Some(words)
    }
}
