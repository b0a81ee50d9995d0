// Fixture: the order is stated — little-endian words into the seal, a big-endian
// trailer out — and the index iterates in key order.
use std::collections::BTreeMap;

pub fn seal(payload: &[u8], index: &mut BTreeMap<u64, usize>) -> [u8; 8] {
    let mut sum = 0u64;
    for word in payload.chunks_exact(8) {
        sum ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
    }
    index.insert(sum, payload.len());
    sum.to_be_bytes()
}
