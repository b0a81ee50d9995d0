// Fixture: at a byte boundary R3 fires on host-order conversions — the seal of a
// stored image read this way verifies on the host that wrote it and nowhere else —
// and, the stored bytes being a deterministic path, on a hash-ordered index of them.
use std::collections::HashMap;

pub fn seal(payload: &[u8], index: &mut HashMap<u64, usize>) -> [u8; 8] {
    let mut sum = 0u64;
    for word in payload.chunks_exact(8) {
        sum ^= u64::from_ne_bytes(word.try_into().expect("8 bytes"));
    }
    index.insert(sum, payload.len());
    sum.to_ne_bytes()
}
