// Fixture: a comment shaped like a lock-order marker above a nested
// acquisition. It silences nothing; R5 still fires on the second lock.
use std::sync::Mutex;

pub fn ordered(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    let ga = a.lock().expect("a not poisoned");
    // lint: lock-order(b is strictly after a in the global deployment order)
    let gb = b.lock().expect("b not poisoned");
    *ga + *gb
}
