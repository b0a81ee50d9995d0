// Fixture: R8 fires on the keyword in every position and on a relaxing attribute.
#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        fn getpid() -> i32;
    }

    pub fn pid() -> i32 {
        // SAFETY: a comment does not make this the audited module.
        unsafe { getpid() }
    }

    pub unsafe fn raw() {}
}

unsafe impl Send for ffi::Handle {}
