// Fixture: inside the audited module a block still needs its SAFETY comment,
// directly above — a comment about something else, or one a blank line away, is not it.
extern "C" {
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

pub(crate) fn undocumented(fd: i32) -> i32 {
    // Resize the accept queue.
    unsafe { listen(fd, 1024) }
}

pub(crate) fn detached(fd: i32) -> i32 {
    // SAFETY: two integers, no pointer.

    unsafe { listen(fd, 1024) }
}
