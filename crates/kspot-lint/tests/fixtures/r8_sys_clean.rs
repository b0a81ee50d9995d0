// Fixture: the audited module — every block carries its argument, however many
// comment lines it takes.
extern "C" {
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

pub(crate) fn set_backlog(fd: i32, backlog: i32) -> bool {
    // SAFETY: two integers, no pointer; the descriptor is open for the whole call
    // because the caller borrows its owner.
    unsafe { listen(fd, backlog) == 0 }
}
