//! The two system calls `std` does not expose — `poll(2)` and `listen(2)` — and the
//! only `unsafe` in the workspace's shipped code (ADR-011).
//!
//! Everything the server needs from them is behind two safe functions: [`wait`]
//! blocks until one of a set of descriptors is ready, [`set_backlog`] resizes a
//! listener's accept queue.  The lint rule R8 `unsafe-confinement` keeps the keyword
//! inside this file and demands a `// SAFETY:` comment before every block.

use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};

#[cfg(not(unix))]
compile_error!("kspot-serve waits for readiness with poll(2): unix targets only (ADR-011)");

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the other unixes.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// There is data to read (or a peer's close to notice).
pub(crate) const POLLIN: i16 = 0x001;
/// Writing would not block.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`, field for field.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` (a mask of [`POLLIN`] / [`POLLOUT`]) on `fd`.
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        Self { fd, events, revents: 0 }
    }

    /// Whether the last [`wait`] reported anything for this descriptor: a requested
    /// event, or the error / hang-up / not-open conditions the kernel always reports.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout);`
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    /// `int listen(int sockfd, int backlog);`
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

/// Blocks until some descriptor in `fds` is ready or `timeout_ms` elapses (negative:
/// no timeout) and returns how many are ready; each entry's [`PollFd::ready`] says
/// which.  A signal restarts the wait, timeout included.  A descriptor that is not
/// open comes back *ready*, not as an error, so its owner finds out by using it.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: the pointer and the count come from one live `&mut [PollFd]`, so the
        // kernel reads and writes exactly `fds.len()` initialised `#[repr(C)]` records
        // laid out as `struct pollfd`, and only for the duration of the call; `poll`
        // keeps no pointer.  A slice length always fits `nfds_t`.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// Sets `listener`'s accept-queue length.  `std` listens with a fixed 128; calling
/// `listen(2)` again on a listening socket only resizes the queue (the kernel still
/// caps it at `net.core.somaxconn`).
pub(crate) fn set_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    // SAFETY: `listen` takes two integers and no pointer; the descriptor is open for
    // the whole call because `listener` is borrowed.
    if unsafe { listen(listener.as_raw_fd(), backlog) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    #[test]
    fn an_empty_set_with_no_timeout_returns_at_once() {
        assert_eq!(wait(&mut [], 0).expect("poll"), 0);
    }

    #[test]
    fn a_timeout_is_waited_out_when_nothing_is_ready() {
        let (quiet, _peer) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(quiet.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        assert_eq!(wait(&mut fds, 5).expect("poll"), 0);
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert!(!fds[0].ready());
    }

    #[test]
    fn readable_and_writable_are_told_apart() {
        let (a, b) = UnixStream::pair().expect("socket pair");
        let mut fds =
            [PollFd::new(a.as_raw_fd(), POLLIN), PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(wait(&mut fds, 0).expect("poll"), 1);
        assert!(!fds[0].ready() && fds[1].ready(), "nothing to read, room to write");

        use std::io::Write;
        (&b).write_all(b"x").expect("write");
        assert_eq!(wait(&mut fds, -1).expect("poll"), 2);
        assert!(fds[0].ready() && fds[1].ready());
    }

    #[test]
    fn a_descriptor_that_is_not_open_comes_back_ready_not_as_an_error() {
        // Far above any descriptor this process has open, so no parallel test can
        // have it reassigned between a `close` and the `poll`.
        let mut fds = [PollFd::new(i32::MAX, POLLIN)];
        assert_eq!(wait(&mut fds, 0).expect("POLLNVAL is a result, not an error"), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_hung_up_peer_is_reported_without_being_asked_for() {
        let (a, b) = UnixStream::pair().expect("socket pair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert!(wait(&mut fds, 0).expect("poll") == 1 && fds[0].ready());
    }
}
