//! Readiness waiting: `poll(2)` behind a safe wrapper — the crate's
//! only foreign call and its only `unsafe` block.
//!
//! The reactor and the accept loop block here instead of sleeping, so
//! a byte arriving on any of their sockets (or on the admission queue's
//! wake socket) ends the wait at once. Declared for Linux, where
//! `nfds_t` is an `unsigned long` and the event bits below hold.

use std::ffi::{c_int, c_short, c_ulong};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable: data, a pending connection, or EOF.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// One `struct pollfd`. The kernel reads `fd` and `events` and writes
/// `revents`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait for `events` on `source`. The descriptor is borrowed only
    /// for its number: a descriptor closed before the wait is reported
    /// by the kernel (`POLLNVAL`), never dereferenced.
    pub(crate) fn new(source: &impl AsRawFd, events: c_short) -> Self {
        Self {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// The last [`wait`] reported an event here (readiness, hang-up or
    /// error: anything a read or write would now return at once).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until one of `fds` is ready or `timeout` passes; returns the
/// number of ready descriptors (0 on timeout or a signal interruption,
/// both of which the caller treats as "sweep again").
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    let nfds = c_ulong::try_from(fds.len()).expect("descriptor count fits nfds_t");
    // SAFETY: `fds` is a live, exclusively borrowed slice of `nfds`
    // `#[repr(C)]` records laid out as `struct pollfd`; `poll` writes
    // only their `revents` fields and keeps no pointer past the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    match usize::try_from(ready) {
        Ok(n) => Ok(n),
        Err(_) => {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn a_readable_socket_ends_the_wait_and_an_idle_one_times_out() {
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        let started = Instant::now();
        let ready = wait(&mut [PollFd::new(&rx, POLLIN)], Duration::from_millis(20));
        assert_eq!(ready.expect("poll"), 0);
        assert!(started.elapsed() >= Duration::from_millis(15));

        tx.write_all(b"x").expect("write");
        let ready = wait(&mut [PollFd::new(&rx, POLLIN)], Duration::from_secs(10));
        assert_eq!(ready.expect("poll"), 1);
        // An empty send buffer is writable straight away.
        let ready = wait(&mut [PollFd::new(&tx, POLLOUT)], Duration::from_secs(10));
        assert_eq!(ready.expect("poll"), 1);
    }
}
