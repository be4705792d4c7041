//! The one foreign call in this crate: a minimal `poll(2)` shim, so the
//! reactor can block until a descriptor is ready instead of napping between
//! non-blocking sweeps; `rambo-cluster` blocks on it too, through [`PollFd`],
//! [`POLLIN`] and [`wait`]. Unix only, std only — `poll` is in every libc the
//! standard library already links, and the `POLL*` bits below have the same
//! values on Linux and the BSDs.
//!
//! `poll` is level-triggered: a descriptor left in the set with an event the
//! caller will not act on is reported again by every call, at once. The
//! reactor's interest sets are built around that (see `reactor.rs`).

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable (for a listener: a connection to accept; for a stream, also EOF).
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error / hang-up / not an open descriptor: reported whether asked for or not.
pub(crate) const POLLERR: c_short = 0x008;
pub(crate) const POLLHUP: c_short = 0x010;
pub(crate) const POLLNVAL: c_short = 0x020;

/// One entry of a poll set; layout fixed by POSIX (`struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `source` for `events` (a mask of [`POLLIN`] and `POLLOUT`; `0`
    /// still reports errors and hang-ups).
    pub fn new(source: &impl AsRawFd, events: c_short) -> Self {
        Self {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] found on this descriptor; `0` for nothing.
    pub fn revents(&self) -> c_short {
        self.revents
    }
}

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

/// Block until a descriptor in `fds` has an event or `timeout` passes; the
/// events are left in each entry's [`PollFd::revents`]. The timeout is
/// rounded *up* to the call's millisecond granularity, so returning with no
/// event means the full `timeout` did pass — or a signal arrived (`EINTR`),
/// which is reported the same way so the caller re-reads its stop flag.
///
/// # Errors
/// Whatever else `poll(2)` fails with (`ENOMEM`, `EINVAL` for a set larger
/// than the descriptor limit).
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let millis = timeout.as_nanos().div_ceil(1_000_000);
    let millis = c_int::try_from(millis).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` entries
    // whose layout is POSIX's `struct pollfd`, and the length passed is that
    // slice's length, so the kernel reads and writes only memory this call
    // owns for its duration. `poll` keeps no pointer past its return.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, millis) };
    if ready >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        // A failed call writes no `revents`; entries are built fresh (zeroed)
        // for every wait, so this reads as a timeout with no events.
        return Ok(());
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_and_writable_and_times_out() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&a, POLLIN)];
        wait(&mut fds, Duration::ZERO).unwrap();
        assert_eq!(fds[0].revents(), 0, "nothing to read yet");

        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&a, POLLIN | POLLOUT), PollFd::new(&b, 0)];
        wait(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(fds[0].revents(), POLLIN | POLLOUT);
        assert_eq!(fds[1].revents(), 0, "no interest, no event");

        drop(b);
        let mut fds = [PollFd::new(&a, 0)];
        wait(&mut fds, Duration::ZERO).unwrap();
        assert_ne!(fds[0].revents() & POLLHUP, 0, "hang-up is always reported");
    }

    #[test]
    fn a_quiet_wait_lasts_at_least_its_timeout() {
        // Rounding down to whole milliseconds would return the sub-ms
        // timeouts at once.
        let (a, _b) = UnixStream::pair().unwrap();
        for timeout in [
            Duration::from_micros(1),
            Duration::from_micros(999),
            Duration::from_millis(1) + Duration::from_nanos(1),
            Duration::from_micros(2_500),
        ] {
            let mut fds = [PollFd::new(&a, POLLIN)];
            let start = std::time::Instant::now();
            wait(&mut fds, timeout).unwrap();
            let waited = start.elapsed();
            assert_eq!(fds[0].revents(), 0, "{timeout:?}: no event was due");
            assert!(waited >= timeout, "{timeout:?}: returned after {waited:?}");
        }
    }
}
