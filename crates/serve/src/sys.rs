//! Raw OS interfaces for the event loops, without a `libc` crate
//! dependency (matching the `signal` module's precedent): `epoll` for
//! readiness notification, one instance per loop. Linux-only, like the
//! service itself.

use std::io;
use std::time::Duration;

use std::os::raw::c_int;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readable readiness (`EPOLLIN`).
pub(crate) const EVENT_READ: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EVENT_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`), always reported.
pub(crate) const EVENT_ERROR: u32 = 0x008;
/// Peer hang-up (`EPOLLHUP`), always reported.
pub(crate) const EVENT_HANGUP: u32 = 0x010;

/// The kernel's `epoll_event`, packed on x86-64 only (the kernel ABI
/// differs by architecture).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// The kernel's `epoll_event` on architectures where it is not packed.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// One readiness notification: the registered token and the event mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// The token the file descriptor was registered with (its fd).
    pub(crate) token: u64,
    /// Bitwise OR of `EVENT_*` flags.
    pub(crate) events: u32,
}

impl Event {
    /// Whether the descriptor is readable (or in an error/hang-up state
    /// that a read will surface).
    #[must_use]
    pub(crate) fn readable(self) -> bool {
        self.events & (EVENT_READ | EVENT_ERROR | EVENT_HANGUP) != 0
    }

    /// Whether the descriptor is writable.
    #[must_use]
    pub(crate) fn writable(self) -> bool {
        self.events & EVENT_WRITE != 0
    }

    /// Whether the peer reset or hung up. Epoll reports this even for a
    /// descriptor registered with no interest at all.
    #[must_use]
    pub(crate) fn hung_up(self) -> bool {
        self.events & (EVENT_ERROR | EVENT_HANGUP) != 0
    }
}

/// A level-triggered `epoll` instance.
pub(crate) struct Poller {
    epfd: c_int,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failures.
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: i32, events: u32) -> io::Result<()> {
        let mut event = EpollEvent { events, data: fd as u64 };
        // SAFETY: `event` outlives the call; DEL ignores the pointer on
        // modern kernels but a valid one is passed regardless.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for the given event mask (token = fd).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub(crate) fn add(&self, fd: i32, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events)
    }

    /// Changes the event mask of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub(crate) fn set(&self, fd: i32, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub(crate) fn del(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0)
    }

    /// Waits up to `timeout`, rounded up to whole milliseconds so a
    /// wait never ends before it, for readiness events, appending them
    /// to `out`. A signal interruption is reported as zero events.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures other than `EINTR`.
    pub(crate) fn wait(&self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        const CAPACITY: usize = 256;
        let mut events = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let timeout_ms =
            c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: the buffer is valid for CAPACITY entries and the
        // kernel writes at most `maxevents` of them.
        let n =
            unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), CAPACITY as c_int, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for event in events.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let (data, mask) = (event.data, event.events);
            out.push(Event { token: data, events: mask });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this Poller and closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_reports_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), EVENT_READ).unwrap();

        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "no pending connection yet");

        let mut client = TcpStream::connect(addr).unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert!(
            events.iter().any(|e| e.token == listener.as_raw_fd() as u64 && e.readable()),
            "pending accept must wake the poller: {events:?}"
        );

        // Accepted stream readability, then deregistration.
        let (server_side, _) = listener.accept().unwrap();
        poller.add(server_side.as_raw_fd(), EVENT_READ).unwrap();
        client.write_all(b"x").unwrap();
        events.clear();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == server_side.as_raw_fd() as u64 && e.readable()));
        poller.del(server_side.as_raw_fd()).unwrap();
    }
}
