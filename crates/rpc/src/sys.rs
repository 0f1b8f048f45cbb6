//! Hand-declared Linux `epoll` bindings for the reactor's sweep threads.
//!
//! std already links libc, so the three entry points are declared here
//! instead of pulling in a crate. This is the workspace's only
//! `#[allow(unsafe_code)]`; the `unsafe_confinement` analyzer rule pins
//! `unsafe` to this file.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`, packed on x86_64 only (its ABI).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty slot for a wait buffer.
    pub(crate) const EMPTY: Event = Event { events: 0, data: 0 };

    /// The token the fd was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One epoll set with level-triggered `EPOLLIN | EPOLLRDHUP` interest.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a non-negative return is
        // a fresh fd that nothing else owns.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just returned open and unowned.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    /// Watches `fd` for readability; readiness reports carry `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
        let mut event = Event { events: EPOLLIN | EPOLLRDHUP, data: token };
        // SAFETY: both fds are open for the call and `event` is a valid
        // `epoll_event` the kernel only reads.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut event) })?;
        Ok(())
    }

    /// Stops watching `fd`. Call before closing it: the registration
    /// follows the open file, which a `try_clone` elsewhere may keep alive.
    pub(crate) fn del(&self, fd: &impl AsRawFd) -> io::Result<()> {
        let mut event = Event::EMPTY;
        // SAFETY: as in `add`; the kernel ignores `event` for a delete.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd.as_raw_fd(), &mut event) })?;
        Ok(())
    }

    /// Waits up to `timeout` (`None` = forever; rounded up to whole
    /// milliseconds) and returns how many `events` slots were filled.
    /// A signal interruption reports 0.
    pub(crate) fn wait(
        &self,
        events: &mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
        };
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max` entries into `events`,
        // which is valid for that many.
        match cvt(unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) })
        {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn wait_on_empty_set_returns_zero() {
        let ep = Epoll::new().unwrap();
        let mut events = [Event::EMPTY; 4];
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn written_byte_is_reported_with_its_token() {
        let ep = Epoll::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        ep.add(&rx, 42).unwrap();
        let mut events = [Event::EMPTY; 4];
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        tx.write_all(&[1]).unwrap();
        assert_eq!(ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(events[0].token(), 42);
        // Level-triggered: the unread byte is reported again.
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
    }

    #[test]
    fn deleted_fd_is_not_reported() {
        let ep = Epoll::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        ep.add(&rx, 7).unwrap();
        tx.write_all(&[1]).unwrap();
        ep.del(&rx).unwrap();
        let mut events = [Event::EMPTY; 4];
        assert_eq!(ep.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
    }
}
