//! Minimal Linux readiness syscalls for the TCP ingest plane.
//!
//! The workspace takes no crates.io dependencies, and `std` exposes no
//! readiness API — but every Rust binary on Linux already links libc,
//! so the handful of syscall wrappers the reactor needs (`epoll`,
//! `eventfd`, `fcntl`, `shutdown`) are declared here directly as `extern "C"`
//! items. Everything is wrapped in two tiny RAII handles ([`Epoll`],
//! [`EventFd`]) so the unsafe surface stays confined to this module.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn shutdown(sockfd: c_int, how: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readiness event bits (subset the reactor uses).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

const SHUT_RDWR: c_int = 2;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
/// it (no padding between the 32-bit mask and the 64-bit payload);
/// other architectures use natural C layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLL*` bits).
    pub events: u32,
    /// The caller's token, round-tripped verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for pre-sizing wait buffers.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arm `fd` with a new interest mask (same token).
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness (`-1` blocks, `0` polls),
    /// retrying on EINTR. Returns how many of `events` were filled.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned eventfd used to wake a blocked `epoll_wait` from another
/// thread (new connection in the inbox, shutdown requested).
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// A nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wake the waiter (adds 1 to the counter; best-effort).
    pub fn signal(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consume all pending wakeups so the level-triggered registration
    /// goes quiet again.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// Switch `fd` into nonblocking mode via `fcntl` (the reactor does
/// this to every accepted socket before registering it).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = cvt(unsafe { fcntl(fd, F_GETFL, 0) })?;
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(|_| ())
}

/// Shut socket `fd` down both ways. On a listening socket this wakes
/// a thread blocked in `accept` (which then fails with `EINVAL`), and
/// unlike a wake-up connection it needs no free descriptor.
pub fn shutdown_socket(fd: RawFd) -> io::Result<()> {
    // SAFETY: `shutdown` takes plain integers and touches no memory of
    // ours; a bad `fd` is an error return.
    cvt(unsafe { shutdown(fd, SHUT_RDWR) }).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains_quiet() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), 7, EPOLLIN).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing signalled yet: a zero-timeout wait returns empty.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ev.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (mask, token) = (events[0].events, events[0].data);
        assert_eq!(token, 7);
        assert_ne!(mask & EPOLLIN, 0);
        // Drained, the level-triggered registration goes quiet.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn modify_and_delete_change_the_interest_set() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), 1, EPOLLIN).unwrap();
        ev.signal();
        // Re-armed for EPOLLOUT only: an eventfd below its max counter
        // is always writable, so the event fires with the new mask.
        ep.modify(ev.raw(), 1, EPOLLOUT).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let mask = events[0].events;
        assert_ne!(mask & EPOLLOUT, 0);
        ep.delete(ev.raw()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
