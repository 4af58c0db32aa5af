//! Minimal Linux readiness primitives — `epoll` and `eventfd` via
//! direct libc calls. The crates.io-free constraint rules out mio and
//! tokio, but std already links libc, so declaring the five syscall
//! wrappers we need is enough; everything above this module is plain
//! safe Rust over `RawFd`s.
//!
//! [`Epoll`] is used level-triggered: the event loop re-reads readiness
//! every `wait` and never needs the edge-triggered drain-until-EAGAIN
//! discipline. [`EventFd`] is the wakeup channel *into* the loop —
//! worker completions and shutdown both write to one, which `wait`
//! reports like any other fd.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;

mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    // epoll_event carries a 32-bit mask and a 64-bit user token. On
    // x86_64 the kernel ABI packs it (no padding between the fields);
    // other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Debug)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
}

/// Readiness kinds reported by [`Epoll::wait`]. `READ` includes
/// hangup/error conditions — a dead peer makes the fd "readable" (read
/// returns 0 or an error), which is exactly when the loop should touch
/// it and find out.
pub const EV_READ: u32 = 0x001 | 0x008 | 0x010 | 0x2000; // EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP
/// Write-readiness (`EPOLLOUT`).
pub const EV_WRITE: u32 = 0x004;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// One readiness notification: which fd (by the caller's token) and
/// what it is ready for.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token passed to [`Epoll::add`].
    pub token: u64,
    /// Bitmask of `EV_READ` / `EV_WRITE` bits.
    pub ready: u32,
}

impl Event {
    /// Readable (or hung up / errored — anything a read will surface).
    pub fn readable(&self) -> bool {
        self.ready & EV_READ != 0
    }
    /// Writable.
    pub fn writable(&self) -> bool {
        self.ready & EV_WRITE != 0
    }
    /// Errored or hung up in both directions (a reset peer): reported
    /// whatever the interest, and nothing more can be sent or received.
    pub fn hung_up(&self) -> bool {
        self.ready & (EPOLLERR | EPOLLHUP) != 0
    }
}

/// An epoll instance plus a reusable event buffer.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

/// Interest bitmask helper: build the kernel-facing mask from the
/// loop-facing `EV_*` bits. Peer half-close (`EPOLLRDHUP`) is asked
/// for only with read interest: it stays ready once the peer shuts its
/// write side, so a connection the loop is not reading would wake every
/// wait. Errors and hang-ups are reported whatever the mask.
fn kernel_mask(interest: u32) -> u32 {
    let mut mask = 0;
    if interest & EV_READ != 0 {
        mask |= EPOLLIN | EPOLLRDHUP;
    }
    if interest & EV_WRITE != 0 {
        mask |= EPOLLOUT;
    }
    mask
}

impl Epoll {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Register `fd` with the given token and interest (`EV_READ` /
    /// `EV_WRITE` bits).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister an fd. Closing the fd drops the registration anyway;
    /// explicit removal keeps the table tidy when a slot is recycled
    /// before close.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: kernel_mask(interest),
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout_ms` for readiness (negative = forever),
    /// retrying on EINTR. Returns the ready events; an empty slice
    /// means the timeout elapsed.
    pub fn wait(&mut self, timeout_ms: i32) -> io::Result<Vec<Event>> {
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.fd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            // Copy out of the (possibly packed) kernel structs before
            // touching the fields.
            return Ok(self.buf[..n as usize]
                .iter()
                .map(|e| {
                    let raw: sys::EpollEvent = *e;
                    Event {
                        token: raw.data,
                        ready: raw.events,
                    }
                })
                .collect());
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// A nonblocking eventfd: an 8-byte counter the kernel exposes as an
/// fd. [`EventFd::notify`] from any thread makes it readable;
/// [`EventFd::drain`] resets it. One fd per wakeup *reason* (worker
/// completions, shutdown) keeps the loop's dispatch trivial.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wake whoever is polling this fd. Safe from any thread; the
    /// counter saturates so repeated notifies before a drain coalesce.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe {
            sys::write(
                self.fd,
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Consume all pending notifications (reset readability).
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            sys::read(
                self.fd,
                (&mut buf as *mut u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_notify_wakes_epoll_and_drain_resets() {
        let mut ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), 7, EV_READ).unwrap();

        // Nothing pending: a zero timeout returns no events.
        assert!(ep.wait(0).unwrap().is_empty());

        // A notify from another thread makes it readable.
        std::thread::scope(|s| {
            s.spawn(|| efd.notify());
        });
        let events = ep.wait(1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        // Level-triggered: still readable until drained.
        assert_eq!(ep.wait(0).unwrap().len(), 1);
        efd.drain();
        assert!(ep.wait(0).unwrap().is_empty());
    }

    #[test]
    fn epoll_reports_socket_readability_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 42, EV_READ).unwrap();
        assert!(ep.wait(0).unwrap().is_empty(), "no data yet");

        client.write_all(b"hi").unwrap();
        let events = ep.wait(1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable());

        // Adding write interest: a fresh socket is instantly writable.
        ep.modify(server.as_raw_fd(), 42, EV_READ | EV_WRITE)
            .unwrap();
        let events = ep.wait(1000).unwrap();
        assert!(events[0].readable() && events[0].writable());

        // Peer close is reported as readability (read will see EOF).
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi");
        ep.modify(server.as_raw_fd(), 42, EV_READ).unwrap();
        drop(client);
        let events = ep.wait(1000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable());
        assert_eq!((&server).read(&mut buf).unwrap(), 0, "EOF");

        ep.delete(server.as_raw_fd()).unwrap();
        assert!(ep.wait(0).unwrap().is_empty());
    }

    #[test]
    fn half_close_wakes_only_readers_and_a_reset_wakes_everyone() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 9, EV_READ).unwrap();

        // A half-close is readable and stays so; without read interest
        // it must not be reported at all, or every wait would return at
        // once.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let events = ep.wait(1000).unwrap();
        assert!(events[0].readable() && !events[0].hung_up());
        ep.modify(server.as_raw_fd(), 9, 0).unwrap();
        assert!(ep.wait(0).unwrap().is_empty());

        // A peer that closes with unread bytes resets the connection,
        // which is reported even without interest.
        server.write_all(b"unread").unwrap();
        client.peek(&mut [0u8; 1]).unwrap();
        drop(client);
        let events = ep.wait(1000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].hung_up());
    }
}
