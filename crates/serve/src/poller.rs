//! A thin, dependency-free readiness-polling wrapper over `poll(2)`.
//!
//! The serving plane needs one thread to watch a listener plus thousands
//! of client sockets without a reader thread per connection. `std` has no
//! readiness API, and this workspace vendors no `libc`/`mio`, so this
//! module declares the one C symbol it needs — `poll` — directly. The
//! `#[repr(C)]` [`PollFd`] layout and the event bit constants match the
//! Linux ABI (`struct pollfd` is identical on every libc the toolchain
//! targets); `nfds_t` is passed as `usize`, which matches the 64-bit
//! Linux definition this repo's container runs on.
//!
//! Alongside the syscall wrapper lives [`Waker`]: a connected Unix-domain
//! socket pair (`std`'s `UnixStream::pair`, safe code, no address or
//! listener) whose receive end sits in every poll set, so any thread (a
//! worker finishing a response for a write-blocked connection, a shutdown
//! path) can interrupt a sleeping poller by writing one byte. The pair is
//! created once per server.

use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Readable data (or a connection to accept) is available.
pub const POLLIN: i16 = 0x001;
/// The socket can accept writes without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// The fd is invalid (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// One entry in a poll set, ABI-compatible with Linux `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for the interest bits in `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// The returned event bits from the last [`poll`] call.
    pub fn revents(&self) -> i16 {
        self.revents
    }

    /// `true` when the fd is readable (or has an error/hangup condition,
    /// which a read will surface as `Ok(0)`/`Err` — the caller's read
    /// path handles both, so they are folded together here).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// `true` when the fd accepts writes without blocking.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

/// The single unsafe surface of the crate: the `poll(2)` declaration.
/// Kept in its own module so `#[allow(unsafe_code)]` covers exactly one
/// `extern` block and one call site.
#[allow(unsafe_code)]
mod sys {
    use super::PollFd;

    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        // nfds_t is unsigned long on Linux == usize on the targets we run.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    pub fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` structs matching the kernel's pollfd layout; the
        // kernel writes only `revents` within the slice bounds.
        unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) }
    }
}

/// Blocks until at least one fd in `fds` is ready, the timeout elapses
/// (`Ok(0)`), or an error occurs. `timeout_ms < 0` blocks indefinitely.
/// `EINTR` is retried internally so callers never see spurious wakeups
/// from signals.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = sys::poll_raw(fds, timeout_ms);
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Wakes a sleeping [`poll`] from another thread: the receive half of a
/// socket pair sits in the poll set; [`Waker::wake`] writes one
/// byte to the send half. Wakes are coalesced through an atomic flag so
/// a burst of wakers costs one byte, and [`Waker::drain`] empties the
/// socket before the next sleep.
pub struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// The readable end to register with `POLLIN` interest.
    pub fn rx_fd(&self, rx: &UnixStream) -> PollFd {
        PollFd::new(rx.as_raw_fd(), POLLIN)
    }

    /// Signals the poller. Nonblocking and best-effort: if the one-byte
    /// buffer write fails because the pair is already saturated, the
    /// poller is awake anyway.
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return; // a wake byte is already in flight
        }
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Empties the wake socket after the poller observes it readable.
    pub fn drain(&self, rx: &mut UnixStream) {
        self.pending.store(false, Ordering::Release);
        let mut buf = [0u8; 64];
        while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates a connected, nonblocking socket pair: `(waker, rx)`. The
/// receive end goes into the poll set; the [`Waker`] (send end) is shared
/// across threads.
pub fn wake_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx,
            pending: AtomicBool::new(false),
        },
        rx,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_on_silent_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, 50).expect("poll");
        assert_eq!(n, 0, "no data was sent");
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(!fds[0].readable());
    }

    #[test]
    fn poll_reports_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client =
            TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(!fds[0].writable());
    }

    #[test]
    fn poll_reports_writable_on_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut fds = [PollFd::new(client.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn waker_interrupts_a_sleeping_poll() {
        let (waker, mut rx) = wake_pair().expect("wake pair");
        let waker = std::sync::Arc::new(waker);
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
            w.wake(); // coalesced: second wake is a no-op
        });
        let mut fds = [waker.rx_fd(&rx)];
        let start = Instant::now();
        let n = poll(&mut fds, 5000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(start.elapsed() < Duration::from_secs(4));
        // Join before reading: both wakes have then happened, so nothing
        // can arrive later, and exactly one byte is in flight.
        t.join().expect("join");
        let mut buf = [0u8; 8];
        assert_eq!(
            rx.read(&mut buf).expect("read"),
            1,
            "second wake must coalesce"
        );
        assert_eq!(
            rx.read(&mut buf).map_err(|e| e.kind()),
            Err(ErrorKind::WouldBlock),
            "second wake must coalesce"
        );
        waker.drain(&mut rx);
        // Drained: the next poll times out instead of spinning.
        let n = poll(&mut fds, 20).expect("poll");
        assert_eq!(n, 0, "wake byte must be drained");
        // After drain, a new wake is deliverable again.
        waker.wake();
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
    }
}
