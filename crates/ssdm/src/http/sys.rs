//! Raw readiness syscalls for the HTTP event loop.
//!
//! The no-dependency mandate rules out `libc` and `mio`, so the epoll
//! surface the reactor needs — `epoll_create1` / `epoll_ctl` /
//! `epoll_pwait`, plus `signalfd4` and `rt_sigprocmask` for
//! signal-driven drain — is invoked directly with inline assembly on
//! Linux x86_64 and aarch64. Everything else (accepting, reading,
//! writing, closing sockets) goes through `std` in nonblocking mode, so
//! the unsafe surface stays confined to this module.
//!
//! On platforms without the assembly backend the `Poller` degrades to
//! a timed busy-poll that reports every registered interest as ready;
//! the nonblocking handlers above it simply observe `WouldBlock`.
//! Correct everywhere, efficient where the paper's deployments run.

#![allow(dead_code)]

use std::io;
use std::os::fd::RawFd;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ssdm_obs::Counter;

/// The serving core's process-wide counters of what a request costs it
/// in syscalls and wake-ups, resolved once.
pub(crate) struct Counters {
    /// Returns of the poller, timeouts included: a loop that spins on a
    /// readable socket it will not read shows here, not in a timing.
    pub wakeups: Arc<Counter>,
    /// `read` calls on connection sockets.
    pub socket_reads: Arc<Counter>,
    /// `write` calls on connection sockets.
    pub socket_writes: Arc<Counter>,
    /// `epoll_ctl` calls: registrations, interest changes, removals.
    pub epoll_ctl: Arc<Counter>,
    /// Writes that wake the reactor: a worker's first completion of a
    /// batch, or a shutdown handle.
    pub waker_writes: Arc<Counter>,
}

pub(crate) fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let rec = ssdm_obs::recorder();
        Counters {
            wakeups: rec.counter("ssdm_http_reactor_wakeups_total"),
            socket_reads: rec.counter("ssdm_http_socket_reads_total"),
            socket_writes: rec.counter("ssdm_http_socket_writes_total"),
            epoll_ctl: rec.counter("ssdm_http_epoll_ctl_total"),
            waker_writes: rec.counter("ssdm_http_waker_writes_total"),
        }
    })
}

/// Readiness interest for one registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up or the fd is in an error state; treat as readable
    /// so the handler observes EOF/error from the actual I/O call.
    pub hangup: bool,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::*;

    // Syscall numbers for the two supported ABIs.
    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const SIGNALFD4: usize = 289;
        pub const RT_SIGPROCMASK: usize = 14;
        pub const CLOSE: usize = 3;
        pub const READ: usize = 0;
        pub const PRLIMIT64: usize = 302;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
        pub const SIGNALFD4: usize = 74;
        pub const RT_SIGPROCMASK: usize = 135;
        pub const CLOSE: usize = 57;
        pub const READ: usize = 63;
        pub const PRLIMIT64: usize = 261;
    }

    /// Six-argument raw syscall. Returns the kernel's raw result:
    /// negative values are `-errno`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    // epoll constants (uapi/linux/eventpoll.h).
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0x80000;

    /// The kernel's `struct epoll_event`: packed on x86_64 (12 bytes),
    /// naturally aligned elsewhere (16 bytes on aarch64).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Readiness poller over a raw epoll instance.
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Poller { epfd: fd as RawFd })
        }

        fn ctl(&self, op: usize, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            counters().epoll_ctl.inc();
            let mut events = EPOLLRDHUP;
            if interest.read {
                events |= EPOLLIN;
            }
            if interest.write {
                events |= EPOLLOUT;
            }
            let ev = EpollEvent {
                events,
                data: token,
            };
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    &ev as *const EpollEvent as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels demanded a non-null event for DEL; pass
            // one unconditionally, it is ignored on anything modern.
            counters().epoll_ctl.inc();
            let ev = EpollEvent { events: 0, data: 0 };
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    EPOLL_CTL_DEL,
                    fd as usize,
                    &ev as *const EpollEvent as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        /// Wait for readiness, filling `out` (cleared first). `timeout`
        /// of `None` blocks indefinitely.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let ms: isize = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(isize::MAX as u128 / 2) as isize,
            };
            let n = loop {
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.epfd as usize,
                        buf.as_mut_ptr() as usize,
                        buf.len(),
                        ms as usize,
                        0, // no sigmask swap
                        8, // sigsetsize
                    )
                };
                match check(ret) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                let _ = syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0);
            }
        }
    }

    // Signal-driven drain: block the signals process-wide, then read
    // them as events from a signalfd registered in the poller.
    const SIG_BLOCK: usize = 0;
    const SFD_NONBLOCK: usize = 0x800;
    const SFD_CLOEXEC: usize = 0x80000;

    /// Block `signals` (numbers, e.g. `[15, 2]`) for the calling thread
    /// — call before spawning threads so the mask is inherited — and
    /// return a nonblocking signalfd that becomes readable when one of
    /// them is delivered.
    pub(crate) fn signal_fd(signals: &[i32]) -> io::Result<RawFd> {
        let mut mask = 0u64;
        for s in signals {
            mask |= 1u64 << (s - 1);
        }
        check(unsafe {
            syscall6(
                nr::RT_SIGPROCMASK,
                SIG_BLOCK,
                &mask as *const u64 as usize,
                0,
                8,
                0,
                0,
            )
        })?;
        let fd = check(unsafe {
            syscall6(
                nr::SIGNALFD4,
                usize::MAX, // -1: new fd
                &mask as *const u64 as usize,
                8,
                SFD_NONBLOCK | SFD_CLOEXEC,
                0,
                0,
            )
        })?;
        Ok(fd as RawFd)
    }

    /// Drain pending `signalfd_siginfo` records (128 bytes each) from a
    /// nonblocking signalfd. Returns how many signals were consumed.
    pub(crate) fn drain_signal_fd(fd: RawFd) -> usize {
        let mut consumed = 0;
        let mut buf = [0u8; 128];
        loop {
            let ret = unsafe {
                syscall6(
                    nr::READ,
                    fd as usize,
                    buf.as_mut_ptr() as usize,
                    buf.len(),
                    0,
                    0,
                    0,
                )
            };
            if ret == 128 {
                consumed += 1;
            } else {
                break;
            }
        }
        consumed
    }

    /// Raise the soft open-file limit toward `target` (clamped to the
    /// hard limit) so the event loop can actually hold thousands of
    /// connections. Returns the resulting soft limit.
    pub(crate) fn raise_nofile_limit(target: u64) -> io::Result<u64> {
        const RLIMIT_NOFILE: usize = 7;
        #[repr(C)]
        struct Rlimit64 {
            cur: u64,
            max: u64,
        }
        let mut current = Rlimit64 { cur: 0, max: 0 };
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0, // self
                RLIMIT_NOFILE,
                0, // no new limit yet
                &mut current as *mut Rlimit64 as usize,
                0,
                0,
            )
        })?;
        let wanted = Rlimit64 {
            cur: target.min(current.max),
            max: current.max,
        };
        if wanted.cur <= current.cur {
            return Ok(current.cur);
        }
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &wanted as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        })?;
        Ok(wanted.cur)
    }

    pub(crate) const NATIVE_EVENT_LOOP: bool = true;
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::*;
    use std::sync::Mutex;

    /// Portable fallback: a timed scan that reports every registered
    /// interest as ready each tick. The nonblocking handlers above
    /// observe `WouldBlock` for fds that are not actually ready, so the
    /// server stays correct at the cost of a bounded busy-poll.
    pub(crate) struct Poller {
        registered: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(Vec::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.lock().unwrap().push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut reg = self.registered.lock().unwrap();
            for slot in reg.iter_mut() {
                if slot.0 == fd {
                    *slot = (fd, token, interest);
                    return Ok(());
                }
            }
            reg.push((fd, token, interest));
            Ok(())
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().retain(|r| r.0 != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            std::thread::sleep(
                timeout
                    .unwrap_or(Duration::from_millis(5))
                    .min(Duration::from_millis(5)),
            );
            for (_, token, interest) in self.registered.lock().unwrap().iter() {
                out.push(Event {
                    token: *token,
                    readable: interest.read,
                    writable: interest.write,
                    hangup: false,
                });
            }
            Ok(())
        }
    }

    pub(crate) fn signal_fd(_signals: &[i32]) -> io::Result<RawFd> {
        Err(io::Error::other(
            "signal-driven drain needs the Linux event-loop backend",
        ))
    }

    pub(crate) fn drain_signal_fd(_fd: RawFd) -> usize {
        0
    }

    pub(crate) fn raise_nofile_limit(_target: u64) -> io::Result<u64> {
        Ok(0)
    }

    pub(crate) const NATIVE_EVENT_LOOP: bool = false;
}

pub(crate) use imp::{drain_signal_fd, raise_nofile_limit, signal_fd, Poller};

/// Whether this build uses the native epoll backend (`true` on Linux
/// x86_64/aarch64) rather than the portable busy-poll fallback.
pub const fn native_event_loop() -> bool {
    imp::NATIVE_EVENT_LOOP
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_listener_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        // Nothing pending yet on the native backend; the fallback may
        // report spuriously — either way accept() decides.
        let _client = TcpStream::connect(addr).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) && listener.accept().is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "listener readiness never delivered"
            );
        }
    }

    #[test]
    fn poller_write_interest_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(client.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // A fresh socket is writable immediately.
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.writable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no writability");
        }
        // Readability arrives with bytes.
        server_side.write_all(b"x").unwrap();
        server_side.flush().unwrap();
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.readable) {
                let mut b = [0u8; 1];
                if (&client).read(&mut b).is_ok() {
                    assert_eq!(&b, b"x");
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no readability");
        }
        // Interest can be narrowed and the fd deregistered.
        poller
            .modify(client.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        poller.delete(client.as_raw_fd()).unwrap();
    }
}
