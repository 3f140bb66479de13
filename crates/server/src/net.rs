//! Transport abstraction: one daemon, two socket families.
//!
//! `slltd` listens on either a Unix-domain socket (the default — no
//! network exposure, filesystem permissions apply) or a localhost TCP
//! socket (for containers that cannot share a filesystem path). Both
//! sides of the protocol speak through [`Endpoint`], [`Listener`], and
//! [`Stream`], so everything above this module is family-agnostic.
//!
//! An endpoint string that parses as a socket address (`host:port`) is
//! TCP; anything else is a Unix socket path. `results/slltd.sock` and
//! `127.0.0.1:7411` therefore both work with no extra flags.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where the daemon listens / the client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket at this address (loopback expected; the daemon has
    /// no authentication story beyond the host boundary).
    Tcp(SocketAddr),
}

impl Endpoint {
    /// Parses an endpoint string: a parseable `host:port` is TCP,
    /// everything else is a Unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        match s.parse::<SocketAddr>() {
            Ok(addr) => Endpoint::Tcp(addr),
            Err(_) => Endpoint::Unix(PathBuf::from(s)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// A bound, non-blocking server socket of either family.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener plus the path to unlink on shutdown.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `ep` in non-blocking mode. A stale Unix socket file left by
    /// a crashed daemon is removed first — the journal, not the socket,
    /// is the source of truth for server state.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(ep: &Endpoint) -> std::io::Result<Listener> {
        match ep {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("unix sockets unsupported here: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Accepts one pending connection, or `None` when nothing is
    /// waiting (the accept loop interleaves this with a drain check).
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `WouldBlock`.
    pub fn accept(&self) -> std::io::Result<Option<Stream>> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Stream::Unix(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Stream::Tcp(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// Blocks until a connection is pending or `timeout` passes, and
    /// reports whether one is pending. The accept loop calls this when
    /// [`Listener::accept`] finds nothing, so a client is accepted the
    /// moment it connects while the loop still rechecks its drain flag
    /// at least once per `timeout`. A signal ends the wait early.
    pub(crate) fn wait_readable(&self, timeout: Duration) -> bool {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let fd = match self {
                Listener::Unix(l, _) => l.as_raw_fd(),
                Listener::Tcp(l) => l.as_raw_fd(),
            };
            poll_readable(fd, timeout)
        }
        #[cfg(not(unix))]
        {
            std::thread::sleep(timeout);
            false
        }
    }
}

/// `poll(2)` on one descriptor for readability.
#[cfg(unix)]
fn poll_readable(fd: std::os::fd::RawFd, timeout: Duration) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: poll(2) reads and writes exactly the one `PollFd` it is
    // given, which lives on this stack frame for the whole call; `fd`
    // is a listening socket the caller keeps open.
    let ready = unsafe { poll(&mut pfd, 1, timeout_ms) };
    ready > 0 && pfd.revents & POLLIN != 0
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            std::fs::remove_file(path).ok();
        }
    }
}

/// One accepted or dialed connection of either family.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Dials `ep` (blocking).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(ep: &Endpoint) -> std::io::Result<Stream> {
        match ep {
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("unix sockets unsupported here: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(TcpStream::connect(addr)?)),
        }
    }

    /// A second handle to the same connection (for split read/write).
    ///
    /// # Errors
    ///
    /// Propagates `dup`/clone failures.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Bounds every blocking read so a silent peer cannot pin a
    /// connection handler forever. `None` removes the bound.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Bounds every blocking write so a peer that stops reading (full
    /// socket buffer, wedged process) cannot pin the sender forever.
    /// `None` removes the bound.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(dur),
            Stream::Tcp(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_strings_classify_by_family() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7411"),
            Endpoint::Tcp("127.0.0.1:7411".parse().unwrap())
        );
        assert!(matches!(
            Endpoint::parse("results/slltd.sock"),
            Endpoint::Unix(_)
        ));
        // A host:port that does not parse as an address is a path.
        assert!(matches!(
            Endpoint::parse("localhost:bad"),
            Endpoint::Unix(_)
        ));
    }

    #[cfg(unix)]
    #[test]
    fn unix_round_trip_and_stale_socket_cleanup() {
        let path = std::env::temp_dir().join(format!("sllt_net_{}.sock", std::process::id()));
        std::fs::write(&path, b"stale").unwrap();
        let ep = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&ep).expect("bind over stale file");
        let mut client = Stream::connect(&ep).unwrap();
        client.write_all(b"hi").unwrap();
        let mut server = loop {
            if let Some(s) = listener.accept().unwrap() {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        drop(listener);
        assert!(!path.exists(), "socket file unlinked on drop");
    }

    #[cfg(unix)]
    #[test]
    fn waiting_listener_wakes_when_a_client_connects() {
        let path = std::env::temp_dir().join(format!("sllt_wait_{}.sock", std::process::id()));
        let ep = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&ep).unwrap();
        // Nothing pending: the wait times out and says so.
        assert!(!listener.wait_readable(Duration::from_millis(1)));
        let (go, wait_started) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            wait_started.recv().unwrap();
            Stream::connect(&ep).unwrap()
        });
        go.send(()).unwrap();
        // Readable means the connection arrived, not the 5 s timeout.
        assert!(listener.wait_readable(Duration::from_secs(5)));
        assert!(listener.accept().unwrap().is_some());
        drop(client.join().unwrap());
    }
}
