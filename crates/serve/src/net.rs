//! Transport plumbing shared by the daemon, the client and the fleet
//! coordinator: a stream that is either TCP or a Unix-domain socket,
//! plus capped line I/O.
//!
//! Every protocol exchange is a short line answered by another short
//! line, so TCP streams run with `TCP_NODELAY` and [`write_line`] hands
//! the kernel each line in one write: with Nagle's algorithm on, a
//! second small segment waits for the receiver's delayed ACK (tens of
//! milliseconds per round trip on Linux).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Instant;

/// A connected byte stream (TCP or Unix socket).
pub(crate) enum Conn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain transport.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// An independently readable/writable handle to the same socket.
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Bounds how long a read blocks (`None` restores blocking reads).
    /// The timeout is a socket property, so it is shared with clones.
    pub(crate) fn set_read_timeout(&self, d: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Shuts both directions of the socket down, for every clone: a
    /// thread blocked reading another handle wakes with EOF.
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket.  `addr` strings starting with `unix:` bind
/// a Unix-domain socket at the given path; anything else is `host:port`.
pub(crate) enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix listener plus its path (unlinked on drop).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub(crate) fn bind(addr: &str) -> io::Result<Listener> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                return UnixListener::bind(path).map(|l| Listener::Unix(l, PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// The printable address clients should connect to.
    pub(crate) fn printable_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string()),
            #[cfg(unix)]
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        }
    }

    /// An address this host can [`connect`] to to reach the listener:
    /// the printable address, with an unspecified bind (`0.0.0.0`,
    /// `::`) mapped to loopback.
    pub(crate) fn self_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(mut a) => {
                    if a.ip().is_unspecified() {
                        a.set_ip(match a.ip() {
                            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                        });
                    }
                    a.to_string()
                }
                Err(_) => "?".to_string(),
            },
            #[cfg(unix)]
            Listener::Unix(..) => self.printable_addr(),
        }
    }

    /// Blocks until a client connects.
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Connects to a daemon address (`host:port` or `unix:/path`).
pub(crate) fn connect(addr: &str) -> io::Result<Conn> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        return UnixStream::connect(path).map(Conn::Unix);
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
    }
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(Conn::Tcp(s))
}

/// Reads one `\n`-terminated line, enforcing a byte cap so an abusive
/// peer cannot balloon memory.  `Ok(None)` on clean EOF.
pub(crate) fn read_line_capped(r: &mut impl BufRead, cap: usize) -> io::Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                None
            } else {
                Some(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        r.consume(n);
        if buf.len() > cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request line exceeds {cap} bytes"),
            ));
        }
    }
}

/// [`read_line_capped`] on a socket, bounded by `deadline` however the
/// bytes trickle in: each socket read waits at most until then, and one
/// due after it fails with `TimedOut`.  Blocking reads are restored
/// before it returns; the reader keeps any bytes past the line.
pub(crate) fn read_line_until(
    r: &mut BufReader<Conn>,
    cap: usize,
    deadline: Instant,
) -> io::Result<Option<String>> {
    let line = read_line_capped(&mut Until { r, deadline }, cap);
    r.get_ref().set_read_timeout(None)?;
    line
}

/// A buffered socket reader whose every read waits at most until
/// `deadline`.
struct Until<'a> {
    r: &'a mut BufReader<Conn>,
    deadline: Instant,
}

impl Until<'_> {
    fn arm(&self) -> io::Result<()> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.r.get_ref().set_read_timeout(Some(left))
    }
}

impl Read for Until<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.arm()?;
        self.r.read(buf)
    }
}

impl BufRead for Until<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.arm()?;
        self.r.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.r.consume(n)
    }
}

/// Writes one message line, newline included, with a single
/// `write_all` and flushes it, so the line leaves in one segment.
pub(crate) fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn capped_reader_splits_and_caps() {
        let data = b"one\ntwo\nlast-without-newline";
        let mut r = BufReader::new(&data[..]);
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap().as_deref(),
            Some("one")
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap().as_deref(),
            Some("two")
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap().as_deref(),
            Some("last-without-newline")
        );
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), None);

        let long = [b'x'; 100];
        let mut r = BufReader::new(&long[..]);
        assert!(read_line_capped(&mut r, 10).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn a_deadline_ends_a_trickled_line_and_keeps_the_overshoot() {
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let (a, mut w) = UnixStream::pair().unwrap();
        let mut r = BufReader::new(Conn::Unix(a));
        w.write_all(b"one\ntwo\n").unwrap();
        let soon = || Instant::now() + Duration::from_secs(5);
        let line = read_line_until(&mut r, 64, soon()).unwrap();
        assert_eq!(line.as_deref(), Some("one"));
        assert_eq!(r.buffer(), b"two\n", "bytes past the line stay buffered");
        let Conn::Unix(sock) = r.get_ref() else {
            unreachable!("a unix pair")
        };
        assert_eq!(
            sock.read_timeout().unwrap(),
            None,
            "blocking reads restored"
        );
        r.consume(4);
        // A byte every 20 ms, for up to 2 s, never lets a 200 ms read
        // time out; only the deadline ends the line.
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    if done.load(Ordering::SeqCst) || w.write_all(b"x").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                let _ = w.shutdown(std::net::Shutdown::Both);
            });
            let t0 = Instant::now();
            let err = read_line_until(&mut r, 1 << 20, t0 + Duration::from_millis(200));
            done.store(true, Ordering::SeqCst);
            assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
            let kind = err.expect_err("the deadline passed mid-line").kind();
            assert!(
                matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                "{kind:?}"
            );
        });
    }

    /// Counts `write` calls; accepts every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_is_one_write_per_line() {
        let mut w = CountingWriter::default();
        write_line(&mut w, r#"{"cmd":"status"}"#).unwrap();
        assert_eq!(w.writes, 1);
        write_line(&mut w, "").unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"{\"cmd\":\"status\"}\n\n");
    }

    #[test]
    fn tcp_conns_disable_nagle_on_both_ends() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let client = connect(&listener.printable_addr()).unwrap();
        let server = listener.accept().unwrap();
        for conn in [&client, &server] {
            match conn {
                Conn::Tcp(s) => assert!(s.nodelay().unwrap()),
                #[cfg(unix)]
                Conn::Unix(_) => panic!("a host:port address must give a TCP conn"),
            }
        }
    }

    #[test]
    fn self_addr_maps_unspecified_binds_to_loopback() {
        let listener = Listener::bind("0.0.0.0:0").unwrap();
        let addr = listener.self_addr();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        connect(&addr).unwrap();
        assert!(listener.accept().is_ok());
    }
}
