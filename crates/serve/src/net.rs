//! Transport plumbing shared by the daemon and the client: a stream
//! that is either TCP or a Unix-domain socket, plus capped line I/O.
//!
//! Every protocol exchange is a short line answered by another short
//! line, so TCP streams run with `TCP_NODELAY` and [`write_line`] hands
//! the kernel each line in one write: with Nagle's algorithm on, a
//! second small segment waits for the receiver's delayed ACK (tens of
//! milliseconds per round trip on Linux).

use std::io::{self, BufRead, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

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

/// One poll of a [`TimedLineReader`].
#[derive(Debug)]
pub(crate) enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// The read timed out before a full line arrived; buffered partial
    /// data is kept, so a later poll resumes exactly where this stopped.
    TimedOut,
    /// The peer closed the connection.  A partial unterminated line is
    /// discarded — line protocols treat a mid-line close as a dead peer.
    Eof,
}

/// A line reader over a socket with a read timeout set.  Unlike a
/// `BufRead` loop, a timeout here never corrupts framing: partial bytes
/// stay buffered across [`LineRead::TimedOut`] polls, which is what lets
/// a fleet coordinator watch a slow peer without losing sync with it.
pub(crate) struct TimedLineReader {
    conn: Conn,
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned and known newline-free.
    scanned: usize,
    cap: usize,
}

impl TimedLineReader {
    pub(crate) fn new(conn: Conn, cap: usize) -> Self {
        TimedLineReader {
            conn,
            buf: Vec::new(),
            scanned: 0,
            cap,
        }
    }

    /// Polls for the next line; returns [`LineRead::TimedOut`] when the
    /// socket's read timeout expires first.
    pub(crate) fn next(&mut self) -> io::Result<LineRead> {
        loop {
            if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + off;
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                self.scanned = 0;
                return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.cap {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reply line exceeds {} bytes", self.cap),
                ));
            }
            let mut chunk = [0u8; 4096];
            match self.conn.read(&mut chunk) {
                Ok(0) => return Ok(LineRead::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineRead::TimedOut)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
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
    fn timed_reader_survives_timeouts_mid_line() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;
        use std::time::Duration;
        let (a, mut w) = UnixStream::pair().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        let mut r = TimedLineReader::new(Conn::Unix(a), 64);
        w.write_all(b"hel").unwrap();
        // A timeout mid-line keeps the partial bytes buffered.
        assert!(matches!(r.next().unwrap(), LineRead::TimedOut));
        w.write_all(b"lo\nwor").unwrap();
        match r.next().unwrap() {
            LineRead::Line(l) => assert_eq!(l, "hello"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(r.next().unwrap(), LineRead::TimedOut));
        drop(w);
        assert!(matches!(r.next().unwrap(), LineRead::Eof));
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
