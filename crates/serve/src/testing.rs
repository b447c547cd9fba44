//! Fault-injection fixtures for fleet tests.
//!
//! [`FaultyPeer`] is a TCP proxy placed in front of a *real* daemon.
//! Client→daemon traffic passes through untouched; daemon→client reply
//! traffic is interpreted line-by-line so one [`Mischief`] can strike at
//! a deterministic point in the reply stream — after the Nth reply line,
//! independent of timing.  That turns "the peer died mid-shard" from a
//! flaky race into a reproducible scenario: reply line 1 is the `enlist`
//! handshake, line 2 the `shard_accepted`, and every line after that a
//! verdict, so each failure mode lands at a chosen protocol state.
//!
//! This lives in the library (not a test helper file) so the integration
//! suite, the proptest harness and the CI fault battery all share one
//! proxy implementation, one daemon starter ([`start_daemon`]) and one
//! timing-free rendering of a daemon's report ([`timing_free_report`]).

use crate::{ServeConfig, Server};
use satpg_core::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Starts an in-process daemon on its configured address and returns
/// the address it listens on, plus the thread running its accept loop
/// (it returns once a client sends `shutdown`).
///
/// # Panics
///
/// When the daemon cannot bind.
pub fn start_daemon(cfg: ServeConfig) -> (String, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("daemon binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// The `report` object of a daemon's final report event with its
/// wall-clock `timing_us` member dropped, rendered on one line: the
/// form that equals serial `run_atpg(..).to_json_value(false)` byte for
/// byte.
///
/// # Panics
///
/// When the event carries no `report` object.
pub fn timing_free_report(report_event: &Json) -> String {
    let Some(Json::Obj(members)) = report_event.get("report") else {
        panic!("a report event carries a report object: {report_event}")
    };
    let timing_free = members
        .iter()
        .filter(|(k, _)| k != "timing_us")
        .cloned()
        .collect();
    Json::Obj(timing_free).render()
}

/// What the proxy does to the daemon→client reply stream.  Reply lines
/// are counted from 1 per connection.
#[derive(Clone, Copy, Debug)]
pub enum Mischief {
    /// Forward everything faithfully (control case).
    Faithful,
    /// Forward `n` reply lines, then sever the connection both ways —
    /// the peer "process" dies mid-shard.
    KillAfter(usize),
    /// Forward reply line `n` only up to its midpoint, then sever — the
    /// connection drops mid-line, leaving the coordinator an
    /// unterminated JSON fragment.
    TruncateAt(usize),
    /// Delay every reply line after the `line`-th by `delay` — the peer
    /// stalls past the coordinator's in-flight timeout while the socket
    /// stays open.
    DelayAfter {
        /// Last reply line forwarded promptly.
        line: usize,
        /// Sleep applied before each later line.
        delay: Duration,
    },
    /// Replace reply line `n` with non-JSON garbage — the peer speaks,
    /// but nonsense.
    GarbageAt(usize),
}

/// A fault-injecting TCP proxy in front of a real daemon.
///
/// Listens on an ephemeral `127.0.0.1` port; every accepted connection
/// opens its own upstream connection and applies the configured
/// [`Mischief`] to the reply direction.  Dropping the fixture (or
/// calling [`FaultyPeer::kill`]) severs everything.
pub struct FaultyPeer {
    addr: String,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl FaultyPeer {
    /// Starts the proxy in front of `upstream` (a `host:port` daemon
    /// address).
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn spawn(upstream: &str, mischief: Mischief) -> std::io::Result<FaultyPeer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let stop = stop.clone();
            let conns = conns.clone();
            let upstream = upstream.to_string();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let _ = client.set_nonblocking(false);
                            let Ok(server) = TcpStream::connect(&upstream) else {
                                let _ = client.shutdown(Shutdown::Both);
                                continue;
                            };
                            // Like the daemon's own sockets: each
                            // forwarded line leaves at once, so the
                            // battery is paced by the daemon and the
                            // mischief, not by Nagle in the proxy.
                            let _ = client.set_nodelay(true);
                            let _ = server.set_nodelay(true);
                            {
                                let mut c = conns.lock().expect("conns lock");
                                if let (Ok(a), Ok(b)) = (client.try_clone(), server.try_clone()) {
                                    c.push(a);
                                    c.push(b);
                                }
                            }
                            pipe_pair(client, server, mischief);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        Ok(FaultyPeer { addr, stop, conns })
    }

    /// The address a coordinator should use as this peer.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Hard-kills the proxy: stops accepting and severs every open
    /// connection in both directions, client and upstream side alike.
    /// (The upstream daemon itself stays healthy — it just sees EOF.)
    pub fn kill(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in self.conns.lock().expect("conns lock").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for FaultyPeer {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Wires one proxied connection: a raw request-direction copier and a
/// line-aware, mischief-applying reply-direction copier, each on its own
/// thread (detached; they exit on EOF or shutdown from either side).
fn pipe_pair(client: TcpStream, server: TcpStream, mischief: Mischief) {
    if let (Ok(mut from), Ok(mut to)) = (client.try_clone(), server.try_clone()) {
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = to.shutdown(Shutdown::Write);
        });
    }
    std::thread::spawn(move || {
        let mut reader = BufReader::new(server);
        let mut out = client;
        let mut line_no = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            line_no += 1;
            let sent = match mischief {
                Mischief::Faithful => out.write_all(&buf),
                Mischief::KillAfter(n) => {
                    if line_no > n || out.write_all(&buf).is_err() || line_no == n {
                        break;
                    }
                    Ok(())
                }
                Mischief::TruncateAt(n) => {
                    if line_no == n {
                        let _ = out.write_all(&buf[..buf.len() / 2]);
                        let _ = out.flush();
                        break;
                    }
                    out.write_all(&buf)
                }
                Mischief::DelayAfter { line, delay } => {
                    if line_no > line {
                        std::thread::sleep(delay);
                    }
                    out.write_all(&buf)
                }
                Mischief::GarbageAt(n) => {
                    if line_no == n {
                        out.write_all(b"%%% this is not JSON %%%\n")
                    } else {
                        out.write_all(&buf)
                    }
                }
            };
            if sent.is_err() || out.flush().is_err() {
                break;
            }
        }
        let _ = out.shutdown(Shutdown::Both);
        let _ = reader.into_inner().shutdown(Shutdown::Both);
    });
}
