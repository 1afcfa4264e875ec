//! Socket plumbing shared by server, client, and shim: one [`Endpoint`]
//! type naming where to listen/connect, and [`Stream`]/[`Listener`]
//! enums erasing the TCP-vs-UDS difference for everything above.
//!
//! Unix-domain sockets are the production path (one box, no network
//! stack); loopback TCP exists for platforms without UDS and for driving
//! the server from tooling that only speaks TCP. Both are plain blocking
//! `std::net`/`std::os::unix::net` sockets with per-direction timeouts —
//! the server's concurrency comes from threads, not readiness polling.

use crate::error::TransportError;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// Where a server listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Loopback (or any) TCP address, e.g. `127.0.0.1:7411`.
    Tcp(String),
    /// Unix-domain socket path (unix targets only).
    Uds(std::path::PathBuf),
}

impl Endpoint {
    /// Parses `uds:<path>` / `tcp:<addr>` (an unprefixed value with a
    /// `/` is a UDS path, anything else a TCP address).
    pub fn parse(s: &str) -> Self {
        if let Some(path) = s.strip_prefix("uds:") {
            Endpoint::Uds(path.into())
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.into())
        } else if s.contains('/') {
            Endpoint::Uds(s.into())
        } else {
            Endpoint::Tcp(s.into())
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Stream {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Uds(UnixStream),
}

fn io_err(e: &std::io::Error) -> TransportError {
    TransportError::Closed(format!("{}: {e}", e.kind()))
}

impl Stream {
    /// Dials `endpoint`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the endpoint refuses or the
    /// platform lacks the socket family.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds).map_err(|e| io_err(&e)),
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(TransportError::Closed("unix-domain sockets unavailable on this platform".into())),
        }
    }

    /// An independently readable/writable handle to the same socket.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the OS refuses the duplication.
    pub fn try_clone(&self) -> Result<Self, TransportError> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Stream::Uds(s) => s.try_clone().map(Stream::Uds).map_err(|e| io_err(&e)),
        }
    }

    /// Sets the read timeout (`0` = block forever).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the socket refuses the option.
    pub fn set_read_timeout_ms(&self, ms: u64) -> Result<(), TransportError> {
        let t = (ms > 0).then(|| Duration::from_millis(ms));
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t).map_err(|e| io_err(&e)),
        }
    }

    /// Sets the write timeout (`0` = block forever).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the socket refuses the option.
    pub fn set_write_timeout_ms(&self, ms: u64) -> Result<(), TransportError> {
        let t = (ms > 0).then(|| Duration::from_millis(ms));
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_write_timeout(t).map_err(|e| io_err(&e)),
        }
    }

    /// Tears the connection down in both directions; blocked reads on
    /// clones of this socket return immediately.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    #[cfg(unix)]
    Uds(UnixListener),
}

impl Listener {
    /// Binds `endpoint`. A stale UDS socket file is removed first (the
    /// standard re-bind dance); TCP port `0` picks a free port — read the
    /// result of [`Listener::local_endpoint`] for the actual one.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the bind fails.
    pub fn bind(endpoint: &Endpoint) -> Result<Self, TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Listener::Tcp).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(Listener::Uds).map_err(|e| io_err(&e))
            }
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(TransportError::Closed("unix-domain sockets unavailable on this platform".into())),
        }
    }

    /// Blocks until one connection arrives. An acceptor thread is
    /// stopped by raising its own flag and then connecting to
    /// [`Listener::local_endpoint`] to wake it.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] on accept failures.
    pub fn accept(&self) -> Result<Stream, TransportError> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)).map_err(|e| io_err(&e)),
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)).map_err(|e| io_err(&e)),
        }
    }

    /// The endpoint actually bound (resolves TCP port `0`).
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr().map_or_else(|_| "?".into(), |a| a.to_string())),
            #[cfg(unix)]
            Listener::Uds(l) => Endpoint::Uds(
                l.local_addr()
                    .ok()
                    .and_then(|a| a.as_pathname().map(std::path::Path::to_path_buf))
                    .unwrap_or_default(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn endpoint_parsing_covers_both_families() {
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:7411"), Endpoint::Tcp("127.0.0.1:7411".into()));
        assert_eq!(Endpoint::parse("uds:/tmp/pufatt.sock"), Endpoint::Uds("/tmp/pufatt.sock".into()));
        assert_eq!(Endpoint::parse("/tmp/pufatt.sock"), Endpoint::Uds("/tmp/pufatt.sock".into()));
        assert_eq!(Endpoint::parse("127.0.0.1:0"), Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!(Endpoint::parse("uds:/a").to_string(), "uds:/a");
        assert_eq!(Endpoint::parse("tcp:b:1").to_string(), "tcp:b:1");
    }

    #[test]
    fn tcp_listener_binds_accepts_and_streams() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.local_endpoint();
        let mut client = Stream::connect(&endpoint).unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[cfg(unix)]
    #[test]
    fn uds_listener_binds_accepts_and_streams() {
        let dir = std::env::temp_dir().join(format!("pufatt-conn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let listener = Listener::bind(&Endpoint::Uds(path.clone())).unwrap();
        let mut client = Stream::connect(&Endpoint::Uds(path.clone())).unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"uds!").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"uds!");
        // Re-binding over the stale socket file must work.
        drop(listener);
        drop(server);
        let _rebound = Listener::bind(&Endpoint::Uds(path)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
