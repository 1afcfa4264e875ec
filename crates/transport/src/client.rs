//! A blocking protocol client: dial, handshake, then correlated
//! request/response exchange.
//!
//! The client is deliberately simple — one socket, one outstanding-reply
//! table, no internal threads. Pipelining comes from *callers*: the load
//! generator keeps a window of requests in flight by issuing several
//! [`Client::send`]s before collecting with [`Client::recv`], and the
//! correlation id (echoed by the server in every response) pairs answers
//! with questions regardless of the order they arrive in.

use crate::conn::{Endpoint, Stream};
use crate::error::{ErrorCode, TransportError};
use crate::frame::{read_frame, write_frame};
use crate::message::{hello, Request, Response, PROTOCOL_VERSION};
use std::collections::HashMap;

/// A connected, handshaken protocol client.
pub struct Client {
    stream: Stream,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    next_corr: u32,
    /// Replies that arrived while waiting for a different correlation id.
    pending: HashMap<u32, Response>,
    buf: Vec<u8>,
}

impl Client {
    /// Dials `endpoint` and performs the version handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, a `Busy` shed at accept (surfaced as
    /// [`TransportError::Server`] with [`ErrorCode::RateLimited`]), or a
    /// version-negotiation failure.
    pub fn connect(endpoint: &Endpoint, read_timeout_ms: u64, write_timeout_ms: u64) -> Result<Self, TransportError> {
        let stream = Stream::connect(endpoint)?;
        stream.set_read_timeout_ms(read_timeout_ms)?;
        stream.set_write_timeout_ms(write_timeout_ms)?;
        let mut client = Client {
            stream,
            read_timeout_ms,
            write_timeout_ms,
            next_corr: 0,
            pending: HashMap::new(),
            buf: Vec::new(),
        };
        let corr = client.send(&hello())?;
        match client.recv(corr)? {
            Response::HelloAck { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::HelloAck { version } => Err(TransportError::VersionMismatch { lo: version, hi: version }),
            Response::Busy { retry_after_ms } => Err(TransportError::Server {
                code: ErrorCode::RateLimited,
                detail: format!("server at capacity, retry in {retry_after_ms} ms"),
            }),
            Response::Error { code, detail } => Err(TransportError::Server { code, detail }),
            other => Err(TransportError::Protocol(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// Sends one request, returning its correlation id.
    ///
    /// # Errors
    ///
    /// Write timeouts or a vanished peer.
    pub fn send(&mut self, request: &Request) -> Result<u32, TransportError> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        self.buf.clear();
        request.encode(corr, &mut self.buf);
        let payload = std::mem::take(&mut self.buf);
        let result = write_frame(&mut self.stream, &payload, self.write_timeout_ms);
        self.buf = payload;
        result?;
        Ok(corr)
    }

    /// Receives the response for `corr`, parking any responses to other
    /// outstanding requests for their own [`Client::recv`] calls.
    ///
    /// # Errors
    ///
    /// Read timeouts, torn frames, undecodable responses, or a clean
    /// server close before the awaited reply.
    pub fn recv(&mut self, corr: u32) -> Result<Response, TransportError> {
        loop {
            if let Some(response) = self.pending.remove(&corr) {
                return Ok(response);
            }
            let (got_corr, response) = self.read_response()?;
            self.pending.insert(got_corr, response);
        }
    }

    /// Receives whichever response arrives next, with its correlation id.
    ///
    /// # Errors
    ///
    /// As [`Client::recv`].
    pub fn recv_any(&mut self) -> Result<(u32, Response), TransportError> {
        if let Some(corr) = self.pending.keys().next().copied() {
            if let Some(response) = self.pending.remove(&corr) {
                return Ok((corr, response));
            }
        }
        self.read_response()
    }

    /// Reads the next response off the socket, bypassing `pending`.
    fn read_response(&mut self) -> Result<(u32, Response), TransportError> {
        let mut payload = std::mem::take(&mut self.buf);
        let outcome = read_frame(&mut self.stream, &mut payload, self.read_timeout_ms);
        let decoded = match outcome {
            Ok(true) => Response::decode(&payload),
            Ok(false) => Err(TransportError::Closed("server closed the connection".into())),
            Err(e) => Err(e),
        };
        self.buf = payload;
        decoded
    }

    /// One full round trip: send, then wait for that reply.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, request: &Request) -> Result<Response, TransportError> {
        let corr = self.send(request)?;
        self.recv(corr)
    }

    /// Tears the socket down; further calls fail with typed errors.
    pub fn shutdown(&self) {
        self.stream.shutdown();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::conn::Listener;
    use crate::message::negotiate;

    #[test]
    fn recv_waits_past_replies_to_other_requests() {
        // A server that answers two pipelined requests in reverse order:
        // waiting for the first must park the second, then read on.
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.local_endpoint();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let mut payload = Vec::new();
            let mut corrs = Vec::new();
            for _ in 0..3 {
                assert!(read_frame(&mut stream, &mut payload, 5_000).unwrap());
                let (corr, request) = Request::decode(&payload).unwrap();
                if let Request::Hello { magic, min_version, max_version } = request {
                    let version = negotiate(magic, min_version, max_version).unwrap();
                    let mut out = Vec::new();
                    Response::HelloAck { version }.encode(corr, &mut out);
                    write_frame(&mut stream, &out, 5_000).unwrap();
                } else {
                    corrs.push(corr);
                }
            }
            for corr in corrs.into_iter().rev() {
                let mut out = Vec::new();
                Response::ShutdownAck.encode(corr, &mut out);
                write_frame(&mut stream, &out, 5_000).unwrap();
            }
        });
        let mut client = Client::connect(&endpoint, 5_000, 5_000).unwrap();
        let first = client.send(&Request::Stats).unwrap();
        let second = client.send(&Request::Stats).unwrap();
        assert!(matches!(client.recv(first).unwrap(), Response::ShutdownAck));
        assert!(matches!(client.recv(second).unwrap(), Response::ShutdownAck));
        server.join().unwrap();
    }
}
