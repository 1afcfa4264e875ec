//! Attestation as a service: the PUFatt fleet behind a socket.
//!
//! Everything below PR 5 runs the fleet *in process* — the verifier, the
//! simulated provers, the device lifecycles, and the chaos channels all
//! share one address space. This crate puts a wire between the verifier
//! and its clients without changing a single verdict:
//!
//! * [`frame`] — length-prefixed, CRC-framed transport frames (the WAL's
//!   `PUFATTW1` discipline pointed at a socket, with a hostile-input
//!   length bound) and [`FrameReader`], the one buffered reader of
//!   frames off a socket, on the server and the client alike.
//! * [`message`] — the versioned protocol: magic + version negotiation,
//!   typed `Enroll` / `ChallengeRequest` / `Attest` / `Revoke` requests,
//!   verdict / `Busy` / error responses. Decoding arbitrary bytes is
//!   panic-free and never over-reads.
//! * [`conn`] — endpoints, streams, and listeners over unix-domain
//!   sockets (production) and loopback TCP (portability).
//! * [`server`] — the multi-threaded attestation server: one handler
//!   thread per connection running its requests in order, connection
//!   shedding and token-bucket rate limiting with `Busy`, idle timeouts,
//!   and graceful drain with no lost in-flight sessions.
//! * [`client`] — a blocking protocol client with correlation-id
//!   matching and typed errors.
//! * [`loadgen`] — the load generator: tens of thousands of simulated
//!   devices multiplexed over a configurable number of connections,
//!   reporting sessions/sec and latency percentiles.
//! * [`shim`] — a lossy socket proxy (drops, jitter, mid-frame
//!   disconnects) for exercising the PR 3 retry machine over real
//!   sockets.
//! * [`error`] — the transport fault taxonomy and its mapping into
//!   [`pufatt::PufattError`].
//!
//! # Determinism contract
//!
//! The server runs each connection's requests in arrival order, a client
//! sends each device's requests in protocol order, and every session's
//! randomness comes from the device's own seeded stream — so a seeded
//! load-generator campaign over a real socket produces verdicts and final
//! fleet state **bit-identical** to the same campaign run in process. The
//! e2e tests pin exactly that.

pub mod client;
pub mod conn;
pub mod error;
pub mod frame;
pub mod loadgen;
pub mod message;
pub mod server;
pub mod shim;

pub use client::Client;
pub use conn::{Endpoint, Listener, Stream};
pub use error::{ErrorCode, TransportError};
pub use frame::{decode_frame, encode_frame, write_frame, FrameReader, FRAME_HEADER, MAX_FRAME_LEN};
pub use loadgen::{run_loadgen, ConnectionLost, LoadgenConfig, LoadgenReport, LostPhase};
pub use message::{hello, negotiate, Request, Response, WireStats, WireStatus, PROTOCOL_MAGIC, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerReport, TransportStats};
pub use shim::{LossyProxy, ProxyConfig};
