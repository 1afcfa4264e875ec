//! Durable verifier state for the PUFatt reproduction.
//!
//! An attestation verifier is only as trustworthy as its memory: if a
//! restart forgets which devices were revoked, an adversary's cheapest
//! attack is pulling the power cord. This crate gives the fleet layer a
//! small, auditable persistence core, built on `std` alone:
//!
//! * [`wal`] — an append-only write-ahead log of CRC32-framed,
//!   length-prefixed records. Recovery walks the valid prefix and stops at
//!   the first torn, truncated, or bit-corrupted frame: a record is
//!   committed exactly when its bytes are on stable storage.
//! * [`store`] — [`DurableStore`]: snapshot + WAL with atomic
//!   (temp-file → fsync → rename) snapshot commits and WAL compaction,
//!   all mutations flowing through one typed state machine
//!   ([`state::StoreState::apply`]) that recovery re-uses verbatim.
//! * [`vfs`] — the [`Vfs`] trait the store is written against, with a
//!   production backend ([`StdVfs`]) and a fault-injecting one
//!   ([`SimVfs`]) that can crash the process model at *every* write,
//!   flush, and rename boundary — recovery is proven by exhaustive
//!   enumeration of crash points, not by sampling.
//! * [`sharded`] — [`ShardedStore`]: one [`DurableStore`] per device-id
//!   range behind a manifest, with group commit and a background
//!   [`Committer`].
//!
//! # What never touches the disk
//!
//! Records and snapshots carry *public* protocol facts: device ids,
//! lifecycle states, verdict booleans, counters, generator positions.
//! Challenges, raw PUF responses and helper data have no representation
//! in the on-disk format at all — a stolen state directory gives a
//! modelling adversary nothing the wire did not already expose.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Lib-target panics are linted (see [lints.clippy] in Cargo.toml);
// tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

pub mod record;
pub mod sharded;
pub mod state;
pub mod store;
pub mod vfs;
pub mod wal;

pub use record::{OutcomeRec, Record, StoredStatus};
pub use sharded::{Committer, ShardHealth, ShardedOptions, ShardedStore};
pub use state::{Counter, Counters, CursorInfo, DeviceState, MetaInfo, StoreState};
pub use store::{DurableStore, StoreOptions, StoreStats};
pub use vfs::{
    error_plan, ErrorInjection, InjectedErrorKind, SimVfs, StdVfs, TornMode, Vfs, INJECTED_ERROR_KINDS, TORN_MODES,
};

use record::StoredStatus as Status;

/// Errors of the durable state layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure (message includes the path).
    Io(String),
    /// The backing device is out of space (ENOSPC). The refused write left
    /// no partial effect; retrying after space is reclaimed is safe, but
    /// the store handle that saw it is poisoned like any write failure.
    NoSpace(String),
    /// The fault-injecting backend's planned crash fired: the process
    /// model is dead and every further operation on that backend fails.
    Crashed,
    /// On-disk state is structurally invalid in a way a torn tail cannot
    /// explain — a checksum-valid frame that does not decode, a snapshot
    /// failing its CRC, a WAL header overwritten. The fail-safe response
    /// is to stop, never to guess.
    Corrupt(String),
    /// A record asked for a state transition the lifecycle forbids (e.g.
    /// leaving `Revoked` without re-enrollment). Refused before anything
    /// is written.
    IllegalTransition {
        /// The device the record referenced.
        id: u32,
        /// Its lifecycle state when the record arrived.
        from: Status,
        /// What the record tried to do.
        event: &'static str,
    },
    /// A previous write on this handle failed; the in-memory state may be
    /// ahead of the disk. Reopen the store to recover.
    Broken,
    /// The group-commit queue is full: as many records as
    /// [`store::StoreOptions::commit_queue_limit`] allows are already
    /// awaiting their sync. Nothing was applied or written — sync the
    /// store (or wait for its committer) and retry.
    Backpressure,
    /// The record's home shard is sick (Degraded or Failed — see
    /// [`sharded::ShardHealth`]): a storage failure took it read-only, and
    /// appends are refused *before* anything is applied or written. Other
    /// shards are unaffected; an operator-driven
    /// [`ShardedStore::reopen_shard`] brings this one back.
    ShardUnavailable {
        /// Index of the sick shard.
        shard: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O failed: {m}"),
            StoreError::NoSpace(m) => write!(f, "store device out of space: {m}"),
            StoreError::Crashed => write!(f, "simulated crash point reached"),
            StoreError::Corrupt(m) => write!(f, "store state corrupt: {m}"),
            StoreError::IllegalTransition { id, from, event } => {
                write!(f, "illegal lifecycle transition for device {id} (currently {from:?}): refused to {event}")
            }
            StoreError::Broken => write!(f, "store handle broken by an earlier write failure; reopen to recover"),
            StoreError::Backpressure => {
                write!(f, "group-commit queue full; sync the store (or wait for its committer) and retry")
            }
            StoreError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} storage unavailable (degraded or failed); reopen the shard to recover")
            }
        }
    }
}

impl std::error::Error for StoreError {}
