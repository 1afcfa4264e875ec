//! Served-attestation benchmark for the PUFatt reproduction.
//!
//! Three closed-loop workloads drive an in-process
//! [`pufatt_transport::Server`] over a real Unix socket with the
//! benchmark's own client ([`closed_loop`]); a traced run ([`layers`]) times
//! the public entry points of each layer on the same seeded inputs. See
//! `README.md` next to this package's manifest.

pub mod check;
pub mod closed_loop;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod sys;
pub mod trace;
pub mod workload;
