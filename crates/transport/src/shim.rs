//! A lossy socket proxy: the `faults` crate's `LossyChannel`, rebuilt at
//! the byte level for real sockets.
//!
//! The in-process chaos layer (PR 3) drops and corrupts *protocol
//! messages*; a socket fails differently — bytes stall, trickle, and
//! stop mid-frame. [`LossyProxy`] sits between client and server and
//! reproduces exactly those failure modes, deterministically:
//!
//! * **mid-frame disconnects** — each proxied connection is cut after a
//!   seeded number of forwarded bytes, which lands inside frames as
//!   often as between them;
//! * **jitter** — seeded per-chunk forwarding delays, so read timeouts
//!   and retry backoff actually engage;
//! * **pass-through connections** — a seeded fraction survive
//!   unmolested, so campaigns progress.
//!
//! Determinism: all decisions derive from `splitmix64(seed ^ conn_index)`
//! streams, so a failing chaos run replays byte-for-byte from its seed.
//! The chaos e2e test drives a real server through this proxy and
//! asserts the PR 3 state machine's view: typed errors only, lost
//! sessions recorded, quarantine hysteresis still firing.

use crate::conn::{Endpoint, Listener, Stream};
use crate::error::TransportError;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// SplitMix64 — the workspace's standard seed expander.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning for the proxy's cruelty.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Fraction of connections that get cut mid-stream (`0.0..=1.0`).
    pub cut_fraction: f64,
    /// Cut connections die after this many forwarded bytes (min..max,
    /// seeded per connection).
    pub cut_after_bytes: (u64, u64),
    /// Fraction of forwarded chunks delayed (`0.0..=1.0`).
    pub jitter_fraction: f64,
    /// Delay applied to jittered chunks, in ms (min..max, seeded).
    pub jitter_ms: (u64, u64),
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            cut_fraction: 0.5,
            cut_after_bytes: (5, 200),
            jitter_fraction: 0.2,
            jitter_ms: (1, 10),
        }
    }
}

/// A running lossy proxy between a listen endpoint and an upstream
/// server.
pub struct LossyProxy {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl LossyProxy {
    /// Listens on `listen`, forwarding each accepted connection to
    /// `upstream` with seeded damage.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the listen bind fails.
    pub fn start(listen: &Endpoint, upstream: Endpoint, seed: u64, cfg: ProxyConfig) -> Result<Self, TransportError> {
        let listener = Listener::bind(listen)?;
        let endpoint = listener.local_endpoint();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pufatt-lossy-proxy".into())
                .spawn(move || {
                    let mut conn_index = 0u64;
                    loop {
                        let accepted = listener.accept();
                        // A connection accepted after `stop` (its wake-up
                        // among them) is dropped unproxied.
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        match accepted {
                            Ok(downstream) => {
                                conn_index += 1;
                                let conn_seed = splitmix64(seed ^ splitmix64(conn_index));
                                proxy_connection(downstream, &upstream, conn_seed, &cfg);
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                })
                .map_err(|e| TransportError::Closed(format!("spawn proxy acceptor: {e}")))?
        };
        Ok(LossyProxy { endpoint, stop, acceptor: Some(acceptor) })
    }

    /// The endpoint clients should dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops accepting and joins the acceptor. Pump threads for
    /// already-proxied connections finish on their own as the sockets
    /// close.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            // Wake the blocked `accept` to see the flag; as in
            // `Server::finish`, a failed connect means a join could hang.
            if Stream::connect(&self.endpoint).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

/// One seeded decision stream.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }

    fn range(&mut self, (lo, hi): (u64, u64)) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next() % (hi - lo + 1)
    }
}

fn proxy_connection(downstream: Stream, upstream: &Endpoint, conn_seed: u64, cfg: &ProxyConfig) {
    let Ok(upstream_stream) = Stream::connect(upstream) else {
        downstream.shutdown();
        return;
    };
    let mut dice = Dice(conn_seed);
    // One budget for the whole connection: whichever direction crosses it
    // first cuts both ways, so the victim sees a mid-frame disconnect.
    let cut_at = if dice.chance(cfg.cut_fraction) {
        Some(dice.range(cfg.cut_after_bytes))
    } else {
        None
    };
    let budget = Arc::new(std::sync::Mutex::new(cut_at));
    spawn_pump(&downstream, &upstream_stream, dice.next(), cfg, &budget, "up");
    spawn_pump(&upstream_stream, &downstream, dice.next(), cfg, &budget, "down");
}

fn spawn_pump(
    from: &Stream,
    to: &Stream,
    pump_seed: u64,
    cfg: &ProxyConfig,
    budget: &Arc<std::sync::Mutex<Option<u64>>>,
    dir: &'static str,
) {
    let (Ok(mut from), Ok(mut to)) = (from.try_clone(), to.try_clone()) else {
        from.shutdown();
        to.shutdown();
        return;
    };
    let cfg = cfg.clone();
    let budget = Arc::clone(budget);
    // analyze: allow(conc: pump exits when either socket closes; joining it would deadlock shutdown)
    let _ = std::thread::Builder::new().name(format!("pufatt-pump-{dir}")).spawn(move || {
        let mut dice = Dice(pump_seed);
        let mut buf = [0u8; 512];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            let mut send = n;
            let mut cut_now = false;
            {
                let mut guard = pufatt_fleet::sync::lock(&budget);
                if let Some(remaining) = guard.as_mut() {
                    if *remaining <= n as u64 {
                        send = *remaining as usize;
                        *remaining = 0;
                        cut_now = true;
                    } else {
                        *remaining -= n as u64;
                    }
                }
            }
            if dice.chance(cfg.jitter_fraction) {
                std::thread::sleep(Duration::from_millis(dice.range(cfg.jitter_ms)));
            }
            if send > 0 && to.write_all(&buf[..send]).is_err() {
                break;
            }
            if cut_now {
                break;
            }
        }
        // Cut both ends so the peer observes the disconnect immediately.
        from.shutdown();
        to.shutdown();
    });
}
