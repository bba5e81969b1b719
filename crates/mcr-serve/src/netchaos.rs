//! Deterministic network fault injection: a loopback TCP proxy that
//! forwards the line protocol to a real backend and injects seeded
//! faults — connection refusal, mid-reply truncation, delayed or
//! black-holed reads, garbage lines — so tests can prove every retry
//! path in the dispatcher and client without flaky timing tricks.
//!
//! Determinism mirrors the simulator's `--chaos` philosophy: the fault
//! decision for connection *i* is a pure function of `(seed, i)` (or a
//! position in a scripted plan), never of wall-clock races, so a
//! failing test replays with the printed seed.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sim_rng::SmallRng;

/// Longest proxied line buffered before the relay gives up on the
/// connection (protects the proxy itself from unbounded growth).
const RELAY_MAX_LINE: usize = 64 << 20;

/// How long a relay read blocks before re-checking the stop flag.
const RELAY_TICK: Duration = Duration::from_millis(25);

/// One injected fault, applied to a single proxied connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFault {
    /// Close the client connection before touching the backend — the
    /// client sees a reset/EOF where it expected a service.
    Refuse,
    /// Forward the request, then deliver only the first `n` bytes of
    /// the backend's reply and close — a mid-reply truncation.
    Truncate(usize),
    /// Forward the request, sit on the backend's reply for this long,
    /// then deliver it intact — a straggler, not a failure.
    Delay(Duration),
    /// Forward the request and swallow the reply forever — the client
    /// only escapes via its own read deadline.
    BlackHole,
    /// Replace the backend's reply with a line that is not JSON.
    Garbage,
}

/// How the proxy decides the fault for each accepted connection.
#[derive(Debug, Clone)]
pub enum ChaosPlan {
    /// Connection `i` gets `plan[i]` (`None` = clean); connections past
    /// the end of the script are clean.
    Scripted(Vec<Option<NetFault>>),
    /// Connection `i` draws from an RNG seeded by `(seed, i)`: with
    /// probability `rate` one of refuse/truncate/delay/garbage
    /// (uniformly), otherwise clean. Black holes are excluded from the
    /// seeded pool — they stall for the full client deadline, which
    /// belongs in targeted tests, not volume runs.
    Seeded {
        /// Base seed; each connection derives its own stream from it.
        seed: u64,
        /// Per-connection fault probability in `[0, 1]`.
        rate: f64,
    },
}

/// Lifetime fault accounting, snapshot via [`NetChaos::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted by the proxy.
    pub connections: u64,
    /// Connections refused outright.
    pub refused: u64,
    /// Replies truncated mid-line.
    pub truncated: u64,
    /// Replies delayed (then delivered intact).
    pub delayed: u64,
    /// Replies swallowed forever.
    pub blackholed: u64,
    /// Replies replaced with garbage lines.
    pub garbage: u64,
}

impl ChaosStats {
    /// Total injected faults (delays included — they are observable).
    pub fn faults(&self) -> u64 {
        self.refused + self.truncated + self.delayed + self.blackholed + self.garbage
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    refused: AtomicU64,
    truncated: AtomicU64,
    delayed: AtomicU64,
    blackholed: AtomicU64,
    garbage: AtomicU64,
}

/// A running fault-injection proxy. Dropping it stops the accept loop;
/// in-flight relays notice within one `RELAY_TICK`.
pub struct NetChaos {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetChaos {
    /// Binds an ephemeral loopback port and starts proxying to
    /// `target` under the given plan.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(target: String, plan: ChaosPlan) -> io::Result<NetChaos> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, &target, &plan, &accept_stop, &accept_counters);
        });
        Ok(NetChaos {
            addr,
            stop,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — point clients/dispatchers here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault accounting so far.
    pub fn stats(&self) -> ChaosStats {
        let c = &self.counters;
        ChaosStats {
            connections: c.connections.load(Ordering::Relaxed),
            refused: c.refused.load(Ordering::Relaxed),
            truncated: c.truncated.load(Ordering::Relaxed),
            delayed: c.delayed.load(Ordering::Relaxed),
            blackholed: c.blackholed.load(Ordering::Relaxed),
            garbage: c.garbage.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and unwinds the relays.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetChaos {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-connection fault, as a pure function of the plan and the
/// zero-based connection index.
fn fault_for(plan: &ChaosPlan, index: u64) -> Option<NetFault> {
    match plan {
        ChaosPlan::Scripted(script) => script
            .get(usize::try_from(index).unwrap_or(usize::MAX))
            .cloned()
            .flatten(),
        ChaosPlan::Seeded { seed, rate } => {
            let mut rng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if !rng.gen_bool(*rate) {
                return None;
            }
            Some(match rng.gen_range(0..4u32) {
                0 => NetFault::Refuse,
                1 => NetFault::Truncate(24),
                2 => NetFault::Delay(Duration::from_millis(200)),
                _ => NetFault::Garbage,
            })
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    target: &str,
    plan: &ChaosPlan,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    let mut index = 0u64;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                let fault = fault_for(plan, index);
                index += 1;
                let target = target.to_string();
                let stop = Arc::clone(stop);
                let counters = Arc::clone(counters);
                std::thread::spawn(move || relay(client, &target, fault, &stop, &counters));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Reads one `\n`-terminated line (raw bytes, newline included) from a
/// blocking-with-timeout stream. `Ok(None)` means the peer closed
/// cleanly before a full line; `Err` covers transport failures, the
/// stop flag, and the buffer cap.
fn read_relay_line(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::Acquire) {
            return Err(io::Error::other("proxy stopping"));
        }
        if buf.len() > RELAY_MAX_LINE {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "relay line too long",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(if buf.is_empty() { None } else { Some(buf) }),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.contains(&b'\n') {
                    return Ok(Some(buf));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sleeps `total` in stop-aware slices.
fn chaos_sleep(total: Duration, stop: &AtomicBool) {
    let until = Instant::now() + total;
    while Instant::now() < until && !stop.load(Ordering::Acquire) {
        std::thread::sleep(RELAY_TICK.min(until.saturating_duration_since(Instant::now())));
    }
}

/// One proxied connection. The fault (if any) applies to the first
/// request/reply exchange; faults that survive it (`Delay`) leave the
/// connection relaying cleanly afterwards.
fn relay(
    mut client: TcpStream,
    target: &str,
    fault: Option<NetFault>,
    stop: &AtomicBool,
    counters: &Counters,
) {
    if matches!(fault, Some(NetFault::Refuse)) {
        counters.refused.fetch_add(1, Ordering::Relaxed);
        return; // dropping the socket resets the client
    }
    let Ok(mut backend) = TcpStream::connect(target) else {
        return;
    };
    let _ = client.set_read_timeout(Some(RELAY_TICK));
    let _ = backend.set_read_timeout(Some(RELAY_TICK));
    let mut first_reply = true;
    loop {
        let request = match read_relay_line(&mut client, stop) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        if backend.write_all(&request).is_err() {
            return;
        }
        let reply = match read_relay_line(&mut backend, stop) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        let active = if first_reply { fault.as_ref() } else { None };
        first_reply = false;
        match active {
            None | Some(NetFault::Refuse) => {
                if client.write_all(&reply).is_err() {
                    return;
                }
            }
            Some(NetFault::Truncate(n)) => {
                counters.truncated.fetch_add(1, Ordering::Relaxed);
                let cut = (*n).min(reply.len().saturating_sub(1));
                let _ = client.write_all(&reply[..cut]);
                return; // close mid-reply
            }
            Some(NetFault::Delay(d)) => {
                counters.delayed.fetch_add(1, Ordering::Relaxed);
                chaos_sleep(*d, stop);
                if stop.load(Ordering::Acquire) || client.write_all(&reply).is_err() {
                    return;
                }
            }
            Some(NetFault::BlackHole) => {
                counters.blackholed.fetch_add(1, Ordering::Relaxed);
                // Swallow the reply and hold the socket open until the
                // client gives up (its read deadline) or we stop.
                loop {
                    match read_relay_line(&mut client, stop) {
                        Ok(Some(_)) => {}
                        Ok(None) | Err(_) => return,
                    }
                }
            }
            Some(NetFault::Garbage) => {
                counters.garbage.fetch_add(1, Ordering::Relaxed);
                let _ = client.write_all(b"%% chaos: not json %%\n");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_fault_lookup_is_positional() {
        let plan = ChaosPlan::Scripted(vec![None, Some(NetFault::Refuse), None]);
        assert_eq!(fault_for(&plan, 0), None);
        assert_eq!(fault_for(&plan, 1), Some(NetFault::Refuse));
        assert_eq!(fault_for(&plan, 2), None);
        // Past the script: clean.
        assert_eq!(fault_for(&plan, 99), None);
    }

    #[test]
    fn seeded_faults_are_deterministic_and_rate_bounded() {
        let plan = ChaosPlan::Seeded {
            seed: 7,
            rate: 0.25,
        };
        let a: Vec<_> = (0..200).map(|i| fault_for(&plan, i)).collect();
        let b: Vec<_> = (0..200).map(|i| fault_for(&plan, i)).collect();
        assert_eq!(a, b, "same (seed, index) must draw the same fault");
        let faulted = a.iter().filter(|f| f.is_some()).count();
        assert!(
            (10..100).contains(&faulted),
            "rate 0.25 over 200 draws landed at {faulted}"
        );
        assert!(
            !a.iter().any(|f| matches!(f, Some(NetFault::BlackHole))),
            "black holes stay out of the seeded pool"
        );
        let zero = ChaosPlan::Seeded { seed: 7, rate: 0.0 };
        assert!((0..200).all(|i| fault_for(&zero, i).is_none()));
    }
}
