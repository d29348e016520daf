//! A deterministic fault-injecting TCP proxy for torture-testing the
//! daemon through its real socket path.
//!
//! ```text
//!   client ──▶ ChaosProxy ──▶ daemon
//!                 │
//!                 └── per-connection Fault from a fixed plan:
//!                     delay, truncate, corrupt, reset, or none
//! ```
//!
//! The proxy is *deterministic*: connection `i` gets `plan[i % len]`,
//! so a test that opens one connection per matrix cell knows exactly
//! which fault that cell exercised — no seeds to chase when a cell
//! fails. Faults act on exact byte offsets of the proxied stream, so
//! "truncate the request after 9 bytes" means the daemon sees a frame
//! prefix and then silence (the idle reaper's case), and "corrupt
//! offset 6" flips a bit inside the JSON payload (the parser's case),
//! every single run.
//!
//! A module of the `chaos_matrix` test target, its one user. (The
//! `chaos_panic` / `chaos_nan` oracles of `divr_service::wire` stay in
//! the library: a stock `divrd` must answer them.)

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What one proxied connection does to the bytes passing through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Pass everything through untouched (the control cell).
    None,
    /// Hold each forwarded chunk for this long before relaying it —
    /// a slow network, not a broken one.
    Delay(Duration),
    /// Forward exactly `after` client→server bytes, then shut the
    /// connection down: the daemon sees a torn frame (possibly just a
    /// length prefix) and must reap it, not hang on it.
    TruncateRequest {
        /// Client→server bytes forwarded before the cut.
        after: usize,
    },
    /// Forward exactly `after` server→client bytes, then shut down:
    /// the *client* sees a torn response and must surface a typed
    /// error, not block forever.
    TruncateResponse {
        /// Server→client bytes forwarded before the cut.
        after: usize,
    },
    /// Close the client side abruptly without forwarding anything:
    /// the proxy leaves the client's request bytes unread and drops
    /// the socket, which the kernel turns into an RST (closing with
    /// unread receive data resets rather than FINs).
    Reset,
    /// Flip one bit in the client→server byte at this stream offset —
    /// the daemon must answer a typed `400` (corrupted JSON) or
    /// `frame_too_large` (corrupted prefix), never crash.
    CorruptRequest {
        /// Stream offset of the byte whose lowest bit flips.
        offset: usize,
    },
    /// Flip one bit in the server→client byte at this offset — the
    /// client must fail typed, never panic or hand back a wrong frame
    /// as if it were right.
    CorruptResponse {
        /// Stream offset of the byte whose lowest bit flips.
        offset: usize,
    },
}

/// A running fault-injecting proxy in front of one upstream address.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every accepted
    /// connection to `upstream`, applying `plan[i % plan.len()]` to
    /// connection `i` (an empty plan means every connection is clean).
    pub fn start(upstream: SocketAddr, plan: Vec<Fault>) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pumps = Arc::clone(&pumps);
            std::thread::spawn(move || {
                let mut index = 0usize;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let fault = if plan.is_empty() {
                        Fault::None
                    } else {
                        plan[index % plan.len()]
                    };
                    index += 1;
                    let stop = Arc::clone(&stop);
                    let handle =
                        std::thread::spawn(move || proxy_connection(client, upstream, fault, &stop));
                    pumps.lock().unwrap_or_else(|p| p.into_inner()).push(handle);
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            pumps,
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks and joins every pump thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *self.pumps.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How one direction of a pump treats the bytes it forwards.
#[derive(Clone, Copy)]
struct Treatment {
    /// Stop forwarding (and kill the connection) past this many bytes.
    truncate_after: Option<usize>,
    /// Flip the lowest bit of the byte at this stream offset.
    corrupt_at: Option<usize>,
    /// Sleep this long before relaying each chunk.
    delay: Option<Duration>,
}

impl Treatment {
    const CLEAN: Treatment = Treatment {
        truncate_after: None,
        corrupt_at: None,
        delay: None,
    };
}

fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: Fault, stop: &AtomicBool) {
    if fault == Fault::Reset {
        // Give the client's request bytes time to land in our receive
        // buffer, then drop without reading them — the kernel answers
        // the unread data with an RST instead of a graceful FIN.
        std::thread::sleep(Duration::from_millis(50));
        drop(client);
        return;
    }
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        return;
    };
    let mut to_server = Treatment::CLEAN;
    let mut to_client = Treatment::CLEAN;
    match fault {
        Fault::None | Fault::Reset => {}
        Fault::Delay(d) => {
            to_server.delay = Some(d);
            to_client.delay = Some(d);
        }
        Fault::TruncateRequest { after } => to_server.truncate_after = Some(after),
        Fault::TruncateResponse { after } => to_client.truncate_after = Some(after),
        Fault::CorruptRequest { offset } => to_server.corrupt_at = Some(offset),
        Fault::CorruptResponse { offset } => to_client.corrupt_at = Some(offset),
    }
    let up = {
        let client = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return,
        };
        let server = match server.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        std::thread::spawn(move || pump(client, server, to_server))
    };
    pump(server, client, to_client);
    let _ = up.join();
    let _ = stop; // pumps end on EOF/timeout; stop only gates the acceptor
}

/// Forwards `from` → `to` until EOF, an error, or the treatment's
/// truncation point; then tears both directions down so the peer sees
/// the cut instead of a half-open socket.
fn pump(mut from: TcpStream, mut to: TcpStream, treatment: Treatment) {
    let _ = from.set_read_timeout(Some(Duration::from_secs(10)));
    let mut forwarded = 0usize;
    let mut chunk = [0u8; 4096];
    loop {
        let n = match from.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut slice = chunk[..n].to_vec();
        if let Some(offset) = treatment.corrupt_at {
            if (forwarded..forwarded + n).contains(&offset) {
                slice[offset - forwarded] ^= 1;
            }
        }
        let cut = treatment
            .truncate_after
            .map(|limit| limit.saturating_sub(forwarded).min(n));
        if let Some(d) = treatment.delay {
            std::thread::sleep(d);
        }
        let send = cut.unwrap_or(n);
        if send > 0 && to.write_all(&slice[..send]).is_err() {
            break;
        }
        forwarded += send;
        if cut.is_some_and(|c| c < n) || treatment.truncate_after.is_some_and(|l| forwarded >= l) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
