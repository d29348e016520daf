//! A blocking client for the daemon's frame protocol with typed
//! failures and a capped, jittered retry loop — what the conformance
//! tests and the load benches drive the wire with (and a reference for
//! writing one in any language: frame, JSON, backoff, done).
//!
//! The old client had two failure modes this one refuses to have:
//!
//! * **Hanging on a dead daemon.** Every socket operation now runs
//!   under the [`RetryPolicy`]'s timeouts; a stalled or silent peer is
//!   a typed [`ClientError::TimedOut`] after `read_timeout`, never an
//!   indefinite block.
//! * **Giving up on retryable pushback.** [`Client::request_with_retry`]
//!   backs off (capped exponential, deterministic xorshift jitter) and
//!   retries frames the server marked retryable (`429`/`503`/`504` —
//!   see `proto::is_retryable_code`),
//!   honoring the server's `retry_after_ms` hint when one is present,
//!   and reconnects through transport errors.

use crate::json::{self, object, Value};
use crate::proto::{is_retryable_code, write_frame, FrameDecoder, FrameTooLarge, Step};
use crate::wire::objective_to_str;
use divr_core::engine::EngineRequest;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A typed client-side failure. Transport problems keep their shape
/// (so callers can tell a dead daemon from a slow one) instead of all
/// collapsing into `io::Error`.
#[derive(Debug)]
pub enum ClientError {
    /// A socket read or write ran past the policy's timeout — the
    /// daemon is stalled, saturated, or gone silent mid-frame.
    TimedOut,
    /// The connection closed before a whole response frame arrived.
    Closed,
    /// The transport failed some other way (refused, reset, …).
    Io(io::Error),
    /// The bytes arrived but were not a protocol frame (bad UTF-8,
    /// invalid JSON, or an oversized length prefix).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::TimedOut => write!(f, "request timed out waiting for the daemon"),
            ClientError::Closed => write!(f, "connection closed before a full response frame"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ClientError::TimedOut,
            io::ErrorKind::UnexpectedEof => ClientError::Closed,
            _ => ClientError::Io(e),
        }
    }
}

/// Timeouts and backoff sizing for one [`Client`].
///
/// The defaults make a client that *converges* through a `429` storm
/// or a draining daemon and *fails typed* against a dead one: capped
/// exponential backoff with deterministic jitter, socket timeouts on
/// every operation.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries [`Client::request_with_retry`] spends before returning
    /// the last retryable response or transport error as-is.
    pub max_retries: u32,
    /// First backoff; doubles each retry up to [`max_backoff`]
    /// (overridden by the server's `retry_after_ms` hint when the
    /// response carries one).
    ///
    /// [`max_backoff`]: RetryPolicy::max_backoff
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Budget for `connect()`; `None` blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Budget for one whole response frame to arrive; `None` blocks
    /// indefinitely (the old client's hang, opt-in only).
    pub read_timeout: Option<Duration>,
    /// Budget for writing one request frame.
    pub write_timeout: Option<Duration>,
    /// Seed for the deterministic jitter stream (vary per client to
    /// decorrelate a fleet; any value works).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// The largest response frame a [`Client`] accepts.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One connection to a running [`Service`](crate::server::Service),
/// governed by a [`RetryPolicy`].
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    policy: RetryPolicy,
    decoder: FrameDecoder,
    rng: u64,
    retries: u64,
}

impl Client {
    /// Connects under [`RetryPolicy::default`] (no handshake; the
    /// protocol is stateless per frame).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// Connects under an explicit policy.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let stream = open_stream(addr, &policy)?;
        Ok(Client {
            stream,
            addr,
            policy,
            decoder: FrameDecoder::new(MAX_RESPONSE_BYTES),
            rng: policy.jitter_seed | 1,
            retries: 0,
        })
    }

    /// Drops the current socket and dials the same address again
    /// (discarding any half-read frame) — how the retry loop recovers
    /// from a reset or a drained daemon's closing socket.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = open_stream(self.addr, &self.policy)?;
        self.decoder = FrameDecoder::new(MAX_RESPONSE_BYTES);
        Ok(())
    }

    /// Transport-error and retryable-response retries this client has
    /// spent so far.
    pub fn retries_observed(&self) -> u64 {
        self.retries
    }

    /// Sends one request document and blocks (under the policy's
    /// timeouts) for the response. No retries: a `429` comes back as a
    /// `429`.
    pub fn request(&mut self, doc: &Value) -> Result<Value, ClientError> {
        write_frame(&mut self.stream, doc.to_json().as_bytes())?;
        self.read_response()
    }

    /// Sends one request document, retrying through retryable responses
    /// (`429`/`503`/`504`) and transport failures with capped jittered
    /// backoff, honoring the server's `retry_after_ms` hint and
    /// reconnecting as needed. Returns the first non-retryable response
    /// (success or not), or — once `max_retries` is spent — whatever
    /// came last.
    pub fn request_with_retry(&mut self, doc: &Value) -> Result<Value, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(doc);
            let retryable = match &outcome {
                Ok(response) => response_is_retryable(response),
                Err(ClientError::Protocol(_)) => false,
                Err(_) => true,
            };
            if !retryable || attempt >= self.policy.max_retries {
                return outcome;
            }
            let hint = outcome
                .as_ref()
                .ok()
                .and_then(|r| r.get("retry_after_ms"))
                .and_then(Value::as_i64)
                .and_then(|ms| u64::try_from(ms).ok());
            let pause = self.backoff(attempt, hint);
            attempt += 1;
            self.retries += 1;
            std::thread::sleep(pause);
            if outcome.is_err() {
                // The socket may be wedged mid-frame; start clean. A
                // failed dial is just another retryable transport error.
                if let Err(e) = self.reconnect() {
                    if attempt >= self.policy.max_retries {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Reads one response frame without sending anything first — how a
    /// client observes the acceptor's unsolicited `429 queue_full`.
    /// Accumulates across socket-timeout polls so a slow frame is only
    /// a [`ClientError::TimedOut`] once `read_timeout` as a whole has
    /// passed, never because one `read()` came back short.
    pub fn read_response(&mut self) -> Result<Value, ClientError> {
        let deadline = self.policy.read_timeout.map(|t| Instant::now() + t);
        let payload = loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ClientError::TimedOut);
            }
            match self.decoder.step(&mut self.stream) {
                Ok(Step::Frame(payload)) => break payload,
                Ok(Step::Progress | Step::Idle) => {}
                Ok(Step::Eof(_)) => return Err(ClientError::Closed),
                Err(e) if e.get_ref().is_some_and(|inner| inner.is::<FrameTooLarge>()) => {
                    return Err(ClientError::Protocol(e.to_string()))
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        json::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `{"op": "ping"}` → whether the daemon answered `pong`.
    pub fn ping(&mut self) -> Result<bool, ClientError> {
        let response = self.request(&object([("op", Value::Str("ping".into()))]))?;
        Ok(response.get("op").and_then(Value::as_str) == Some("pong"))
    }

    /// `{"op": "stats"}` → the daemon's stats object.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request(&object([("op", Value::Str("stats".into()))]))
    }

    /// Capped exponential backoff with deterministic jitter: the sleep
    /// lands in `[half, full]` of `base · 2^attempt` (clamped to
    /// `max_backoff`), or exactly the server's hint when one came back.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        if let Some(ms) = hint_ms {
            return Duration::from_millis(ms.min(self.policy.max_backoff.as_millis() as u64));
        }
        let base = self.policy.base_backoff.as_millis() as u64;
        let cap = self.policy.max_backoff.as_millis() as u64;
        let full = base.saturating_mul(1u64 << attempt.min(20)).min(cap).max(1);
        // xorshift64: deterministic, dependency-free jitter.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jittered = full / 2 + self.rng % (full / 2 + 1);
        Duration::from_millis(jittered)
    }
}

/// Whether a response frame asks to be retried: the server marks the
/// retryable statuses explicitly (`"retryable": true`), and the code
/// vocabulary backs it up for older frames.
fn response_is_retryable(response: &Value) -> bool {
    if response.get("ok").and_then(Value::as_bool) != Some(false) {
        return false;
    }
    if let Some(flag) = response.get("retryable").and_then(Value::as_bool) {
        return flag;
    }
    response
        .get("code")
        .and_then(Value::as_i64)
        .and_then(|c| u16::try_from(c).ok())
        .is_some_and(is_retryable_code)
}

fn open_stream(addr: SocketAddr, policy: &RetryPolicy) -> Result<TcpStream, ClientError> {
    let stream = match policy.connect_timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    // Poll reads so the accumulating loop can enforce the *total*
    // read_timeout; writes get the policy's budget directly.
    stream.set_read_timeout(Some(
        policy
            .read_timeout
            .map_or(Duration::from_millis(250), |t| {
                t.min(Duration::from_millis(250))
            }),
    ))?;
    stream.set_write_timeout(policy.write_timeout)?;
    Ok(stream)
}

/// Builds a `serve` frame document from a universe JSON object and
/// typed requests.
pub fn serve_doc(tenant: &str, universe: Value, requests: &[EngineRequest]) -> Value {
    object([
        ("op", Value::Str("serve".into())),
        ("tenant", Value::Str(tenant.into())),
        ("universe", universe),
        ("requests", requests_json(requests)),
    ])
}

/// Builds a `query` frame document: a conjunctive query over a shipped
/// database, plus the diversification parameters that on the `serve`
/// path would ride inside the universe object.
pub fn query_doc(
    tenant: &str,
    query: &str,
    database: Value,
    relevance: Value,
    distance: Value,
    lambda: Value,
    requests: &[EngineRequest],
) -> Value {
    object([
        ("op", Value::Str("query".into())),
        ("tenant", Value::Str(tenant.into())),
        ("query", Value::Str(query.into())),
        ("database", database),
        ("relevance", relevance),
        ("distance", distance),
        ("lambda", lambda),
        ("requests", requests_json(requests)),
    ])
}

fn requests_json(requests: &[EngineRequest]) -> Value {
    Value::Array(
        requests
            .iter()
            .map(|r| {
                object([
                    ("objective", Value::Str(objective_to_str(r.kind).into())),
                    ("k", Value::Int(r.k as i64)),
                ])
            })
            .collect(),
    )
}
