//! Wire framing and the protocol's status vocabulary.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8
//! JSON. Length-prefixing (rather than newline-delimiting) keeps the
//! reader allocation-exact and makes oversized payloads rejectable
//! *before* a byte of them is buffered.
//!
//! Responses carry `"ok"` plus, on failure, a numeric `"code"` and a
//! machine-matchable `"kind"`:
//!
//! | code | kinds | meaning |
//! |------|-------|---------|
//! | 400  | `bad_request`, `frame_too_large` | malformed frame |
//! | 422  | `infeasible_k`, `exceeds_coreset_budget`, `non_finite_score` | valid frame, unservable request |
//! | 429  | `queue_full`, `qps_exceeded`, `cache_quota` | admission control pushed back |
//! | 500  | `worker_panicked` | fault isolated to this request (answer-level) or this frame |
//! | 503  | `draining` | the daemon is shutting down gracefully |
//! | 504  | `deadline_exceeded` | the frame's `deadline_ms` passed before the work finished |
//!
//! `429`s, `503`s, and `504`s are *retryable* (error frames carry
//! `"retryable": true`, and 429/503 may carry a `retry_after_ms` hint
//! the client honors); `422`s are not (the request itself is wrong);
//! `500` means a worker died solving this specific request and
//! everything else kept serving (at the frame level: the handler
//! itself panicked — a `mutate` so answered was journaled and applied,
//! only its reply was lost). A `504` abandoned its prepare at a
//! cooperative checkpoint and cached nothing, so a retry with a looser
//! deadline starts clean.

use divr_core::engine::ServeError;
use std::io::{self, Read, Write};

/// Frames a payload onto a writer: length prefix, then the bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, refusing payloads past `max_bytes` **before**
/// buffering them. `Ok(None)` is a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameTooLarge { len, max_bytes },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The typed error [`read_frame`] wraps when a length prefix exceeds
/// the configured maximum (so the server can answer `frame_too_large`
/// instead of dropping the connection silently).
#[derive(Clone, Copy, Debug)]
pub struct FrameTooLarge {
    /// Declared payload length.
    pub len: usize,
    /// Configured maximum.
    pub max_bytes: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {}-byte limit",
            self.len, self.max_bytes
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// The `(kind, code)` a typed serving failure maps to on the wire.
pub fn serve_error_status(e: &ServeError) -> (&'static str, u16) {
    match e {
        ServeError::InfeasibleK { .. } => ("infeasible_k", 422),
        ServeError::ExceedsCoresetBudget { .. } => ("exceeds_coreset_budget", 422),
        ServeError::NonFiniteScore { .. } => ("non_finite_score", 422),
        ServeError::WorkerPanicked => ("worker_panicked", 500),
        ServeError::DeadlineExceeded => ("deadline_exceeded", 504),
    }
}

/// Whether a wire status code marks a *retryable* failure: the request
/// was fine, the service just could not take it right now (`429`
/// admission pushback, `503` draining, `504` deadline) — the client's
/// [`RetryPolicy`](crate::RetryPolicy) backs off and retries these and
/// nothing else.
pub fn is_retryable_code(code: u16) -> bool {
    matches!(code, 429 | 503 | 504)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_refused_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &buf[..], 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.get_ref().unwrap().is::<FrameTooLarge>());
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"only5");
        assert!(read_frame(&mut &buf[..], 64).is_err());
    }
}
