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

/// Most payload bytes a [`FrameDecoder`] makes room for ahead of their
/// arrival: a 4-byte prefix announcing `max_bytes` reserves this much,
/// not the announced length.
const READ_CHUNK: usize = 256 * 1024;

/// What one [`FrameDecoder::step`] — at most one `read` — came to.
pub(crate) enum Step {
    /// The frame is whole; the decoder is at a boundary again.
    Frame(Vec<u8>),
    /// Bytes arrived and the frame still wants more.
    Progress,
    /// Nothing arrived in time (`WouldBlock`, `TimedOut`,
    /// `Interrupted`); every byte read so far stays put.
    Idle,
    /// The peer closed — `true` if mid-frame, `false` at a boundary.
    Eof(bool),
}

/// The one length-prefix state machine: the rest of the prefix, then —
/// unless it announces more than `max_bytes`, which is refused before
/// a payload byte is requested — exactly what the announced length
/// still needs, read straight into the buffer handed over, never a
/// byte of the next frame. Its callers differ only in policy: when to
/// give up between steps.
pub(crate) struct FrameDecoder {
    max_bytes: usize,
    prefix: [u8; 4],
    /// Bytes of the current frame read so far, prefix included.
    got: usize,
    /// The payload: what has arrived, then zeroes up to the end of the
    /// chunk being filled. Never longer than the announced length.
    payload: Vec<u8>,
}

impl FrameDecoder {
    pub(crate) fn new(max_bytes: usize) -> FrameDecoder {
        FrameDecoder {
            max_bytes,
            prefix: [0; 4],
            got: 0,
            payload: Vec::new(),
        }
    }

    /// The payload length the (complete) prefix announces.
    fn announced(&self) -> usize {
        u32::from_be_bytes(self.prefix) as usize
    }

    /// The frame, once whole; the refusal, once the prefix announces
    /// too much — sticky, so no later step reads on past it.
    fn take_ready(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.got < 4 {
            return Ok(None);
        }
        let (len, max_bytes) = (self.announced(), self.max_bytes);
        if len > max_bytes {
            let too_large = FrameTooLarge { len, max_bytes };
            return Err(io::Error::new(io::ErrorKind::InvalidData, too_large));
        }
        if self.got < 4 + len {
            return Ok(None);
        }
        self.got = 0;
        Ok(Some(std::mem::take(&mut self.payload)))
    }

    pub(crate) fn step(&mut self, r: &mut impl Read) -> io::Result<Step> {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        // Only a refusal can be pending here: a whole frame was handed
        // over by the step whose read completed it.
        self.take_ready()?;
        let room = if self.got < 4 {
            &mut self.prefix[self.got..]
        } else {
            let (have, len) = (self.got - 4, self.announced());
            if have == self.payload.len() {
                self.payload.resize(have + (len - have).min(READ_CHUNK), 0);
            }
            &mut self.payload[have..]
        };
        match r.read(room) {
            Ok(0) => return Ok(Step::Eof(self.got > 0)),
            Ok(n) => self.got += n,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                return Ok(Step::Idle)
            }
            Err(e) => return Err(e),
        }
        Ok(self.take_ready()?.map_or(Step::Progress, Step::Frame))
    }
}

/// Reads one frame with no policy at all — blocks until it is whole —
/// refusing payloads past `max_bytes` **before** buffering them.
/// `Ok(None)` is a clean EOF at a frame boundary. What a test or a
/// throwaway script reads a reply with; the daemon and
/// [`Client`](crate::Client) run the same decoder under their own
/// give-up rules.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut decoder = FrameDecoder::new(max_bytes);
    loop {
        match decoder.step(r)? {
            Step::Frame(payload) => return Ok(Some(payload)),
            Step::Eof(true) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Step::Eof(false) => return Ok(None),
            Step::Progress | Step::Idle => {}
        }
    }
}

/// The typed error the frame decoder wraps when a length prefix
/// exceeds the configured maximum (so the server can answer
/// `frame_too_large` instead of dropping the connection silently).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameTooLarge {
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
pub(crate) fn serve_error_status(e: &ServeError) -> (&'static str, u16) {
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
pub(crate) fn is_retryable_code(code: u16) -> bool {
    matches!(code, 429 | 503 | 504)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Past [`READ_CHUNK`], so a `MAX`-sized frame spans two reserves.
    const MAX: usize = READ_CHUNK + 40_000;

    /// A socket that hands `bytes` out in `cuts`-sized chunks (cycled),
    /// with one `WouldBlock` before each, then reports EOF — recording
    /// how much it was asked for and how much it gave.
    struct Script<'a> {
        bytes: &'a [u8],
        cuts: &'a [usize],
        chunk: usize,
        left_in_chunk: usize,
        blocked: bool,
        given: usize,
        largest_ask: usize,
    }

    impl<'a> Script<'a> {
        fn new(bytes: &'a [u8], cuts: &'a [usize]) -> Script<'a> {
            Script { bytes, cuts, chunk: 0, left_in_chunk: 0, blocked: false, given: 0, largest_ask: 0 }
        }
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(!buf.is_empty(), "a zero-length read would pass for EOF");
            self.largest_ask = self.largest_ask.max(buf.len());
            if self.left_in_chunk == 0 {
                self.blocked = !self.blocked;
                if self.blocked {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.left_in_chunk = self.cuts[self.chunk % self.cuts.len()];
                self.chunk += 1;
            }
            let n = buf.len().min(self.left_in_chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.left_in_chunk -= n;
            self.given += n;
            Ok(n)
        }
    }

    /// Every frame up to the first `None` or error.
    fn decode_all(r: &mut impl Read) -> (Vec<Vec<u8>>, io::Result<()>) {
        let mut frames = Vec::new();
        loop {
            match read_frame(r, MAX) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the stream is cut, the frames are the whole-buffer
        /// decode's; an oversized prefix is refused before a payload
        /// byte is asked for; EOF is clean only at a boundary.
        #[test]
        fn any_chunking_decodes_like_the_whole_buffer(
            sizes in proptest::collection::vec(
                prop_oneof![Just(0usize), Just(MAX), 0usize..=40, 0usize..=40], 1..=8),
            cuts in proptest::collection::vec(prop_oneof![1usize..=7, 1usize..=100_000], 1..=12),
            announced in prop_oneof![Just(u32::MAX), (MAX as u32 + 1)..=u32::MAX],
            stop in 0usize..4_000_000,
        ) {
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
                .collect();
            let mut wire = Vec::new();
            for payload in &payloads {
                write_frame(&mut wire, payload).unwrap();
            }

            let (whole, end) = decode_all(&mut &wire[..]);
            prop_assert!(end.is_ok());
            prop_assert_eq!(&whole, &payloads);
            let mut script = Script::new(&wire, &cuts);
            let (chunked, end) = decode_all(&mut script);
            prop_assert!(end.is_ok());
            prop_assert_eq!(&chunked, &payloads);
            prop_assert!(script.largest_ask <= READ_CHUNK);

            let mut hostile = wire.clone();
            hostile.extend_from_slice(&announced.to_be_bytes());
            hostile.extend_from_slice(b"never asked for");
            let mut script = Script::new(&hostile, &cuts);
            let (frames, end) = decode_all(&mut script);
            prop_assert_eq!(&frames, &payloads);
            let e = end.unwrap_err();
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            prop_assert!(e.get_ref().unwrap().is::<FrameTooLarge>());
            prop_assert_eq!(script.given, wire.len() + 4);
            // The refusal is sticky: a caller that steps again anyway
            // is refused again, and still not a payload byte is read.
            let mut script = Script::new(&hostile[wire.len()..], &cuts);
            let mut decoder = FrameDecoder::new(MAX);
            while decoder.step(&mut script).is_ok() {}
            prop_assert!(decoder.step(&mut script).is_err());
            prop_assert_eq!(script.given, 4);

            let stop = stop % (wire.len() + 1);
            let mut boundaries = vec![0];
            for payload in &payloads {
                boundaries.push(boundaries.last().unwrap() + 4 + payload.len());
            }
            let whole_before = boundaries.iter().filter(|&&b| b <= stop).count() - 1;
            let (frames, end) = decode_all(&mut Script::new(&wire[..stop], &cuts));
            prop_assert_eq!(&frames[..], &payloads[..whole_before]);
            match end {
                Ok(()) => prop_assert!(boundaries.contains(&stop)),
                Err(e) => {
                    prop_assert!(!boundaries.contains(&stop));
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                }
            }
        }
    }
}
