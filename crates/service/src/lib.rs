//! # divr-service — the diversification daemon
//!
//! The paper frames QRD as a serving problem; `divr_server::Registry`
//! made it a library. This crate puts it on the wire as a process you
//! can point tenants at — std-only, no external dependencies:
//!
//! * **Protocol** ([`proto`], [`json`], [`wire`]): length-prefixed
//!   JSON frames over TCP. Universes travel as content (tuples,
//!   oracle configs, λ as exact `[num, den]` pairs); answers come back
//!   with exact values and full-universe indices, or a typed
//!   `{code, kind}` failure.
//! * **Admission control** ([`admission`]): per-tenant token-bucket
//!   QPS quotas and prepared-byte cache quotas, charged *before* the
//!   `O(n²)` work they would unleash; saturation answers retryable
//!   `429`s instead of queueing without bound.
//! * **Degradation** ([`server`]): when frames in flight cross the
//!   watermark, large full-matrix universes are transparently served
//!   in coreset mode — precision degrades (bounded, measured; see
//!   `divr_core::coreset`), availability doesn't.
//! * **Fault isolation**: a panicking or `NaN`-emitting oracle costs
//!   exactly the requests that touched it (`500 worker_panicked` /
//!   `422 non_finite_score`) — the registry's catch-unwind boundaries
//!   and poison-recovering cache keep every other tenant's answers
//!   bit-identical and the process alive. The [`wire`] module's
//!   `chaos_panic` / `chaos_nan` distance kinds exist to prove exactly
//!   that, end-to-end, through the real protocol. Around those sits a
//!   per-frame boundary ([`server`]): a handler that panics anywhere
//!   else — in practice `{"op": "mutate"}`, whose repair of warm
//!   universes runs the tenant's distance oracle — costs that frame a
//!   non-retryable `500 worker_panicked` and the worker keeps serving.
//!   A mutate answered that way **was journaled and applied**; only
//!   its reply was lost, and a retry answers `changed: false`.
//! * **Bounded parsers** ([`json`], `divr_relquery::parser`): a frame
//!   may nest [`json::MAX_DEPTH`] arrays/objects and its query text
//!   `MAX_FORMULA_DEPTH` productions; past either it is a `400` naming
//!   the limit instead of a stack overflow, which no `catch_unwind`
//!   would have seen.
//! * **Relational front door** (`{"op": "query"}`): a frame may carry
//!   a *database and a conjunctive query over it* instead of a
//!   materialized universe. The daemon evaluates `Q(D)` (streaming
//!   into a coreset past the auto-escalation threshold) and serves
//!   diversification through [`divr_server::QueryFrontDoor`], keyed by
//!   the query's canonical tableau — semantically equivalent queries
//!   hit the same prepared universe. Admission charges a cardinality
//!   *bound* before evaluation ever runs.
//! * **Deadlines and drain** ([`server`], [`proto`]): frames may carry
//!   `deadline_ms`; the work below polls a cooperative
//!   `divr_core::Deadline` at its checkpoint boundaries and answers a
//!   retryable `504 deadline_exceeded` (abandoned prepares are never
//!   cached). [`Service::shutdown`] drains gracefully: in-flight
//!   frames finish within a grace period while new work gets a
//!   retryable `503 draining`. Idle connections are reaped; slow
//!   readers are bounded by a write timeout.
//! * **Self-healing client** ([`Client`]): typed failures
//!   ([`ClientError`]) and a [`RetryPolicy`] of capped jittered
//!   backoff that honors `retry_after_ms` and never hangs on a dead
//!   daemon. The fault-matrix suite (`tests/chaos_matrix.rs`, which
//!   owns the deterministic fault-injecting proxy: latency,
//!   truncation, resets, corruption) proves every fault ends in a
//!   typed error or a correct answer.
//! * **Observability** (`histogram.rs`): lock-free log-bucketed latency
//!   histograms per objective, exported by `{"op": "stats"}`.
//! * **Durability** (`divr_server::Durability`, wired by [`server`]): a
//!   daemon started with a data directory journals every registration,
//!   base-table mutation, and warm prepare to a checksummed write-ahead
//!   log (a mutation is synced, with everything before it, *before* its
//!   reply acknowledges it), and compacts the log into
//!   length-prefixed, CRC-framed snapshots — on a timer, on
//!   `{"op": "checkpoint"}`, and on graceful drain (so a drained
//!   daemon's successor restarts 100% warm with zero replay). Recovery
//!   tolerates torn tails and corrupt files by halting replay at the
//!   first bad frame: a consistent prefix, never a panic. The
//!   `{"op": "mutate"}` frame edits one base tuple through the same
//!   journal-first path, repairing affected warm universes in place.
//!
//! Start one with [`Service::start`]; talk to it with [`Client`] or
//! any socket that can write a 4-byte length and some JSON. The
//! `divrd` binary wraps the same entry point for the command line.

pub mod admission;
mod client;
mod histogram;
pub mod json;
pub mod proto;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, Rejection};
pub use client::{query_doc, serve_doc, Client, ClientError, RetryPolicy};
pub use server::{Service, ServiceConfig};
// Re-exported so daemon embedders can configure durability without
// depending on divr_server directly.
pub use divr_server::{DurabilityStats, RecoverMode};
