//! # divr-server — the multi-universe serving registry
//!
//! The paper analyses QRD as a per-query problem over one fixed
//! universe. A deployment serving heavy traffic sees something else:
//! streams of concurrent queries over *many* universes, most of them
//! re-used — the same catalog slice, the same λ, the same distance
//! function, query after query. The dominant cost in that regime is
//! not the solve but the `O(n²)` distance-structure construction
//! (Capannini et al., "Efficient Diversification of Web Search
//! Results"; Zhang et al., "Diversification on Big Data in Query
//! Processing"), which `divr_core`'s engine pays once *per engine*.
//! This crate amortizes it across the query stream:
//!
//! * [`UniverseSpec`] describes one universe `(Q(D), δ_rel, δ_dis, λ)`
//!   and fingerprints it by **content** ([`UniverseKey`]) — an
//!   injective canonical encoding, so distinct universes are
//!   *guaranteed* distinct cache keys;
//! * [`Registry`] keeps prepared universes
//!   ([`divr_core::engine::PreparedUniverse`]) in a sharded,
//!   byte-budgeted LRU ([`PreparedCache`]): a hit skips relevance evaluation
//!   and matrix construction entirely and goes straight to the
//!   parallel solve rounds;
//! * [`Registry::serve_mixed_checked`] runs interleaved batches from
//!   many tenants as two steps of one claim loop (resolve each distinct
//!   universe exactly once, then solve every request), with the
//!   caller's thread as the first worker;
//! * universes too large for any `n × n` matrix opt into **coreset
//!   mode** ([`UniverseSpec::with_coreset`]): preparation selects
//!   `m ≪ n` representatives in `O(n·m)` ([`divr_core::coreset`]),
//!   the cache meters the entry at its honest `m² + O(n)` size, and
//!   full-matrix and coreset tenants mix freely in one batch;
//! * a universe changes because its database does
//!   ([`QueryFrontDoor::insert_base_tuple`] /
//!   [`QueryFrontDoor::remove_base_tuple`], the wire's `mutate`): every
//!   warm query reading the edited relation is repaired in `O(Δ · n)` —
//!   matrix row/column patch plus preamble repair, never a cold `O(n²)`
//!   re-prepare — and re-keyed under the bumped relation version
//!   (`tests/query_serving_matches_materialized.rs` pins the repaired
//!   entry bit-identical to a cold prepare of the same sequence).
//!
//! For full-matrix specs, answers are **exactly** those of a freshly
//! built [`Engine`](divr_core::engine::Engine) — same `Ratio` value,
//! same index set, through hits, misses, evictions and rebuilds
//! (`tests/server_matches_engine.rs` in the workspace root
//! property-tests this differentially). Coreset-mode specs instead
//! answer exactly like a fresh
//! [`CoresetEngine`](divr_core::coreset::CoresetEngine) over the same
//! content: deterministic and exactly valued, but heuristic relative
//! to the full engine within the measured factors of
//! `tests/coreset_matches_engine.rs` (identical when `budget ≥ n`).
//!
//! ```
//! use divr_core::engine::EngineRequest;
//! use divr_core::prelude::*;
//! use divr_relquery::Tuple;
//! use divr_server::{Registry, TenantBatch, UniverseSpec};
//! use std::sync::Arc;
//!
//! let registry = Registry::default();
//! // Two tenants; the second re-uses the first tenant's universe.
//! let catalog = UniverseSpec::new(
//!     (0..40).map(|i| Tuple::ints([i, (i * i) % 11])).collect(),
//!     Arc::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
//!     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
//!     Ratio::new(1, 2),
//! );
//! let answers = registry.serve_mixed_checked(&[
//!     TenantBatch {
//!         spec: catalog.clone(),
//!         requests: vec![
//!             EngineRequest { kind: ObjectiveKind::MaxSum, k: 4 },
//!             EngineRequest { kind: ObjectiveKind::Mono, k: 6 },
//!         ],
//!     },
//!     TenantBatch {
//!         spec: catalog.clone(),
//!         requests: vec![EngineRequest { kind: ObjectiveKind::MaxMin, k: 3 }],
//!     },
//! ]);
//! assert_eq!(answers[0].len(), 2);
//! assert_eq!(answers[1][0].as_ref().unwrap().1.len(), 3);
//! // One universe content ⇒ one preparation, despite two tenants.
//! assert_eq!(registry.stats().misses, 1);
//! ```

mod cache;
mod fingerprint;
mod persist;
mod query;
mod registry;
mod spec;

pub use cache::{CacheStats, PreparedCache};
pub use fingerprint::{FingerprintEncoder, Fingerprintable, UniverseKey};
pub use persist::{
    CheckpointReport, Durability, DurabilityStats, RecoverMode, RecoverReport,
};
pub use query::{QueryError, QueryFrontDoor, QuerySpec};
pub use registry::{CheckedAnswer, Registry, RegistryConfig, RegistryStats, TenantBatch};
pub use spec::{
    CoresetSpec, Instance, PreparedVariant, ServableDistance, ServableRelevance, UniverseRows,
    UniverseSpec,
};

// The typed diagnoses are divr_core's; ScoreSource rides along for
// matching on ServeError::NonFiniteScore.
pub use divr_core::engine::{ScoreSource, ServeError};
