//! Facade crate re-exporting the full diversification workspace.
//!
//! Each member crate is re-exported under a short module name
//! (`divr::paper`, `divr::server`, …); `divr::core` is the served
//! engine (`divr-core`) and the paper's analysis (`divr-paper`) under
//! one path, with one merged `prelude`. The serving-layer entry points
//! most programs start from — the registry and the coreset API
//! for universes too large for any `n × n` matrix — are additionally
//! lifted to this crate root, so examples and doc links resolve from
//! one place:
//!
//! ```
//! use divr::{CoresetConfig, CoresetEngine};
//! use divr::core::engine::EngineRequest;
//! use divr::core::prelude::*;
//! use divr::relquery::Tuple;
//! use std::sync::Arc;
//!
//! let engine = CoresetEngine::new(
//!     (0..5000).map(|i| Tuple::ints([i, i % 13])).collect(),
//!     &AttributeRelevance { attr: 1, default: Ratio::ZERO },
//!     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
//!     Ratio::new(1, 2),
//!     &CoresetConfig::recommended(5),
//! );
//! let (value, set) = engine
//!     .try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 5 })
//!     .unwrap();
//! assert_eq!(set.len(), 5);
//! assert!(value > Ratio::ZERO);
//! ```
/// The served engine (`divr-core`) and the paper's analysis
/// (`divr-paper`) under one path: `divr::core::engine` and
/// `divr::core::solvers` both resolve, and `prelude` is both preludes.
pub mod core {
    pub use divr_core::*;
    pub use divr_paper::*;

    /// Both crates' common imports.
    pub mod prelude {
        pub use divr_core::prelude::*;
        pub use divr_paper::prelude::*;
    }
}
pub use divr_logic as logic;
pub use divr_paper as paper;
pub use divr_reductions as reductions;
pub use divr_relquery as relquery;
pub use divr_server as server;
pub use divr_service as service;

// The large-universe (coreset) API, lifted from `divr::core::coreset`.
pub use divr_core::coreset::{
    Coreset, CoresetConfig, CoresetEngine, PreparedCoreset,
    CORESET_AUTO_THRESHOLD,
};
// The serving-registry API, lifted from `divr::server`.
pub use divr_server::{
    CoresetSpec, PreparedVariant, Registry, RegistryConfig, TenantBatch, UniverseSpec,
};
// The relational front door, lifted from `divr::server`: serve
// diversification straight off a (query, database) pair, keyed by the
// query's canonical tableau so equivalent queries share warm state.
pub use divr_server::{QueryError, QueryFrontDoor, QuerySpec};
// The mutable-universe (delta) vocabulary, lifted from
// `divr::core::engine`: apply single-tuple edits to warm prepared
// state in O(n) instead of re-preparing in O(n²).
pub use divr_core::engine::{DeltaError, DeltaOp, ServeError};
// The network front-end, lifted from `divr::service`: the registry on
// the wire with admission control and fault isolation.
pub use divr_service::{Client, Service, ServiceConfig};
