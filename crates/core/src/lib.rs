//! # divr-core — the served diversification engine
//!
//! The half of *On the Complexity of Query Result Diversification*
//! (Deng & Fan, VLDB 2013 / TODS 2014) that `divrd` serves:
//!
//! * the three objective functions of Gollapudi & Sharma (2009) as revised
//!   by the paper — max-sum `F_MS`, max-min `F_MM`, mono-objective
//!   `F_mono` — over exact rational scores ([`problem`], [`ratio`]);
//! * generic relevance and distance functions with the paper's axioms
//!   ([`relevance`], [`distance`]);
//! * the parallel batch engine that runs the paper's heuristics on a
//!   prepared `n × n` distance matrix, with exact re-scoring and
//!   single-tuple deltas ([`engine`]);
//! * sub-quadratic large-universe serving via GMM/k-center coresets,
//!   for universes where the `n × n` distance matrix cannot even be
//!   allocated ([`coreset`]);
//! * [`PreparedVariant`], the full-matrix-or-coreset state `divr-server`
//!   builds per universe and the engines here run on.
//!
//! The seam: this crate is what the daemon compiles. The paper's
//! complexity analysis — the exact QRD / DRP / RDC solvers, the `C_m`
//! constraints, the sequential reference heuristics, the axioms,
//! dispersion and streaming — is `divr-paper`, which depends on this
//! crate; an edge back would be a cycle, so nothing served can reach it.
//!
//! ## Quick example
//!
//! ```
//! use divr_core::prelude::*;
//! use divr_relquery::Tuple;
//! use std::sync::Arc;
//!
//! let universe: Vec<Tuple> = (0..6).map(|i| Tuple::ints([i, i % 3])).collect();
//! let engine = Engine::new(
//!     universe,
//!     &AttributeRelevance { attr: 1, default: Ratio::ZERO },
//!     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ONE }),
//!     Ratio::new(1, 2),
//! );
//! let (value, set) = engine
//!     .try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 2 })
//!     .unwrap();
//! assert_eq!(set.len(), 2);
//! assert!(value > Ratio::ZERO);
//! ```

mod avail;
mod codec;
pub mod coreset;
mod deadline;
pub mod distance;
pub mod engine;
mod mono_exact;
pub mod problem;
pub mod ratio;
pub mod relevance;
mod variant;

pub use codec::{crc32, ByteReader, ByteWriter, CodecError};
pub use coreset::{
    Coreset, CoresetConfig, CoresetEngine, PreparedCoreset,
    CORESET_AUTO_THRESHOLD,
};
pub use deadline::Deadline;
pub use distance::{
    ClosureDistance, ConstantDistance, Distance, HammingDistance, NumericDistance, TableDistance,
};
pub use engine::{
    DeltaError, DeltaOp, DistanceMatrix, Engine, EngineRequest, PreparedUniverse,
    ServeError, SharedPrepared, SolveScratch,
};
pub use problem::{DiversityProblem, ObjectiveKind};
pub use ratio::Ratio;
pub use relevance::{
    AttributeRelevance, ClosureRelevance, ConstantRelevance, Relevance, TableRelevance,
};
pub use variant::PreparedVariant;

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::coreset::{CoresetConfig, CoresetEngine, PreparedCoreset};
    pub use crate::deadline::Deadline;
    pub use crate::distance::{
        ConstantDistance, Distance, HammingDistance, NumericDistance, TableDistance,
    };
    pub use crate::engine::{
        DeltaError, DeltaOp, Engine, EngineRequest, PreparedUniverse, ServeError, SharedPrepared,
        SolveScratch,
    };
    pub use crate::problem::{DiversityProblem, ObjectiveKind};
    pub use crate::ratio::Ratio;
    pub use crate::relevance::{
        AttributeRelevance, ConstantRelevance, Relevance, TableRelevance,
    };
}
