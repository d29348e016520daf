//! # divr-core — the paper's query result diversification model
//!
//! This crate implements the model and all algorithmic results of
//! *On the Complexity of Query Result Diversification* (Deng & Fan,
//! VLDB 2013 / TODS 2014):
//!
//! * the three objective functions of Gollapudi & Sharma (2009) as revised
//!   by the paper — max-sum `F_MS`, max-min `F_MM`, mono-objective
//!   `F_mono` — over exact rational scores ([`problem`], [`ratio`]);
//! * generic relevance and distance functions with the paper's axioms
//!   ([`relevance`], [`distance`]);
//! * the three analysis problems — **QRD** (decision), **DRP** (ranking),
//!   **RDC** (counting) — with one solver per complexity regime
//!   ([`solvers`]);
//! * the compatibility-constraint class `C_m` of Section 9 and
//!   constraint-aware solvers ([`constraints`], [`solvers::constrained`]);
//! * the approximation/heuristic algorithms the paper calls for
//!   ([`approx`]);
//! * the Gollapudi–Sharma axiom system as executable checkers
//!   ([`axioms`]);
//! * the facility-dispersion family of Prokopyev et al. that Section 3.2
//!   maps the objectives onto, with executable bridges ([`dispersion`]);
//! * one-pass greedy diversification over a result stream — the
//!   "embed diversification in query evaluation" direction of Section 1
//!   ([`streaming`]);
//! * sub-quadratic large-universe serving via GMM/k-center coresets,
//!   for universes where the `n × n` distance matrix cannot even be
//!   allocated ([`coreset`]);
//! * the paper's analysis interface from `(D, Q, δ_rel, δ_dis, λ, k)` to
//!   exact QRD / DRP / RDC answers ([`pipeline`]). Serving the same
//!   instance at scale is `divr-server`'s job: it builds the
//!   [`PreparedVariant`] (full matrix or coreset) the engines here run on.
//!
//! ## Quick example
//!
//! ```
//! use divr_core::prelude::*;
//! use divr_relquery::{Database, Tuple, Value};
//!
//! let mut db = Database::new();
//! db.create_relation("gifts", &["id", "price"]).unwrap();
//! for (id, price) in [(1, 20), (2, 25), (3, 30), (4, 30)] {
//!     db.insert("gifts", vec![Value::int(id), Value::int(price)]).unwrap();
//! }
//! let q = divr_relquery::parser::parse_query("Q(id, price) :- gifts(id, price), price <= 30").unwrap();
//! let task = QueryDiversification::new(
//!     db,
//!     q,
//!     Box::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
//!     Box::new(NumericDistance { attr: 0, fallback: Ratio::ONE }),
//!     Ratio::new(1, 2),
//!     2,
//! );
//! let (value, set) = task.top_set(ObjectiveKind::MaxSum).unwrap().unwrap();
//! assert_eq!(set.len(), 2);
//! assert!(value > Ratio::ZERO);
//! ```

pub mod approx;
mod avail;
pub mod axioms;
mod codec;
pub mod combin;
pub mod constraints;
pub mod coreset;
mod deadline;
pub mod dispersion;
pub mod distance;
pub mod engine;
pub mod gen;
mod mono_exact;
pub mod pipeline;
pub mod problem;
pub mod ratio;
pub mod relevance;
pub mod solvers;
pub mod streaming;
mod variant;

pub use codec::{crc32, ByteReader, ByteWriter, CodecError};
pub use constraints::{CmOp, CmPred, Constraint};
pub use coreset::{
    Coreset, CoresetConfig, CoresetEngine, PreparedCoreset, SharedCoreset,
    CORESET_AUTO_THRESHOLD,
};
pub use deadline::Deadline;
pub use dispersion::{Dispersion, DispersionVariant};
pub use distance::{
    ClosureDistance, ConstantDistance, Distance, HammingDistance, NumericDistance, TableDistance,
};
pub use engine::{
    DeltaError, DeltaOp, DistanceMatrix, Engine, EngineRequest, PreparedUniverse,
    ServeError, SharedPrepared, SolveScratch,
};
pub use pipeline::{
    PipelineError, PipelineResult, QueryDiversification, SharedDistance, SharedRelevance,
};
pub use problem::{DiversityProblem, ObjectiveKind};
pub use ratio::Ratio;
pub use relevance::{
    AttributeRelevance, ClosureRelevance, ConstantRelevance, Relevance, TableRelevance,
};
pub use streaming::StreamingDiversifier;
pub use variant::PreparedVariant;

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::constraints::{CmPred, Constraint};
    pub use crate::coreset::{CoresetConfig, CoresetEngine, PreparedCoreset, SharedCoreset};
    pub use crate::deadline::Deadline;
    pub use crate::distance::{
        ConstantDistance, Distance, HammingDistance, NumericDistance, TableDistance,
    };
    pub use crate::engine::{
        DeltaError, DeltaOp, Engine, EngineRequest, PreparedUniverse, ServeError, SharedPrepared,
        SolveScratch,
    };
    pub use crate::pipeline::QueryDiversification;
    pub use crate::problem::{DiversityProblem, ObjectiveKind};
    pub use crate::ratio::Ratio;
    pub use crate::relevance::{
        AttributeRelevance, ConstantRelevance, Relevance, TableRelevance,
    };
}
