//! # divr-paper — the paper's complexity analysis
//!
//! The half of *On the Complexity of Query Result Diversification*
//! (Deng & Fan, VLDB 2013 / TODS 2014) that states and witnesses its
//! results, over the objectives, scores and oracles of `divr-core`:
//!
//! * the three analysis problems — **QRD** (decision), **DRP** (ranking),
//!   **RDC** (counting) — with one solver per complexity regime
//!   ([`solvers`]), and the analysis interface from
//!   `(D, Q, δ_rel, δ_dis, λ, k)` to exact answers ([`pipeline`]);
//! * the compatibility-constraint class `C_m` of Section 9 and
//!   constraint-aware solvers ([`constraints`], [`solvers::constrained`]);
//! * the approximation/heuristic algorithms the paper calls for, as the
//!   sequential exact-`Ratio` references the served engine is checked
//!   against ([`approx`]);
//! * the Gollapudi–Sharma axiom system as executable checkers
//!   ([`axioms`]);
//! * the facility-dispersion family of Prokopyev et al. that Section 3.2
//!   maps the objectives onto, with executable bridges ([`dispersion`]);
//! * one-pass greedy diversification over a result stream — the
//!   "embed diversification in query evaluation" direction of Section 1
//!   ([`streaming`]);
//! * subset enumeration ([`combin`]) and seeded instance generators for
//!   `repro` and the suites ([`gen`]).
//!
//! The seam: `divr-core` is what the daemon compiles, and this crate
//! depends on it; an edge back would be a cycle, so nothing here is
//! served. Serving the same instance at scale is `divr-server`'s job.
//!
//! ## Quick example
//!
//! ```
//! use divr_core::prelude::*;
//! use divr_paper::prelude::*;
//! use divr_relquery::{Database, Value};
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
pub mod axioms;
pub mod combin;
pub mod constraints;
pub mod dispersion;
pub mod gen;
pub mod pipeline;
pub mod solvers;
pub mod streaming;

pub use constraints::{CmOp, CmPred, Constraint};
pub use dispersion::{Dispersion, DispersionVariant};
pub use pipeline::{
    PipelineError, PipelineResult, QueryDiversification, SharedDistance, SharedRelevance,
};
pub use streaming::StreamingDiversifier;

/// Common imports for downstream users, beside `divr_core::prelude`.
pub mod prelude {
    pub use crate::constraints::{CmPred, Constraint};
    pub use crate::pipeline::QueryDiversification;
}
