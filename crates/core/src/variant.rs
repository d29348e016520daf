//! The prepared serving state of one universe: full matrix or coreset.

use crate::coreset::{CoresetEngine, PreparedCoreset};
use crate::deadline::Deadline;
use crate::engine::{DeltaOp, Engine, EngineRequest, ServeError, SharedPrepared, SolveScratch};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Prepared serving state for one universe: the full `n × n`
/// [`PreparedUniverse`](crate::engine::PreparedUniverse) (small
/// universes, answers match the `Ratio`-path heuristics exactly) or the
/// sub-quadratic [`PreparedCoreset`](crate::coreset::PreparedCoreset)
/// (large universes, answers re-scored exactly against the full
/// universe; see [`crate::coreset`] for the quality contract). This is
/// the one fork in the serving path that earns its place, and it is
/// selected in one place, `divr-server`'s `Instance::build`, from
/// something observable: a spec's explicit mode, or the size of `Q(D)`
/// against the escalation threshold at the query front door. Cloning
/// is `O(1)` (both arms are `Arc`s).
#[derive(Clone)]
pub enum PreparedVariant {
    /// Full-matrix prepared state (exact-tie-fallback engine).
    Full(SharedPrepared),
    /// Coreset prepared state (`m × m` matrix, `O(n)` bookkeeping).
    Coreset(Arc<PreparedCoreset>),
}

impl PreparedVariant {
    /// Universe size `n`.
    pub fn n(&self) -> usize {
        match self {
            PreparedVariant::Full(p) => p.n(),
            PreparedVariant::Coreset(p) => p.n(),
        }
    }

    /// The materialized universe `Q(D)` answers index into: borrowed
    /// from a full-matrix state, decoded from a coreset's rows (which
    /// hold no tuples) into an owned copy.
    pub fn universe(&self) -> Cow<'_, [Tuple]> {
        match self {
            PreparedVariant::Full(p) => Cow::Borrowed(p.universe()),
            PreparedVariant::Coreset(p) => Cow::Owned(p.universe()),
        }
    }

    /// Whether this is the coreset variant.
    pub fn is_coreset(&self) -> bool {
        matches!(self, PreparedVariant::Coreset(_))
    }

    /// The full-matrix prepared state, if that is what was built.
    pub fn as_full(&self) -> Option<&SharedPrepared> {
        match self {
            PreparedVariant::Full(p) => Some(p),
            PreparedVariant::Coreset(_) => None,
        }
    }

    /// The coreset prepared state, if that is what was built.
    pub fn as_coreset(&self) -> Option<&Arc<PreparedCoreset>> {
        match self {
            PreparedVariant::Full(_) => None,
            PreparedVariant::Coreset(p) => Some(p),
        }
    }

    /// Approximate heap bytes this state pins — `n²`-dominated for the
    /// full variant, `m² + O(n)` for the coreset variant. The quantity
    /// a byte-budgeted cache meters.
    pub fn approx_bytes(&self) -> usize {
        match self {
            PreparedVariant::Full(p) => p.approx_bytes(),
            PreparedVariant::Coreset(p) => p.approx_bytes(),
        }
    }

    /// Validates every cached float in this prepared state (relevance
    /// caches and the distance matrix — full `n × n` or coreset
    /// `m × m`): `Ok` iff none is `NaN`/`±∞`. Checked prepare paths run
    /// this once per build so non-finite oracle output is a typed
    /// refusal ([`ServeError::NonFiniteScore`]) instead of a silently
    /// mis-selected answer set.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        match self {
            PreparedVariant::Full(p) => p.check_finite(),
            PreparedVariant::Coreset(p) => p.check_finite(),
        }
    }

    /// Applies `ops` to this prepared state in place — the one delta
    /// step, with two callers: the query front door's base-edit repair
    /// of a warm entry, and recovery's replay of the inserted tail of
    /// a coreset sequence. `rel` scores inserted
    /// tuples. `None` means the state cannot be patched and the caller
    /// goes cold (drops the entry; the next serve re-prepares):
    ///
    /// * an appended row with a non-finite score — the resident state
    ///   was validated when it was built, so only the new row can be
    ///   bad, and it is checked as it lands (`O(n)`, not a rescan);
    /// * a coreset that is still shared (it has no `O(1)` fork) or is
    ///   asked to remove — it cannot un-derive a departed tuple's
    ///   contributions, and absorbing an insert *is* its repair;
    /// * a coreset an insert leaves with a covering radius above twice
    ///   its selection's: the next serve selects afresh (an identity
    ///   coreset goes cold on its first displacement). Deterministic,
    ///   so recovery's replay refuses at the same insert;
    /// * a removal index outside the universe.
    ///
    /// A shared full-matrix state is forked first: solves in flight
    /// keep the old immutable state, the copy is patched. The patched
    /// full-matrix state is bit-identical to a cold prepare of the
    /// mutated universe
    /// ([`PreparedUniverse::insert_tuple`](crate::engine::PreparedUniverse::insert_tuple)).
    pub fn patch(self, ops: &[DeltaOp], rel: &dyn Relevance) -> Option<PreparedVariant> {
        if ops.is_empty() {
            return Some(self);
        }
        match self {
            PreparedVariant::Full(arc) => {
                let mut p = Arc::try_unwrap(arc).unwrap_or_else(|shared| shared.fork());
                for op in ops {
                    match op {
                        DeltaOp::Insert(t) => {
                            p.insert_tuple(t.clone(), rel.rel(t));
                            p.check_finite_item(p.n() - 1).ok()?;
                        }
                        DeltaOp::Remove(i) => drop(p.remove_tuple(*i).ok()?),
                    }
                }
                Some(PreparedVariant::Full(Arc::new(p)))
            }
            PreparedVariant::Coreset(arc) => {
                let mut p = Arc::try_unwrap(arc).ok()?;
                for op in ops {
                    let DeltaOp::Insert(t) = op else { return None };
                    p.insert_tuple(t.clone(), rel.rel(t));
                    p.check_finite_item(p.n() - 1).ok()?;
                    let cover = p.coreset();
                    if cover.covering_radius() > 2.0 * cover.selection_radius() {
                        return None;
                    }
                }
                Some(PreparedVariant::Coreset(Arc::new(p)))
            }
        }
    }

    /// [`PreparedVariant::try_serve_deadline`] with a fresh scratch and
    /// [`Deadline::none`].
    pub fn try_serve(
        &self,
        threads: usize,
        request: EngineRequest,
    ) -> Result<(Ratio, Vec<usize>), ServeError> {
        self.try_serve_deadline(threads, request, &mut SolveScratch::new(), Deadline::none())
    }

    /// Serves one request against this prepared state with `threads`
    /// solver workers: the exact objective value and the chosen
    /// full-universe indices, or the engine's typed diagnosis
    /// ([`Engine::serve_into`] / [`CoresetEngine::serve_into`] classify;
    /// this only dispatches). A single caller-owned [`SolveScratch`]
    /// serves full and coreset variants (and any mix of universes)
    /// interchangeably, so a worker that keeps one allocates nothing
    /// per request beyond the answer set. The solve checks `deadline`
    /// between rounds; with [`Deadline::none`] (or any deadline that
    /// never trips) answers are bit-identical to the undeadlined form.
    pub fn try_serve_deadline(
        &self,
        threads: usize,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        deadline: Deadline,
    ) -> Result<(Ratio, Vec<usize>), ServeError> {
        let mut set = Vec::new();
        let value = match self {
            PreparedVariant::Full(p) => Engine::from_prepared(p.clone(), threads)
                .with_deadline(deadline)
                .serve_into(request, scratch, &mut set),
            PreparedVariant::Coreset(p) => CoresetEngine::from_prepared(p.clone(), threads)
                .with_deadline(deadline)
                .serve_into(request, scratch, &mut set),
        }?;
        Ok((value, set))
    }
}

impl fmt::Debug for PreparedVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreparedVariant::Full(p) => f.debug_tuple("PreparedVariant::Full").field(p).finish(),
            PreparedVariant::Coreset(p) => {
                f.debug_tuple("PreparedVariant::Coreset").field(p).finish()
            }
        }
    }
}
