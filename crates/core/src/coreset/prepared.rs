//! [`PreparedCoreset`]: the owned, shareable prepared state of the
//! coreset path, and its incremental maintenance under deltas.

use super::{Coreset, CoresetConfig, Points, RelColumn, Rows};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::{PreparedUniverse, ScoreSource, ServeError};
use crate::mono_exact::{ExactRel, ExactRows, ExactView, MonoSums};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::sync::Arc;

/// The owned, shareable prepared state of the coreset serving path:
/// the selected [`Coreset`] with an `m × m` [`PreparedUniverse`] over
/// its representatives, plus `O(n)` words of the full universe. This is
/// the unit a byte-budgeted cache stores for large universes.
///
/// The full universe is held once, as its rows' canonical encoding
/// ([`ByteWriter::write_tuples`](crate::ByteWriter::write_tuples)'s
/// layout) — for a universe built from its cache key
/// ([`PreparedCoreset::try_build_rows_deadline`]), inside the key's own
/// allocation — beside the float columns the solvers read: relevance
/// (its exact value is the float's own, bar a list of the scores a
/// float cannot hold, empty for integer scores) and each item's
/// coverage. A [`Tuple`] is decoded only where one is needed: the `m`
/// representatives, the `k` members an exact re-score measures, and,
/// for an oracle without a [`Distance::key_column`], the whole universe
/// for as long as a selection, a displacing insert or a refine round
/// runs. [`PreparedCoreset::approx_bytes`] charges `m²` floats plus
/// `O(n)` words and the rows, never `n²`.
pub struct PreparedCoreset {
    pub(super) rows: Rows,
    pub(super) dis: Arc<dyn Distance + Send + Sync>,
    pub(super) rel: RelColumn,
    pub(super) lambda: Ratio,
    pub(super) config: CoresetConfig,
    pub(super) coreset: Coreset,
    pub(super) sub: Arc<PreparedUniverse>,
    // Exact full-universe distance sums for the `F_mono` re-score, when
    // the oracle is a key column: built by the first mono request,
    // repaired per insert, dropped by a removal.
    pub(super) mono_sums: MonoSums,
}

impl PreparedCoreset {
    /// [`PreparedCoreset::try_build_shared_deadline`] with
    /// [`Deadline::none`]: the infallible form for callers that prepare
    /// outside any request, with oracles they trust to be finite.
    pub fn build_shared(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
    ) -> PreparedCoreset {
        Self::try_build_shared_deadline(universe, rel, dis, lambda, config, Deadline::none())
            .expect("unbounded deadline, finite distances")
    }

    /// Prepares the coreset path over a materialized universe:
    /// evaluates relevance once (`O(n)`), selects the coreset
    /// (`O(n·m)` distances), and builds the `m × m` matrix over the
    /// representatives. Never allocates `n × n`. The tuples are encoded
    /// once, and dropped when the build returns.
    ///
    /// The relevance pass, the selection (checked per Gonzalez
    /// iteration), and the `m × m` sub-universe matrix build (checked
    /// per row) all poll `deadline`, so an expensive prepare is
    /// abandoned with [`ServeError::DeadlineExceeded`] within one
    /// `O(n)` slice instead of running to completion. A refused prepare
    /// leaves nothing behind.
    ///
    /// Panics if `λ ∉ [0, 1]`.
    pub fn try_build_shared_deadline(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        check_lambda(lambda);
        let rows = Rows::encode(&universe);
        let rel = RelColumn::score_tuples(&universe, rel, deadline)?;
        let points = Points::of(&universe, &*dis);
        Self::try_build(rows, rel, &points, dis.clone(), lambda, config, deadline)
    }

    /// [`PreparedCoreset::try_build_shared_deadline`] over rows already
    /// encoded: the [`ByteWriter::write_tuples`](crate::ByteWriter::write_tuples)
    /// bytes whose row count sits at byte `rows_at` of `bytes` (whatever
    /// follows the last row is ignored). The entry holds `bytes` itself,
    /// shared, not copied — a cache key's allocation, say. Rows are
    /// decoded a chunk at a time to score them and, when the oracle has
    /// one, read its key column; only an oracle without a column has
    /// the whole universe decoded, for the selection.
    ///
    /// Panics if `λ ∉ [0, 1]` or if no rows are encoded at `rows_at`.
    pub fn try_build_rows_deadline(
        bytes: Arc<Vec<u8>>,
        rows_at: usize,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        check_lambda(lambda);
        let rows = Rows::shared(bytes, rows_at).expect("rows encoded at `rows_at`");
        // One pass: each chunk scored, and its keys read while the
        // oracle keeps handing them out.
        let mut scores = RelColumn::with_capacity(rows.len());
        let mut keys = Some(Vec::with_capacity(rows.len()));
        rows.try_for_each_chunk(|first, chunk| {
            scores.score_chunk(first, chunk, rel, deadline)?;
            if let Some(column) = &mut keys {
                match dis.key_column(chunk) {
                    Some(chunk_keys) => column.extend(chunk_keys),
                    None => keys = None,
                }
            }
            Ok(())
        })?;
        let points = Points::of_keys(keys, &rows, &*dis);
        Self::try_build(rows, scores, &points, dis.clone(), lambda, config, deadline)
    }

    /// The build both constructors share, from the scored rows and the
    /// universe as the oracle measures it.
    fn try_build(
        rows: Rows,
        rel: RelColumn,
        points: &Points<'_>,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        let threads = config.threads.max(1);
        let rel_cmp = |a: usize, b: usize| rel.cmp(a, b);
        let coreset = Coreset::select_points(points, rel_cmp, config.budget, threads, deadline)?;
        // The sub-universe reuses the scores already evaluated for the
        // full universe (identical values, and no second pass over a
        // possibly expensive oracle). Its matrix is exact-size: a
        // displacing insert swap-removes before it appends, so only an
        // open budget grows it.
        let indices = coreset.indices();
        let reps = indices
            .iter()
            .map(|&i| points.tuple(i).cloned().unwrap_or_else(|| rows.get(i)))
            .collect();
        let sub = Arc::new(PreparedUniverse::try_from_scores(
            reps,
            indices.iter().map(|&i| rel.exact(i)).collect(),
            dis.clone(),
            lambda,
            threads,
            false,
            deadline,
        )?);
        Ok(PreparedCoreset {
            rows,
            dis,
            rel,
            lambda,
            config: *config,
            coreset,
            sub,
            mono_sums: MonoSums::default(),
        })
    }

    /// Full-universe size `n`.
    pub(crate) fn n(&self) -> usize {
        self.rows.len()
    }

    /// Coreset size `m`.
    pub fn m(&self) -> usize {
        self.coreset.m()
    }

    /// The materialized full universe `Q(D)`, decoded from the rows.
    pub(crate) fn universe(&self) -> Vec<Tuple> {
        self.rows.decode()
    }

    /// The selected coreset.
    pub fn coreset(&self) -> &Coreset {
        &self.coreset
    }

    /// The `m × m` prepared universe over the representatives.
    pub fn sub(&self) -> &Arc<PreparedUniverse> {
        &self.sub
    }

    /// Appends `tuple` (with its already-evaluated exact relevance) and
    /// maintains the coreset **incrementally**, reusing the Gonzalez
    /// k-center structure — a new point either fits the current coverage
    /// or earns a representative slot:
    ///
    /// * **budget open** (`m < budget`, so the coreset is the identity):
    ///   the new item becomes a representative outright — the `m × m`
    ///   sub-universe grows by one row via
    ///   [`PreparedUniverse::insert_tuple`] (`O(m)` oracle calls).
    /// * **inside coverage** (`min_p δ(x, rep_p) ≤ covering_radius`):
    ///   the item is absorbed — assigned to its nearest representative,
    ///   `O(m)` oracle calls, sub-universe untouched.
    /// * **outside coverage**: the item *displaces* the representative
    ///   nearest to it (swap-remove on the sub-universe, then an `O(n)`
    ///   re-homing pass) — the classical "far point becomes a center"
    ///   rule. The orphans move to the new item, so their coverage
    ///   distances become upper bounds. The pass reads the key column
    ///   from the rows, or decodes them all for an oracle without one.
    ///
    /// Unlike the full-matrix engine's deltas this is **not**
    /// bit-identical to a fresh [`Coreset::select`] over the grown
    /// universe (selection order is history-dependent, and the
    /// ascending-indices invariant is relaxed once a displacement
    /// occurs); the contract is the measured quality-factor bound that
    /// `tests/coreset_matches_engine.rs` pins, and the 2× cover that
    /// [`PreparedVariant::patch`](crate::PreparedVariant::patch) holds.
    pub fn insert_tuple(&mut self, tuple: Tuple, rel: Ratio) {
        let x = self.n();
        let m = self.coreset.m();
        self.mono_sums.repair_insert(&*self.dis, &tuple);
        self.rows.push(&tuple);
        if m < self.config.budget.max(1) || m == 0 {
            // Budget open: x becomes representative m.
            debug_assert_eq!(m, x, "an open budget means an identity coreset");
            self.sub_mut().insert_tuple(tuple.clone(), rel);
            self.coreset.indices.push(x);
            self.coreset.assignment.push(m);
            self.coreset.nearest.push(0.0);
        } else {
            // Distances from the new item to every representative, the
            // sub-universe's item at the same position.
            let (p_near, d_min) = self
                .sub
                .universe()
                .iter()
                .map(|rep| self.dis.dist_f64(rep, &tuple))
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("m ≥ 1 representatives");
            if d_min <= self.coreset.covering_radius {
                // Inside coverage: absorb under the nearest rep.
                self.coreset.assignment.push(p_near);
                self.coreset.nearest.push(d_min);
            } else {
                // Outside coverage: x displaces its nearest rep. The
                // sub-universe swap-removes position p_near (the last
                // rep moves there) and appends x at position m − 1.
                let sub = self.sub_mut();
                sub.remove_tuple(p_near).expect("p_near < m");
                sub.insert_tuple(tuple.clone(), rel);
                self.coreset.indices.swap_remove(p_near);
                self.coreset.indices.push(x);
                let last = m - 1;
                let points = Points::of_rows(&self.rows, &*self.dis);
                for i in 0..x {
                    // Mirror the position swap, re-home the orphans of
                    // the displaced rep to x, and let anyone closer to
                    // x move over.
                    let d = points.dist_f64(i, x);
                    let asg = self.coreset.assignment[i];
                    if asg == last && p_near != last {
                        self.coreset.assignment[i] = p_near;
                    } else if asg == p_near {
                        self.coreset.assignment[i] = last;
                        self.coreset.nearest[i] = d;
                    }
                    if d < self.coreset.nearest[i] {
                        self.coreset.nearest[i] = d;
                        self.coreset.assignment[i] = last;
                    }
                }
                self.coreset.assignment.push(last);
                self.coreset.nearest.push(0.0);
            }
        }
        self.coreset.covering_radius = self
            .coreset
            .nearest
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        self.rel.push(rel);
    }

    /// Mutable access to the sub-universe, copy-on-write: if the `Arc`
    /// is shared (an engine or cache still holds the pre-delta state),
    /// the prepared sub-universe is forked — preambles included — so
    /// existing readers keep serving the old version untouched.
    fn sub_mut(&mut self) -> &mut PreparedUniverse {
        if Arc::get_mut(&mut self.sub).is_none() {
            self.sub = Arc::new(self.sub.fork());
        }
        Arc::get_mut(&mut self.sub).expect("sole owner after fork")
    }

    /// Approximate heap footprint in bytes — what a byte-budgeted cache
    /// charges for this entry: [`PreparedCoreset::entry_bytes`] of its
    /// `n`, `m` and its rows' encoded size, plus the exact scores its
    /// relevance floats do not hold (none for integer scores) and the
    /// retained oracle's own bytes. Rows shared with a cache key are the
    /// key's bytes, so the key is metered here, once.
    pub fn approx_bytes(&self) -> usize {
        Self::entry_bytes(self.n(), self.m(), self.rows.encoded_len())
            + self.rel.inexact_len() * RelColumn::BYTES_PER_INEXACT
            + self.dis.approx_bytes()
    }

    /// The one size model of a coreset entry over `n` rows held in
    /// `row_bytes` of encoding, with `m` representatives, the oracle
    /// left out — what the cache meters and admission charges. Per row:
    /// the relevance float, the coverage distance and assignment, and
    /// the exact mono sums (populated by the first `F_mono` request,
    /// charged up front), plus the row index. Per representative: its
    /// index, its row of the `m × m` matrix and the sub-universe's
    /// per-item caches, and its decoded tuple, modelled as a tuple's
    /// fixed cost plus twice the mean encoded row (a cell takes 9 bytes
    /// encoded, 16 as a value).
    pub fn entry_bytes(n: usize, m: usize, row_bytes: usize) -> usize {
        let m = m.min(n);
        let word = std::mem::size_of::<usize>();
        let tuple = std::mem::size_of::<Tuple>() + 2 * word + 2 * row_bytes / n.max(1);
        row_bytes
            + n * (2 * std::mem::size_of::<f64>() + word + MonoSums::BYTES_PER_ITEM)
            + Rows::mark_bytes(n)
            + m * (word + tuple)
            + PreparedUniverse::bytes_without_tuples(m)
    }

    /// Validates every cached float the coreset serving path consumes:
    /// the `O(n)` relevance cache and the `m × m` representative matrix
    /// (via [`PreparedUniverse::check_finite`]). Serving layers call
    /// this at prepare time and refuse the universe with the typed
    /// [`ServeError::NonFiniteScore`] diagnosis instead of letting
    /// `NaN`/`±∞` scores silently mis-select in the argmax rounds.
    /// Relevance indices in the diagnosis are full-universe indices;
    /// distance indices refer to the representative sub-universe.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        if let Some(i) = self.rel.f.iter().position(|r| !r.is_finite()) {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        self.sub.check_finite()
    }

    /// The memoized exact full-universe distance sums
    /// `Σ_j δ_dis(t_i, t_j)`, if populated (`Some(None)` = the oracle
    /// offers no usable [`Distance::key_column`]).
    pub fn mono_sums_preamble(&self) -> Option<Option<&[i128]>> {
        self.mono_sums.peek()
    }

    /// The borrowed view every exact score over the **full** universe
    /// goes through — the same [`ExactView`] the full-matrix engine
    /// re-scores with.
    pub(crate) fn exact(&self) -> ExactView<'_> {
        ExactView {
            lambda: self.lambda,
            rel: ExactRel::Column(&self.rel),
            universe: ExactRows::Encoded(&self.rows),
            dis: &*self.dis,
            sums: &self.mono_sums,
        }
    }

    /// [`PreparedCoreset::check_finite`] restricted to what
    /// [`PreparedCoreset::insert_tuple`] cached for full-universe item
    /// `i`: its relevance score and, if it holds a representative slot,
    /// its row of the `m × m` matrix. `O(m)`.
    pub(crate) fn check_finite_item(&self, i: usize) -> Result<(), ServeError> {
        if !self.rel.f[i].is_finite() {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        match self.coreset.indices.iter().position(|&r| r == i) {
            Some(pos) => self.sub.check_finite_item(pos),
            None => Ok(()),
        }
    }
}

/// Panics if `λ ∉ [0, 1]`.
fn check_lambda(lambda: Ratio) {
    assert!(
        lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
        "λ must lie in [0, 1]"
    );
}

impl std::fmt::Debug for PreparedCoreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCoreset")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("lambda", &self.lambda)
            .field("covering_radius", &self.coreset.covering_radius)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreset::CoresetEngine;
    use crate::engine::fixtures::{line_universe, DIS, REL};
    use crate::engine::EngineRequest;
    use crate::problem::ObjectiveKind;

    fn dis() -> Arc<dyn Distance + Send + Sync> {
        Arc::new(DIS)
    }

    #[test]
    fn streamed_inserts_keep_coverage_invariants() {
        let mut u = line_universe(40);
        let mut pc = PreparedCoreset::build_shared(
            u.clone(),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(10).with_threads(1),
        );
        for i in 0..25i64 {
            let t = Tuple::ints([200 + 17 * i, i % 5]);
            pc.insert_tuple(t.clone(), REL.rel(&t));
            u.push(t);
            // Structural invariants after every insert.
            assert_eq!(pc.n(), u.len());
            assert_eq!(pc.m(), 10);
            let c = pc.coreset();
            assert_eq!(c.assignment.len(), pc.n());
            let mut reps = c.indices().to_vec();
            reps.sort_unstable();
            reps.dedup();
            assert_eq!(reps.len(), 10, "duplicate representative");
            assert!(reps.iter().all(|&r| r < pc.n()));
            for i in 0..pc.n() {
                assert!(c.rep_of(i) < 10);
                assert!(c.nearest[i] <= c.covering_radius() + 1e-12);
            }
            // Every representative represents itself at distance 0.
            for (pos, &r) in c.indices().iter().enumerate() {
                assert_eq!(c.rep_of(r), pos, "rep {r} not self-assigned");
                assert_eq!(c.nearest[r], 0.0);
            }
        }
        // The streamed engine still serves well-formed answers.
        let e = CoresetEngine::from_prepared(Arc::new(pc), 1);
        for kind in ObjectiveKind::ALL {
            let (v, set) = e.try_serve(EngineRequest { kind, k: 5 }).unwrap();
            assert_eq!(set.len(), 5);
            assert_eq!(v, e.objective_exact_full(kind, &set), "{kind}");
            assert!(set.iter().all(|&i| i < u.len()));
        }
    }

    #[test]
    fn bytes_scale_with_m_squared_not_n_squared() {
        let n = 2000;
        let cs = PreparedCoreset::build_shared(
            line_universe(n),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(64),
        );
        // The full matrix alone would be n²·8 = 32 MB; the coreset
        // entry must be well under a tenth of that.
        assert!(cs.approx_bytes() < (n as usize * n as usize * 8) / 10);
        assert_eq!(cs.m(), 64);
        assert_eq!(cs.n(), n as usize);
    }

    /// Built from tuples or from their encoded rows (inside bytes that
    /// hold more than the rows, as a cache key does), an entry is the
    /// same entry: the same selection and coverage to the bit, the same
    /// exact relevance (integer and non-dyadic scores mixed), the same
    /// answers and exact values for every objective, refined or not, and
    /// the same state after every step of an insert tape that absorbs and
    /// displaces — under a key-column oracle, Hamming, a table, and a
    /// closure without a column.
    #[test]
    fn an_entry_from_rows_is_the_entry_from_tuples() {
        use crate::distance::{ClosureDistance, HammingDistance, NumericDistance, TableDistance};
        use crate::relevance::ClosureRelevance;
        use divr_relquery::Value;

        let row = |i: i64| {
            Tuple::new(vec![
                Value::Int(i * 37 % 157),
                Value::Int(i % 4),
                Value::str(["a", "b", "ç"][(i % 3) as usize]),
            ])
        };
        let universe: Vec<Tuple> = (0..150).map(row).collect();
        let tape: Vec<Tuple> = (0..30).map(|i| row(if i % 3 == 0 { 1000 + 97 * i } else { 5 + i })).collect();
        let rel = ClosureRelevance(|t: &Tuple| {
            let x = t.get(0).and_then(Value::as_int).unwrap_or(0);
            if x % 5 == 0 {
                Ratio::new(x % 7, 3)
            } else {
                Ratio::int(x % 9)
            }
        });
        let mut table = TableDistance::with_default(Ratio::new(1, 2));
        for i in 0..60 {
            table.set(universe[i].clone(), universe[i + 7].clone(), Ratio::int(i as i64 % 5));
        }
        let oracles: Vec<(&str, Arc<dyn Distance + Send + Sync>)> = vec![
            ("numeric", Arc::new(NumericDistance { attr: 0, fallback: Ratio::ONE })),
            ("hamming", Arc::new(HammingDistance::default())),
            ("table", Arc::new(table)),
            (
                "closure",
                Arc::new(ClosureDistance(|a: &Tuple, b: &Tuple| {
                    let x = |t: &Tuple| t.get(0).and_then(Value::as_int).unwrap_or(0);
                    Ratio::new((x(a) - x(b)).abs() % 13, 2)
                })),
            ),
        ];
        let mut w = crate::ByteWriter::new();
        w.write_str("head");
        let rows_at = w.bytes().len();
        w.write_tuples(&universe);
        w.write_str("tail");
        let bytes = Arc::new(w.into_bytes());

        let same = |name: &str, a: &Arc<PreparedCoreset>, b: &Arc<PreparedCoreset>| {
            let (ca, cb) = (a.coreset(), b.coreset());
            assert_eq!(ca.indices(), cb.indices(), "{name}");
            assert_eq!(ca.assignment, cb.assignment, "{name}");
            let bits = |c: &Coreset| c.nearest.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ca), bits(cb), "{name}");
            assert_eq!(ca.covering_radius().to_bits(), cb.covering_radius().to_bits(), "{name}");
            assert_eq!(a.universe(), b.universe(), "{name}");
            for i in 0..a.n() {
                assert_eq!(a.rel.exact(i), b.rel.exact(i), "{name} item {i}");
                assert_eq!(a.rel.exact(i), rel.rel(&a.rows.get(i)), "{name} item {i}");
            }
            assert_eq!(a.approx_bytes(), b.approx_bytes(), "{name}");
            let (ea, eb) = (CoresetEngine::from_prepared(a.clone(), 2), CoresetEngine::from_prepared(b.clone(), 1));
            for kind in ObjectiveKind::ALL {
                for k in [1, 6] {
                    let request = EngineRequest { kind, k };
                    assert_eq!(ea.try_serve(request), eb.try_serve(request), "{name} {kind} k={k}");
                }
            }
        };
        for (name, dis) in oracles {
            for refine_rounds in [0, 2] {
                let config = CoresetConfig {
                    refine_rounds,
                    ..CoresetConfig::with_budget(16).with_threads(2)
                };
                let lambda = Ratio::new(2, 3);
                let mut by_tuples = Arc::new(PreparedCoreset::build_shared(
                    universe.clone(),
                    &rel,
                    dis.clone(),
                    lambda,
                    &config,
                ));
                let mut by_rows = Arc::new(PreparedCoreset::try_build_rows_deadline(
                    bytes.clone(),
                    rows_at,
                    &rel,
                    dis.clone(),
                    lambda,
                    &config,
                    Deadline::none(),
                )
                .unwrap());
                assert!(by_tuples.rel.inexact_len() > 0, "some scores are not dyadic");
                same(name, &by_tuples, &by_rows);
                for (step, t) in tape.iter().enumerate() {
                    for entry in [&mut by_tuples, &mut by_rows] {
                        Arc::get_mut(entry).unwrap().insert_tuple(t.clone(), rel.rel(t));
                    }
                    if step % 10 == 9 {
                        same(&format!("{name} after insert {step}"), &by_tuples, &by_rows);
                    }
                }
                same(name, &by_tuples, &by_rows);
            }
        }
    }
}
