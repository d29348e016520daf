//! What a coreset entry keeps per universe item: the row itself as its
//! canonical encoding ([`Rows`]), and its relevance as one float with
//! the rare exact value the float cannot hold ([`RelColumn`]). Neither
//! builds a [`Tuple`] until a reader asks for one.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::ServeError;
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::cmp::Ordering;
use std::sync::Arc;

/// Rows per mark: row `i` is found by skipping at most `MARK − 1` rows
/// from the mark before it.
const MARK: usize = 16;

/// Rows a one-row-at-a-time pass decodes at once.
const CHUNK: usize = 256;

/// A universe's rows in [`ByteWriter::write_tuples`]'s layout (the row
/// count, then each row's arity and sort-tagged values), inside an
/// allocation that may hold other bytes around them: a serve frame's
/// rows are its cache key's own bytes, shared, not copied. Every
/// sixteenth row's offset is kept, so one row decodes in `O(16)` row
/// skips and the index costs half a byte per row.
pub(crate) struct Rows {
    bytes: Arc<Vec<u8>>,
    /// Where the row count sits.
    at: usize,
    /// Where the last row ends.
    end: usize,
    n: usize,
    /// `marks[j]`: where row `MARK·j` starts.
    marks: Vec<usize>,
}

impl Rows {
    /// The rows whose count sits at byte `at` of `bytes`; whatever
    /// follows the last row is left alone. Refuses what
    /// [`ByteReader::read_tuples`] refuses there.
    pub(crate) fn shared(bytes: Arc<Vec<u8>>, at: usize) -> Result<Rows, CodecError> {
        let section = bytes.get(at..).ok_or(CodecError::Truncated)?;
        let mut reader = ByteReader::new(section);
        let mut marks = Vec::new();
        let n = reader.skip_tuples_marking(|i, offset| {
            if i % MARK == 0 {
                marks.push(at + offset);
            }
        })?;
        let end = bytes.len() - reader.remaining();
        Ok(Rows {
            bytes,
            at,
            end,
            n,
            marks,
        })
    }

    /// `tuples` encoded once, in an allocation of exactly their size.
    pub(crate) fn encode(tuples: &[Tuple]) -> Rows {
        let mut w = ByteWriter::new();
        w.write_tuples(tuples);
        let mut bytes = w.into_bytes();
        bytes.shrink_to_fit();
        Rows::shared(Arc::new(bytes), 0).expect("rows just written")
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The rows' encoded size, their count included: the same for rows
    /// shared with a key and for rows of their own.
    pub(crate) fn encoded_len(&self) -> usize {
        self.end - self.at
    }

    /// The index's bytes for `n` rows.
    pub(crate) fn mark_bytes(n: usize) -> usize {
        n.div_ceil(MARK) * std::mem::size_of::<usize>()
    }

    /// Row `i`, decoded.
    pub(crate) fn get(&self, i: usize) -> Tuple {
        assert!(i < self.n, "row {i} of {}", self.n);
        let mut r = ByteReader::new(&self.bytes[self.marks[i / MARK]..self.end]);
        for _ in 0..i % MARK {
            r.skip_tuple().expect("rows checked when held");
        }
        r.read_tuple().expect("rows checked when held")
    }

    /// Every row, decoded.
    pub(crate) fn decode(&self) -> Vec<Tuple> {
        ByteReader::new(&self.bytes[self.at..self.end])
            .read_tuples()
            .expect("rows checked when held")
    }

    /// Calls `visit(first, rows)` over consecutive runs of at most
    /// [`CHUNK`] decoded rows, `first` being the index of `rows[0]`: one
    /// pass over every row with only a chunk of tuples alive at a time.
    /// Stops at the first error `visit` returns.
    pub(crate) fn try_for_each_chunk<E>(
        &self,
        mut visit: impl FnMut(usize, &[Tuple]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut r = ByteReader::new(&self.bytes[self.at..self.end]);
        r.read_u64().expect("rows checked when held");
        let mut chunk = Vec::with_capacity(CHUNK.min(self.n));
        let mut first = 0;
        while first < self.n {
            chunk.clear();
            let len = CHUNK.min(self.n - first);
            chunk.extend((0..len).map(|_| r.read_tuple().expect("rows checked when held")));
            visit(first, &chunk)?;
            first += len;
        }
        Ok(())
    }

    /// The oracle's [`Distance::key_column`] of these rows, read a
    /// chunk at a time (a key depends on its own row alone).
    pub(crate) fn key_column(&self, dis: &dyn Distance) -> Option<Vec<i64>> {
        let mut keys = Vec::with_capacity(self.n);
        self.try_for_each_chunk(|_, rows| {
            keys.extend(dis.key_column(rows).ok_or(())?);
            Ok::<(), ()>(())
        })
        .ok()?;
        Some(keys)
    }

    /// Appends `tuple`. Rows that share their allocation, or have bytes
    /// after them, are first copied into one of their own.
    pub(crate) fn push(&mut self, tuple: &Tuple) {
        if self.end != self.bytes.len() || Arc::get_mut(&mut self.bytes).is_none() {
            let shift = self.at;
            self.bytes = Arc::new(self.bytes[self.at..self.end].to_vec());
            self.marks.iter_mut().for_each(|mark| *mark -= shift);
            self.at = 0;
            self.end -= shift;
        }
        let bytes = Arc::get_mut(&mut self.bytes).expect("sole owner");
        if self.n.is_multiple_of(MARK) {
            self.marks.push(self.end);
        }
        let mut row = ByteWriter::new();
        row.write_tuple(tuple);
        bytes.extend_from_slice(row.bytes());
        self.n += 1;
        bytes[self.at..self.at + 8].copy_from_slice(&(self.n as u64).to_le_bytes());
        self.end = bytes.len();
    }
}

/// Exact relevance held as floats: `f[i]` is item `i`'s score as
/// [`Ratio::to_f64`] gives it, and the exact score is that float's own
/// value ([`Ratio::from_f64_exact`]) unless `i` is listed in `inexact`,
/// with its exact score, ascending by index. Integer scores below 2⁵³
/// list nothing, so a column costs 8 bytes a row where a `Vec<Ratio>`
/// would cost 32.
pub(crate) struct RelColumn {
    pub(crate) f: Vec<f64>,
    inexact: Vec<(usize, Ratio)>,
}

impl RelColumn {
    /// Resident bytes per listed exception.
    pub(crate) const BYTES_PER_INEXACT: usize = std::mem::size_of::<(usize, Ratio)>();

    /// `δ_rel` over `universe`, polling `deadline` every 64 items.
    pub(crate) fn score_tuples(
        universe: &[Tuple],
        rel: &dyn Relevance,
        deadline: Deadline,
    ) -> Result<RelColumn, ServeError> {
        let mut column = RelColumn::with_capacity(universe.len());
        column.score_chunk(0, universe, rel, deadline)?;
        Ok(column)
    }

    /// An empty column with room for `n` scores.
    pub(crate) fn with_capacity(n: usize) -> RelColumn {
        RelColumn {
            f: Vec::with_capacity(n),
            inexact: Vec::new(),
        }
    }

    /// Scores the items `first..first + chunk.len()`, polling
    /// `deadline` every 64 items.
    pub(crate) fn score_chunk(
        &mut self,
        first: usize,
        chunk: &[Tuple],
        rel: &dyn Relevance,
        deadline: Deadline,
    ) -> Result<(), ServeError> {
        for (off, t) in chunk.iter().enumerate() {
            if (first + off).is_multiple_of(64) {
                deadline.check()?;
            }
            self.push(rel.rel(t));
        }
        Ok(())
    }

    /// Appends one exact score.
    pub(crate) fn push(&mut self, exact: Ratio) {
        let f = exact.to_f64();
        let held = if exact.denominator() == 1 {
            exact.numerator().unsigned_abs() < 1 << 53
        } else {
            Ratio::from_f64_exact(f) == Some(exact)
        };
        if !held {
            self.inexact.push((self.f.len(), exact));
        }
        self.f.push(f);
    }

    /// How many exact scores the floats do not hold.
    pub(crate) fn inexact_len(&self) -> usize {
        self.inexact.len()
    }

    fn listed(&self, i: usize) -> Option<Ratio> {
        if self.inexact.is_empty() {
            return None;
        }
        self.inexact
            .binary_search_by_key(&i, |&(at, _)| at)
            .ok()
            .map(|p| self.inexact[p].1)
    }

    /// Item `i`'s exact score.
    pub(crate) fn exact(&self, i: usize) -> Ratio {
        self.listed(i).unwrap_or_else(|| {
            Ratio::from_f64_exact(self.f[i]).expect("a held float is its exact score")
        })
    }

    /// The exact order of items `a` and `b`'s scores: the floats'
    /// order when both hold their exact score, else the exact scores'.
    pub(crate) fn cmp(&self, a: usize, b: usize) -> Ordering {
        match (self.listed(a), self.listed(b)) {
            (None, None) => self.f[a].total_cmp(&self.f[b]),
            _ => self.exact(a).cmp(&self.exact(b)),
        }
    }
}
