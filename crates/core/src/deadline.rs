//! Cooperative request deadlines for the serving path.
//!
//! The paper's objectives are solved by iterative rounds over
//! precomputed state, and the state itself is built by `O(n²)` (full
//! matrix) or `O(n·m)` (coreset) scans. None of that work is
//! preemptible by the operating system — a worker that has started an
//! expensive prepare is committed until it finishes. At serving scale
//! that is a liveness hazard: one oversized universe with a stalled
//! client behind it pins a worker for seconds while every deadline the
//! tenant cared about expires.
//!
//! This module provides the cooperative alternative: a [`Deadline`] is
//! threaded down the serve path and **checked at bounded-work
//! checkpoints** — between solver rounds, between coreset Gonzalez
//! iterations, and at row boundaries inside distance-matrix builds.
//! Work between two checkpoints is `O(n)`, so a request that misses
//! its deadline is abandoned within one `O(n)` slice of extra work —
//! which is what lets the service layer promise a typed
//! `504 deadline_exceeded` response in a small multiple of the deadline
//! itself, instead of "whenever the prepare happens to finish".
//!
//! Checking is cheap (`Instant::now()` plus a comparison) and the
//! unbounded [`Deadline::none`] never trips, so the checkpoints cost
//! nothing observable on the no-deadline paths — answers with and
//! without an unexceeded deadline are bit-identical.

use crate::engine::ServeError;
use std::time::{Duration, Instant};

/// A point in time past which a request should be abandoned at the
/// next checkpoint — or [`Deadline::none`], which never trips.
///
/// `Copy`, and cheap enough to pass by value through every layer of
/// the serve path (it is one `Option<Instant>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The unbounded deadline: [`Deadline::check`] always passes.
    pub const fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline at the given instant.
    pub const fn at(at: Instant) -> Self {
        Deadline { at: Some(at) }
    }

    /// A deadline `limit` from now. A duration too large to represent
    /// saturates to the unbounded deadline.
    pub(crate) fn after(limit: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(limit),
        }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// Whether the deadline has passed. The checkpoint predicate: one
    /// `Instant::now()` and a comparison, `false` forever for
    /// [`Deadline::none`].
    pub(crate) fn exceeded(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Whether the deadline has passed, as a typed result:
    /// `Err(ServeError::DeadlineExceeded)` once it has.
    pub fn check(&self) -> Result<(), ServeError> {
        if self.exceeded() {
            Err(ServeError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_trips() {
        let d = Deadline::none();
        assert!(!d.exceeded());
        assert!(d.check().is_ok());
    }

    #[test]
    fn zero_allowance_trips_immediately() {
        let d = Deadline::in_ms(0);
        assert!(d.exceeded());
        assert_eq!(d.check(), Err(ServeError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let d = Deadline::in_ms(60_000);
        assert!(!d.exceeded());
        assert!(d.check().is_ok());
    }

    #[test]
    fn past_instant_is_exceeded() {
        let d = Deadline::at(Instant::now());
        // `now >= at` by the time we check.
        assert!(d.exceeded());
    }

    #[test]
    fn huge_allowance_saturates_to_unbounded() {
        let d = Deadline::after(Duration::MAX);
        assert!(!d.exceeded());
    }
}
