//! Per-tenant admission control: token-bucket QPS quotas and
//! cache-byte ledgers.
//!
//! Admission answers one question before any expensive work happens:
//! *may this tenant make the process do this right now?* Two quotas:
//!
//! * **Rate** — a token bucket per tenant (capacity `burst`, refill
//!   `qps` tokens/second), charged one token per requested answer, so
//!   a frame carrying ten requests costs ten tokens. Buckets start
//!   full; a drained bucket yields a retryable `429 qps_exceeded`.
//! * **Cache bytes** — a ledger of the prepared-state bytes each
//!   tenant's *distinct* universes would pin, charged once per
//!   universe key from a closed-form size estimate (`n²` floats
//!   full-matrix; a coreset, the cache's own size model) **before**
//!   preparation runs. A tenant over quota gets `429 cache_quota` and,
//!   crucially, never triggers the `O(n²)` build — the quota protects
//!   the cache *and* the CPU.
//!   The ledger is an admission-side upper bound, deliberately not
//!   refunded on LRU eviction: a tenant cycling through endless
//!   distinct universes is exactly the abuse the quota exists to stop.
//!
//! Both checks are a few map operations under one mutex — micro-
//! seconds — and the lock recovers from poisoning the same way the
//! registry's cache shards do (quota state is always consistent at
//! rest; see `divr_server::PreparedCache`).
//!
//! ## Ledger rows and what the digest is trusted for
//!
//! Because the ledger is never refunded it grows by one row per
//! never-seen universe for as long as the process lives, so a row must
//! not keep the universe's key alive: a [`UniverseKey`] shares its whole
//! canonical encoding (26 KB at `n = 1000`, 520 KB at `n = 20 000`), and
//! a ledger of key clones pins every encoding the daemon has ever
//! admitted. A row is therefore the key's 128-bit digest plus its
//! encoded length — 24 bytes, whatever the universe's size.
//!
//! That makes this the one place where the digest stands in for the
//! bytes, and it is trusted for quota **deduplication only**. Two
//! different universes of equal encoded length whose FNV-1a digests
//! collide would share a row, and the tenant would be under-charged for
//! one of them — something a second tenant name, equally unauthenticated,
//! already buys for free. A collision can never change an answer: the
//! prepared-state cache still decides equality on the full bytes
//! (`divr_server::UniverseKey`), so the colliding universe is prepared
//! and served as itself.
//!
//! What remains unbounded is the tenant map itself: a tenant name is
//! free-form, so each new name costs its bucket and an empty ledger
//! until the process exits. `{"op":"stats"}` reports both sizes
//! (`admission.tenants`, `admission.ledger_rows`).

use divr_core::coreset::PreparedCoreset;
use divr_server::{UniverseKey, UniverseSpec};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Quota sizing for one service instance (applied per tenant).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained requests/second each tenant may issue.
    pub qps: f64,
    /// Burst capacity (token-bucket size), in requests.
    pub burst: f64,
    /// Prepared-state bytes each tenant may ask the cache to pin,
    /// summed over its distinct universes.
    pub cache_quota_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            qps: 500.0,
            burst: 100.0,
            cache_quota_bytes: 64 << 20,
        }
    }
}

/// A typed admission refusal — every variant maps to a retryable `429`
/// on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rejection {
    /// The tenant's token bucket is drained.
    QpsExceeded {
        /// Milliseconds until the bucket holds one token again.
        retry_after_ms: u64,
    },
    /// Admitting this universe would push the tenant's cache ledger
    /// past its quota.
    CacheQuota {
        /// Bytes the ledger already carries.
        charged: u64,
        /// Bytes this universe would add.
        requested: u64,
        /// The quota.
        quota: u64,
    },
    /// The accept queue is full (produced by the front-end, not by
    /// [`Admission`] itself; carried here so the wire layer has one
    /// rejection vocabulary).
    QueueFull,
}

impl Rejection {
    /// The machine-matchable `kind` string for the wire.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Rejection::QpsExceeded { .. } => "qps_exceeded",
            Rejection::CacheQuota { .. } => "cache_quota",
            Rejection::QueueFull => "queue_full",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QpsExceeded { retry_after_ms } => {
                write!(f, "rate quota exhausted; retry in ~{retry_after_ms} ms")
            }
            Rejection::CacheQuota {
                charged,
                requested,
                quota,
            } => write!(
                f,
                "cache quota exceeded: {charged} bytes charged + {requested} requested > {quota}"
            ),
            Rejection::QueueFull => write!(f, "accept queue is full; retry with backoff"),
        }
    }
}

/// One charged universe: its key's digest (high and low half) and
/// encoded length. See the module docs for what that is trusted for.
type LedgerRow = [u64; 3];

fn ledger_row(key: &UniverseKey) -> LedgerRow {
    let digest = key.digest();
    [
        (digest >> 64) as u64,
        digest as u64,
        key.bytes().len() as u64,
    ]
}

struct Tenant {
    tokens: f64,
    refilled_at: Instant,
    charged: HashSet<LedgerRow>,
    charged_bytes: u64,
}

/// The admission controller: per-tenant token buckets and cache
/// ledgers behind one poison-recovering mutex, plus lock-free decision
/// counters for `/stats`.
pub struct Admission {
    config: AdmissionConfig,
    tenants: Mutex<HashMap<String, Tenant>>,
    admitted: AtomicU64,
    rejected_qps: AtomicU64,
    rejected_cache: AtomicU64,
    ledger_rows: AtomicU64,
}

impl Admission {
    /// A controller enforcing `config` for every tenant independently.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            tenants: Mutex::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            rejected_qps: AtomicU64::new(0),
            rejected_cache: AtomicU64::new(0),
            ledger_rows: AtomicU64::new(0),
        }
    }

    fn lock_tenants(&self) -> std::sync::MutexGuard<'_, HashMap<String, Tenant>> {
        // Quota state is consistent between operations; recover rather
        // than letting one panic deny admission forever.
        self.tenants.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tenant_entry<'a>(
        &self,
        tenants: &'a mut HashMap<String, Tenant>,
        tenant: &str,
        now: Instant,
    ) -> &'a mut Tenant {
        // Both gates of every frame come through here: the name is
        // copied on a tenant's first sight only.
        if !tenants.contains_key(tenant) {
            tenants.insert(
                tenant.to_string(),
                Tenant {
                    tokens: self.config.burst,
                    refilled_at: now,
                    charged: HashSet::new(),
                    charged_bytes: 0,
                },
            );
        }
        tenants.get_mut(tenant).expect("known or just inserted")
    }

    /// Charges `cost` request tokens against the tenant's bucket.
    pub fn admit_requests(&self, tenant: &str, cost: f64) -> Result<(), Rejection> {
        let now = Instant::now();
        let mut tenants = self.lock_tenants();
        let state = self.tenant_entry(&mut tenants, tenant, now);
        let elapsed = now.duration_since(state.refilled_at).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.config.qps).min(self.config.burst);
        state.refilled_at = now;
        if state.tokens >= cost {
            state.tokens -= cost;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            let deficit = cost.max(1.0) - state.tokens;
            let retry_after_ms = if self.config.qps > 0.0 {
                (deficit / self.config.qps * 1000.0).ceil() as u64
            } else {
                u64::MAX
            };
            self.rejected_qps.fetch_add(1, Ordering::Relaxed);
            Err(Rejection::QpsExceeded { retry_after_ms })
        }
    }

    /// Charges a universe's estimated prepared bytes to the tenant's
    /// ledger (idempotent per key: re-serving a universe the tenant
    /// already paid for is free). The ledger remembers the key's digest
    /// and length, never the key — see the module docs.
    pub fn charge_universe(
        &self,
        tenant: &str,
        key: &UniverseKey,
        bytes: u64,
    ) -> Result<(), Rejection> {
        let now = Instant::now();
        let mut tenants = self.lock_tenants();
        let state = self.tenant_entry(&mut tenants, tenant, now);
        let row = ledger_row(key);
        if state.charged.contains(&row) {
            return Ok(());
        }
        if state.charged_bytes.saturating_add(bytes) > self.config.cache_quota_bytes {
            self.rejected_cache.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection::CacheQuota {
                charged: state.charged_bytes,
                requested: bytes,
                quota: self.config.cache_quota_bytes,
            });
        }
        state.charged.insert(row);
        state.charged_bytes += bytes;
        self.ledger_rows.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `(admitted, rejected_qps, rejected_cache)` decision counters.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.admitted.load(Ordering::Relaxed),
            self.rejected_qps.load(Ordering::Relaxed),
            self.rejected_cache.load(Ordering::Relaxed),
        )
    }

    /// `(tenants, ledger_rows)`: how many tenant names and how many
    /// charged universes (over all tenants) the controller remembers.
    /// Neither is ever released, so both only grow — the two numbers
    /// that explain admission's share of the process's memory.
    pub(crate) fn gauges(&self) -> (usize, u64) {
        (
            self.lock_tenants().len(),
            self.ledger_rows.load(Ordering::Relaxed),
        )
    }
}

/// The closed-form prepared-state size estimate admission charges
/// before preparation runs, for `n` rows not yet seen: a full matrix is
/// its `8`-byte `n × n` floats plus `48` bytes of per-item bookkeeping
/// (tuple payloads and matrix headroom left out, so it charges less
/// than the cache meters); a coreset is the cache's own size model,
/// [`PreparedCoreset::entry_bytes`], with each row charged the 8-byte
/// arity word every encoded row starts with — a lower bound until the
/// rows are known (`estimate_universe_bytes` charges a frame's
/// universe its real rows). The quota is stated in these estimates.
pub fn estimate_prepared_bytes(n: usize, coreset_budget: Option<usize>) -> u64 {
    estimate_bytes(n, coreset_budget, n * 8)
}

/// [`estimate_prepared_bytes`] for a universe whose rows are in hand:
/// a coreset spec is charged exactly what its entry will meter, the
/// retained oracle's own bytes aside.
pub(crate) fn estimate_universe_bytes(spec: &UniverseSpec) -> u64 {
    let budget = spec.coreset().map(|mode| mode.budget);
    estimate_bytes(spec.n(), budget, spec.row_bytes())
}

fn estimate_bytes(n: usize, coreset_budget: Option<usize>, row_bytes: usize) -> u64 {
    match coreset_budget {
        Some(m) => PreparedCoreset::entry_bytes(n, m, row_bytes) as u64,
        None => {
            let n = n as u64;
            n * n * 8 + n * 48
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_server::FingerprintEncoder;

    fn key(tag: &str) -> UniverseKey {
        let mut enc = FingerprintEncoder::new();
        enc.write_str(tag);
        UniverseKey::from_bytes(enc.bytes())
    }

    #[test]
    fn bucket_drains_and_refills() {
        // Drain half at `qps: 0`: nothing refills, so no stall between
        // two calls can hand back the token that must be refused.
        let drained = Admission::new(AdmissionConfig {
            qps: 0.0,
            burst: 2.0,
            cache_quota_bytes: u64::MAX,
        });
        assert!(drained.admit_requests("alice", 2.0).is_ok());
        let rejected = drained.admit_requests("alice", 1.0).unwrap_err();
        assert_eq!(rejected, Rejection::QpsExceeded { retry_after_ms: u64::MAX });
        // Tenants are independent.
        assert!(drained.admit_requests("bob", 2.0).is_ok());
        assert_eq!(drained.counters(), (2, 1, 0));

        // Refill half on a second bucket, where a stall only helps: at
        // 1000 tokens/s a few ms restore a token.
        let refilling = Admission::new(AdmissionConfig {
            qps: 1000.0,
            burst: 2.0,
            cache_quota_bytes: u64::MAX,
        });
        assert!(refilling.admit_requests("alice", 2.0).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(refilling.admit_requests("alice", 1.0).is_ok());
        assert_eq!(refilling.counters(), (2, 0, 0));
    }

    #[test]
    fn cache_ledger_charges_each_universe_once() {
        let adm = Admission::new(AdmissionConfig {
            qps: 1000.0,
            burst: 1000.0,
            cache_quota_bytes: 1000,
        });
        assert!(adm.charge_universe("alice", &key("u1"), 600).is_ok());
        // Same key again: already paid, no double charge.
        assert!(adm.charge_universe("alice", &key("u1"), 600).is_ok());
        // A second universe that would overflow the quota is refused…
        let e = adm.charge_universe("alice", &key("u2"), 600).unwrap_err();
        assert_eq!(e.kind(), "cache_quota");
        // …but a small one still fits, and other tenants are untouched.
        assert!(adm.charge_universe("alice", &key("u3"), 300).is_ok());
        assert!(adm.charge_universe("bob", &key("u2"), 600).is_ok());
    }

    #[test]
    fn ledger_rows_are_fixed_size() {
        assert_eq!(std::mem::size_of::<LedgerRow>(), 24);
        let adm = Admission::new(AdmissionConfig {
            qps: 1000.0,
            burst: 1000.0,
            cache_quota_bytes: 1000,
        });
        // A 1 MB key and a 16-byte key cost the same row, and the row
        // keeps neither alive: the caller's key is the only owner.
        let mut big = vec![7u8; 1 << 20];
        let small = [7u8; 16];
        for bytes in [&big[..], &small[..]] {
            let k = UniverseKey::from_bytes(bytes);
            assert!(adm.charge_universe("alice", &k, 100).is_ok());
            assert_eq!(ledger_row(&k)[2], bytes.len() as u64);
        }
        assert_eq!(adm.gauges(), (1, 2));
        // Re-charging after the first key was dropped is still free.
        assert!(adm.charge_universe("alice", &UniverseKey::from_bytes(&big), 100).is_ok());
        assert_eq!(adm.gauges(), (1, 2));
        // One byte of difference is another universe, charged again…
        big[12345] ^= 1;
        assert!(adm.charge_universe("alice", &UniverseKey::from_bytes(&big), 100).is_ok());
        assert_eq!(adm.gauges(), (1, 3));
        // …and the quota arithmetic is the one it always was: 300 of
        // 1000 bytes are charged, so 701 more are refused and 700 fit.
        let e = adm.charge_universe("alice", &key("u"), 701).unwrap_err();
        assert_eq!(
            e,
            Rejection::CacheQuota { charged: 300, requested: 701, quota: 1000 }
        );
        assert!(adm.charge_universe("alice", &key("u"), 700).is_ok());
        // A refusal leaves no row behind; a second tenant has its own.
        assert!(adm.charge_universe("bob", &key("u"), 700).is_ok());
        assert_eq!(adm.gauges(), (2, 5));
    }

    #[test]
    fn size_estimate_tracks_mode() {
        // Full matrix dominates; coreset mode is m²-driven.
        assert!(estimate_prepared_bytes(1000, None) > 8_000_000);
        assert!(estimate_prepared_bytes(1000, Some(32)) < 100_000);
        // Budget above n clamps to n.
        assert_eq!(
            estimate_prepared_bytes(10, Some(99)),
            estimate_prepared_bytes(10, Some(10))
        );
    }

    /// A coreset frame's universe is charged what its entry meters, the
    /// oracle's own bytes aside: 20 000 two-integer rows at `m = 256`,
    /// built the way a cache miss builds it, from the key's bytes.
    #[test]
    fn a_coreset_universe_is_charged_what_its_entry_meters() {
        use divr_core::distance::{Distance, NumericDistance};
        use divr_core::relevance::AttributeRelevance;
        use divr_core::Ratio;
        use divr_relquery::Tuple;
        use divr_server::CoresetSpec;
        use std::sync::Arc;

        let dis = NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        };
        let spec = UniverseSpec::new(
            (0..20_000).map(|i| Tuple::ints([i * 7919 % 1_000_003, i % 11])).collect(),
            Arc::new(AttributeRelevance {
                attr: 1,
                default: Ratio::ZERO,
            }),
            Arc::new(dis.clone()),
            Ratio::new(1, 2),
        )
        .with_coreset(CoresetSpec::with_budget(256));
        let built = spec.try_prepare_variant(1).unwrap();
        assert!(built.is_coreset());
        let metered = built.approx_bytes() - dis.approx_bytes();
        assert_eq!(estimate_universe_bytes(&spec), metered as u64);
    }
}
