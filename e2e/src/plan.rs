//! The five workloads: what each sends, why it exists, and the inputs
//! and expected answers drawn from the seed before anything is timed.

use crate::gen::{self, Objective, Request, Row};
use crate::layers;
use crate::wire::Answer;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmSmall,
    WarmLarge,
    ColdChurn,
    CoresetHuge,
    DurableMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WarmSmall,
        Workload::WarmLarge,
        Workload::ColdChurn,
        Workload::CoresetHuge,
        Workload::DurableMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSmall => "warm_small",
            Workload::WarmLarge => "warm_large",
            Workload::ColdChurn => "cold_churn",
            Workload::CoresetHuge => "coreset_huge",
            Workload::DurableMixed => "durable_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sentence `BENCHMARK.json` carries for this workload.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmSmall => {
                "8 resident n=220 universes, 2 answers a frame: the solve is a sliver, so json, wire, admission, fingerprint, cache and the worker hand-off are the work"
            }
            Workload::WarmLarge => {
                "4 resident n=2000 universes, all three objectives at k=10 and k=50 in every frame: engine select and exact re-score dominate"
            }
            Workload::ColdChurn => {
                "every frame a never-seen n=1000 universe: the O(n^2) prepare dominates and the cache inserts and evicts every frame"
            }
            Workload::CoresetHuge => {
                "2 n=20000 universes in coreset mode, 270 KB frames: re-parsing, re-decoding and re-fingerprinting the inline universe dominate"
            }
            Workload::DurableMixed => {
                "divrd --data-dir, 32 databases, 1 mutate (WAL append + fsync) per 9 query frames, then SIGKILL and restart: the only workload where persist, the query front door and delta repair run"
            }
        }
    }
}

/// `max_sum` and `max_min` at one `k`.
pub fn both(k: usize) -> Vec<Request> {
    [Objective::MaxSum, Objective::MaxMin]
        .into_iter()
        .map(|objective| Request { objective, k })
        .collect()
}

/// One resident universe of a pooled workload and the request lists
/// its frames cycle through, each with the oracle's answers.
pub struct PoolEntry {
    pub rows: Vec<Row>,
    pub coreset: Option<usize>,
    pub variants: Vec<(Vec<Request>, Arc<Vec<Answer>>)>,
}

/// One `durable_mixed` database: its rows, the one tuple its mutations
/// insert and remove in turn, and the oracle's answers without and
/// with that tuple.
pub struct DbEntry {
    pub rows: Vec<Row>,
    pub extra: Row,
    pub expected: [Arc<Vec<Answer>>; 2],
}

pub enum Plan {
    Pool(Vec<PoolEntry>),
    /// Universes are drawn per frame from `seed`; see [`cold_rows`].
    Cold {
        seed: u64,
    },
    Durable(Vec<DbEntry>),
}

pub const COLD_N: usize = 1000;
pub const COLD_REQUESTS: [Request; 1] = [Request {
    objective: Objective::MaxSum,
    k: 10,
}];
/// `cold_churn` compares every this-many-th frame with the oracle
/// (each comparison costs a full in-process prepare).
pub const COLD_CHECK_EVERY: usize = 16;
pub const DURABLE_DBS: usize = 32;
const DURABLE_ROWS: usize = 500;
pub const DURABLE_K: usize = 10;

/// The universe of `cold_churn` frame `index` of `client`. Indices at
/// or above [`COLD_REPLAY_BASE`] are reserved for the traced replay.
pub fn cold_rows(seed: u64, client: usize, index: usize) -> Vec<Row> {
    gen::rows(
        gen::sub_seed(seed, ((client as u64) << 32) | index as u64),
        COLD_N,
    )
}

pub const COLD_REPLAY_BASE: usize = 1 << 30;

impl Plan {
    /// Draws the workload's inputs from `seed` and computes the
    /// expected answers in-process, once per pool entry. Untimed.
    pub fn draw(workload: Workload, seed: u64) -> Plan {
        let (n, pool, coreset, variants): (usize, usize, Option<usize>, Vec<Vec<Request>>) =
            match workload {
                Workload::WarmSmall => (220, 8, None, (5..=8).map(both).collect()),
                Workload::WarmLarge => {
                    // Every frame asks all three objectives at both k:
                    // frames that alternated k=10 / k=50 would make two
                    // latency modes, and a median between two modes
                    // flips with the slightest drift.
                    let six = [10, 50]
                        .into_iter()
                        .flat_map(|k| {
                            [Objective::MaxSum, Objective::MaxMin, Objective::Mono]
                                .map(|objective| Request { objective, k })
                        })
                        .collect();
                    (2000, 4, None, vec![six])
                }
                Workload::CoresetHuge => (20_000, 2, Some(256), vec![both(10)]),
                Workload::ColdChurn => return Plan::Cold { seed },
                Workload::DurableMixed => {
                    return Plan::Durable(
                        (0..DURABLE_DBS)
                            .map(|d| {
                                let rows = gen::rows(gen::sub_seed(seed, d as u64), DURABLE_ROWS);
                                // Past every generated position, so never already present.
                                let extra = [1_000_000_000 + d as i64, (seed % 1000) as i64];
                                let expected = layers::oracle_query(&rows, extra, &both(DURABLE_K))
                                    .map(Arc::new);
                                DbEntry {
                                    rows,
                                    extra,
                                    expected,
                                }
                            })
                            .collect(),
                    );
                }
            };

        // Pooled universes must be co-resident: two 32 MB entries
        // cannot share one 32 MB shard slice, so a universe that
        // evicts an earlier one is re-drawn from the next sub-seed.
        let mut oracle = layers::Oracle::new();
        let mut entries: Vec<PoolEntry> = Vec::with_capacity(pool);
        let mut draw = 0u64;
        while entries.len() < pool {
            let rows = gen::rows(gen::sub_seed(seed, draw), n);
            draw += 1;
            let answered: Vec<_> = variants
                .iter()
                .map(|requests| {
                    let answers = oracle.serve(&rows, coreset, requests);
                    (requests.clone(), Arc::new(answers))
                })
                .collect();
            if oracle.evictions() > 0 {
                oracle = layers::Oracle::new();
                for e in &entries {
                    oracle.serve(&e.rows, e.coreset, &e.variants[0].0);
                }
                continue;
            }
            entries.push(PoolEntry {
                rows,
                coreset,
                variants: answered,
            });
        }
        Plan::Pool(entries)
    }
}
