//! The metric catalogue — the same names, units, directions and
//! bounds `BENCHMARK.json` records — and the three ways a run is
//! reported: a table for people, one JSON line for the driver, and
//! `results.json` with the environment stamp.

use crate::plan::Workload;
use crate::run::Outcome;
use std::fmt::Write as _;

/// What a run-to-run change of an end-to-end metric is held against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// It may worsen by this share of the parent's median.
    Share(f64),
    /// It must read 0.
    Zero,
    /// Demoted: every run reports it and the driver records it through
    /// the per-layer list, but on the recording box one commit spreads
    /// wider than any bound worth having (README, "Bounds"), so
    /// nothing is held against it.
    Unbounded,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Bound,
    /// `None`: every workload measures it; else the one that does.
    pub only: Option<Workload>,
    pub definition: &'static str,
}

impl EndToEnd {
    pub fn on(&self, workload: Workload) -> bool {
        self.only.is_none_or(|w| w == workload)
    }

    /// The bound `BENCHMARK.json` lists it with, if it does: the
    /// driver takes an end-to-end metric only if every workload
    /// reports it, it never reads 0, and its spread over ten runs
    /// stays inside its bound.
    pub fn driver_bound(&self) -> Option<f64> {
        match (self.only, self.bound) {
            (None, Bound::Share(share)) => Some(share),
            _ => None,
        }
    }
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Bound,
    only: Option<Workload>,
    definition: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        only,
        definition,
    }
}

const DURABLE: Option<Workload> = Some(Workload::DurableMixed);

pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end(
        "setup_s",
        "s",
        "lower",
        Bound::Share(0.25),
        None,
        "spawn -> pool generated, frames encoded, caches warm; median of the run's set-ups",
    ),
    end_to_end(
        "frames_per_s",
        "1/s",
        "higher",
        Bound::Unbounded,
        None,
        "correct frames completed in the window / window length",
    ),
    end_to_end(
        "frame_p50_us",
        "us",
        "lower",
        Bound::Unbounded,
        None,
        "client-observed latency of serve/query frames, windowed median",
    ),
    end_to_end(
        "frame_p99_us",
        "us",
        "lower",
        Bound::Unbounded,
        None,
        "same, windowed p99",
    ),
    end_to_end(
        "failed_share",
        "ratio",
        "lower",
        Bound::Zero,
        None,
        "(transport errors + non-ok frames + non-ok answers + answers differing from the oracle + acked mutations missing after restart) / frames attempted",
    ),
    end_to_end(
        "rss_peak_mb",
        "MB",
        "lower",
        Bound::Share(0.25),
        None,
        "daemon VmHWM at the end of the window",
    ),
    end_to_end(
        "mutate_p50_us",
        "us",
        "lower",
        Bound::Unbounded,
        DURABLE,
        "client-observed latency of mutate frames (acked after WAL append + fsync), windowed median",
    ),
    end_to_end(
        "mutate_p99_us",
        "us",
        "lower",
        Bound::Unbounded,
        DURABLE,
        "same, windowed p99",
    ),
    end_to_end(
        "restart_ready_ms",
        "ms",
        "lower",
        Bound::Unbounded,
        DURABLE,
        "re-spawn after SIGKILL -> one correct warm answer per database; median of the run's restarts",
    ),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload a change to this layer is
    /// predicted to move — what later issues are held to.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const P50_WARM_SMALL: &str = "frame_p50_us @ warm_small";
const P50_WARM_LARGE: &str = "frame_p50_us @ warm_large";
const P50_CORESET: &str = "frame_p50_us @ coreset_huge";
const P50_COLD: &str = "frame_p50_us, frames_per_s @ cold_churn; setup_s";
const DURABLE_READS: &str = "frame_p50_us @ durable_mixed";
const DURABLE_WRITES: &str = "mutate_p50_us, frames_per_s @ durable_mixed";
const RESTART: &str = "restart_ready_ms @ durable_mixed";

pub const PER_LAYER: [PerLayer; 59] = [
    layer(
        "service.proto.request_bytes",
        "count",
        "lower",
        "frames_per_s @ coreset_huge",
    ),
    layer(
        "service.proto.response_bytes",
        "count",
        "lower",
        "frames_per_s @ coreset_huge",
    ),
    layer(
        "service.proto.ping_rtt_us",
        "us",
        "lower",
        "floor of frame_p50_us @ warm_small",
    ),
    layer(
        "service.json.parse_us",
        "us",
        "lower",
        "frame_p50_us @ coreset_huge, warm_small; none @ cold_churn",
    ),
    layer("service.json.encode_us", "us", "lower", P50_WARM_SMALL),
    layer(
        "service.wire.decode_us",
        "us",
        "lower",
        "frame_p50_us @ coreset_huge, durable_mixed",
    ),
    layer("service.admission.gate_us", "us", "lower", P50_WARM_SMALL),
    layer(
        "service.admission.rejected",
        "count",
        "lower",
        "must be 0; else the run is unresolved",
    ),
    layer(
        "service.server.unattributed_us",
        "us",
        "lower",
        "frames_per_s @ warm_small",
    ),
    layer(
        "service.server.unattributed_share",
        "ratio",
        "lower",
        "frames_per_s @ warm_small",
    ),
    layer(
        "service.server.frames",
        "count",
        "higher",
        "sanity: = frames the client attempted",
    ),
    layer(
        "service.server.degraded",
        "count",
        "lower",
        "must be 0; else the run is unresolved",
    ),
    layer(
        "server.fingerprint.key_us",
        "us",
        "lower",
        "frame_p50_us @ coreset_huge, warm_large",
    ),
    layer(
        "server.fingerprint.key_bytes",
        "count",
        "lower",
        "frame_p50_us @ coreset_huge",
    ),
    layer("server.cache.lookup_us", "us", "lower", P50_WARM_SMALL),
    layer(
        "server.cache.hits",
        "count",
        "higher",
        "frame_p50_us @ cold_churn",
    ),
    layer(
        "server.cache.misses",
        "count",
        "lower",
        "frame_p50_us @ cold_churn",
    ),
    layer(
        "server.cache.evictions",
        "count",
        "lower",
        "frame_p50_us @ cold_churn; rss_peak_mb",
    ),
    layer(
        "server.cache.hit_ratio",
        "ratio",
        "higher",
        "frame_p50_us @ cold_churn",
    ),
    layer("server.cache.resident_mb", "MB", "lower", "rss_peak_mb"),
    layer("server.registry.serve_us", "us", "lower", P50_WARM_SMALL),
    layer("server.registry.overhead_us", "us", "lower", P50_WARM_SMALL),
    layer("core.engine.prepare_ms", "ms", "lower", P50_COLD),
    layer("core.engine.matrix_build_ms", "ms", "lower", P50_COLD),
    layer("core.relevance.score_us", "us", "lower", P50_COLD),
    layer(
        "core.engine.prepared_mb",
        "MB",
        "lower",
        "rss_peak_mb @ cold_churn, warm_large",
    ),
    layer(
        "core.engine.select_max_sum_us",
        "us",
        "lower",
        P50_WARM_LARGE,
    ),
    layer(
        "core.engine.select_max_min_us",
        "us",
        "lower",
        P50_WARM_LARGE,
    ),
    layer("core.engine.select_mono_us", "us", "lower", P50_WARM_LARGE),
    layer(
        "core.engine.rescore_max_sum_us",
        "us",
        "lower",
        "frame_p50_us, frame_p99_us @ warm_large",
    ),
    layer(
        "core.engine.rescore_max_min_us",
        "us",
        "lower",
        "frame_p50_us, frame_p99_us @ warm_large",
    ),
    layer(
        "core.engine.rescore_mono_us",
        "us",
        "lower",
        "frame_p50_us, frame_p99_us @ warm_large; none @ warm_small, coreset_huge",
    ),
    layer(
        "core.engine.allocs_per_request",
        "count",
        "lower",
        "frame_p99_us @ warm_large",
    ),
    layer("core.engine.delta_insert_us", "us", "lower", DURABLE_WRITES),
    layer("core.engine.delta_remove_us", "us", "lower", DURABLE_WRITES),
    layer(
        "core.coreset.select_ms",
        "ms",
        "lower",
        "setup_s @ coreset_huge",
    ),
    layer("core.coreset.solve_max_sum_us", "us", "lower", P50_CORESET),
    layer("core.coreset.solve_max_min_us", "us", "lower", P50_CORESET),
    layer("relquery.parser.parse_us", "us", "lower", DURABLE_READS),
    layer("relquery.eval.eval_us", "us", "lower", RESTART),
    layer("server.query.spec_us", "us", "lower", DURABLE_READS),
    layer("server.query.serve_us", "us", "lower", DURABLE_READS),
    layer("server.query.mutate_us", "us", "lower", DURABLE_WRITES),
    layer(
        "server.persist.wal_append_us",
        "us",
        "lower",
        "mutate_p50_us, mutate_p99_us @ durable_mixed",
    ),
    layer(
        "server.persist.wal_bytes_per_mutation",
        "count",
        "lower",
        DURABLE_WRITES,
    ),
    layer(
        "server.persist.wal_records",
        "count",
        "lower",
        DURABLE_WRITES,
    ),
    layer("server.persist.checkpoint_ms", "ms", "lower", RESTART),
    layer("server.persist.snapshot_bytes", "count", "lower", RESTART),
    layer("server.persist.recover_ms", "ms", "lower", RESTART),
    layer("server.persist.replayed_records", "count", "lower", RESTART),
    layer(
        "server.persist.recovered_entries",
        "count",
        "higher",
        RESTART,
    ),
    layer(
        "bench.client.overhead_us",
        "us",
        "lower",
        "subtract from frame_p50_us when reading the table",
    ),
    layer(
        "bench.trace.overhead_share",
        "ratio",
        "lower",
        "what client spans cost the traced wire pass",
    ),
    // The end-to-end metrics `BENCHMARK.json` cannot list as such, as
    // the traced run's untraced pass and restarts read them.
    layer(
        "frames_per_s",
        "1/s",
        "higher",
        "end to end: correct frames per second",
    ),
    layer(
        "frame_p50_us",
        "us",
        "lower",
        "end to end: serve/query frame latency, windowed median",
    ),
    layer(
        "frame_p99_us",
        "us",
        "lower",
        "end to end: same, windowed p99",
    ),
    layer(
        "mutate_p50_us",
        "us",
        "lower",
        "end to end on durable_mixed: mutate frame latency",
    ),
    layer(
        "mutate_p99_us",
        "us",
        "lower",
        "end to end on durable_mixed: same, windowed p99",
    ),
    layer(
        "restart_ready_ms",
        "ms",
        "lower",
        "end to end on durable_mixed: re-spawn after SIGKILL -> one correct answer per database",
    ),
];

/// The window the driver measures for, and `e2e`'s default.
pub const RUN_SECONDS: u32 = 16;

/// `BENCHMARK.json`, generated from the catalogue (`e2e --describe`).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| {
            let bound = m.driver_bound()?;
            Some(format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
            ))
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"e2e/run.sh\"],\n  \"paths\": [\"e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The glossary as markdown tables (`e2e --describe md`): the README's
/// metric sections, which a unit test holds equal to this.
pub fn glossary_md() -> String {
    let mut out = String::from(
        "| name | unit | better | bound | on | definition |\n|---|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let bound = match m.bound {
            Bound::Share(share) => format!("{:.0} %", share * 100.0),
            Bound::Zero => "must be 0".to_string(),
            Bound::Unbounded => "none (demoted)".to_string(),
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {bound} | {} | {} |",
            m.name,
            m.unit,
            m.better,
            m.only.map_or("every workload", Workload::name),
            m.definition
        );
    }
    out.push_str("\n| name | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

/// `(name, unit)` of every metric a traced or an untraced run of
/// `workload` reports; with `driver_only`, of those on the driver's line.
pub fn catalogue(
    traced: bool,
    workload: Workload,
    driver_only: bool,
) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.on(workload) && (m.driver_bound().is_some() || !driver_only))
            .map(|m| (m.name, m.unit))
            .collect()
    }
}

fn json_string(s: &str) -> String {
    divr_service::json::Value::Str(s.to_string()).to_json()
}

/// A number with all its digits, or `null` for a non-finite one.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(outcome: &Outcome, driver_only: bool) -> String {
    let members: Vec<String> = catalogue(outcome.traced, outcome.workload, driver_only)
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome, true)
    )
}

/// Every metric by name, with its unit and the note that backs it.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let kind = if outcome.traced {
        "per-layer (traced run)"
    } else {
        "end to end"
    };
    let _ = writeln!(out, "== {} — {kind}", outcome.workload.name());
    for (name, unit) in catalogue(outcome.traced, outcome.workload, false) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let note = outcome
            .notes
            .get(name)
            .map_or(String::new(), |n| format!("   ({n})"));
        let _ = writeln!(out, "  {name:<40} {value:>14.3} {unit:<6}{note}");
    }
    // An end-to-end run lists `failed_share` among its metrics.
    if outcome.traced {
        let _ = writeln!(
            out,
            "  {} failed of {} attempted",
            outcome.failed, outcome.attempted
        );
    }
    if let Some(why) = &outcome.first_failure {
        let _ = writeln!(out, "  first failure: {why}");
    }
    for why in &outcome.unresolved {
        let _ = writeln!(out, "  UNRESOLVED: {why}");
    }
    out
}

/// Where and on what the numbers were taken.
pub struct Stamp {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    pub clients: usize,
    pub seconds: f64,
}

impl Stamp {
    pub fn take(seed: u64, clients: usize, seconds: f64) -> Stamp {
        let first_line = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or("unknown".to_string(), |s| {
                    s.lines().next().unwrap_or("").to_string()
                })
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".to_string(), |s| s.trim().to_string()),
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
            seed,
            clients,
            seconds,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"commit\":{},\"seed\":{},\"clients\":{},\"seconds\":{}}}",
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.kernel),
            json_string(&self.rustc),
            json_string(&self.commit),
            self.seed,
            self.clients,
            json_number(self.seconds)
        )
    }
}

/// `results.json`: the stamp, then one record per workload run.
pub fn results_json(stamp: &Stamp, outcomes: &[&Outcome]) -> String {
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let unresolved: Vec<String> = o.unresolved.iter().map(|u| json_string(u)).collect();
            format!(
                "{{\"workload\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"unresolved\":[{}],\"metrics\":{}}}",
                json_string(o.workload.name()),
                o.traced,
                o.correct(),
                o.attempted,
                o.failed,
                unresolved.join(","),
                metrics_json(o, false)
            )
        })
        .collect();
    format!(
        "{{\"environment\":{},\"runs\":[\n{}\n]}}\n",
        stamp.json(),
        runs.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_service::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_inside_the_contract() {
        // The driver's file uses a name once; the end-to-end metrics it
        // cannot list as such reach it through the per-layer list.
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .filter(|m| m.driver_bound().is_some())
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let own: BTreeSet<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(own.len(), END_TO_END.len());
        for m in &END_TO_END {
            match m.bound {
                Bound::Share(share) => assert!(share > 0.0 && share <= 0.25, "{}", m.name),
                Bound::Zero => {}
                Bound::Unbounded => {
                    assert!(seen.contains(m.name), "the driver never sees {}", m.name)
                }
            }
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(END_TO_END[0].driver_bound().is_some());
        assert!(PER_LAYER.len() <= 128);
    }

    /// The README's metric tables are `e2e --describe md`'s output.
    #[test]
    fn the_readme_glossary_is_the_generated_one() {
        let readme = include_str!("../README.md");
        for table in glossary_md().split("\n\n") {
            assert!(
                readme.contains(table.trim_end()),
                "README.md is stale; paste `e2e --describe md`:\n{table}"
            );
        }
    }

    /// `BENCHMARK.json` is `e2e --describe`'s output, committed.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate: e2e --describe > BENCHMARK.json"
        );
        let doc = json::parse(&committed).unwrap();
        for key in ["command", "paths", "workloads", "end_to_end", "per_layer"] {
            assert!(doc.get(key).and_then(Value::as_array).is_some(), "{key}");
        }
        assert!(committed.len() <= 64 << 10);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: Workload::WarmSmall,
            traced: false,
            metrics: END_TO_END.iter().map(|m| (m.name, 1.25)).collect(),
            notes: Default::default(),
            attempted: 10,
            failed: 0,
            first_failure: None,
            unresolved: Vec::new(),
        };
        let doc = json::parse(&result_line(&outcome)).unwrap();
        let Value::Object(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        // Exactly the metrics BENCHMARK.json lists, on any workload.
        let listed: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.driver_bound().is_some())
            .map(|m| m.name)
            .collect();
        let on_line: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(on_line, listed);
        let durable = Outcome {
            workload: Workload::DurableMixed,
            ..outcome
        };
        let Some(Value::Object(same)) = json::parse(&result_line(&durable))
            .unwrap()
            .get("metrics")
            .cloned()
        else {
            panic!("no metrics")
        };
        assert_eq!(same.len(), listed.len());
        for (name, m) in metrics {
            assert!(
                m.get("value").is_some() && m.get("unit").is_some(),
                "{name}"
            );
        }
    }
}
