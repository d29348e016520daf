//! `e2e` — the wire-level benchmark for `divrd`.
//!
//! Spawns the stock daemon as a child process per workload, drives it
//! over loopback TCP in a closed loop, checks every answer against an
//! in-process oracle, and prints every metric by name with its unit.
//! `--trace 1` is a separate run that produces the per-layer table.
//! See `README.md` beside this package for the commands, the metric
//! glossary and the recorded baseline.

mod alloc;
mod daemon;
mod gen;
mod layers;
mod load;
mod plan;
mod report;
mod run;
mod stats;
mod trace;
mod wire;

use plan::Workload;
use run::{Config, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: e2e [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
           [--quick] [--repeat N] [--out DIR] [--divrd PATH]
           [--describe [md]]

  --workload NAME  warm_small | warm_large | cold_churn | coreset_huge |
                   durable_mixed; repeatable; default: all five
  --seed N         workload seed (default 1)
  --seconds S      timed window per workload (default 16; --quick: 2)
  --trace [0|1]    1: the traced run (per-layer metrics); 0: end to end
  --quick          short windows, one set-up, one restart: smoke only
  --repeat N       run N sets; print median and (max-min)/median per
                   metric; fail if a spread exceeds the metric's bound
  --out DIR        results.json, trace-<workload>.jsonl, data dirs
                   (default: $CARGO_TARGET_DIR/e2e or target/e2e)
  --divrd PATH     the daemon binary (default: beside this executable)
  --describe [md]  print BENCHMARK.json (md: README.md's metric tables)
                   as generated from the catalogue, and exit";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    divrd: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        divrd: None,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed
                    .workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                parsed.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => parsed.out = Some(value("a directory")?.into()),
            "--divrd" => parsed.divrd = Some(value("a path")?.into()),
            "--quick" => parsed.quick = true,
            // `--trace` alone means 1; the driver passes `--trace 0|1`.
            "--trace" => match args.next() {
                Some(v) if v == "0" => parsed.trace = false,
                Some(v) if v == "1" => parsed.trace = true,
                other => {
                    parsed.trace = true;
                    pending = other;
                }
            },
            // The catalogue as BENCHMARK.json (`md`: as README tables).
            "--describe" => {
                let markdown = args.next().as_deref() == Some("md");
                print!(
                    "{}",
                    if markdown {
                        report::glossary_md()
                    } else {
                        report::benchmark_json()
                    }
                );
                std::process::exit(0);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// The daemon binary: beside this executable, or one directory up
/// (test executables live in `deps/`).
fn locate_divrd() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("divrd"))
        .find(|p| p.is_file())
}

fn config(args: &Args) -> Result<Config, String> {
    let divrd = match &args.divrd {
        Some(path) => path.clone(),
        None => locate_divrd().ok_or(
            "divrd not found beside this executable; build it \
             (cargo build --release -p divr-service) or pass --divrd",
        )?,
    };
    let out = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("e2e")
    });
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // Closed loop: min(nproc, 4) client threads, one connection each,
    // and as many daemon workers.
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    Ok(Config {
        divrd,
        out,
        clients,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            2.0
        } else {
            f64::from(report::RUN_SECONDS)
        }),
        setups: if args.quick { 1 } else { 7 },
        restarts: if args.quick { 1 } else { 5 },
    })
}

/// One set: every selected workload once. Prints each table and, last
/// for each workload, the driver's result line.
fn run_set(args: &Args, cfg: &Config) -> std::io::Result<Vec<Outcome>> {
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = if args.trace {
            run::run_trace(workload, cfg)?
        } else {
            run::run_e2e(workload, cfg)?
        };
        print!("{}", report::table(&outcome));
        println!("{}", report::result_line(&outcome));
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Median and (max − min) ÷ median per workload × end-to-end metric
/// over the sets; `false` if any spread exceeds its metric's bound.
fn spreads(sets: &[Vec<Outcome>]) -> bool {
    use report::Bound;
    let mut within = true;
    println!(
        "== spread over {} sets: median, (max-min)/median, bound",
        sets.len()
    );
    for (w, first) in sets[0].iter().enumerate() {
        for metric in report::END_TO_END.iter().filter(|m| m.on(first.workload)) {
            let values: Vec<f64> = sets.iter().map(|set| set[w].metrics[metric.name]).collect();
            let (median, share) = stats::range_share(&values).unwrap_or((0.0, 0.0));
            let (bound, held) = match metric.bound {
                Bound::Share(b) => (format!("{:.0} %", b * 100.0), share <= b),
                Bound::Zero => ("must be 0".into(), values.iter().all(|&v| v == 0.0)),
                Bound::Unbounded => ("none".into(), true),
            };
            within &= held;
            println!(
                "  {:<14} {:<16} {median:>14.3} {:<5} {:>7.2} %  {bound:>9}  {}",
                first.workload.name(),
                metric.name,
                metric.unit,
                share * 100.0,
                if held { "ok" } else { "EXCEEDS BOUND" },
            );
        }
    }
    within
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let cfg = config(&args)?;
    let stamp = report::Stamp::take(cfg.seed, cfg.clients, cfg.seconds);
    let mut sets = Vec::new();
    for _ in 0..args.repeat.max(1) {
        sets.push(run_set(&args, &cfg).map_err(|e| format!("run failed: {e}"))?);
    }
    let all: Vec<&Outcome> = sets.iter().flatten().collect();
    let results = cfg.out.join("results.json");
    std::fs::write(&results, report::results_json(&stamp, &all))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    let mut ok = all.iter().all(|o| o.correct());
    if sets.len() > 1 && !args.trace {
        ok &= spreads(&sets);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("e2e: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_service::json::{self, Value};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "cold_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::ColdChurn]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        // A bare `--trace` is the traced run; what follows is still parsed.
        let bare = args(&["--trace", "--quick"]).unwrap();
        assert!(bare.trace && bare.quick);
        assert_eq!(args(&[]).unwrap().workloads.len(), 5);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }

    /// `--quick` smoke: all five workloads against a real child daemon,
    /// end to end and traced, and the `results.json` they write.
    #[test]
    fn quick_smoke_runs_every_workload_against_a_real_daemon() {
        let divrd = std::env::var_os("E2E_DIVRD")
            .map(PathBuf::from)
            .or_else(locate_divrd)
            .expect("build divrd first (e2e/run.sh test does) or point E2E_DIVRD at it");
        // Beside the test executable: inside the build directory.
        let out = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("e2e-smoke-{}", std::process::id()));
        let cfg = Config {
            divrd,
            out: out.clone(),
            clients: 2,
            seed: 11,
            // Half-second slices: a quantile needs a sample in each, and
            // one fsync stall on a busy box can outlast a quarter second.
            seconds: 3.0,
            setups: 1,
            restarts: 1,
        };
        std::fs::create_dir_all(&out).unwrap();
        let mut outcomes = Vec::new();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let outcome = if traced {
                    run::run_trace(workload, &cfg).unwrap()
                } else {
                    run::run_e2e(workload, &cfg).unwrap()
                };
                assert!(
                    outcome.correct(),
                    "{} traced={traced}: {:?} {:?}",
                    workload.name(),
                    outcome.first_failure,
                    outcome.unresolved
                );
                assert!(outcome.attempted > 0);
                if traced {
                    assert!(out
                        .join(format!("trace-{}.jsonl", workload.name()))
                        .is_file());
                } else {
                    for m in report::END_TO_END.iter().filter(|m| m.on(workload)) {
                        let value = outcome.metrics[m.name];
                        let must_be_0 = m.bound == report::Bound::Zero;
                        assert_eq!(value == 0.0, must_be_0, "{} = {value}", m.name);
                    }
                }
                outcomes.push(outcome);
            }
        }
        // The schema of results.json.
        let stamp = report::Stamp::take(cfg.seed, cfg.clients, cfg.seconds);
        let doc = json::parse(&report::results_json(
            &stamp,
            &outcomes.iter().collect::<Vec<_>>(),
        ))
        .unwrap();
        let env = doc.get("environment").unwrap();
        for key in [
            "nproc", "cpu", "kernel", "rustc", "commit", "seed", "clients", "seconds",
        ] {
            assert!(env.get(key).is_some(), "environment lacks {key}");
        }
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        assert_eq!(runs.len(), 10);
        for run in runs {
            let traced = run.get("traced").and_then(Value::as_bool).unwrap();
            let Some(Value::Object(metrics)) = run.get("metrics") else {
                panic!("no metrics")
            };
            let name = run.get("workload").and_then(Value::as_str).unwrap();
            let workload = Workload::parse(name).unwrap();
            assert_eq!(
                metrics.len(),
                report::catalogue(traced, workload, false).len()
            );
            assert_eq!(run.get("failed").and_then(Value::as_i64), Some(0));
            assert_eq!(run.get("correct").and_then(Value::as_bool), Some(true));
        }
        let _ = std::fs::remove_dir_all(out);
    }
}
