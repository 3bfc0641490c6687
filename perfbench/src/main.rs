//! The repository benchmark: one process that runs a named workload
//! against the program's public API at its shipped defaults, checks
//! every answer, and prints the metrics `BENCHMARK.json` declares.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_under_ingest --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics and writes
//! its spans to `.perfbench_run/`. `--workload all` runs every
//! workload in turn. The last line of standard output is the result
//! object; everything before it is the human-readable report. See
//! `perfbench/README.md` for the workloads and the metric map.

mod dashboard;
mod durable;
mod gen;
mod scan;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Samples, Timed};
use trace::Span;

/// A second seed, kept out of every tuning run, for validating later
/// performance claims on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 20_181_811;

/// Engine shard count, as `cubrick-serve` ships it.
pub const SHARDS: usize = 4;

/// The gated end-to-end metrics (`--trace 0`), in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("load_ms_p50", "ms"),
    ("mem_bytes_per_row", "B"),
];

/// The per-layer metrics of the traced run (`--trace 1`), in report
/// order. A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.roundtrip_ms_p50", "ms"),
    ("server.self_ms_p50", "ms"),
    ("server.admission_wait_ms_p99", "ms"),
    ("server.dedup_shared_ratio", "ratio"),
    ("server.rejected_ratio", "ratio"),
    ("sql.parse_us_p50", "us"),
    ("sql.execute_ms_p50", "ms"),
    ("engine.query_ms_p50", "ms"),
    ("engine.partials_ms_p50", "ms"),
    ("engine.finalize_us_p50", "us"),
    ("engine.scan_ns_per_row", "ns/row"),
    ("engine.rows_scanned_per_query", "rows"),
    ("engine.bricks_pruned_ratio", "ratio"),
    ("shard.tasks_per_query", "count"),
    ("shard.wall_per_work", "ratio"),
    ("aosi.visibility_ms_per_query", "ms"),
    ("aosi.si_minus_ru_ms_p50", "ms"),
    ("aosi.bytes_per_row", "B"),
    ("aosi.mvcc_bytes_per_row", "B"),
    ("aosi.commit_us_p50", "us"),
    ("cache.vis_hit_ratio", "ratio"),
    ("cache.agg_hit_ratio", "ratio"),
    ("cache.agg_evictions", "count"),
    ("load.parse_ms_p50", "ms"),
    ("load.apply_ms_p50", "ms"),
    ("wal.round_ms_p50", "ms"),
    ("wal.round_ms_p99", "ms"),
    ("wal.bytes_per_row", "B"),
    ("wal.syncs_per_round", "count"),
    ("recovery.rows_per_s", "rows/s"),
    ("tier.spills_per_round", "count"),
    ("tier.reloads_per_round", "count"),
    ("tier.sweep_ms_p50", "ms"),
    ("tier.spill_bytes_per_row", "B"),
    ("tier.max_resident_over_budget", "ratio"),
    ("purge.ms_p50", "ms"),
    ("purge.entries_reclaimed_per_cycle", "count"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("query_ms_p99", "ms"),
    ("load_ms_p99", "ms"),
    ("query_ru_ms_p50", "ms"),
    ("durable_ms_p50", "ms"),
    ("durable_ms_p99", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("disk_bytes_per_row", "B"),
    ("recovery_s", "s"),
];

/// The workloads, in `--workload all` order.
pub const WORKLOADS: &[&str] = &["scan_under_ingest", "dashboard_http", "durable_ingest"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// An open-loop generator whose lateness p99 exceeds this ran too far
/// behind its schedule for its latencies to mean anything.
pub const MAX_LATE_MS: f64 = 100.0;

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for files the run writes (WAL, tier).
    pub dir: PathBuf,
}

/// A workload's result: metrics by name plus what the report needs.
#[derive(Default)]
pub struct Outcome {
    /// Workload parameters for the run fingerprint.
    pub params: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and percentiles behind the latency metrics.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    /// Why the run's latencies cannot be reported (a generator fell
    /// behind, a sample has no tail, the dataset fits the budget).
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the median and the windowed tail of `ops`' untraced
    /// latencies under the two names, noting the sample count and the
    /// percentile the tail was read at. A run too short for a tail is
    /// invalid.
    pub fn latency(&mut self, p50: &'static str, p99: &'static str, ops: &[Timed]) {
        let untraced: Vec<Timed> = ops.iter().filter(|op| !op.traced).copied().collect();
        let samples = stats::latencies(&untraced, false);
        self.set(p50, samples.median());
        match stats::windowed_tail(&untraced) {
            Some((tail, windows)) => {
                self.set(p99, tail.value);
                self.notes.push(format!(
                    "{p99}: median of {windows} windows' p{:.2}, {} samples",
                    tail.q * 100.0,
                    untraced.len()
                ));
            }
            None => {
                self.set(p99, samples.quantile(1.0));
                self.invalid = Some(format!("{p99}: {} samples have no tail", untraced.len()));
            }
        }
    }

    /// Marks the run invalid when the generator's lateness p99 is over
    /// [`MAX_LATE_MS`].
    pub fn check_lateness(&mut self, who: &str, late_ms: &Samples) {
        let late = late_ms.tail().map_or(late_ms.quantile(1.0), |t| t.value);
        if late > MAX_LATE_MS {
            self.invalid = Some(format!(
                "{who} ran {late:.1} ms behind schedule at its tail (bound {MAX_LATE_MS} ms)"
            ));
        }
    }
}

/// The measured window of a run; its opening is the trace's time
/// origin.
pub struct Clock {
    pub origin: Instant,
    pub end: Instant,
}

impl Clock {
    pub fn starting_now(seconds: Duration) -> Self {
        let origin = Instant::now();
        Clock {
            origin,
            end: origin + seconds,
        }
    }

    /// An operation due or started at `at` that took until now.
    pub fn timed(&self, at: Instant, traced: bool) -> Timed {
        Timed {
            at_s: at.saturating_duration_since(self.origin).as_secs_f64(),
            ms: ms(at.elapsed()),
            traced,
        }
    }
}

/// Sleeps until `due`, returning how late the caller woke.
pub fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or("--seconds needs an integer in 1..=600")?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected all or one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run fingerprint as JSON members: machine, build, seed and the
/// workload's parameters.
fn fingerprint(args: &Args, workload: &str, params: &[(&'static str, String)]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let params: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{cores},\
         \"commit\":{},\"profile\":\"{profile}\",\"rustc\":{},\"params\":{{{}}}",
        json_str(workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        params.join(",")
    )
}

/// Total and steal CPU ticks from `/proc/stat`, where there is one.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let before = cpu_ticks();
    let mut outcome = run_once(name, ctx)?;
    if let (Some(before), Some(after)) = (before, cpu_ticks()) {
        let share = stats::ratio((after.1 - before.1) as f64, (after.0 - before.0) as f64);
        outcome.notes.push(format!(
            "the host stole {:.1}% of the CPU time during the run",
            share * 100.0
        ));
    }
    Ok(outcome)
}

fn run_once(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "scan_under_ingest" => scan::run(ctx),
        "dashboard_http" => dashboard::run(ctx),
        "durable_ingest" => durable::run(ctx),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// The metrics the result line carries for this mode, by name and unit. A
/// missing end-to-end metric is a bug in the workload; a missing
/// per-layer metric is a layer the workload does not touch.
fn selected_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied();
            assert!(
                trace || value.is_some(),
                "workload did not measure end-to-end metric {name}"
            );
            let value = value.unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is {value}");
            (name, unit, value)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn result_line(correct: bool, outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn print_report(workload: &str, outcome: &Outcome) {
    println!("== {workload}");
    for (name, value) in &outcome.metrics {
        println!("  {name:<36} {value:>14.4} {}", unit_of(name));
    }
    println!(
        "  {:<36} {:>14.4} ratio  ({} of {} operations failed)",
        "failed_ratio",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

fn write_trace(dir: &Path, workload: &str, header: &str, spans: &[Span]) {
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match trace::write_jsonl(&path, header, spans) {
        Ok(()) => println!("  spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}|all> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Everything the run writes stays under the working directory.
    let out_dir = PathBuf::from(".perfbench_run");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: run_dir.clone(),
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut status = ExitCode::SUCCESS;
    for name in names {
        let result = run_workload(name, &ctx);
        let _ = std::fs::remove_dir_all(&run_dir);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {name}: run failed: {e}");
                println!("{}", result_line(false, &Outcome::default(), &[]));
                return ExitCode::from(1);
            }
        };
        let header = fingerprint(&args, name, &outcome.params);
        println!("{{\"fingerprint\":{{{header}}}}}");
        print_report(name, &outcome);
        if args.trace {
            write_trace(&out_dir, name, &header, &outcome.spans);
        }
        if let Some(why) = &outcome.invalid {
            eprintln!("perfbench: {name}: INVALID RUN: {why}");
            status = ExitCode::from(3);
            continue;
        }
        println!(
            "{}",
            result_line(true, &outcome, &selected_metrics(&outcome, args.trace))
        );
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list; the
    /// unit is empty for workloads.
    fn declared(manifest: &str, section: &str) -> Vec<(String, String)> {
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let Some(at) = entry.find(&format!("\"{key}\"")) else {
                return String::new();
            };
            let rest = &entry[at + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("value quoted") + 1..];
            rest[..rest.find('"').expect("value closes")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    /// The metric lists here and in `BENCHMARK.json` must agree, or
    /// the manifest names metrics the benchmark never prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(manifest, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(manifest, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = declared(manifest, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_selected_metric() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.attempted = 7;
        let line = result_line(true, &outcome, &selected_metrics(&outcome, false));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":7,\"failed\":0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
        let traced = result_line(true, &outcome, &selected_metrics(&outcome, true));
        assert!(traced.contains("\"trace.overhead_ratio\":{\"value\":0,\"unit\":\"ratio\"}"));
    }
}
