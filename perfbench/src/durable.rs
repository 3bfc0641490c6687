//! `durable_ingest`: closed-loop loads into an engine whose resident
//! budget is at most a quarter of the dataset, with flush rounds
//! written to the real filesystem.
//!
//! Batches arrive in time order: each carries one `day` partition range
//! and the range advances every `BATCHES_PER_RANGE` batches, cycling
//! through all eight; rows stay in the first `bucket` range and on two
//! platforms, so a batch touches 8 bricks and the dataset spans 64 of
//! the 512. Retention
//! is one cycle: before a range is loaded again, its old rows are
//! deleted with a partition delete. The dataset therefore stays the
//! same size however fast the loop runs, and every round costs the same
//! from the first measured round to the last. Every `ROUND_EVERY`
//! batches the loop runs a flush round, a purge, a tier sweep and a
//! full-scan report query, in that order. The full scan faults every
//! spilled brick back in, and the next sweep spills them again. The
//! policy is counted in batches, not time, so it is the same on both
//! sides of any comparison. Set-up runs one whole cycle, so the
//! measured loop starts at steady state. The run ends by recovering
//! the WAL chain into a fresh engine.

use std::path::Path;
use std::time::{Duration, Instant};

use cluster::ReplicationTracker;
use columnar::Value;
use cubrick::{
    DimFilter, Engine, IsolationMode, LoadStageTimings, PurgeStats, QueryStats, TierStats,
};
use wal::{recover_into, FlushController, WalBrickStore};
use workload::Dataset;

use crate::gen::{self, Batch, CUBE, DAYS_PER_RANGE, DAY_RANGES};
use crate::scan::load_stage_metrics;
use crate::stats::{latencies, ratio, Samples, Timed};
use crate::trace::{self, Span, Tracer};
use crate::{Clock, Ctx, Outcome, SETUP_REPS, SHARDS};

const BATCH_ROWS: usize = 1_000;
const BATCHES_PER_RANGE: usize = 12;
const ROUND_EVERY: usize = 4;
/// The budget is this share of the payload of seven full day ranges,
/// the least the retention window ever holds, so the dataset stays at
/// least this many times the budget: stored rows never take less than
/// their payload.
const DATASET_OVER_BUDGET: u64 = 4;
/// The measured loop runs at least this many untraced rounds, however
/// slow the machine, so the report query's tail always has a sample.
const MIN_ROUNDS: usize = 60;

/// Samples and totals of one stretch of the ingest loop.
#[derive(Default)]
struct Loop {
    load_ms: Vec<Timed>,
    query_ms: Vec<Timed>,
    durable_ms: Vec<Timed>,
    timings: Vec<LoadStageTimings>,
    purges: Vec<PurgeStats>,
    query_stats: Vec<QueryStats>,
    wal_bytes: u64,
    rounds: u64,
    max_resident_after: u64,
    /// Snapshot file bytes right after a sweep, at their highest.
    max_spilled_file_bytes: u64,
    /// Rows loaded in this stretch.
    loaded: u64,
    /// Next batch index: the day-range cycle continues across stretches.
    next: usize,
    /// Rows and `m0` total live in each day range.
    ranges: [(u64, f64); DAY_RANGES as usize],
    /// Rows loaded since the engine was created, deleted ones included.
    ever: u64,
    deletes: u64,
}

impl Loop {
    /// A fresh stretch continuing where `self` stopped.
    fn continued(&self) -> Loop {
        Loop {
            next: self.next,
            ranges: self.ranges,
            ever: self.ever,
            ..Loop::default()
        }
    }

    /// Live rows and `m0` total.
    fn live(&self) -> (u64, f64) {
        self.ranges
            .iter()
            .fold((0, 0.0), |(rows, m0), r| (rows + r.0, m0 + r.1))
    }
}

struct Setup {
    engine: Engine,
    ctl: FlushController,
    tracker: ReplicationTracker,
    budget: u64,
    warm: Loop,
}

/// Sizes the budget, opens the tier store and the WAL under `dir`,
/// loads one whole cycle of the day ranges and runs one round, so the
/// measured loop starts with every range filled, spilled bricks and a
/// WAL chain on disk.
fn set_up(pool: &[Vec<Batch>], dir: &Path) -> Result<Setup, String> {
    let least_rows = (DAY_RANGES as usize - 1) * BATCHES_PER_RANGE * BATCH_ROWS;
    let budget = (gen::dataset().row_bytes() * least_rows) as u64 / DATASET_OVER_BUDGET;
    let _ = std::fs::remove_dir_all(dir);
    let store = WalBrickStore::open(dir.join("tier")).map_err(|e| format!("tier store: {e}"))?;
    let engine = Engine::new(SHARDS).with_tiered_storage(Box::new(store), budget as usize);
    engine
        .create_cube(gen::dataset().schema())
        .map_err(|e| format!("create cube: {e}"))?;
    let ctl = FlushController::new(dir.join("wal"), 1).map_err(|e| format!("WAL open: {e}"))?;
    let mut setup = Setup {
        engine,
        ctl,
        tracker: ReplicationTracker::new(1),
        budget,
        warm: Loop::default(),
    };
    let clock = Clock::starting_now(Duration::ZERO);
    let mut tracer = Tracer::new(clock.origin, 0);
    let mut warm = Loop::default();
    let mut pending = Vec::new();
    for _ in 0..DAY_RANGES as usize * BATCHES_PER_RANGE {
        load(
            &setup,
            pool,
            &mut warm,
            &clock,
            &mut tracer,
            false,
            &mut pending,
        )?;
    }
    round(
        &mut setup,
        &mut warm,
        &clock,
        &mut tracer,
        false,
        &mut pending,
    )?;
    setup.warm = warm;
    Ok(setup)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A `name = value` counter of the controller's `[wal.flush]` report.
fn flush_counter(report: &str, name: &str) -> f64 {
    report
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(" = "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn check_sum(engine: &Engine, (rows, m0): (u64, f64), when: &str) -> Result<QueryStats, String> {
    let got = engine
        .query(CUBE, &gen::totals_query(), IsolationMode::Snapshot)
        .map_err(|e| format!("{when}: report query: {e}"))?;
    let (sum, count) = (got.rows[0].1[0], got.rows[0].1[1]);
    if count != rows as f64 || sum != m0 {
        return Err(format!(
            "{when}: COUNT/SUM = {count}/{sum}, loaded {rows}/{m0}"
        ));
    }
    Ok(got.stats)
}

/// Loads the next batch, first deleting the previous cycle of its day
/// range when it starts that range again.
fn load(
    setup: &Setup,
    pool: &[Vec<Batch>],
    run: &mut Loop,
    clock: &Clock,
    tracer: &mut Tracer,
    traced: bool,
    pending: &mut Vec<(Instant, aosi::Epoch)>,
) -> Result<(), String> {
    let engine = &setup.engine;
    let i = run.next;
    run.next += 1;
    let range = (i / BATCHES_PER_RANGE) % DAY_RANGES as usize;
    if i.is_multiple_of(BATCHES_PER_RANGE) && i >= DAY_RANGES as usize * BATCHES_PER_RANGE {
        let first = range as u32 * DAYS_PER_RANGE;
        let days = (first..first + DAYS_PER_RANGE)
            .map(|d| Value::from(d as i64))
            .collect();
        tracer
            .span("engine.delete", i as u64, None, |_, _| {
                engine.delete_where(CUBE, &[DimFilter::new("day", days)])
            })
            .map_err(|e| format!("retention delete: {e}"))?;
        run.ranges[range] = (0, 0.0);
        run.deletes += 1;
    }
    let batch = &pool[range][i % pool[range].len()];
    let started = Instant::now();
    let outcome = tracer
        .span("engine.load", i as u64, None, |_, _| {
            engine.load(CUBE, &batch.rows, 0)
        })
        .map_err(|e| format!("load: {e}"))?;
    run.load_ms.push(clock.timed(started, traced));
    run.timings.push(outcome.timings);
    pending.push((started, outcome.epoch));
    run.loaded += batch.rows.len() as u64;
    run.ever += batch.rows.len() as u64;
    run.ranges[range].0 += batch.rows.len() as u64;
    run.ranges[range].1 += batch.m0_sum;
    Ok(())
}

/// The round policy: flush round, purge, tier sweep, report query.
fn round(
    setup: &mut Setup,
    run: &mut Loop,
    clock: &Clock,
    tracer: &mut Tracer,
    traced: bool,
    pending: &mut Vec<(Instant, aosi::Epoch)>,
) -> Result<(), String> {
    let engine = &setup.engine;
    let request = run.next as u64;
    let flushed = tracer
        .span("wal.flush_round", request, None, |_, _| {
            setup.ctl.flush_round(engine, &setup.tracker)
        })
        .map_err(|e| format!("flush round: {e}"))?;
    let lse = engine.manager().lse();
    if !flushed.lse_advanced || pending.iter().any(|&(_, epoch)| epoch > lse) {
        return Err(format!(
            "flush round left the LSE at {lse}, below the loaded epochs"
        ));
    }
    run.durable_ms.extend(
        pending
            .drain(..)
            .map(|(started, _)| clock.timed(started, traced)),
    );
    run.wal_bytes += flushed.bytes_written;
    run.rounds += 1;
    run.purges
        .push(tracer.span("engine.purge", request, None, |_, _| engine.purge()));
    let sweep = tracer.span("tier.sweep", request, None, |_, _| {
        engine.enforce_tier_budget()
    });
    run.max_resident_after = run.max_resident_after.max(sweep.resident_bytes_after);
    let spilled = engine.tier_stats().unwrap_or_default().spilled_file_bytes;
    run.max_spilled_file_bytes = run.max_spilled_file_bytes.max(spilled);
    let started = Instant::now();
    let stats = tracer.span("engine.query", request, None, |_, _| {
        check_sum(engine, run.live(), "after a flush round")
    })?;
    run.query_ms.push(clock.timed(started, traced));
    run.query_stats.push(stats);
    Ok(())
}

/// Runs rounds of `ROUND_EVERY` loads until the clock's window closes
/// and `MIN_ROUNDS` have run, stopping at the end of a day range so
/// every run ends with all ranges full.
fn ingest(
    setup: &mut Setup,
    pool: &[Vec<Batch>],
    run: &mut Loop,
    clock: &Clock,
    tracer: &mut Tracer,
    trace: bool,
) -> Result<(), String> {
    let mut pending = Vec::new();
    while !run.next.is_multiple_of(BATCHES_PER_RANGE)
        || Instant::now() < clock.end
        || run.query_ms.iter().filter(|op| !op.traced).count() < MIN_ROUNDS
    {
        let traced = trace && (run.next / ROUND_EVERY).is_multiple_of(2);
        tracer.set_enabled(traced);
        for _ in 0..ROUND_EVERY {
            load(setup, pool, run, clock, tracer, traced, &mut pending)?;
        }
        round(setup, run, clock, tracer, traced, &mut pending)?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.param("shards", SHARDS);
    out.param("batch_rows", BATCH_ROWS);
    out.param("batches_per_day_range", BATCHES_PER_RANGE);
    out.param("round_every_batches", ROUND_EVERY);
    out.param("retained_day_ranges", DAY_RANGES);
    out.param("min_rounds", MIN_ROUNDS);
    out.param("warm_up_batches", DAY_RANGES as usize * BATCHES_PER_RANGE);
    out.param(
        "round_policy",
        "flush round, purge, tier sweep, report query",
    );

    let pool = gen::day_range_pool(ctx.seed, BATCHES_PER_RANGE, BATCH_ROWS);
    let dir = ctx.dir.join("durable");
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(set_up(&pool, &dir)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    out.set("setup_s", Samples::new(setup_s).median());
    out.param("tier_budget_bytes", setup.budget);

    let tier_before = setup.engine.tier_stats().unwrap_or_default();
    let flush_before = setup.ctl.metrics_report();
    let agg_before = setup
        .engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    let clock = Clock::starting_now(ctx.seconds);
    let mut tracer = Tracer::new(clock.origin, 1);
    let mut run = setup.warm.continued();
    ingest(&mut setup, &pool, &mut run, &clock, &mut tracer, ctx.trace)?;
    let elapsed_s = clock.origin.elapsed().as_secs_f64();
    let engine = &setup.engine;
    let tier = engine.tier_stats().unwrap_or_default();
    let agg_after = engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    let memory = engine.memory();
    let flush_report = setup.ctl.metrics_report();
    // The report query reloads, and so deletes, every snapshot: the
    // tier's share of the disk is taken at its post-sweep high point.
    let disk_bytes = dir_bytes(&dir.join("wal")) + run.max_spilled_file_bytes;

    let recovered = Engine::new(SHARDS);
    recovered
        .create_cube(gen::dataset().schema())
        .map_err(|e| format!("create cube: {e}"))?;
    let started = Instant::now();
    let report = tracer
        .span("wal.recover_into", 0, None, |_, _| {
            recover_into(&dir.join("wal"), &recovered)
        })
        .map_err(|e| format!("recovery: {e}"))?;
    let recovery_s = started.elapsed().as_secs_f64();
    if report.rows_recovered != run.ever || report.gaps_detected != 0 {
        return Err(format!(
            "recovery replayed {} of {} loaded rows ({} gaps)",
            report.rows_recovered, run.ever, report.gaps_detected
        ));
    }
    check_sum(&recovered, run.live(), "after recovery")?;

    let rows = run.live().0 as f64;
    out.attempted = (run.load_ms.len() + run.query_ms.len()) as u64 + run.rounds + run.deletes + 1;
    out.latency("query_ms_p50", "query_ms_p99", &run.query_ms);
    out.latency("load_ms_p50", "load_ms_p99", &run.load_ms);
    out.latency("durable_ms_p50", "durable_ms_p99", &run.durable_ms);
    out.set(
        "mem_bytes_per_row",
        (memory.data_bytes + memory.aosi_bytes + memory.dictionary_bytes) as f64 / rows,
    );
    out.set("ingest_rows_per_s", run.loaded as f64 / elapsed_s);
    out.set("disk_bytes_per_row", disk_bytes as f64 / rows);
    out.set("recovery_s", recovery_s);
    let dataset = (memory.data_bytes + memory.aosi_bytes) as u64 + tier.spilled_resident_bytes;
    if dataset < DATASET_OVER_BUDGET * setup.budget {
        out.invalid = Some(format!(
            "dataset {dataset} B is under {DATASET_OVER_BUDGET}x the {} B budget",
            setup.budget
        ));
    }

    let stats = &run.query_stats;
    let sum = |f: fn(&QueryStats) -> u64| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    out.set(
        "engine.scan_ns_per_row",
        ratio(sum(|s| s.scan_nanos), sum(|s| s.rows_scanned)),
    );
    out.set(
        "engine.rows_scanned_per_query",
        sum(|s| s.rows_scanned) / stats.len() as f64,
    );
    let agg_hits = sum(|s| s.agg_cache_hits);
    out.set(
        "cache.agg_hit_ratio",
        ratio(agg_hits, agg_hits + sum(|s| s.agg_cache_misses)),
    );
    let vis_hits = sum(|s| s.vis_cache_hits);
    out.set(
        "cache.vis_hit_ratio",
        ratio(vis_hits, vis_hits + sum(|s| s.vis_cache_misses)),
    );
    out.set(
        "cache.agg_evictions",
        (agg_after.evictions - agg_before.evictions) as f64,
    );
    out.set("aosi.bytes_per_row", memory.aosi_bytes as f64 / rows);
    out.set(
        "aosi.mvcc_bytes_per_row",
        memory.mvcc_baseline_bytes as f64 / rows,
    );
    load_stage_metrics(&mut out, &run.timings);
    let rounds = run.rounds as f64;
    out.set(
        "wal.bytes_per_row",
        run.wal_bytes as f64 / run.loaded as f64,
    );
    let syncs =
        |report: &str| flush_counter(report, "file_syncs") + flush_counter(report, "dir_syncs");
    out.set(
        "wal.syncs_per_round",
        (syncs(&flush_report) - syncs(&flush_before)) / rounds,
    );
    out.set(
        "recovery.rows_per_s",
        report.rows_recovered as f64 / recovery_s,
    );
    let delta = |f: fn(&TierStats) -> u64| (f(&tier) - f(&tier_before)) as f64 / rounds;
    out.set("tier.spills_per_round", delta(|t| t.spills));
    out.set("tier.reloads_per_round", delta(|t| t.reloads));
    out.set(
        "tier.spill_bytes_per_row",
        run.max_spilled_file_bytes as f64 / rows,
    );
    out.set(
        "tier.max_resident_over_budget",
        run.max_resident_after as f64 / setup.budget as f64,
    );
    out.set(
        "purge.entries_reclaimed_per_cycle",
        run.purges
            .iter()
            .map(|p| p.entries_reclaimed as f64)
            .sum::<f64>()
            / rounds,
    );

    if ctx.trace {
        let spans: Vec<Span> = tracer.into_spans();
        let selfs = trace::self_times(&spans);
        let rounds_ms = trace::self_ms(&spans, &selfs, "wal.flush_round");
        out.set("wal.round_ms_p50", rounds_ms.median());
        out.set(
            "wal.round_ms_p99",
            rounds_ms.tail().map_or(0.0, |t| t.value),
        );
        out.set(
            "tier.sweep_ms_p50",
            trace::self_ms(&spans, &selfs, "tier.sweep").median(),
        );
        out.set(
            "purge.ms_p50",
            trace::self_ms(&spans, &selfs, "engine.purge").median(),
        );
        out.set(
            "engine.query_ms_p50",
            trace::self_ms(&spans, &selfs, "engine.query").median(),
        );
        out.set(
            "trace.overhead_ratio",
            ratio(
                latencies(&run.query_ms, true).median(),
                latencies(&run.query_ms, false).median(),
            ),
        );
        out.spans = spans;
    }
    out.notes.push(format!(
        "{} rows loaded in {} rounds over {elapsed_s:.2} s, {rows} live; budget {} B, \
         dataset {dataset} B; {} spills, {} reloads; recovery replayed {} rounds",
        run.loaded,
        run.rounds,
        setup.budget,
        tier.spills - tier_before.spills,
        tier.reloads - tier_before.reloads,
        report.rounds_applied
    ));
    drop(setup);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
