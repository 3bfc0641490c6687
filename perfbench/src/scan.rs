//! `scan_under_ingest`: snapshot-isolated scans of the embedded engine
//! while a loader appends at a fixed rate.
//!
//! One closed-loop query thread runs a fixed battery (full scan,
//! filtered, grouped), each query under SI and then under RU, so the
//! paper's read-uncommitted baseline (Figs 8/9) is measured in the same
//! run. One open-loop loader thread appends a batch that touches most
//! of the 512 bricks on every tick, keeps a sliding window of open
//! explicit writers (so snapshots have pending epochs above them to
//! exclude while the LSE still advances), and calls
//! `advance_lse_and_purge` every `PURGE_EVERY` ticks. The caches key on
//! the snapshot epoch, which moves with every commit, so they mostly
//! miss and visibility, the scan kernel and the shard fan-out do the
//! work. Filters name integer dimensions only: string coordinates
//! follow dictionary order, which changes with the seed, and would make
//! a query's brick count seed-dependent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use columnar::Value;
use cubrick::{
    AggFn, Aggregation, DimFilter, Engine, IsolationMode, LoadStageTimings, PurgeStats, Query,
    QueryStats,
};
use workload::Dataset;

use crate::gen::{self, Batch, Stream, CUBE};
use crate::stats::{latencies, ratio, Samples, Timed};
use crate::trace::{self, Span, Tracer};
use crate::{ms, wait_until, Clock, Ctx, Outcome, SETUP_REPS, SHARDS};

const PRELOAD_ROWS: usize = 250_000;
const PRELOAD_BATCH: usize = 5_000;
/// Rows per loader tick: about 86% of the 512 bricks get a row.
const LOAD_BATCH: usize = 1_000;
const LOADS_PER_S: u32 = 25;
/// Explicit writers the loader keeps open at once.
const WRITER_WINDOW: usize = 4;
const WRITER_ROWS: usize = 20;
const PURGE_EVERY: u64 = 10;

/// Full scan, filtered (16 of 64 days: 128 bricks), grouped.
fn battery() -> Vec<Query> {
    vec![
        gen::totals_query(),
        Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "m1"),
            Aggregation::new(AggFn::Avg, "f0"),
        ])
        .filter(DimFilter::new("day", (0..16).map(Value::from).collect())),
        Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "m2"),
            Aggregation::new(AggFn::Count, ""),
        ])
        .grouped_by("day"),
    ]
}

/// Rows and `m0` total committed so far.
#[derive(Clone, Copy, Default)]
struct Totals {
    rows: u64,
    m0: f64,
}

impl Totals {
    fn add(&mut self, batch: &Batch) {
        self.rows += batch.rows.len() as u64;
        self.m0 += batch.m0_sum;
    }
}

struct Setup {
    engine: Engine,
    window: VecDeque<(aosi::Txn, usize)>,
    committed: Totals,
}

fn set_up(preload: &[Batch], writers: &[Batch]) -> Result<Setup, String> {
    let engine = Engine::new(SHARDS);
    engine
        .create_cube(gen::dataset().schema())
        .map_err(|e| format!("create cube: {e}"))?;
    let mut committed = Totals::default();
    for batch in preload.iter().cycle().take(PRELOAD_ROWS / PRELOAD_BATCH) {
        engine
            .load(CUBE, &batch.rows, 0)
            .map_err(|e| format!("preload: {e}"))?;
        committed.add(batch);
    }
    engine.advance_lse_and_purge();
    let mut window = VecDeque::new();
    for (i, writer) in writers.iter().enumerate().take(WRITER_WINDOW) {
        let txn = engine.begin();
        engine
            .append(CUBE, &writer.rows, &txn)
            .map_err(|e| format!("writer append: {e}"))?;
        window.push_back((txn, i));
    }
    Ok(Setup {
        engine,
        window,
        committed,
    })
}

fn check_totals(
    engine: &Engine,
    want: Totals,
    when: &str,
    modes: &[IsolationMode],
) -> Result<(), String> {
    for &mode in modes {
        let got = engine
            .query(CUBE, &gen::totals_query(), mode)
            .map_err(|e| format!("{when}: check query: {e}"))?;
        let (sum, count) = (got.rows[0].1[0], got.rows[0].1[1]);
        if count != want.rows as f64 || sum != want.m0 {
            return Err(format!(
                "{when}: {mode:?} COUNT/SUM = {count}/{sum}, committed {}/{}",
                want.rows, want.m0
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
struct LoaderReport {
    load_ms: Vec<Timed>,
    late_ms: Vec<f64>,
    timings: Vec<LoadStageTimings>,
    purges: Vec<PurgeStats>,
    committed: Totals,
    loads: u64,
    spans: Vec<Span>,
}

fn loader(
    engine: &Engine,
    pools: (&[Batch], &[Batch]),
    mut window: VecDeque<(aosi::Txn, usize)>,
    mut committed: Totals,
    clock: &Clock,
    trace: bool,
) -> Result<LoaderReport, String> {
    let (pool, writers) = pools;
    let mut tracer = Tracer::new(clock.origin, 1);
    let period = Duration::from_secs(1) / LOADS_PER_S;
    let mut report = LoaderReport::default();
    for tick in 0u64.. {
        let due = clock.origin + period * tick as u32;
        if due >= clock.end {
            break;
        }
        report.late_ms.push(ms(wait_until(due)));
        let traced = trace && tick % 2 == 0;
        tracer.set_enabled(traced);
        let batch = &pool[tick as usize % pool.len()];
        let outcome = tracer
            .span("engine.load", tick, None, |_, _| {
                engine.load(CUBE, &batch.rows, 0)
            })
            .map_err(|e| format!("load: {e}"))?;
        report.load_ms.push(clock.timed(due, traced));
        report.timings.push(outcome.timings);
        committed.add(batch);
        report.loads += 1;

        let next = (tick as usize + WRITER_WINDOW) % writers.len();
        let txn = engine.begin();
        engine
            .append(CUBE, &writers[next].rows, &txn)
            .map_err(|e| format!("writer append: {e}"))?;
        window.push_back((txn, next));
        let (oldest, rows) = window.pop_front().expect("window is never empty");
        engine
            .commit(&oldest)
            .map_err(|e| format!("writer commit: {e}"))?;
        committed.add(&writers[rows]);

        if (tick + 1) % PURGE_EVERY == 0 {
            tracer.set_enabled(trace);
            let stats = tracer.span("engine.purge", tick, None, |_, _| {
                engine.advance_lse_and_purge()
            });
            report.purges.push(stats);
        }
    }
    for (txn, rows) in window {
        engine
            .commit(&txn)
            .map_err(|e| format!("writer commit: {e}"))?;
        committed.add(&writers[rows]);
    }
    report.committed = committed;
    report.spans = tracer.into_spans();
    Ok(report)
}

#[derive(Default)]
struct QueryReport {
    si_ms: Vec<Timed>,
    ru_ms: Vec<Timed>,
    si_stats: Vec<QueryStats>,
    ru_stats: Vec<QueryStats>,
    spans: Vec<Span>,
}

fn querier(
    engine: &Engine,
    clock: &Clock,
    stop: &AtomicBool,
    trace: bool,
) -> Result<QueryReport, String> {
    let mut tracer = Tracer::new(clock.origin, 2);
    let battery = battery();
    let mut report = QueryReport::default();
    let mut last_count = 0.0;
    for round in 0u64.. {
        if Instant::now() >= clock.end || stop.load(Ordering::Relaxed) {
            break;
        }
        let traced = trace && round % 2 == 0;
        tracer.set_enabled(traced);
        for (i, query) in battery.iter().enumerate() {
            let request = round * 8 + i as u64;
            let started = Instant::now();
            let si = tracer
                .span("engine.query", request, None, |_, _| {
                    engine.query(CUBE, query, IsolationMode::Snapshot)
                })
                .map_err(|e| format!("SI query: {e}"))?;
            report.si_ms.push(clock.timed(started, traced));
            if i == 0 {
                // Snapshots only move forward: a later SI count never
                // drops below an earlier one.
                let count = si.rows[0].1[1];
                if count < last_count {
                    return Err(format!("SI count fell from {last_count} to {count}"));
                }
                last_count = count;
            }
            report.si_stats.push(si.stats);

            let started = Instant::now();
            let ru = engine
                .query(CUBE, query, IsolationMode::ReadUncommitted)
                .map_err(|e| format!("RU query: {e}"))?;
            report.ru_ms.push(clock.timed(started, traced));
            report.ru_stats.push(ru.stats);
        }
        if traced {
            // The split path through the public partials API, for the
            // fan-out and finalize spans.
            let query = &battery[round as usize / 2 % battery.len()];
            let request = round * 8 + 7;
            tracer.span("engine.query_split", request, None, |t, parent| {
                let guard = engine.manager().begin_read();
                let partials = t
                    .span("engine.partials", request, parent, |_, _| {
                        engine.query_brick_partials(CUBE, query, guard.snapshot())
                    })
                    .map_err(|e| format!("partials: {e}"))?;
                t.span("engine.finalize", request, parent, |_, _| {
                    engine.finalize_partials(CUBE, query, partials)
                })
                .map_err(|e| format!("finalize: {e}"))
            })?;
        }
    }
    report.spans = tracer.into_spans();
    Ok(report)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.param("shards", SHARDS);
    out.param("preload_rows", PRELOAD_ROWS);
    out.param("load_batch_rows", LOAD_BATCH);
    out.param("loads_per_s", LOADS_PER_S);
    out.param("writer_window", WRITER_WINDOW);
    out.param("writer_rows", WRITER_ROWS);
    out.param("purge_every_loads", PURGE_EVERY);

    let preload = gen::uniform_pool(ctx.seed, Stream::Preload, 8, PRELOAD_BATCH);
    let pool = gen::uniform_pool(ctx.seed, Stream::Loader, 32, LOAD_BATCH);
    let writers = gen::uniform_pool(ctx.seed, Stream::Writer, 16, WRITER_ROWS);

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(set_up(&preload, &writers)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Setup {
        engine,
        window,
        committed,
    } = setup.expect("at least one set-up");
    // The window's writers are open: SI must see the preload alone.
    check_totals(
        &engine,
        committed,
        "after preload",
        &[IsolationMode::Snapshot],
    )?;
    out.set("setup_s", Samples::new(setup_s).median());

    let agg_before = engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    let clock = Clock::starting_now(ctx.seconds);
    let stop = AtomicBool::new(false);
    let (loaded, queried) = std::thread::scope(|s| {
        let loader = s.spawn(|| {
            let result = loader(
                &engine,
                (&pool, &writers),
                window,
                committed,
                &clock,
                ctx.trace,
            );
            stop.store(true, Ordering::Relaxed);
            result
        });
        let queries = s.spawn(|| querier(&engine, &clock, &stop, ctx.trace));
        (
            loader.join().expect("loader thread panicked"),
            queries.join().expect("query thread panicked"),
        )
    });
    let loaded = loaded?;
    let queried = queried?;
    let memory = engine.memory();
    let agg_after = engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    check_totals(
        &engine,
        loaded.committed,
        "at the quiescent checkpoint",
        &[IsolationMode::Snapshot, IsolationMode::ReadUncommitted],
    )?;

    out.attempted = loaded.loads + (queried.si_ms.len() + queried.ru_ms.len()) as u64;
    let si = latencies(&queried.si_ms, false);
    let ru = latencies(&queried.ru_ms, false);
    out.latency("query_ms_p50", "query_ms_p99", &queried.si_ms);
    out.latency("load_ms_p50", "load_ms_p99", &loaded.load_ms);
    out.set("query_ru_ms_p50", ru.median());
    let rows = memory.rows as f64;
    out.set(
        "mem_bytes_per_row",
        (memory.data_bytes + memory.aosi_bytes + memory.dictionary_bytes) as f64 / rows,
    );
    let late = Samples::new(loaded.late_ms.clone());
    out.check_lateness("loader", &late);

    // Layer metrics from the stats structs the calls return.
    let sum = |stats: &[QueryStats], f: fn(&QueryStats) -> u64| -> f64 {
        stats.iter().map(|s| f(s) as f64).sum()
    };
    let all: Vec<QueryStats> = queried
        .si_stats
        .iter()
        .chain(&queried.ru_stats)
        .copied()
        .collect();
    let si_n = queried.si_stats.len() as f64;
    let si_stats = &queried.si_stats;
    out.set(
        "engine.scan_ns_per_row",
        ratio(sum(&all, |s| s.scan_nanos), sum(&all, |s| s.rows_scanned)),
    );
    out.set(
        "engine.rows_scanned_per_query",
        sum(si_stats, |s| s.rows_scanned) / si_n,
    );
    let pruned = sum(si_stats, |s| s.bricks_pruned);
    out.set(
        "engine.bricks_pruned_ratio",
        ratio(pruned, pruned + sum(si_stats, |s| s.bricks_scanned)),
    );
    out.set(
        "shard.tasks_per_query",
        sum(si_stats, |s| s.parallel_tasks) / si_n,
    );
    out.set(
        "aosi.visibility_ms_per_query",
        sum(si_stats, |s| s.visibility_build_nanos) / si_n / 1e6,
    );
    out.set("aosi.si_minus_ru_ms_p50", si.median() - ru.median());
    out.set("aosi.bytes_per_row", memory.aosi_bytes as f64 / rows);
    out.set(
        "aosi.mvcc_bytes_per_row",
        memory.mvcc_baseline_bytes as f64 / rows,
    );
    let vis_hits = sum(si_stats, |s| s.vis_cache_hits);
    out.set(
        "cache.vis_hit_ratio",
        ratio(vis_hits, vis_hits + sum(si_stats, |s| s.vis_cache_misses)),
    );
    let agg_hits = sum(si_stats, |s| s.agg_cache_hits);
    out.set(
        "cache.agg_hit_ratio",
        ratio(agg_hits, agg_hits + sum(si_stats, |s| s.agg_cache_misses)),
    );
    out.set(
        "cache.agg_evictions",
        (agg_after.evictions - agg_before.evictions) as f64,
    );
    load_stage_metrics(&mut out, &loaded.timings);
    out.set(
        "purge.entries_reclaimed_per_cycle",
        loaded
            .purges
            .iter()
            .map(|p| p.entries_reclaimed as f64)
            .sum::<f64>()
            / loaded.purges.len().max(1) as f64,
    );
    out.set("gen.late_ms_p99", late.tail().map_or(0.0, |t| t.value));

    if ctx.trace {
        let spans: Vec<Span> = loaded.spans.into_iter().chain(queried.spans).collect();
        let selfs = trace::self_times(&spans);
        out.set(
            "engine.query_ms_p50",
            trace::self_ms(&spans, &selfs, "engine.query").median(),
        );
        out.set(
            "engine.partials_ms_p50",
            trace::self_ms(&spans, &selfs, "engine.partials").median(),
        );
        out.set(
            "engine.finalize_us_p50",
            trace::self_ms(&spans, &selfs, "engine.finalize").median() * 1e3,
        );
        out.set(
            "purge.ms_p50",
            trace::self_ms(&spans, &selfs, "engine.purge").median(),
        );
        // Wall time of the traced SI queries against the work their
        // shards report: below 1 is parallel gain.
        let wall: f64 = latencies(&queried.si_ms, true).sum();
        let work: f64 = queried
            .si_ms
            .iter()
            .zip(si_stats)
            .filter(|(op, _)| op.traced)
            .map(|(_, st)| (st.visibility_build_nanos + st.scan_nanos) as f64 / 1e6)
            .sum();
        out.set("shard.wall_per_work", ratio(wall, work));
        out.set(
            "trace.overhead_ratio",
            ratio(latencies(&queried.si_ms, true).median(), si.median()),
        );
        out.spans = spans;
    }
    let lse = &engine.manager().metrics();
    out.notes.push(format!(
        "{} SI and {} RU queries, {} loads, {} purge cycles ({} LSE advances granted, {} denied); \
         {} rows at the end",
        queried.si_ms.len(),
        queried.ru_ms.len(),
        loaded.loads,
        loaded.purges.len(),
        lse.lse_advances.get(),
        lse.lse_advances_denied.get(),
        memory.rows
    ));
    Ok(out)
}

/// `load.*` and `aosi.commit_us_p50` from the loads' stage timings.
pub fn load_stage_metrics(out: &mut Outcome, timings: &[LoadStageTimings]) {
    let stage = |f: fn(&LoadStageTimings) -> Duration| {
        Samples::new(timings.iter().map(|t| ms(f(t))).collect()).median()
    };
    out.set("load.parse_ms_p50", stage(|t| t.parse));
    out.set("load.apply_ms_p50", stage(|t| t.flush));
    out.set(
        "aosi.commit_us_p50",
        stage(|t| t.total.saturating_sub(t.parse + t.flush)) * 1e3,
    );
}
