//! `dashboard_http`: an in-process `Server` over a preloaded wide cube,
//! driven by two keep-alive connections at a fixed request rate.
//!
//! Each connection sends an open-loop schedule of fixed dashboard
//! SELECT texts, every tenth request a small INSERT, and every latency
//! is timed from the request's due time. Connection 0 reads through a
//! pinned session, re-pinned to the latest epoch every
//! `REPIN_EVERY` requests; connection 1 reads the latest epoch. The
//! panels' partials fit the default aggregate-cache capacity of 1024,
//! so the front door, SQL parsing, admission, dedup and the cache do
//! the work and the scan kernel little.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cubrick::sql::{self, Statement};
use cubrick::Engine;
use server::client::Client;
use server::json::{obj, Json};
use server::{Server, ServerConfig, ServerHandle};
use workload::Dataset;

use crate::gen::{self, DashRequest, Stream, CUBE};
use crate::stats::{latencies, ratio, Samples, Timed};
use crate::trace::{self, Span, Tracer};
use crate::{ms, wait_until, Clock, Ctx, Outcome, SETUP_REPS, SHARDS};

const PRELOAD_ROWS: usize = 200_000;
const PRELOAD_BATCH: usize = 5_000;
const CONNECTIONS: u64 = 2;
/// Requests per second on each connection.
const REQUESTS_PER_S: u32 = 100;
const INSERT_ROWS: usize = 5;
const INSERT_POOL: usize = 64;
const REPIN_EVERY: usize = 50;

/// Dashboard tiles: mostly one week of `day` by one `bucket` range, 16
/// bricks each, and one 64-brick tile; 144 partials in all. Filters
/// name integer dimensions only, so each tile's brick count does not
/// depend on the order the seed fills the string dictionaries in.
const PANELS: &[&str] = &[
    "SELECT SUM(m0), COUNT(*) FROM wide WHERE day IN (0, 1, 2, 3, 4, 5, 6, 7) AND bucket IN (0, 1, 2, 3)",
    "SELECT SUM(m1) FROM wide WHERE day IN (8, 9, 10, 11, 12, 13, 14, 15) AND bucket IN (64, 65) GROUP BY platform",
    "SELECT AVG(f0) FROM wide WHERE day IN (16, 17, 18, 19, 20, 21, 22, 23) AND bucket IN (128, 129) GROUP BY region",
    "SELECT MIN(m2), MAX(m2) FROM wide WHERE day IN (24, 25, 26, 27, 28, 29, 30, 31) AND bucket IN (192, 193)",
    "SELECT SUM(m3) FROM wide WHERE day IN (32, 33, 34, 35, 36, 37, 38, 39) AND bucket IN (0, 1, 2, 3) GROUP BY hour ORDER BY SUM(m3) DESC LIMIT 3",
    "SELECT COUNT(*) FROM wide WHERE day IN (40, 41, 42, 43, 44, 45, 46, 47) GROUP BY platform",
];

struct Setup {
    engine: Arc<Engine>,
    server: ServerHandle,
    clients: Vec<Client>,
    session: u64,
    rows: u64,
    m0: f64,
}

fn post(client: &mut Client, path: &str, body: Option<&Json>) -> Result<Json, String> {
    let response = client
        .request("POST", path, body)
        .map_err(|e| format!("{path}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "{path}: status {}: {}",
            response.status, response.body
        ));
    }
    response.json()
}

fn pin(client: &mut Client, session: u64) -> Result<u64, String> {
    let pinned = post(
        client,
        "/session/pin",
        Some(&obj([("session", Json::num(session as f64))])),
    )?;
    pinned
        .get("epoch")
        .and_then(Json::as_f64)
        .map(|e| e as u64)
        .ok_or_else(|| "pin answer has no epoch".to_owned())
}

fn set_up(preload: &[gen::Batch]) -> Result<Setup, String> {
    let engine = Arc::new(Engine::new(SHARDS));
    engine
        .create_cube(gen::dataset().schema())
        .map_err(|e| format!("create cube: {e}"))?;
    let (mut rows, mut m0) = (0, 0.0);
    for batch in preload.iter().cycle().take(PRELOAD_ROWS / PRELOAD_BATCH) {
        engine
            .load(CUBE, &batch.rows, 0)
            .map_err(|e| format!("preload: {e}"))?;
        rows += batch.rows.len() as u64;
        m0 += batch.m0_sum;
    }
    engine.advance_lse_and_purge();
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let session = post(&mut clients[0], "/session", None)?
        .get("session")
        .and_then(Json::as_f64)
        .ok_or("session answer has no id")? as u64;
    pin(&mut clients[0], session)?;
    Ok(Setup {
        engine,
        server,
        clients,
        session,
        rows,
        m0,
    })
}

fn tear_down(setup: Setup) {
    // Closing the connections first lets their server threads end.
    drop(setup.clients);
    setup.server.shutdown();
}

/// A SELECT answer kept for the check against the embedded engine.
struct Answer {
    panel: usize,
    epoch: u64,
    rows: String,
}

#[derive(Default)]
struct ConnReport {
    select_ms: Vec<Timed>,
    insert_ms: Vec<Timed>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    inserted_rows: u64,
    inserted_m0: f64,
    /// One pinned answer per (panel, epoch).
    answers: Vec<Answer>,
    /// Per traced SELECT: round trip minus embedded parse + execute.
    server_self_ms: Vec<f64>,
    spans: Vec<Span>,
}

struct Inputs<'a> {
    engine: &'a Engine,
    inserts: &'a [(String, gen::Batch)],
    clock: &'a Clock,
    trace: bool,
}

fn connection(
    conn: u64,
    client: &mut Client,
    session: Option<u64>,
    schedule: &[DashRequest],
    inputs: &Inputs,
) -> Result<ConnReport, String> {
    let clock = inputs.clock;
    let period = Duration::from_secs(1) / REQUESTS_PER_S;
    // The two connections' schedules interleave.
    let offset = period / CONNECTIONS as u32 * conn as u32;
    let mut tracer = Tracer::new(clock.origin, 1 + conn);
    let mut report = ConnReport::default();
    let mut seen = BTreeSet::new();
    for (j, &request) in schedule.iter().enumerate() {
        let due = clock.origin + offset + period * j as u32;
        if due >= clock.end {
            break;
        }
        if let Some(session) = session {
            if j % REPIN_EVERY == REPIN_EVERY - 1 {
                report.attempted += 1;
                pin(client, session)?;
            }
        }
        report.late_ms.push(ms(wait_until(due)));
        let traced = inputs.trace && j % 2 == 0;
        tracer.set_enabled(traced);
        let id = (conn << 32) | j as u64;
        report.attempted += 1;
        let (sql, name) = match request {
            DashRequest::Panel(p) => (PANELS[p], "server.roundtrip"),
            DashRequest::Insert(k) => (inputs.inserts[k].0.as_str(), "server.insert"),
        };
        let started = Instant::now();
        let response = tracer
            .span(name, id, None, |_, _| client.query(sql, session))
            .map_err(|e| format!("request: {e}"))?;
        let roundtrip_ms = ms(started.elapsed());
        let latency = clock.timed(due, traced);
        if response.status != 200 {
            report.failed += 1;
            report.rejected += u64::from(response.status == 429);
            continue;
        }
        let panel = match request {
            DashRequest::Panel(panel) => panel,
            DashRequest::Insert(k) => {
                report.insert_ms.push(latency);
                report.inserted_rows += inputs.inserts[k].1.rows.len() as u64;
                report.inserted_m0 += inputs.inserts[k].1.m0_sum;
                continue;
            }
        };
        report.select_ms.push(latency);
        let body = response.json()?;
        let epoch = body
            .get("epoch")
            .and_then(Json::as_f64)
            .ok_or("SELECT answer has no epoch")? as u64;
        if session.is_some() && seen.insert((panel, epoch)) {
            let rows = body
                .get("rows")
                .ok_or("SELECT answer has no rows")?
                .render();
            report.answers.push(Answer { panel, epoch, rows });
        }
        if traced {
            // Replay the statement embedded at the answer's epoch.
            let embedded_ms = tracer.span("sql.replay", id, None, |t, parent| {
                let started = Instant::now();
                let parsed = t
                    .span("sql.parse", id, parent, |_, _| sql::parse(sql))
                    .map_err(|e| format!("replay parse: {e}"))?;
                let Statement::Select { cube, query, .. } = parsed else {
                    return Err("panel is not a SELECT".to_owned());
                };
                let statement = Statement::Select {
                    cube,
                    query,
                    as_of: Some(epoch),
                };
                t.span("sql.execute", id, parent, |_, _| {
                    sql::execute_statement(inputs.engine, statement)
                })
                .map_err(|e| format!("replay execute: {e}"))?;
                Ok(ms(started.elapsed()))
            })?;
            report.server_self_ms.push(roundtrip_ms - embedded_ms);
        }
    }
    report.spans = tracer.into_spans();
    Ok(report)
}

/// Renders an embedded SELECT's rows the way the server does.
fn expected_rows(engine: &Engine, panel: &Statement, epoch: u64) -> Result<String, String> {
    let Statement::Select { cube, query, .. } = panel else {
        return Err("panel is not a SELECT".to_owned());
    };
    let outcome = sql::execute_select(engine, cube, query, Some(epoch))
        .map_err(|e| format!("embedded SELECT at epoch {epoch}: {e}"))?;
    let rows = outcome
        .rows
        .iter()
        .map(|(keys, values)| {
            let mut cells: Vec<Json> = keys
                .iter()
                .map(|k| match k {
                    columnar::Value::Str(s) => Json::str(s.as_str()),
                    columnar::Value::I64(i) => Json::num(*i as f64),
                    columnar::Value::F64(f) => Json::num(*f),
                })
                .collect();
            cells.extend(values.iter().map(|&v| Json::num(v)));
            Json::Arr(cells)
        })
        .collect();
    Ok(Json::Arr(rows).render())
}

/// One `name = value` line of a `/metrics` section.
fn metric(report: &str, section: &str, name: &str) -> Result<f64, String> {
    let header = format!("[{section}]");
    report
        .lines()
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(" = "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("/metrics has no {section}.{name}"))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.param("shards", SHARDS);
    out.param("preload_rows", PRELOAD_ROWS);
    out.param("connections", CONNECTIONS);
    out.param("requests_per_s_per_connection", REQUESTS_PER_S);
    out.param("insert_every", gen::INSERT_EVERY);
    out.param("insert_rows", INSERT_ROWS);
    out.param("repin_every", REPIN_EVERY);
    out.param("panels", PANELS.len());

    let preload = gen::uniform_pool(ctx.seed, Stream::Preload, 8, PRELOAD_BATCH);
    let inserts: Vec<(String, gen::Batch)> =
        gen::uniform_pool(ctx.seed, Stream::Insert, INSERT_POOL, INSERT_ROWS)
            .into_iter()
            .map(|b| (gen::insert_sql(&b.rows), b))
            .collect();
    let panels = PANELS
        .iter()
        .map(|text| sql::parse(text).map_err(|e| format!("panel {text}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let per_conn = (REQUESTS_PER_S as u64 * ctx.seconds.as_secs() + 1) as usize;
    let schedules: Vec<Vec<DashRequest>> = (0..CONNECTIONS)
        .map(|c| gen::dashboard_schedule(ctx.seed, c, per_conn, PANELS.len(), INSERT_POOL))
        .collect();

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = setup.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        setup = Some(set_up(&preload)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    out.set("setup_s", Samples::new(setup_s).median());

    let engine = Arc::clone(&setup.engine);
    let agg_before = engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    let vis_before = engine
        .visibility_cache_stats()
        .expect("the default scan config has a visibility cache");
    let clock = Clock::starting_now(ctx.seconds);
    let inputs = Inputs {
        engine: &engine,
        inserts: &inserts,
        clock: &clock,
        trace: ctx.trace,
    };
    let session = setup.session;
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (client, schedule))| {
                let inputs = &inputs;
                let pinned = (c == 0).then_some(session);
                s.spawn(move || connection(c as u64, client, pinned, schedule, inputs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let memory = engine.memory();
    let agg_after = engine
        .agg_cache_stats()
        .expect("the default scan config has an aggregate cache");
    let vis_after = engine
        .visibility_cache_stats()
        .expect("the default scan config has a visibility cache");
    let metrics_text = {
        let response = setup.clients[1]
            .request("GET", "/metrics", None)
            .map_err(|e| format!("/metrics: {e}"))?;
        response.body
    };

    // Answer checks: every pinned panel answer against the embedded
    // engine at the same epoch, then the quiescent totals.
    let mut checked = 0;
    for report in &reports {
        for answer in &report.answers {
            let want = expected_rows(&engine, &panels[answer.panel], answer.epoch)?;
            if want != answer.rows {
                return Err(format!(
                    "panel {} at epoch {}: server answered {}, embedded engine {want}",
                    answer.panel, answer.epoch, answer.rows
                ));
            }
            checked += 1;
        }
    }
    let totals = sql::execute_select(&engine, CUBE, &gen::totals_query(), None)
        .map_err(|e| format!("totals: {e}"))?;
    let want_rows = setup.rows + reports.iter().map(|r| r.inserted_rows).sum::<u64>();
    let want_m0 = setup.m0 + reports.iter().map(|r| r.inserted_m0).sum::<f64>();
    let (got_m0, got_rows) = (totals.rows[0].1[0], totals.rows[0].1[1]);
    if got_rows != want_rows as f64 || got_m0 != want_m0 {
        return Err(format!(
            "quiescent COUNT/SUM = {got_rows}/{got_m0}, inserted {want_rows}/{want_m0}"
        ));
    }
    tear_down(setup);

    let all = |f: fn(&ConnReport) -> &Vec<Timed>| -> Vec<Timed> {
        reports.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let selects = all(|r| &r.select_ms);
    out.latency("query_ms_p50", "query_ms_p99", &selects);
    out.latency("load_ms_p50", "load_ms_p99", &all(|r| &r.insert_ms));
    let rows = memory.rows as f64;
    out.set(
        "mem_bytes_per_row",
        (memory.data_bytes + memory.aosi_bytes + memory.dictionary_bytes) as f64 / rows,
    );
    out.attempted = reports.iter().map(|r| r.attempted).sum();
    out.failed = reports.iter().map(|r| r.failed).sum();
    let late = Samples::new(reports.iter().flat_map(|r| r.late_ms.clone()).collect());
    out.check_lateness("dashboard connections", &late);
    out.set("gen.late_ms_p99", late.tail().map_or(0.0, |t| t.value));

    out.set(
        "server.admission_wait_ms_p99",
        metric(&metrics_text, "server.admission", "queue_wait_nanos.p99")? / 1e6,
    );
    let leaders = metric(&metrics_text, "server.dedup", "leaders")?;
    let followers = metric(&metrics_text, "server.dedup", "followers")?;
    out.set(
        "server.dedup_shared_ratio",
        ratio(followers, leaders + followers),
    );
    out.set(
        "server.rejected_ratio",
        ratio(
            reports.iter().map(|r| r.rejected as f64).sum(),
            out.attempted as f64,
        ),
    );
    let hits = (agg_after.hits - agg_before.hits) as f64;
    let misses = (agg_after.misses - agg_before.misses) as f64;
    out.set("cache.agg_hit_ratio", ratio(hits, hits + misses));
    out.set(
        "cache.agg_evictions",
        (agg_after.evictions - agg_before.evictions) as f64,
    );
    let hits = (vis_after.hits - vis_before.hits) as f64;
    let misses = (vis_after.misses - vis_before.misses) as f64;
    out.set("cache.vis_hit_ratio", ratio(hits, hits + misses));
    out.set("aosi.bytes_per_row", memory.aosi_bytes as f64 / rows);
    out.set(
        "aosi.mvcc_bytes_per_row",
        memory.mvcc_baseline_bytes as f64 / rows,
    );

    if ctx.trace {
        let spans: Vec<Span> = reports.iter().flat_map(|r| r.spans.clone()).collect();
        let selfs = trace::self_times(&spans);
        out.set(
            "server.roundtrip_ms_p50",
            trace::self_ms(&spans, &selfs, "server.roundtrip").median(),
        );
        out.set(
            "server.self_ms_p50",
            Samples::new(
                reports
                    .iter()
                    .flat_map(|r| r.server_self_ms.clone())
                    .collect(),
            )
            .median(),
        );
        out.set(
            "sql.parse_us_p50",
            trace::self_ms(&spans, &selfs, "sql.parse").median() * 1e3,
        );
        out.set(
            "sql.execute_ms_p50",
            trace::self_ms(&spans, &selfs, "sql.execute").median(),
        );
        out.set(
            "trace.overhead_ratio",
            ratio(
                latencies(&selects, true).median(),
                latencies(&selects, false).median(),
            ),
        );
        out.spans = spans;
    }
    out.notes.push(format!(
        "{} SELECTs, {} INSERTs, {} pinned answers checked; {} rows at the end",
        selects.len(),
        all(|r| &r.insert_ms).len(),
        checked,
        memory.rows
    ));
    Ok(out)
}
