//! Seeded input generators. The workload seed reaches only these
//! functions; the program under test sees their output and nothing
//! else.
//!
//! Batches are generated once per run into pools and then reused in a
//! fixed cycle, so the measured loops spend no time building rows and
//! every pool batch's row count and `m0` sum are known up front for the
//! answer checks.

use columnar::{Row, Value};
use cubrick::{AggFn, Aggregation, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::{Dataset, WideDataset};

/// The paper's 40-column dataset: 5 dimensions over 512 bricks, 30
/// integer and 5 float metrics.
pub fn dataset() -> WideDataset {
    WideDataset::default()
}

/// Cube name of [`dataset`].
pub const CUBE: &str = "wide";

/// Position of the `day` dimension in a row.
const DAY: usize = 2;
/// Position of the `platform` dimension in a row.
const PLATFORM: usize = 1;
/// Position of the `bucket` dimension in a row.
const BUCKET: usize = 4;
/// Buckets per `bucket` partition range in [`dataset`]'s schema.
const BUCKETS_PER_RANGE: i64 = 64;
/// Days per `day` partition range in [`dataset`]'s schema.
pub const DAYS_PER_RANGE: u32 = 8;
/// `day` partition ranges in [`dataset`]'s schema.
pub const DAY_RANGES: u32 = 8;
/// Position of the `m0` metric, the one the answer checks sum.
const M0: usize = 5;

/// One generated batch plus what the answer checks need to know.
pub struct Batch {
    pub rows: Vec<Row>,
    pub m0_sum: f64,
}

impl Batch {
    fn new(rows: Vec<Row>) -> Self {
        let m0_sum = rows.iter().map(m0).sum();
        Batch { rows, m0_sum }
    }
}

fn m0(row: &Row) -> f64 {
    match row[M0] {
        Value::I64(v) => v as f64,
        ref other => panic!("m0 must be an integer, got {other:?}"),
    }
}

fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Named generator streams, so pools of one run never share rows.
#[derive(Clone, Copy)]
pub enum Stream {
    Preload = 1,
    Loader = 2,
    Writer = 3,
    Insert = 4,
    Durable = 5,
    Schedule = 6,
}

/// `count` batches of `size` uniform rows over all bricks.
pub fn uniform_pool(seed: u64, stream: Stream, count: usize, size: usize) -> Vec<Batch> {
    let data = dataset();
    (0..count)
        .map(|i| {
            let mut rng = rng(seed, stream as u64, i as u64);
            Batch::new((0..size).map(|_| data.row(&mut rng)).collect())
        })
        .collect()
}

/// Time-ordered ingest: `per_range` batches of `size` rows for each
/// `day` partition range, every row of a batch inside its range, in
/// the first `bucket` range and on two of the four platforms, so a
/// batch touches the 8 bricks of one day range and the whole pool 64
/// bricks.
pub fn day_range_pool(seed: u64, per_range: usize, size: usize) -> Vec<Vec<Batch>> {
    let data = dataset();
    (0..DAY_RANGES)
        .map(|range| {
            (0..per_range)
                .map(|i| {
                    let mut rng = rng(
                        seed,
                        Stream::Durable as u64,
                        (range as usize * per_range + i) as u64,
                    );
                    let rows = (0..size)
                        .map(|_| {
                            let mut row = data.row(&mut rng);
                            let day = range * DAYS_PER_RANGE + rng.gen_range(0..DAYS_PER_RANGE);
                            row[DAY] = Value::I64(day as i64);
                            row[BUCKET] = Value::I64(rng.gen_range(0..BUCKETS_PER_RANGE));
                            row[PLATFORM] = Value::from(["web", "ios"][rng.gen_range(0..2usize)]);
                            row
                        })
                        .collect();
                    Batch::new(rows)
                })
                .collect()
        })
        .collect()
}

/// `SUM(m0), COUNT(*)` over the whole cube: the answer checks compare it
/// with the totals of what was committed.
pub fn totals_query() -> Query {
    Query::aggregate(vec![
        Aggregation::new(AggFn::Sum, "m0"),
        Aggregation::new(AggFn::Count, ""),
    ])
}

/// Renders a batch as one `INSERT` statement.
pub fn insert_sql(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Str(s) => format!("'{s}'"),
                    Value::I64(i) => i.to_string(),
                    Value::F64(f) => format!("{f:.4}"),
                })
                .collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO {CUBE} VALUES {}", tuples.join(", "))
}

/// One request of a dashboard connection's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DashRequest {
    /// A panel SELECT, by index into the panel set.
    Panel(usize),
    /// An INSERT, by index into the insert pool.
    Insert(usize),
}

/// Every `INSERT_EVERY`-th request of a connection is an INSERT.
pub const INSERT_EVERY: usize = 10;

/// The first `len` requests of dashboard connection `conn`: panels
/// drawn uniformly, every tenth request an INSERT.
pub fn dashboard_schedule(
    seed: u64,
    conn: u64,
    len: usize,
    panels: usize,
    inserts: usize,
) -> Vec<DashRequest> {
    let mut rng = rng(seed, Stream::Schedule as u64, conn);
    (0..len)
        .map(|j| {
            if j % INSERT_EVERY == INSERT_EVERY - 1 {
                DashRequest::Insert(rng.gen_range(0..inserts))
            } else {
                DashRequest::Panel(rng.gen_range(0..panels))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(pool: &[Batch]) -> Vec<String> {
        pool.iter().map(|b| format!("{:?}", b.rows)).collect()
    }

    #[test]
    fn uniform_pools_repeat_per_seed() {
        let a = uniform_pool(7, Stream::Loader, 3, 50);
        let b = uniform_pool(7, Stream::Loader, 3, 50);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = uniform_pool(8, Stream::Loader, 3, 50);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let d = uniform_pool(7, Stream::Writer, 3, 50);
        assert_ne!(fingerprint(&a), fingerprint(&d), "streams are independent");
    }

    #[test]
    fn batch_sums_match_their_rows() {
        for batch in uniform_pool(3, Stream::Preload, 4, 100) {
            let sum: f64 = batch.rows.iter().map(m0).sum();
            assert_eq!(batch.m0_sum, sum);
            assert_eq!(batch.rows.len(), 100);
        }
    }

    #[test]
    fn day_range_batches_stay_in_their_range_and_repeat() {
        let a = day_range_pool(11, 2, 40);
        let b = day_range_pool(11, 2, 40);
        assert_eq!(a.len(), DAY_RANGES as usize);
        for (range, (xs, ys)) in a.iter().zip(&b).enumerate() {
            assert_eq!(fingerprint(xs), fingerprint(ys));
            for row in xs.iter().flat_map(|b| &b.rows) {
                let Value::I64(day) = row[DAY] else {
                    panic!("day is an integer")
                };
                assert_eq!(day as u32 / DAYS_PER_RANGE, range as u32);
                assert!(matches!(row[BUCKET], Value::I64(b) if b < BUCKETS_PER_RANGE));
                assert!(matches!(&row[PLATFORM], Value::Str(p) if p == "web" || p == "ios"));
            }
        }
        assert_ne!(
            fingerprint(&a[0]),
            fingerprint(&day_range_pool(12, 2, 40)[0])
        );
    }

    #[test]
    fn dashboard_schedules_repeat_per_seed() {
        let a = dashboard_schedule(5, 0, 200, 6, 16);
        assert_eq!(a, dashboard_schedule(5, 0, 200, 6, 16));
        assert_ne!(a, dashboard_schedule(6, 0, 200, 6, 16));
        assert_ne!(a, dashboard_schedule(5, 1, 200, 6, 16));
        let inserts = a
            .iter()
            .filter(|r| matches!(r, DashRequest::Insert(_)))
            .count();
        assert_eq!(inserts, 200 / INSERT_EVERY);
    }

    #[test]
    fn insert_sql_parses_back_to_the_rows() {
        let batch = &uniform_pool(1, Stream::Insert, 1, 3)[0];
        let sql = insert_sql(&batch.rows);
        match cubrick::sql::parse(&sql).expect("generated INSERT parses") {
            cubrick::sql::Statement::Insert { cube, rows } => {
                assert_eq!(cube, CUBE);
                assert_eq!(rows.len(), 3);
                let sum: f64 = rows.iter().map(m0).sum();
                assert_eq!(sum, batch.m0_sum);
            }
            other => panic!("expected an INSERT, got {other:?}"),
        }
    }
}
