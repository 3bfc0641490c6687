//! Latency summaries: medians and the tail percentile a sample supports.

/// The tail percentile reported when the sample supports it.
pub const TAIL_TARGET: f64 = 0.99;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The lowest percentile still reported as a tail; a sample too small
/// to put ten samples beyond it has no tail.
pub const TAIL_FLOOR: f64 = 0.8;

/// One measured quantity's samples, sorted ascending.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// A tail value together with the percentile it was read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The quantile in `0..1` the value was read at.
    pub q: f64,
    /// The sample value at that quantile.
    pub value: f64,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank.min(self.sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The highest percentile up to [`TAIL_TARGET`] that still has at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when that
    /// percentile would fall below [`TAIL_FLOOR`].
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        // With nearest rank k = ceil(q n), n - k samples lie beyond
        // rank k; k <= n - 10 keeps ten of them.
        let max_rank = n.checked_sub(TAIL_MIN_BEYOND)?;
        let target_rank = (TAIL_TARGET * n as f64).ceil() as usize;
        let rank = target_rank.min(max_rank);
        let q = rank as f64 / n as f64;
        if rank == 0 || q + 1e-9 < TAIL_FLOOR {
            return None;
        }
        Some(Tail {
            q,
            value: self.sorted[rank - 1],
        })
    }
}

/// One timed operation of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// When the operation was due (open loop) or started (closed
    /// loop), in seconds since the measured window opened.
    pub at_s: f64,
    pub ms: f64,
    /// Whether spans were recorded around it.
    pub traced: bool,
}

/// The latencies of the operations that were (or were not) traced.
pub fn latencies(ops: &[Timed], traced: bool) -> Samples {
    Samples::new(
        ops.iter()
            .filter(|op| op.traced == traced)
            .map(|op| op.ms)
            .collect(),
    )
}

/// The run's tail: the run is cut into consecutive windows of equal
/// operation count (five from 1 000 operations, three from 600, else
/// one), each window's [`Samples::tail`] is taken, and the median of
/// those is reported with the window count. One stall of the machine
/// then moves one window, not the run's tail. `None` when a window has
/// no tail.
pub fn windowed_tail(ops: &[Timed]) -> Option<(Tail, usize)> {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let n = ops.len();
    let windows = match n {
        1000.. => 5,
        600.. => 3,
        _ => 1,
    };
    let mut tails = (0..windows)
        .map(|w| {
            let window = &ops[w * n / windows..(w + 1) * n / windows];
            Samples::new(window.iter().map(|op| op.ms).collect()).tail()
        })
        .collect::<Option<Vec<Tail>>>()?;
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Some((tails[windows / 2], windows))
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(samples: &Samples, tail: Tail) -> usize {
        samples.sorted.iter().filter(|&&v| v > tail.value).count()
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let samples = Samples::new((1..=1000).map(f64::from).collect());
        let tail = samples.tail().expect("1000 samples have a tail");
        assert_eq!(tail.q, 0.99);
        assert_eq!(tail.value, 990.0);
        assert_eq!(beyond(&samples, tail), 10);
    }

    #[test]
    fn tail_drops_below_p99_to_keep_ten_samples_beyond() {
        let samples = Samples::new((1..=200).rev().map(f64::from).collect());
        let tail = samples.tail().expect("200 samples have a tail");
        assert_eq!(tail.q, 0.95);
        assert_eq!(tail.value, 190.0);
        assert_eq!(beyond(&samples, tail), 10);
    }

    #[test]
    fn tail_keeps_p99_when_more_than_ten_lie_beyond() {
        let samples = Samples::new((1..=5000).map(f64::from).collect());
        let tail = samples.tail().expect("5000 samples have a tail");
        assert_eq!(tail.q, 0.99);
        assert_eq!(beyond(&samples, tail), 50);
    }

    #[test]
    fn samples_too_few_for_a_p80_tail_have_none() {
        assert_eq!(Samples::new(vec![1.0; 49]).tail(), None);
        let tail = Samples::new((1..=50).map(f64::from).collect()).tail();
        assert_eq!(tail.map(|t| t.q), Some(0.8));
    }

    fn timed(at_s: f64, ms: f64) -> Timed {
        Timed {
            at_s,
            ms,
            traced: false,
        }
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_tail() {
        // 1 000 operations over 10 s; the fourth window stalls.
        let ops: Vec<Timed> = (0..1000)
            .map(|i| {
                let at_s = i as f64 / 100.0;
                let ms = if (6.0..8.0).contains(&at_s) {
                    50.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                };
                timed(at_s, ms)
            })
            .collect();
        let (tail, windows) = windowed_tail(&ops).expect("200 operations per window");
        assert_eq!(windows, 5);
        assert!(tail.value < 2.0, "stall leaked into the tail: {tail:?}");
        let whole = Samples::new(ops.iter().map(|op| op.ms).collect()).tail();
        assert_eq!(whole.map(|t| t.value), Some(50.0));
    }

    #[test]
    fn small_runs_use_one_window() {
        let ops: Vec<Timed> = (0..100).map(|i| timed(i as f64, i as f64)).collect();
        let (tail, windows) = windowed_tail(&ops).expect("100 operations have a tail");
        assert_eq!(windows, 1);
        assert_eq!(tail.value, 89.0);
        assert_eq!(windowed_tail(&ops[..40]), None);
    }

    #[test]
    fn latencies_split_traced_from_untraced() {
        let mut ops = vec![timed(0.0, 1.0), timed(1.0, 3.0)];
        ops[1].traced = true;
        assert_eq!(latencies(&ops, false).median(), 1.0);
        assert_eq!(latencies(&ops, true).median(), 3.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        let samples = Samples::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(samples.median(), 3.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
