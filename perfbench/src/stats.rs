//! Sample statistics and the rules that turn load-ladder steps into a
//! sustained rate. Pure functions, so the self-tests pin them exactly.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank median of `sorted` (ascending). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[(sorted.len() - 1) / 2])
}

/// Median of an unsorted slice.
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// The tail percentile a sample of `n` supports: the highest of p99 and
/// below that still leaves at least [`TAIL_BEYOND`] samples beyond it.
/// Returns `(percentile, zero-based index into the sorted sample)`, or
/// `None` when `n` is too small to leave ten samples beyond anything.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n <= TAIL_BEYOND {
        return None;
    }
    // Nearest-rank p99 sits at ceil(0.99 n) - 1; capping the index at
    // n - 11 keeps exactly ten samples above it on small samples.
    let p99_index = (n * 99).div_ceil(100) - 1;
    let index = p99_index.min(n - TAIL_BEYOND - 1);
    let percentile = if index == p99_index {
        99.0
    } else {
        100.0 * (index + 1) as f64 / n as f64
    };
    Some((percentile, index))
}

/// The value at [`tail_rank`] of `sorted` (ascending), with the
/// percentile it represents.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    tail_rank(sorted.len()).map(|(p, i)| (p, sorted[i]))
}

/// A latency summary: median and supported tail, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `values` (any order). The tail falls back to the maximum
/// when fewer than eleven samples exist, with `tail_pct` 100.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v).unwrap_or(0.0);
    let (tail_pct, tail) = tail(&v).unwrap_or((100.0, v.last().copied().unwrap_or(0.0)));
    Summary {
        count: v.len(),
        p50,
        tail_pct,
        tail,
    }
}

/// What one rate step of the load ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the schedule held.
    pub planned: usize,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered 200 with the expected body.
    pub succeeded: usize,
    /// Requests that failed or answered a wrong body.
    pub failed: usize,
    /// Requests still unsent when the step's drain deadline passed:
    /// the backlog the server could not absorb.
    pub unsent: usize,
    /// Latency from due time, milliseconds, `/rank` only.
    pub latency: Summary,
    /// How late the generator sent, milliseconds (its own tardiness,
    /// not the wait for a busy connection).
    pub lag: Summary,
}

/// The verdict on one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the latency limit, no backlog, no failures.
    Pass,
    /// The system missed the limit, left a backlog or failed requests.
    Fail,
    /// The generator fell behind its own schedule: the step measured the
    /// generator, not the server, and proves nothing either way.
    Invalid,
}

/// Judges one step. A step whose generator lag tail exceeds `lag_limit_ms`
/// is invalid; otherwise it passes when its latency tail is within
/// `limit_ms`, no request failed and no backlog was left.
pub fn judge(step: &StepReport, limit_ms: f64, lag_limit_ms: f64) -> Verdict {
    if step.lag.tail > lag_limit_ms {
        return Verdict::Invalid;
    }
    if step.failed > 0 || step.unsent > 0 || step.latency.count == 0 || step.latency.tail > limit_ms
    {
        return Verdict::Fail;
    }
    Verdict::Pass
}

/// The sustained rate of a ladder: the highest rate that passed with no
/// lower step failing. An invalid step is no evidence either way: it
/// neither counts as a pass nor ends the ladder. `0.0` when no step
/// passed below the first failure.
pub fn sustained_rate(steps: &[(f64, Verdict)]) -> f64 {
    let mut sorted = steps.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best = 0.0;
    for (rate, verdict) in sorted {
        match verdict {
            Verdict::Pass => best = rate,
            Verdict::Invalid => {}
            Verdict::Fail => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_leaves_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        // Eleven samples: only the minimum has ten beyond it.
        assert_eq!(tail_rank(11).map(|(_, i)| i), Some(0));
        for n in [11usize, 50, 400, 999, 1000, 1001, 5000] {
            let (_, i) = tail_rank(n).unwrap();
            assert!(n - 1 - i >= TAIL_BEYOND, "n={n}: {} beyond", n - 1 - i);
        }
        // From 1000 samples on, the true nearest-rank p99 qualifies.
        assert_eq!(tail_rank(1000), Some((99.0, 989)));
        assert_eq!(tail_rank(2000), Some((99.0, 1979)));
        // Below that the percentile drops to what the sample supports.
        let (p, i) = tail_rank(400).unwrap();
        assert_eq!(i, 389);
        assert!((p - 97.5).abs() < 1e-12, "{p}");
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let values: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.count, 500);
        assert_eq!(s.p50, 250.0);
        // 490 has exactly ten samples (491..=500) beyond it.
        assert_eq!(s.tail, 490.0);
        assert!((s.tail_pct - 98.0).abs() < 1e-12);
        // Order of the input does not matter.
        let mut rev = values.clone();
        rev.reverse();
        assert_eq!(summarize(&rev), s);
        // Tiny samples fall back to the maximum.
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).tail, 3.0);
        assert_eq!(summarize(&[]).count, 0);
    }

    fn step(latency_tail: f64, lag_tail: f64, failed: usize, unsent: usize) -> StepReport {
        let summary = |tail| Summary {
            count: 100,
            p50: 1.0,
            tail_pct: 90.0,
            tail,
        };
        StepReport {
            rate: 100.0,
            planned: 100,
            sent: 100 - unsent,
            succeeded: 100 - unsent - failed,
            failed,
            unsent,
            latency: summary(latency_tail),
            lag: summary(lag_tail),
        }
    }

    #[test]
    fn judge_applies_limit_backlog_failures_and_generator_health() {
        assert_eq!(judge(&step(10.0, 0.1, 0, 0), 50.0, 5.0), Verdict::Pass);
        assert_eq!(judge(&step(50.0, 0.1, 0, 0), 50.0, 5.0), Verdict::Pass);
        assert_eq!(judge(&step(50.1, 0.1, 0, 0), 50.0, 5.0), Verdict::Fail);
        assert_eq!(judge(&step(10.0, 0.1, 1, 0), 50.0, 5.0), Verdict::Fail);
        // A backlog left at the drain deadline is a growing queue.
        assert_eq!(judge(&step(10.0, 0.1, 0, 3), 50.0, 5.0), Verdict::Fail);
        // A late generator voids the step, even when latency looks fine.
        assert_eq!(judge(&step(10.0, 6.0, 0, 0), 50.0, 5.0), Verdict::Invalid);
        let mut empty = step(0.0, 0.0, 0, 0);
        empty.latency.count = 0;
        assert_eq!(judge(&empty, 50.0, 5.0), Verdict::Fail);
    }

    #[test]
    fn sustained_rate_stops_at_the_first_failure() {
        use Verdict::*;
        assert_eq!(
            sustained_rate(&[(100.0, Pass), (200.0, Pass), (400.0, Fail)]),
            200.0
        );
        // Order of the steps does not matter.
        assert_eq!(
            sustained_rate(&[(400.0, Fail), (100.0, Pass), (200.0, Pass)]),
            200.0
        );
        // A pass above a failure does not count: the ladder must hold
        // every rate up to the reported one.
        assert_eq!(
            sustained_rate(&[(100.0, Pass), (200.0, Fail), (400.0, Pass)]),
            100.0
        );
        // An invalid step is skipped: it neither passes nor ends the
        // ladder.
        assert_eq!(
            sustained_rate(&[(100.0, Pass), (200.0, Invalid), (400.0, Pass)]),
            400.0
        );
        assert_eq!(
            sustained_rate(&[(100.0, Invalid), (200.0, Pass), (400.0, Fail)]),
            200.0
        );
        assert_eq!(sustained_rate(&[(100.0, Invalid), (200.0, Invalid)]), 0.0);
        assert_eq!(sustained_rate(&[(100.0, Fail)]), 0.0);
        assert_eq!(sustained_rate(&[(100.0, Pass), (200.0, Pass)]), 200.0);
    }
}
