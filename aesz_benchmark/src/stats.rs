//! Summary statistics: medians, Python-compatible quartiles, the tail
//! percentile rule, and the paired comparison behind `compare`.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let len = s.len();
    if len == 1 {
        return (s[0], s[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile of the ladder 90, 99, 99.9, 99.99 that still has
/// at least ten samples beyond it, with its nearest-rank value; `None` when
/// there are fewer than 100 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    // Percentile p = num/den; integer ranks keep e.g. p99.9 of 25 000
    // samples exact.
    [(9999, 10_000), (999, 1000), (99, 100), (9, 10)]
        .into_iter()
        .find_map(|(num, den)| {
            let rank = (n * num).div_ceil(den);
            (rank >= 1 && n - rank >= 10).then(|| (100.0 * num as f64 / den as f64, s[rank - 1]))
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired comparison of one metric over runs `parent[i]` / `change[i]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_quartiles: (f64, f64),
    pub change_quartiles: (f64, f64),
    /// Pairs the change reads better in (ties count for neither side).
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compare a change against its parent:
///
/// * **improved** — the change wins at least nine tenths of the pairs and
///   the medians differ by more than the parent's own quartile spread;
/// * **regressed** — the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median); without a bound
///   (per-layer metrics), by the mirror of the improvement rule;
/// * **unresolved** — the parent's spread is wider than `bound`, so
///   "unchanged" cannot be told apart from noise, unless every change run
///   reads better than every parent run;
/// * **unchanged** — otherwise.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Comparison {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let pq = quartiles(parent);
    let spread = pq.1 - pq.0;
    let clear_gap = (cm - pm).abs() > spread;
    let nine_tenths = |k: usize| pairs > 0 && 10 * k >= 9 * pairs;
    // How much worse the change's median is, as a share of the parent's.
    let worse_share =
        if higher_is_better { pm - cm } else { cm - pm } / pm.abs().max(f64::MIN_POSITIVE);

    let verdict = if nine_tenths(wins) && clear_gap {
        Verdict::Improved
    } else if let Some(bound) = bound {
        let all_better = parent.iter().all(|&p| change.iter().all(|&c| better(c, p)));
        if worse_share > bound {
            Verdict::Regressed
        } else if spread / pm.abs().max(f64::MIN_POSITIVE) > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else if nine_tenths(losses) && clear_gap {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Comparison {
        parent_median: pm,
        change_median: cm,
        parent_quartiles: pq,
        change_quartiles: quartiles(change),
        wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolated)
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&[3.0, 9.0, 1.0]), 3.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let upto = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(tail(&upto(99)), None, "p90 of 99 leaves only 9 beyond");
        assert_eq!(tail(&upto(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&upto(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&upto(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&upto(25_000)), Some((99.9, 24_975.0)));
    }

    #[test]
    fn compare_applies_the_pair_and_bound_rules() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // 20% faster in every pair: improved (lower is better).
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let c = compare(&parent, &faster, false, Some(0.1));
        assert_eq!((c.verdict, c.wins, c.pairs), (Verdict::Improved, 10, 10));
        // 5% slower: within the 10% bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            compare(&parent, &slower, false, Some(0.1)).verdict,
            Verdict::Unchanged
        );
        // 15% slower: beyond the bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.15).collect();
        assert_eq!(
            compare(&parent, &slower, false, Some(0.1)).verdict,
            Verdict::Regressed
        );
        // A parent whose own spread exceeds the bound cannot call "unchanged".
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0, 130.0, 100.0,
        ];
        assert_eq!(
            compare(&noisy, &noisy, false, Some(0.1)).verdict,
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction; 8/10 wins is not a gain.
        let mut mixed: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        let c = compare(&parent, &mixed, true, Some(0.1));
        assert_eq!((c.wins, c.verdict), (8, Verdict::Unchanged));
        // Unbounded (per-layer) metrics regress by the mirrored pair rule.
        assert_eq!(
            compare(&parent, &faster, true, None).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&parent, &parent, true, None).verdict,
            Verdict::Unchanged
        );
    }
}
