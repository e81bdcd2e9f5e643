//! Order statistics and the small fits the report needs. Everything
//! here is pure arithmetic on `f64` slices, unit-tested below.

/// Median of `values` (mean of the two middle elements for an even
/// count); 0 for an empty slice so an unmeasured metric reads as "no
/// samples".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quartile on the good side of `values`, as an order statistic (no
/// interpolation): of the samples sorted best first, the one a quarter
/// of the way in; the best itself below five samples. Interference on a
/// shared host only ever slows an operation down, so the slow half of a
/// sample is the part that changes from run to run, and this reading
/// stays put where the median wanders; a change to the code moves both.
pub fn good_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = sorted(values);
    if !lower_is_better {
        v.reverse();
    }
    v[(v.len() - 1) / 4]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread printed here is the number the acceptance check computes.
/// Needs at least two values; fewer give `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// The percentiles a tail may be reported at, highest first, in tenths
/// of a percent (so the count beyond each is exact integer arithmetic).
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAILS`] that still has at least ten
/// samples beyond it in a sample of `n` (p95 at n = 200); `None` when
/// even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .find(|&&p| n * (1000 - p) / 1000 >= 10)
        .map(|&p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail the ≥10-beyond rule allows for this sample, as
/// `(percentile, value)`; the maximum (reported as p100) when the sample
/// is too small for any.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values.len()) {
        Some(p) => (p, percentile(values, p)),
        None => (100.0, percentile(values, 100.0)),
    }
}

/// Least-squares slope of `ys` over `xs` (0 when `xs` has no variance).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let sxx: f64 = xs[..n].iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs[..n]
        .iter()
        .zip(&ys[..n])
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// `a / b`, or 0 when `b` is 0 (a share or ratio with nothing to count).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn good_quartile_is_an_order_statistic_from_the_good_end() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(good_quartile(&v, true), 3.0);
        assert_eq!(good_quartile(&v, false), 7.0);
        // Below five samples: the best one.
        assert_eq!(good_quartile(&[5.0, 2.0, 9.0, 4.0], true), 2.0);
        assert_eq!(good_quartile(&[5.0, 2.0], false), 5.0);
        assert_eq!(good_quartile(&[5.0, 2.0, 9.0, 4.0, 7.0], true), 4.0);
        assert_eq!(good_quartile(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        assert_eq!(tail(&[5.0, 9.0, 7.0]), (100.0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn slope_recovers_a_line_through_three_resume_points() {
        // resume cost = 40 ms fixed + 3.5 ms per skipped frame
        let xs = [64.0, 128.0, 192.0];
        let ys: Vec<f64> = xs.iter().map(|x| 40.0 + 3.5 * x).collect();
        assert!((slope(&xs, &ys) - 3.5).abs() < 1e-9);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
    }
}
