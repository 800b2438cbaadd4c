//! Medians and quartiles of small samples.

/// The three quartile cut points `(q1, median, q3)`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so that a spread computed here agrees with one
/// computed by a harness written in Python. A single value is its own
/// quartiles; an empty sample has none.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    match n {
        0 => return None,
        1 => return Some((x[0], x[0], x[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The median, or `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4)
        let v = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
        assert_eq!(quartiles(&v), Some((20.0, 40.0, 60.0)));
    }

    #[test]
    fn small_samples() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), Some(4.0));
    }
}
