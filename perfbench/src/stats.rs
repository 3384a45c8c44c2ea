//! Order statistics over a run's samples.

/// The quartiles `(q1, median, q3)` of `samples`, by the same
/// interpolation as Python's `statistics.quantiles(samples, n=4)` (its
/// default "exclusive" method); a single sample is all three.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut data = samples.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median_sorted(&data), cut(3))
}

/// The median of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

fn median_sorted(data: &[f64]) -> f64 {
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
