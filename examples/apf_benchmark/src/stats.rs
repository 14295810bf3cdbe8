//! Order statistics and the output-digest fold.

/// Nearest-rank quantile of an ascending slice (the convention
/// `apf_bench::Aggregate` uses); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank on the sorted values).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside script computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Folds one 64-bit value into an FNV-1a hash, byte by byte (little endian).
pub fn fnv_fold(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.75), 75.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
