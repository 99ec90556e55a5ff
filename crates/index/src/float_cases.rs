//! Adversarial `f64` inputs for the grid cell-math tests: both grids compute
//! cells without `floor`, and these are the values where a truncating formula
//! could part from the flooring one.

/// The next representable `f64` above `v` (`f64::next_up` needs Rust 1.86;
/// the workspace supports 1.75).
pub(crate) fn next_up(v: f64) -> f64 {
    if v.is_nan() || v == f64::INFINITY {
        return v;
    }
    if v == 0.0 {
        return f64::from_bits(1);
    }
    let bits = v.to_bits();
    f64::from_bits(if v > 0.0 { bits + 1 } else { bits - 1 })
}

/// The next representable `f64` below `v`.
pub(crate) fn next_down(v: f64) -> f64 {
    -next_up(-v)
}

/// NaN, ±∞, ±0, subnormals, ±1e300, values far outside `lo..lo + cells · step`,
/// and every cell boundary `lo + k · step` (k in `-1..=cells + 1`) with its two
/// one-ulp neighbours.
pub(crate) fn edge_values(lo: f64, step: f64, cells: usize) -> Vec<f64> {
    let mut values = vec![
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        lo - 1e6,
        lo + step * cells as f64 + 1e6,
    ];
    for k in -1..=cells as i64 + 1 {
        let boundary = lo + k as f64 * step;
        values.extend([boundary, next_up(boundary), next_down(boundary)]);
    }
    values
}

#[test]
fn ulp_steps_are_one_representable_value() {
    assert_eq!(next_up(1.0), 1.0 + f64::EPSILON);
    assert_eq!(next_down(1.0), 1.0 - f64::EPSILON / 2.0);
    assert_eq!(next_up(-0.0), f64::from_bits(1));
    assert_eq!(next_down(0.0), -f64::from_bits(1));
    assert_eq!(next_up(f64::MAX), f64::INFINITY);
    assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
    assert!(next_up(f64::NAN).is_nan());
}
