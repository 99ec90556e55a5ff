//! Order statistics, seed derivation and the order-independent pair digest
//! every correctness check of the benchmark compares.

use touch::geom::ObjectId;
use touch::{CallbackSink, PairSink};

/// The splitmix64 finaliser: a cheap bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input seed of one generator of a workload, derived from the run's
/// `--seed` so that every dataset of every workload differs but repeats
/// exactly for the same seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// An order-independent summary of a pair set: its size and a wrapping sum of
/// one mixed 64-bit word per pair. Runs that emit the same pairs in any order
/// (sequentially, sharded across workers, split into epochs) agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDigest {
    pub count: u64,
    pub sum: u64,
}

impl PairDigest {
    pub fn add(&mut self, a: ObjectId, b: ObjectId) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix((u64::from(a) << 32) | u64::from(b)));
    }

    pub fn merge(&mut self, other: PairDigest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn of(pairs: &[(ObjectId, ObjectId)]) -> PairDigest {
        let mut digest = PairDigest::default();
        for &(a, b) in pairs {
            digest.add(a, b);
        }
        digest
    }
}

/// Runs `f` against a checksum [`CallbackSink`] and returns its result together
/// with the digest of every pair the sink received.
pub fn digest_run<T>(f: impl FnOnce(&mut dyn PairSink) -> T) -> (T, PairDigest) {
    let mut digest = PairDigest::default();
    let out = f(&mut CallbackSink::new(|a, b| digest.add(a, b)));
    (out, digest)
}

/// The median of `values` (the mean of the middle two for an even count; 0
/// for none).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail is read at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of `values`: the highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)` (nearest
/// rank). With too few samples for even the median to qualify, the maximum is
/// reported as the 100th percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            return (p, sorted[rank - 1]);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values), (95.0, 190.0), "p95 at 200 samples");
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 990.0));
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), (50.0, 10.0));
        // Too few samples for any rung: the maximum stands in.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
        // Order of the input does not matter.
        let mut shuffled: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        shuffled.swap(3, 150);
        assert_eq!(tail(&shuffled), (95.0, 190.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_independent_and_orientation_sensitive() {
        let pairs = [(1, 2), (3, 4), (5, 6), (1, 7), (70_000, 3)];
        let mut reversed = pairs;
        reversed.reverse();
        assert_eq!(PairDigest::of(&pairs), PairDigest::of(&reversed));

        // Split into two "epochs" in another order: merging agrees too.
        let mut split = PairDigest::of(&pairs[3..]);
        split.merge(PairDigest::of(&pairs[..3]));
        assert_eq!(split, PairDigest::of(&pairs));

        // A flipped pair or a missing pair changes the digest.
        let flipped = [(2, 1), (3, 4), (5, 6), (1, 7), (70_000, 3)];
        assert_ne!(PairDigest::of(&flipped), PairDigest::of(&pairs));
        assert_ne!(PairDigest::of(&pairs[1..]), PairDigest::of(&pairs));
    }

    #[test]
    fn digest_run_sees_every_pair_pushed_into_the_sink() {
        let (returned, digest) = digest_run(|sink| {
            sink.push(1, 2);
            sink.push(3, 4);
            7
        });
        assert_eq!(returned, 7);
        assert_eq!(digest, PairDigest::of(&[(3, 4), (1, 2)]));
    }
}
