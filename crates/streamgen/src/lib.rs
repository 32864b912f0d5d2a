//! # fsc-streamgen — synthetic stream workloads and exact ground truth
//!
//! Every experiment in the repository draws its input from this crate:
//!
//! * [`ground_truth::FrequencyVector`] — the exact frequency vector of a stream, with
//!   exact `F_p` moments, `L_p` norms, Shannon entropy, and heavy-hitter sets, used to
//!   score every approximate algorithm.
//! * [`zipf`] — Zipfian streams, the standard model for skewed real-world data
//!   (network flows, query logs).
//! * [`uniform`] — uniform, permutation, and all-distinct streams (the hard inputs for
//!   state-change lower bounds).
//! * [`planted`] — streams with explicitly planted heavy hitters of known frequency.
//! * [`blocks`] — the Section 1.4 counterexample stream on which pick-and-drop style
//!   sampling algorithms miss the true `L_2` heavy hitter.
//! * [`lower_bound`] — the adversarial stream pairs `(S_1, S_2)` from Theorems 1.2/1.4.
//! * [`netflow`] — synthetic elephant/mice network-flow traces (the documented
//!   substitution for proprietary traffic traces).
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocks;
pub mod ground_truth;
pub mod lower_bound;
pub mod netflow;
pub mod planted;
pub mod uniform;
pub mod zipf;

pub use ground_truth::FrequencyVector;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shuffles a stream in place, deterministically for a given seed.
pub fn shuffle(stream: &mut [u64], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    stream.shuffle(&mut rng);
}

/// Interleaves two streams by alternating elements (the shorter stream is exhausted
/// first, then the remainder of the longer one is appended).
///
/// The output is built in one exact-capacity allocation: the alternating prefix is
/// written pairwise and the longer stream's tail is appended with one `extend_from_slice`,
/// so no push ever grows the buffer.
pub fn interleave(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let common = a.len().min(b.len());
    for (&x, &y) in a[..common].iter().zip(&b[..common]) {
        out.push(x);
        out.push(y);
    }
    out.extend_from_slice(&a[common..]);
    out.extend_from_slice(&b[common..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_deterministic_and_preserves_multiset() {
        let mut a: Vec<u64> = (0..100).collect();
        let mut b: Vec<u64> = (0..100).collect();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
        let mut c: Vec<u64> = (0..100).collect();
        shuffle(&mut c, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn interleave_preserves_all_elements() {
        let a = vec![1, 1, 1];
        let b = vec![2, 2, 2, 2, 2];
        let out = interleave(&a, &b);
        assert_eq!(out.len(), 8);
        assert_eq!(out.capacity(), 8, "exact-capacity reservation");
        assert_eq!(out.iter().filter(|&&x| x == 1).count(), 3);
        assert_eq!(out, vec![1, 2, 1, 2, 1, 2, 2, 2]);
        assert_eq!(interleave(&[], &[7]), vec![7]);
        assert_eq!(interleave(&[7], &[]), vec![7]);
        // The longer-a case appends a's tail after the alternating prefix.
        assert_eq!(interleave(&[1, 1, 1], &[2]), vec![1, 2, 1, 1]);
    }
}
