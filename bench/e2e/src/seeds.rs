//! Everything random in a workload derives from `--seed`: the same seed
//! gives the same topology, fault victims, node seeds and sampled pairs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An independent seed for the input called `label`.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    // FNV-1a over the label, then one splitmix64 round over the sum.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed.wrapping_add(h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` ordered pairs `(i, j)`, `i ≠ j`, drawn uniformly from `n` nodes.
pub fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if i != j {
            pairs.push((i, j));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_label_and_by_seed() {
        assert_ne!(sub_seed(1, "topology"), sub_seed(1, "failures"));
        assert_ne!(sub_seed(1, "topology"), sub_seed(2, "topology"));
        assert_eq!(sub_seed(7, "pairs"), sub_seed(7, "pairs"));
    }

    #[test]
    fn pair_sampling_is_deterministic_and_in_range() {
        let a = sample_pairs(50, 100, 7);
        assert_eq!(a, sample_pairs(50, 100, 7));
        assert_ne!(a, sample_pairs(50, 100, 8));
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&(i, j)| i != j && i < 50 && j < 50));
    }
}
