//! Property-based tests for the grid quorum invariants that the routing
//! protocol's correctness rests on (Theorem 1 and the section 3
//! non-perfect-square construction).

use apor_quorum::Grid;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Every pair of distinct nodes shares at least two rendezvous nodes,
    /// for arbitrary overlay sizes (sampled; exhaustive coverage up to 200
    /// lives in the unit tests).
    #[test]
    fn pairwise_double_intersection(n in 2usize..1200, seed in any::<u64>()) {
        let g = Grid::new(n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let nodes: Vec<usize> = (0..n).collect();
        for _ in 0..64 {
            let pick: Vec<usize> = nodes.choose_multiple(&mut rng, 2).copied().collect();
            let (i, j) = (pick[0], pick[1]);
            let common = g.common_rendezvous(i, j);
            prop_assert!(common.len() >= 2, "n={n} pair ({i},{j}) common={common:?}");
        }
    }

    /// Rendezvous load stays balanced: no node has more than 2·max(R,C)
    /// servers (the same set as its clients), i.e. ~2√n.
    #[test]
    fn degree_balance(n in 1usize..1200) {
        let g = Grid::new(n);
        let bound = g.max_rendezvous_degree();
        for i in 0..n {
            prop_assert!(g.rendezvous_servers(i).len() <= bound);
        }
    }

    /// The rendezvous relation is symmetric even with the incomplete-row
    /// extra assignments.
    #[test]
    fn relation_symmetry(n in 2usize..600) {
        let g = Grid::new(n);
        for i in 0..n {
            for s in g.rendezvous_servers(i) {
                prop_assert!(g.rendezvous_servers(s).contains(&i));
            }
        }
    }

    /// Positions and `at` are inverse to each other.
    #[test]
    fn position_at_roundtrip(n in 1usize..2000) {
        let g = Grid::new(n);
        for i in 0..n {
            let (r, c) = g.position(i);
            prop_assert_eq!(g.at(r, c), Some(i));
        }
        // And blank cells really are blank.
        let shape = g.shape();
        for r in 0..shape.rows {
            for c in 0..shape.cols {
                if let Some(i) = g.at(r, c) {
                    prop_assert_eq!(g.position(i), (r, c));
                }
            }
        }
    }

    /// The default rendezvous pair always serves both endpoints and is a
    /// subset of the full common-rendezvous set.
    #[test]
    fn default_pair_subset_of_common(n in 2usize..500, seed in any::<u64>()) {
        let g = Grid::new(n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let nodes: Vec<usize> = (0..n).collect();
        for _ in 0..32 {
            let pick: Vec<usize> = nodes.choose_multiple(&mut rng, 2).copied().collect();
            let (i, j) = (pick[0], pick[1]);
            let common = g.common_rendezvous(i, j);
            for k in g.default_rendezvous_pair(i, j).iter() {
                prop_assert!(common.contains(k));
            }
        }
    }
}
