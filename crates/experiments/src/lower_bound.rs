//! Appendix A: the diamond-counting lower bound, made empirical.
//!
//! The paper proves that any algorithm comparing all alternative one-hop
//! paths needs `Ω(n√n)` per-node communication: there are `3·C(n,4)`
//! diamonds to cover (Lemma 2), `e` received edges cover at most `e²`
//! (Lemma 3), so `n·e² ≥ 3·C(n,4)` forces `e = Ω(n√n)`. This experiment
//! tabulates, for growing n: the diamonds to cover, the bound's minimum
//! `e`, and what the grid-quorum algorithm actually delivers to each node
//! — showing the algorithm sits within a small constant of optimal.

use apor_analysis::{write_csv, Table};
use apor_quorum::{unique_diamonds_in_complete_graph, Grid};
use serde::Serialize;

/// One row of the lower-bound table.
#[derive(Debug, Clone, Serialize)]
pub struct LowerBoundRow {
    /// Overlay size.
    pub n: usize,
    /// Diamonds in the complete graph (`3·C(n,4)`).
    pub diamonds: u128,
    /// Minimum edges per node from the bound: `√(3·C(n,4)/n)`.
    pub min_edges_per_node: u64,
    /// Edges actually received per node by the quorum algorithm
    /// (≈ `2√n` rows of `n` entries).
    pub quorum_edges_per_node: u64,
    /// Ratio quorum / bound (the algorithm's constant-factor gap).
    pub optimality_gap: f64,
}

/// Build the table for the given sizes.
#[must_use]
pub fn run(sizes: &[usize]) -> Vec<LowerBoundRow> {
    sizes
        .iter()
        .map(|&n| {
            let diamonds = unique_diamonds_in_complete_graph(n);
            let min_e = ((diamonds as f64) / n as f64).sqrt().ceil() as u64;
            let grid = Grid::new(n);
            // Every link-state row a node receives carries n edges; it
            // receives one row per rendezvous client plus its own.
            let max_clients = (0..n)
                .map(|i| grid.rendezvous_servers(i).len())
                .max()
                .unwrap_or(0) as u64;
            let quorum_e = (max_clients + 1) * n as u64;
            LowerBoundRow {
                n,
                diamonds,
                min_edges_per_node: min_e,
                quorum_edges_per_node: quorum_e,
                optimality_gap: quorum_e as f64 / min_e as f64,
            }
        })
        .collect()
}

/// Run, print and write `lower_bound.csv`.
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn run_and_report(sizes: &[usize]) -> std::io::Result<Vec<LowerBoundRow>> {
    let rows = run(sizes);
    let mut table = Table::new(&[
        "n",
        "diamonds 3·C(n,4)",
        "min edges/node",
        "quorum edges/node",
        "gap",
    ]);
    let mut csv = Vec::new();
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.diamonds.to_string(),
            r.min_edges_per_node.to_string(),
            r.quorum_edges_per_node.to_string(),
            format!("{:.2}", r.optimality_gap),
        ]);
        csv.push(vec![
            r.n.to_string(),
            r.diamonds.to_string(),
            r.min_edges_per_node.to_string(),
            r.quorum_edges_per_node.to_string(),
            format!("{:.3}", r.optimality_gap),
        ]);
    }
    println!("Appendix A — diamond-counting lower bound vs the grid quorum");
    println!("{}", table.render());
    write_csv(
        crate::results_path("lower_bound.csv"),
        &[
            "n",
            "diamonds",
            "min_edges_per_node",
            "quorum_edges_per_node",
            "gap",
        ],
        &csv,
    )?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_within_constant_factor_of_bound() {
        let rows = run(&[16, 100, 400, 1600, 10_000]);
        for r in &rows {
            assert!(
                r.quorum_edges_per_node >= r.min_edges_per_node,
                "n={}: the bound must lower-bound the algorithm",
                r.n
            );
            assert!(
                r.optimality_gap < 6.0,
                "n={}: gap {} too large for a Θ-optimal algorithm",
                r.n,
                r.optimality_gap
            );
        }
        // The gap is asymptotically flat (Θ-optimality): it must not grow
        // between n=400 and n=10000 by more than a smidgen.
        let g400 = rows.iter().find(|r| r.n == 400).unwrap().optimality_gap;
        let g10k = rows.iter().find(|r| r.n == 10_000).unwrap().optimality_gap;
        assert!(g10k <= g400 * 1.2, "gap grows: {g400} → {g10k}");
    }
}
