//! Grid-quorum construction for scalable all-pairs overlay routing.
//!
//! This crate implements the combinatorial core of *Scaling All-Pairs
//! Overlay Routing* (Sontag, Zhang, Phanishayee, Andersen, Karger —
//! CoNEXT 2009), section 3: a grid quorum system in which every node is
//! assigned a set of *rendezvous servers* such that
//!
//! 1. every pair of nodes shares at least one (in fact, at least two)
//!    rendezvous servers, and
//! 2. rendezvous load is evenly distributed — every node serves at most
//!    `2·√n` clients.
//!
//! Property (1) is what makes the paper's two-round routing protocol find
//! *provably optimal* one-hop routes: for any pair `(i, j)` some node `k`
//! receives the full link-state tables of both `i` and `j`, so `k` can
//! compute their best intersection and return it to both.
//!
//! The crate is pure and allocation-light: a [`Grid`] is a description of
//! node *positions* (row-major placement of `0..n`), and all rendezvous
//! relations are computed from positions. Higher layers map overlay
//! membership (sorted node IDs) onto grid positions, exactly as the paper's
//! membership service does (section 5).
//!
//! # Quickstart
//!
//! ```
//! use apor_quorum::Grid;
//!
//! let grid = Grid::new(9); // 3×3 grid, figure 2 of the paper
//! // Node 8 (the paper's node "9") has rendezvous servers: its row and column.
//! let servers = grid.rendezvous_servers(8);
//! assert_eq!(servers, vec![2, 5, 6, 7]);
//! // Every pair of nodes shares at least two rendezvous servers:
//! assert!(grid.common_rendezvous(0, 8).len() >= 2);
//! ```
//!
//! # Non-perfect squares
//!
//! When `n` is not a perfect square the last grid row is incomplete and the
//! naive construction loses the intersection property for some pairs. The
//! paper's fix (section 3, "Non perfect-square grids") pairs each node of
//! the incomplete last row with the tail of the corresponding full row;
//! [`Grid`] implements exactly that assignment and the tests verify the
//! intersection property for every `n` up to several hundred.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod id;

pub use grid::{Grid, GridShape, RendezvousPair};
pub use id::{NodeId, NodeIdx};
