//! Experiment harness for the paper's evaluation.
//!
//! Each module reproduces one row of `docs/REPRODUCTION.md`: a paper
//! claim, the numbers that show it, and the bound the study's `check`
//! asserts after its exports are written. All experiments are
//! deterministic in their seeds and write CSV series plus a
//! human-readable summary; the binary `apor-experiments` dispatches on
//! the study name.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig9`] | Figure 9 — per-node routing traffic vs n, RON vs quorum, emulation vs section 6.1's closed form |
//! | [`deployment`] | the 140-node failure-laden deployment behind figures 8 and 10–14 |
//! | [`multihop_exp`] | section 3's multi-hop extension: optimality + `Θ(n√n log n)` traffic |
//! | [`churn`] | section 5's membership service: crash detection & view convergence, SWIM vs centralized |
//! | [`partition`] | beyond the paper: partition healing with/without push-pull anti-entropy |
//! | [`detour`] | beyond the paper: recovery-time CDFs, 1-hop failover vs feasible k-hop detours |
//! | [`scale`] | beyond the paper: sparse store + idle-aware netsim at n up to 4096 — state, probe bytes, coverage |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod deployment;
pub mod detour;
#[cfg(test)]
mod fig1;
pub mod fig9;
pub mod multihop_exp;
pub mod partition;
pub mod scale;
pub mod trace_support;

/// Where experiment outputs land, relative to the workspace root.
pub const RESULTS_DIR: &str = "results";

/// Resolve an output path under [`RESULTS_DIR`] (honours the
/// `APOR_RESULTS_DIR` environment variable for tests).
#[must_use]
pub fn results_path(file: &str) -> std::path::PathBuf {
    let base = std::env::var("APOR_RESULTS_DIR").unwrap_or_else(|_| RESULTS_DIR.to_string());
    std::path::Path::new(&base).join(file)
}

/// Fold a per-node fleet snapshot into a single-row aggregate (node 0):
/// counters/gauges sum, histograms merge. Thousands of per-node
/// registries would be megabytes of JSON; the fleet-wide distributions
/// are what the studies export.
#[must_use]
pub fn aggregate_fleet(snap: &apor_telemetry::Snapshot) -> apor_telemetry::Snapshot {
    let mut agg = apor_telemetry::Snapshot::default();
    for (_, component, name, value) in snap.iter() {
        let mut one = apor_telemetry::Snapshot::default();
        one.insert(0, component, name, value.clone());
        agg.merge(&one);
    }
    agg
}
