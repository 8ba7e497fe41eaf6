//! Experiment harness for the paper's evaluation.
//!
//! Each module reproduces one row of `docs/REPRODUCTION.md`: a paper
//! claim, the numbers that show it, and the bound the study's `check`
//! asserts after its exports are written. All experiments are
//! deterministic in their seeds and write CSV series; the binary
//! `apor-experiments` dispatches on the study name.
//!
//! A measured number has one path to its reader. A study that reports
//! one result table (`fig9`, `multihop`, `churn`, `partition`,
//! `scale`) builds it once, as a pure `table` function of its result,
//! and [`report_table`] prints exactly that table and writes it as the
//! CSV. Fleet telemetry is gathered by
//! [`apor_overlay::simnode::fleet_snapshot`], counters are read from
//! the snapshot (`counter_total`), and per-arm telemetry goes out
//! through [`write_arms_json`]. `deployment` and `detour` print
//! quantile summaries beside CSVs that hold whole CDFs.
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

/// A study's result as one table: the CSV header and its rows. The
/// terminal shows exactly these cells, so what a reader sees is what
/// the CSV holds.
pub type ResultTable = (&'static [&'static str], Vec<Vec<String>>);

/// Print `table` aligned under `title`, then write it to `csv` under
/// the results directory.
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn report_table(title: &str, csv: &str, (header, rows): &ResultTable) -> std::io::Result<()> {
    let mut aligned = apor_analysis::Table::new(header);
    for row in rows {
        aligned.row(row.clone());
    }
    println!("{title}");
    println!("{}", aligned.render());
    apor_analysis::write_csv(results_path(csv), header, rows)
}

/// Write `{"arms": [...]}` to `file` under the results directory: one
/// object per arm, its label fields (a rendered JSON fragment such as
/// `"n": 64`) followed by its fleet telemetry.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_arms_json<'a>(
    file: &str,
    arms: impl IntoIterator<Item = (String, &'a apor_telemetry::Snapshot)>,
) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"arms\": [");
    for (k, (label, telemetry)) in arms.into_iter().enumerate() {
        if k > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{{label}, \"telemetry\": {}}}",
            telemetry.to_json().trim_end()
        ));
    }
    json.push_str("\n  ]\n}\n");
    let path = results_path(file);
    std::fs::write(&path, json)?;
    println!("fleet telemetry -> {}", path.display());
    Ok(())
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
