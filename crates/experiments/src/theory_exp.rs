//! Section 6.1's closed-form bandwidth/capacity table, plus the section 5
//! configuration-parameter table.

use apor_analysis::{theory, write_csv, Table};
use apor_linkstate::LinkEstimator;
use apor_routing::ProtocolConfig;

/// Print the section 5 parameter table.
pub fn print_config_table() {
    let ron = ProtocolConfig::ron();
    let quorum = ProtocolConfig::quorum();
    let mut t = Table::new(&[
        "Configuration parameter",
        "Full-mesh (RON)",
        "Quorum system",
    ]);
    t.row(vec![
        "routing interval (r)".into(),
        format!("{}s", ron.routing_interval_s),
        format!("{}s", quorum.routing_interval_s),
    ]);
    t.row(vec![
        "probing interval (p)".into(),
        format!("{}s", ron.probe_interval_s),
        format!("{}s", quorum.probe_interval_s),
    ]);
    t.row(vec![
        "#probes for failure".into(),
        LinkEstimator::DEFAULT_DEATH_THRESHOLD.to_string(),
        LinkEstimator::DEFAULT_DEATH_THRESHOLD.to_string(),
    ]);
    println!("Section 5 — configuration parameters");
    println!("{}", t.render());
}

/// Print and write the theory table (`theory.csv`): probing / RON /
/// quorum bps for a range of n, plus the headline capacity numbers.
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn run_and_report() -> std::io::Result<()> {
    let sizes = [9usize, 25, 50, 100, 140, 165, 200, 300, 416, 1000, 10_000];
    let mut t = Table::new(&[
        "n",
        "probing Kbps",
        "RON routing Kbps",
        "quorum routing Kbps",
    ]);
    let mut rows = Vec::new();
    for &n in &sizes {
        let nf = n as f64;
        t.row(vec![
            n.to_string(),
            format!("{:.1}", theory::probing_bps(nf) / 1000.0),
            format!("{:.1}", theory::ron_routing_bps(nf) / 1000.0),
            format!("{:.1}", theory::quorum_routing_bps(nf) / 1000.0),
        ]);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", theory::probing_bps(nf)),
            format!("{:.1}", theory::ron_routing_bps(nf)),
            format!("{:.1}", theory::quorum_routing_bps(nf)),
        ]);
    }
    println!("Section 6.1 — theoretical per-node bandwidth (in + out)");
    println!("{}", t.render());
    println!(
        "56 Kbps budget supports: RON {} nodes, quorum {} nodes (paper: 165 → 300)",
        theory::capacity_at(56_000.0, theory::ron_routing_bps),
        theory::capacity_at(56_000.0, theory::quorum_routing_bps),
    );
    println!(
        "416-site PlanetLab overlay: quorum {:.0} Kbps vs prior {:.0} Kbps (paper: 86 vs 307)",
        (theory::probing_bps(416.0) + theory::quorum_routing_bps(416.0)) / 1000.0,
        (theory::probing_bps(416.0) + theory::ron_routing_bps(416.0)) / 1000.0,
    );
    write_csv(
        crate::results_path("theory.csv"),
        &["n", "probing_bps", "ron_routing_bps", "quorum_routing_bps"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_runs() {
        std::env::set_var(
            "APOR_RESULTS_DIR",
            std::env::temp_dir().join("apor-theory").to_str().unwrap(),
        );
        super::run_and_report().unwrap();
        super::print_config_table();
    }
}
