//! One regenerator per table/figure of the paper's evaluation.
//!
//! | paper | function |
//! |---|---|
//! | Table I | [`setup::table1`] |
//! | Fig. 2 | [`setup::fig2`] |
//! | Fig. 3 | [`single_node::fig3`] |
//! | Fig. 4 | [`network::fig4`] |
//! | Fig. 6 | [`network::fig6`] |
//! | Fig. 9 | [`overview::fig9`] |
//! | Fig. 10 | [`single_node::fig10`] |
//! | Fig. 11 | [`single_node::fig11`] |
//! | Fig. 12 | [`comm::fig12`] |
//! | Fig. 13 | [`comm::fig13`] |
//! | Fig. 14 | [`comm::fig14`] |
//! | Fig. 15 | [`scaling::fig15`] |
//! | Fig. 16 | [`granularity::fig16`] |
//! | §II.A hybrid-vs-pure claim | [`overview::hybrid_vs_pure`] |
//! | §V 2-D-partitioning claim (extension) | [`ext::ext2d`] |
//!
//! Figs. 1, 5, 7 and 8 are mechanism diagrams, not measurements; the
//! corresponding code lives in `nbfs_core::engine` and
//! `nbfs_comm::allgather` (see their module docs).

pub mod comm;
pub mod ext;
pub mod granularity;
pub mod network;
pub mod overview;
pub mod scaling;
pub mod setup;
pub mod single_node;

use crate::report::FigureReport;
use crate::scenarios::BenchConfig;

/// All figure ids in paper order, plus extensions.
pub const ALL_IDS: [&str; 15] = [
    "table1", "fig2", "fig3", "fig4", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "hybrid", "ext2d",
];

/// The figures that return paper-vs-measured claim rows.
pub const CLAIM_IDS: [&str; 7] = ["fig3", "fig9", "fig10", "fig12", "fig13", "fig14", "fig16"];

/// Dispatches a figure by id.
pub fn generate(id: &str, cfg: &BenchConfig) -> Option<FigureReport> {
    Some(match id {
        "table1" => setup::table1(),
        "fig2" => setup::fig2(),
        "fig3" => single_node::fig3(cfg),
        "fig4" => network::fig4(),
        "fig6" => network::fig6(),
        "fig9" => overview::fig9(cfg),
        "fig10" => single_node::fig10(cfg),
        "fig11" => single_node::fig11(cfg),
        "fig12" => comm::fig12(cfg),
        "fig13" => comm::fig13(cfg),
        "fig14" => comm::fig14(cfg),
        "fig15" => scaling::fig15(cfg),
        "fig16" => granularity::fig16(cfg),
        "hybrid" => overview::hybrid_vs_pure(cfg),
        "ext2d" => ext::ext2d(cfg),
        _ => return None,
    })
}

/// Formats a TEPS cell.
pub(crate) fn teps_cell(teps: f64) -> String {
    nbfs_util::stats::format_teps(teps)
}

/// Formats a ratio cell.
pub(crate) fn ratio_cell(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn every_id_dispatches() {
        let cfg = BenchConfig::tiny();
        for id in ALL_IDS {
            let r = generate(id, &cfg).unwrap_or_else(|| panic!("missing {id}"));
            assert!(!r.rows.is_empty(), "{id} produced no rows");
            assert!(!r.to_text().is_empty());
            assert_eq!(
                !r.claims.is_empty(),
                CLAIM_IDS.contains(&id),
                "{id}: CLAIM_IDS must name exactly the figures with claims"
            );
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(generate("fig99", &BenchConfig::tiny()).is_none());
    }
}
