//! # xlsm-bench — every experiment of the study behind one registry.
//!
//! [`EXPERIMENTS`] is the whole list: the paper's figures (`fig01`…`fig20`,
//! see [`figures`]), the stall, skew and integrity extensions, and the five
//! subsystem probes. The `xlsm-bench` binary runs entries by name, and every
//! entry returns [`xlsm_core::report::Table`]s, each written to
//! `results/<table>.tsv`: one committed artifact per table.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod figures;
pub mod parallelism;
pub mod readpath;
pub mod space;
pub mod stability;
pub mod writepath;

pub use common::BenchConfig;
pub use figures::Figure;

/// One registry entry: the names that select it, and what it runs. Figures
/// that share a parameter sweep share one entry, so `all` pays for each
/// sweep once.
pub type Experiment = (&'static [&'static str], fn(&BenchConfig) -> Vec<Figure>);

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    // Fig. 1: raw vs KV speedup, SATA → XPoint.
    (&["fig01"], figures::fig01),
    // Fig. 3: throughput vs insertion ratio.
    (&["fig03"], figures::fig03),
    // Figs. 4–7: timelines + latency @5 %, 90 % writes.
    (&["fig04", "fig05", "fig06", "fig07"], figures::fig04_to_07),
    // Figs. 8–10, 12: Level-0 geometry sweep.
    (&["fig08", "fig09", "fig10", "fig12"], figures::fig08_to_12),
    // Figs. 13–16: parallelism sweep + interference.
    (&["fig13", "fig14", "fig15", "fig16"], figures::fig13_to_16),
    // Fig. 17: WAL on/off write latency.
    (&["fig17"], figures::fig17),
    // Fig. 18: two-stage throttling under bursts.
    (&["fig18"], figures::fig18),
    // Fig. 19: dynamic Level-0 management.
    (&["fig19"], figures::fig19),
    // Fig. 20: WAL placement, SSD vs NVM vs disabled.
    (&["fig20"], figures::fig20),
    // Figs. 6/7, stall view: controller timeline + write-time breakdown.
    (&["stalls"], figures::fig_stalls),
    // Extension: uniform vs zipfian keys.
    (&["ext_skew"], figures::ext_skew),
    // Extension: per-KV protection and scrubber pacing cost.
    (&["integrity"], figures::fig_integrity),
    // §VI: subcompaction drain throughput + batched MultiGet.
    (&["parallelism"], parallelism::run),
    // Figs. 15–16, fix side: serial vs concurrent memtable apply.
    (&["writepath"], writepath::run),
    // Finding #2, fix side: blooms, block compression, sharded table cache.
    (&["readpath"], readpath::run),
    // Figs. 5/18 as a policy family: throughput variance + stall episodes.
    (&["stability"], stability::run),
    // Full-disk robustness: reclamation rate vs read tail and backlog.
    (&["space"], space::run),
];

/// Every name the registry answers to, in order.
pub fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
}

/// The entries `args` select, in registry order and each at most once;
/// `all` selects every entry.
///
/// # Errors
///
/// The first argument that names no experiment.
pub fn select(args: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "all" && !names().any(|n| n == *a))
    {
        return Err(unknown);
    }
    let wanted = |names: &[&str]| {
        args.iter()
            .any(|a| a == "all" || names.contains(&a.as_str()))
    };
    Ok(EXPERIMENTS.iter().filter(|(n, _)| wanted(n)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn names_are_unique_and_all_selects_every_entry() {
        let mut sorted: Vec<&str> = names().collect();
        sorted.sort_unstable();
        let total = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), total, "duplicate experiment name");
        assert!(!sorted.contains(&"all") && !sorted.contains(&"list"));
        assert!(!sorted.contains(&"probe"), "`probe` is the counter dump");

        let all = select(&args(&["all"])).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
    }

    #[test]
    fn a_shared_sweep_is_selected_once_and_unknown_names_are_refused() {
        let picked = select(&args(&["space", "fig05", "fig04"])).unwrap();
        let first_names: Vec<&str> = picked.iter().map(|(n, _)| n[0]).collect();
        assert_eq!(first_names, ["fig04", "space"]);
        assert_eq!(select(&args(&["fig03", "fig02"])).unwrap_err(), "fig02");
    }
}
