//! End-to-end checks of the campaign orchestration layer: the full figure
//! grid (`experiments::all_plans` in one campaign) generates each workload trace exactly once and drops it after its
//! last job, every figure renders through the job layer with the expected
//! shape and the committed text, and the cached-trace path reproduces the
//! regeneration path bit-for-bit.
//!
//! `tests/fixtures/grid_8000.txt` is the rendered grid, the stdout of
//! `stms-experiments --quick --accesses 8000 --figures all`. A change that
//! alters a figure on purpose replaces it with the text the failing test
//! writes under the test target's temporary directory.

use std::collections::HashSet;
use std::path::Path;
use stms_sim::campaign::{Campaign, FlightStats};
use stms_sim::experiments::{self, FIGURES};
use stms_sim::ExperimentConfig;
use stms_workloads::{presets, WorkloadSpec};

fn tiny() -> ExperimentConfig {
    ExperimentConfig::quick().with_accesses(8_000)
}

#[test]
fn full_grid_generates_each_workload_trace_exactly_once() {
    let cfg = tiny();
    let campaign = Campaign::with_threads(cfg.clone(), 2);
    let figures = campaign.run_figures(experiments::all_plans(&cfg));

    // All 14 experiments render through the job layer, in FIGURES order,
    // to the committed text.
    assert_eq!(figures.len(), FIGURES.len());
    let mut rendered = String::new();
    for (figure, &(id, _)) in figures.iter().zip(FIGURES) {
        let figure = figure.as_ref().expect("no job fails on the tiny grid");
        assert_eq!(figure.id, id);
        let text = figure.render();
        assert!(!text.trim().is_empty(), "{id}: empty output");
        rendered.push_str(&text);
        rendered.push('\n');
    }
    if rendered != include_str!("fixtures/grid_8000.txt") {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("grid_8000.txt");
        std::fs::write(&actual, &rendered).expect("write the rendered grid");
        panic!(
            "the rendered grid differs from tests/fixtures/grid_8000.txt; it is in {}",
            actual.display()
        );
    }

    // The distinct workload specs the grid can touch: the paper suite and
    // the commercial suite (the ablation reuses a suite workload).
    let distinct: HashSet<WorkloadSpec> = presets::paper_figure_suite()
        .into_iter()
        .chain(presets::commercial_suite())
        .map(|s| s.with_accesses(cfg.accesses))
        .collect();

    // 350 jobs, 57 of them equal to an earlier one, on 8 traces that each
    // carry several distinct jobs and so record one hierarchy log.
    let jobs: usize = experiments::all_plans(&cfg)
        .iter()
        .map(|plan| plan.job_count())
        .sum();
    assert_eq!(jobs, 350);
    assert_eq!(
        campaign.flight_stats(),
        FlightStats {
            executed: 293,
            shared: 57
        }
    );
    let stats = campaign.store().stats();
    assert_eq!(stats.logs_recorded, 8);
    assert_eq!(
        stats.generated,
        distinct.len() as u64,
        "each distinct workload trace is generated exactly once per batch"
    );
    assert_eq!(stats.misses, stats.generated);
    assert_eq!(stats.released, stats.generated, "every trace is dropped");
    assert!(campaign.store().is_empty());
    assert!(
        stats.hits > 100,
        "the grid re-uses cached traces heavily (got {} hits)",
        stats.hits
    );
}

#[test]
fn figure_shapes_match_the_paper_grid() {
    let cfg = tiny();
    let campaign = Campaign::with_threads(cfg.clone(), 2);
    let figures: Vec<_> = campaign
        .run_figures(experiments::all_plans(&cfg))
        .into_iter()
        .map(|f| f.expect("no job fails"))
        .collect();

    let by_id = |id: &str| {
        figures
            .iter()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("figure {id} missing"))
    };
    // Workload-per-row figures have one row per suite workload.
    assert_eq!(by_id("table2").table.row_count(), 8);
    assert_eq!(by_id("fig4").table.row_count(), 8);
    assert_eq!(by_id("fig9").table.row_count(), 8);
    // Sweep figures have one row per sweep point.
    assert_eq!(by_id("fig1-left").table.row_count(), 6);
    assert_eq!(by_id("fig5-left").table.row_count(), 6);
    assert_eq!(by_id("fig5-right").table.row_count(), 6);
    // fig8's header carries traffic+coverage per probability.
    assert_eq!(by_id("fig8").table.headers().len(), 1 + 2 * 7);
    // fig7 shows two sampling rows per workload.
    assert_eq!(by_id("fig7").table.row_count(), 16);
    // The ablation compares three organizations.
    assert_eq!(by_id("ablation-index").table.row_count(), 3);
}

#[test]
fn cached_traces_reproduce_the_regeneration_path() {
    let cfg = tiny();
    // Through the shared campaign (fig4's cells replay cached traces that
    // many other figures also used)...
    let plan = |id| experiments::plan_for_id(id, &cfg).expect("known id");
    let campaign = Campaign::with_threads(cfg.clone(), 2);
    let plans = vec![plan("table2"), plan("fig4"), plan("fig6-right")];
    let mut batched = campaign.run_figures(plans);
    let fig4_batched = batched.remove(1).expect("no job fails");

    // ...and alone, through a campaign with its own fresh store.
    let fig4_direct = Campaign::with_threads(cfg.clone(), 2)
        .run_figures(vec![plan("fig4")])
        .remove(0)
        .expect("no job fails");

    assert_eq!(fig4_batched.render(), fig4_direct.render());
}
