//! Smoke test for the `stms-experiments` driver path: looks plans up by id
//! and runs them through one campaign, as the binary does, for two cheap
//! representative targets (`fig4`, `table2`), under the quick
//! configuration, and checks that each produces non-empty rendered output.

use stms_sim::{experiments, Campaign, ExperimentConfig};

#[test]
fn fig4_and_table2_render_under_quick_config() {
    let cfg = ExperimentConfig::quick().with_accesses(20_000);
    let ids = ["fig4", "table2"];
    let plans = ids
        .iter()
        .map(|id| experiments::plan_for_id(id, &cfg).expect("known id"))
        .collect();
    let figures = Campaign::with_threads(cfg.clone(), 2).run_figures(plans);

    for (expected_id, figure) in ids.into_iter().zip(figures) {
        let result = figure.expect("no job fails");
        assert_eq!(result.id, expected_id);
        assert!(
            result.table.row_count() > 0,
            "{expected_id}: empty result table"
        );

        let rendered = result.render();
        assert!(
            !rendered.trim().is_empty(),
            "{expected_id}: empty rendered output"
        );
        assert!(
            rendered.contains(&result.notes),
            "{expected_id}: rendered output must include the comparison notes"
        );

        // The CSV export the binary writes under --csv must be non-empty too:
        // a header line plus one line per table row.
        let csv = result.table.to_csv();
        assert!(
            csv.lines().count() > result.table.row_count(),
            "{expected_id}: truncated csv"
        );
    }
}
