//! A poisoned configuration must surface as a per-job error, not abort the
//! process (the seed driver's `.expect("simulation thread panicked")` took
//! the whole campaign down with it).

use stms_prefetch::MarkovConfig;
use stms_sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms_workloads::presets;

/// A Markov table whose entry count is not a multiple of its associativity:
/// `MarkovPrefetcher::new` panics when the job builds the prefetcher.
fn poisoned_kind() -> PrefetcherKind {
    PrefetcherKind::Markov(MarkovConfig {
        entries: 3,
        associativity: 2,
        ..Default::default()
    })
}

#[test]
fn poisoned_config_yields_a_job_error_instead_of_aborting() {
    // Silence the worker threads' panic backtraces for this test binary.
    std::panic::set_hook(Box::new(|_| {}));

    let campaign = Campaign::with_threads(ExperimentConfig::quick().with_accesses(5_000), 2);

    // run_suite: the error names the workload × prefetcher cell that died.
    let specs = vec![presets::web_apache(), presets::dss_qry17()];
    let err = campaign.run_suite(&specs, &poisoned_kind()).unwrap_err();
    assert!(err.job.contains("markov"), "job label: {}", err.job);
    assert!(
        err.job.contains("Web Apache") || err.job.contains("DSS DB2"),
        "job label names the workload: {}",
        err.job
    );
    assert!(!err.message.is_empty());

    // run_matched: healthy kinds in the same batch are unaffected — only the
    // poisoned cell errors, and a follow-up run still works.
    let err = campaign
        .run_matched(
            &presets::web_apache(),
            &[PrefetcherKind::Baseline, poisoned_kind()],
        )
        .unwrap_err();
    assert!(err.to_string().contains("failed"));

    let ok = campaign
        .run_matched(&presets::web_apache(), &[PrefetcherKind::Baseline])
        .expect("the pool survives earlier panics");
    assert_eq!(ok.len(), 1);

    let _ = std::panic::take_hook();
}
