//! Ignored-by-default long run used to document the effect of stream
//! recurrence counts on probabilistic-update coverage loss: prints STMS's
//! share of idealized coverage at two trace lengths.
use stms_sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms_workloads::presets;

#[test]
#[ignore = "long-running calibration check; run with --ignored"]
fn sampling_loss_shrinks_with_longer_traces() {
    for accesses in [600_000usize, 2_400_000] {
        let cfg = ExperimentConfig::scaled().with_accesses(accesses);
        let spec = presets::web_apache();
        let r = Campaign::new(cfg)
            .run_matched(
                &spec,
                &[
                    PrefetcherKind::ideal(),
                    PrefetcherKind::stms_with_sampling(0.125),
                ],
            )
            .expect("no simulation panics");
        println!(
            "accesses={accesses} ideal_cov={:.3} stms_cov={:.3} ratio={:.2}",
            r[0].coverage(),
            r[1].coverage(),
            r[1].coverage() / r[0].coverage().max(1e-9)
        );
    }
}
