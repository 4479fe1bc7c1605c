//! The traced run: every per-layer metric, from timing the benchmark's own
//! calls into each layer's public functions.
//!
//! * Replays of the workload's traces under each family, once plain and
//!   once through the timing adapter, give engine self time, callback time
//!   and the tracing overhead.
//! * A logging replay per prefetching family feeds the standalone
//!   prefetch-buffer, index-table and history-buffer probes; the trace
//!   itself feeds the standalone caches.
//! * A per-job campaign pass and a timed result-store read-back give the
//!   campaign-layer numbers.
//!
//! The run fails (no per-layer number is trusted) when the accounting does
//! not add up: per family, engine self time must be non-negative, and
//! engine self time plus callback time must reproduce the untraced replay
//! time within the larger of the measured tracing overhead and the clock's
//! own cost, plus 10% for host noise between the two replays; and the
//! campaign's workers cannot be busy more than all of the time.

use crate::adapter::{Callback, CallbackTimes, Observed, Timed};
use crate::gate::{check_sim, output_hash, Gate};
use crate::inputs::{grid_jobs, grid_specs, replay_jobs, replay_specs, stms_config, Family, Scale};
use crate::layers::{
    drive_caches, drive_meta_data, drive_prefetch_buffers, BufferTimes, CacheTimes, ClockCost,
    MetaTimes,
};
use crate::report::{per_layer_names, Report};
use crate::run::{
    campaign_job, check_warm, for_seconds, per_job_pass, populate_grid_cache, remove_scratch,
    replay, scratch_dir, warm_campaign, JobPass,
};
use crate::stats::{median, Summary};
use crate::{Settings, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use stms_core::{IndexStats, Stms, StmsStats};
use stms_mem::{CmpSimulator, SimResult, TrafficStats};
use stms_sim::{Campaign, ExperimentConfig, JobOutput, JobSpec, ResultStore};
use stms_types::Trace;
use stms_workloads::{generate, WorkloadSpec};

/// Host noise the accounting check allows between the plain and the traced
/// replays, as a share of the untraced replay time.
const ACCOUNTING_SLACK: f64 = 0.1;

/// What one traced replay produced.
struct TracedReplay {
    result: Result<SimResult, String>,
    secs: f64,
    times: CallbackTimes,
    stms: Option<(StmsStats, IndexStats)>,
}

/// Replays `trace` under `family` through a [`Timed`] adapter (timing, or
/// logging when `logging`), prefetcher construction included in the timed
/// region as in the untraced replay.
fn adapted_replay(
    cfg: &ExperimentConfig,
    trace: &Trace,
    family: Family,
    logging: bool,
) -> (TracedReplay, Vec<Observed>) {
    let started = Instant::now();
    let run = |p: &mut dyn stms_mem::Prefetcher| {
        let mut timed = if logging {
            Timed::logging(p)
        } else {
            Timed::new(p)
        };
        let result = CmpSimulator::new(&cfg.system, cfg.sim).run(trace, &mut timed);
        (result, timed.times, timed.log.unwrap_or_default())
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if family == Family::Stms {
            let mut stms = Stms::new(stms_config(cfg.system.cores));
            let (result, times, log) = run(&mut stms);
            (result, times, log, Some((stms.stats(), stms.index_stats())))
        } else {
            let mut prefetcher = family.kind().build(cfg.system.cores);
            let (result, times, log) = run(prefetcher.as_mut());
            (result, times, log, None)
        }
    }));
    let secs = started.elapsed().as_secs_f64();
    match outcome {
        Ok((result, times, log, stms)) => (
            TracedReplay {
                result: Ok(result),
                secs,
                times,
                stms,
            },
            log,
        ),
        Err(_) => (
            TracedReplay {
                result: Err(format!(
                    "traced replay of {} under {} panicked",
                    trace.meta().workload,
                    family.name()
                )),
                secs,
                times: CallbackTimes::default(),
                stms: None,
            },
            Vec::new(),
        ),
    }
}

/// Callback time with the clock's own reading removed from each call.
fn callback_ns(times: &CallbackTimes, clock: &ClockCost) -> f64 {
    [
        Callback::Trigger,
        Callback::NextChunk,
        Callback::Record,
        Callback::Other,
    ]
    .into_iter()
    .map(|kind| {
        let k = kind as usize;
        (times.mean_ns(kind) - clock.reading_ns).max(0.0) * times.calls[k] as f64
    })
    .sum()
}

/// Per-family sums of one probe pass.
#[derive(Debug, Clone, Copy, Default)]
struct FamilyPass {
    untraced_s: f64,
    traced_s: f64,
    callback_ns: f64,
    clock_ns: f64,
}

/// Everything the replay probe gathers.
#[derive(Debug, Default)]
struct Probe {
    passes: Vec<[FamilyPass; 5]>,
    times: [CallbackTimes; 5],
    stms: StmsStats,
    index: IndexStats,
    traffic: TrafficStats,
    caches: CacheTimes,
    buffers: BufferTimes,
    meta: MetaTimes,
}

fn add_stms(total: &mut StmsStats, more: &StmsStats) {
    total.triggers += more.triggers;
    total.index_hits += more.index_hits;
    total.recorded += more.recorded;
    total.updates_performed += more.updates_performed;
    total.updates_skipped += more.updates_skipped;
    total.history_blocks_read += more.history_blocks_read;
    total.end_marks += more.end_marks;
}

fn add_index(total: &mut IndexStats, more: &IndexStats) {
    total.lookups += more.lookups;
    total.hits += more.hits;
    total.updates += more.updates;
    total.buffer_hits += more.buffer_hits;
    total.writebacks += more.writebacks;
}

/// Replays every trace under every family, plain and traced, for
/// `seconds`; then one logging replay per prefetching family drives the
/// standalone layers.
fn replay_probe(
    cfg: &ExperimentConfig,
    traces: &[Trace],
    seconds: f64,
    clock: &ClockCost,
    gate: &mut Gate,
) -> Probe {
    let mut probe = Probe::default();
    let slot = |t: usize, f: usize| t * Family::ALL.len() + f;
    for_seconds(seconds, || {
        let first = probe.passes.is_empty();
        let traced_first = probe.passes.len() % 2 == 1;
        let mut sums = [FamilyPass::default(); 5];
        for (t, trace) in traces.iter().enumerate() {
            for (f, family) in Family::ALL.into_iter().enumerate() {
                for traced_now in [traced_first, !traced_first] {
                    if !traced_now {
                        let (result, secs) = replay(cfg, trace, family);
                        sums[f].untraced_s += secs;
                        let checked = result.and_then(|r| {
                            check_sim(cfg, trace.len(), &r)?;
                            if first {
                                probe.traffic.merge(&r.traffic);
                            }
                            Ok(output_hash(&JobOutput::Sim(r)))
                        });
                        gate.record(slot(t, f), checked);
                        continue;
                    }
                    let (traced, _) = adapted_replay(cfg, trace, family, false);
                    sums[f].traced_s += traced.secs;
                    sums[f].callback_ns += callback_ns(&traced.times, clock);
                    sums[f].clock_ns += traced.times.total_calls() as f64 * clock.overhead_ns;
                    if first {
                        probe.times[f].merge(&traced.times);
                        if let Some((stms, index)) = &traced.stms {
                            add_stms(&mut probe.stms, stms);
                            add_index(&mut probe.index, index);
                        }
                    }
                    gate.record(
                        slot(t, f),
                        traced.result.map(|r| output_hash(&JobOutput::Sim(r))),
                    );
                }
            }
        }
        probe.passes.push(sums);
    });
    for (t, trace) in traces.iter().enumerate() {
        drive_caches(&cfg.system, trace, &mut probe.caches);
        for (f, family) in Family::ALL.into_iter().enumerate() {
            if family == Family::Baseline {
                continue;
            }
            let (traced, log) = adapted_replay(cfg, trace, family, true);
            gate.record(
                slot(t, f),
                traced.result.map(|r| output_hash(&JobOutput::Sim(r))),
            );
            drive_prefetch_buffers(
                cfg.system.cores,
                cfg.sim.prefetch_buffer_lines,
                &log,
                &mut probe.buffers,
            );
            if family == Family::Stms {
                drive_meta_data(&cfg.system, &log, &mut probe.meta);
            }
        }
    }
    probe
}

/// Per-job campaign pass plus its trace-store counter.
struct CampaignProbe {
    pass: JobPass,
    threads: usize,
    distinct_traces: u64,
}

/// Reads every job back from a freshly opened result store over `dir`,
/// timing each `ResultStore::get`; each output must equal the campaign's.
fn result_store_probe(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    pass: &JobPass,
    dir: &Path,
    gate: &mut Gate,
) -> Result<(Vec<f64>, u64, u64), String> {
    let store = ResultStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let keys: Vec<_> = jobs.iter().map(|job| store.job_key(cfg, job)).collect();
    let mut get_us = Vec::with_capacity(jobs.len());
    for ((job, key), outcome) in jobs.iter().zip(&keys).zip(&pass.outcomes) {
        let started = Instant::now();
        let got = store.get(*key, cfg, job);
        get_us.push(started.elapsed().as_secs_f64() * 1e6);
        let matches = match (got, outcome) {
            (Some(got), Ok(want)) => output_hash(&got) == output_hash(want),
            _ => false,
        };
        if matches {
            gate.attempted += 1;
        } else {
            gate.fail(format!("{}: result-store read-back differs", job.label()));
        }
    }
    let stats = store.stats();
    Ok((get_us, stats.total_hits(), stats.misses))
}

/// Fills a fresh result store in `dir` with `pass`'s outputs.
fn fill_result_store(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    pass: &JobPass,
    dir: &Path,
) -> Result<(), String> {
    let store = ResultStore::open(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (job, outcome) in jobs.iter().zip(&pass.outcomes) {
        if let Ok(output) = outcome {
            store.put(store.job_key(cfg, job), output);
        }
    }
    Ok(())
}

/// Generates `specs` at `cfg`'s trace length, returning the traces and the
/// host ns per generated access.
fn generate_timed(cfg: &ExperimentConfig, specs: &[WorkloadSpec]) -> (Vec<Trace>, f64) {
    let started = Instant::now();
    let traces: Vec<Trace> = specs
        .iter()
        .map(|spec| generate(&spec.clone().with_accesses(cfg.accesses)))
        .collect();
    let ns = started.elapsed().as_secs_f64() * 1e9;
    let accesses: usize = traces.iter().map(Trace::len).sum();
    (traces, ns / accesses as f64)
}

/// The traced run of `workload`.
pub fn traced(settings: &Settings, workload: Workload) -> Result<(Report, Gate), String> {
    let dir = scratch_dir(workload.name())?;
    let Settings {
        scale,
        seed,
        seconds,
        threads,
        ..
    } = *settings;
    let outcome = traced_in(scale, workload, seed, seconds, threads, &dir);
    remove_scratch(&dir);
    outcome
}

fn traced_in(
    scale: Scale,
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    dir: &Path,
) -> Result<(Report, Gate), String> {
    let clock = ClockCost::calibrate();
    let (cfg, jobs, specs) = match workload {
        Workload::ReplayLong => (scale.replay_cfg(), replay_jobs(seed), replay_specs(seed)),
        Workload::GridCold | Workload::GridWarm => {
            let cfg = scale.grid_cfg();
            let jobs = grid_jobs(&cfg, seed);
            let specs = grid_specs(&jobs);
            (cfg, jobs, specs)
        }
    };
    let mut report = Report::default();
    let mut gate = Gate::new(specs.len() * Family::ALL.len());
    let (traces, generate_ns) = generate_timed(&cfg, &specs);
    let probe = replay_probe(&cfg, &traces, seconds, &clock, &mut gate);

    // Campaign layer: the workload's job list, one timed call per job.
    let mut job_gate = Gate::new(jobs.len());
    let campaign_probe = if workload == Workload::GridWarm {
        let (_, cold) = populate_grid_cache(&cfg, seed, threads, dir)?;
        job_gate.record_jobs(&cfg, &jobs, &cold);
        let campaign = warm_campaign(&cfg, threads, dir)?;
        let pass = per_job_pass(&jobs, threads, |job| campaign_job(&campaign, job));
        check_warm(&mut job_gate, &campaign.cache_stats());
        CampaignProbe {
            pass,
            threads: campaign.threads(),
            distinct_traces: campaign.store().stats().generated,
        }
    } else {
        let campaign = Campaign::with_threads(cfg.clone(), threads);
        let pass = per_job_pass(&jobs, threads, |job| campaign_job(&campaign, job));
        fill_result_store(&cfg, &jobs, &pass, dir)?;
        CampaignProbe {
            pass,
            threads: campaign.threads(),
            distinct_traces: campaign.store().stats().generated,
        }
    };
    job_gate.record_jobs(&cfg, &jobs, &campaign_probe.pass.outcomes);
    let digest_name = if workload == Workload::ReplayLong {
        "replay-long"
    } else {
        "grid"
    };
    job_gate.check_seed0(digest_name, seed, scale);
    let (get_us, store_hits, store_misses) =
        result_store_probe(&cfg, &jobs, &campaign_probe.pass, dir, &mut job_gate)?;
    gate.absorb(job_gate);

    emit(
        &mut report,
        &mut gate,
        &traces,
        &probe,
        &clock,
        generate_ns,
        &campaign_probe,
        &get_us,
        (store_hits, store_misses),
    );
    Ok((report, gate))
}

/// Records every per-layer metric in declaration order and runs the
/// accounting check.
#[allow(clippy::too_many_arguments)]
fn emit(
    report: &mut Report,
    gate: &mut Gate,
    traces: &[Trace],
    probe: &Probe,
    clock: &ClockCost,
    generate_ns: f64,
    campaign: &CampaignProbe,
    get_us: &[f64],
    store: (u64, u64),
) {
    let accesses: f64 = traces.iter().map(|t| t.len() as f64).sum();
    report.metric("workloads.generate_ns_per_access", generate_ns, "ns");

    // Engine self time and the accounting check, per family.
    let per = |f: usize, pick: fn(&FamilyPass) -> f64| -> f64 {
        median(&probe.passes.iter().map(|p| pick(&p[f])).collect::<Vec<_>>())
    };
    let mut callback_per_access = [0.0; 5];
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (f, family) in Family::ALL.into_iter().enumerate() {
        let untraced = per(f, |p| p.untraced_s * 1e9);
        let traced = per(f, |p| p.traced_s * 1e9);
        let callbacks = per(f, |p| p.callback_ns);
        let clock_ns = per(f, |p| p.clock_ns);
        let engine_self = traced - callbacks - clock_ns;
        traced_total += traced;
        untraced_total += untraced;
        let residual = (engine_self + callbacks - untraced).abs();
        let allowed = (traced - untraced).abs().max(clock_ns) + ACCOUNTING_SLACK * untraced;
        report.note(format!(
            "accounting {}: untraced {:.1} ms, traced {:.1} ms = self {:.1} + callbacks {:.1} + clock {:.1}",
            family.name(),
            untraced / 1e6,
            traced / 1e6,
            engine_self / 1e6,
            callbacks / 1e6,
            clock_ns / 1e6
        ));
        if engine_self < 0.0 || residual > allowed {
            gate.fail(format!(
                "accounting for {}: self {engine_self:.0} ns + callbacks {callbacks:.0} ns vs untraced {untraced:.0} ns",
                family.name()
            ));
        }
        callback_per_access[f] = callbacks / accesses;
        report.metric(
            format!("mem.engine.self_ns_per_access.{}", family.name()),
            engine_self.max(0.0) / accesses,
            "ns",
        );
    }

    report.metric(
        "mem.cache.l1_access_ns",
        probe.caches.l1_access.per_call(clock),
        "ns",
    );
    report.metric(
        "mem.cache.l2_access_ns",
        probe.caches.l2_access.per_call(clock),
        "ns",
    );
    report.metric("mem.cache.fill_ns", probe.caches.fill.per_call(clock), "ns");
    report.metric(
        "mem.prefetch_buffer.take_ns",
        probe.buffers.take.per_call(clock),
        "ns",
    );
    report.metric(
        "mem.prefetch_buffer.insert_ns",
        probe.buffers.insert.per_call(clock),
        "ns",
    );
    for (class, name) in stms_mem::TrafficClass::ALL
        .into_iter()
        .zip(crate::report::TRAFFIC_CLASSES)
    {
        report.metric(
            format!("mem.dram.bytes.{name}"),
            probe.traffic.get(class) as f64,
            "bytes",
        );
    }

    let stms = &probe.times[1];
    let per_call = |kind: Callback| (stms.mean_ns(kind) - clock.reading_ns).max(0.0);
    report.metric("core.stms.trigger_ns", per_call(Callback::Trigger), "ns");
    report.metric(
        "core.stms.next_chunk_ns",
        per_call(Callback::NextChunk),
        "ns",
    );
    report.metric("core.stms.record_ns", per_call(Callback::Record), "ns");
    report.metric(
        "core.stms.triggers",
        stms.calls[Callback::Trigger as usize] as f64,
        "count",
    );
    report.metric(
        "core.stms.next_chunks",
        stms.calls[Callback::NextChunk as usize] as f64,
        "count",
    );
    report.metric(
        "core.stms.records",
        stms.calls[Callback::Record as usize] as f64,
        "count",
    );
    let s = &probe.stms;
    report.metric("core.stms.index_hits", s.index_hits as f64, "count");
    report.metric(
        "core.stms.updates_performed",
        s.updates_performed as f64,
        "count",
    );
    report.metric(
        "core.stms.updates_skipped",
        s.updates_skipped as f64,
        "count",
    );
    report.metric(
        "core.stms.history_blocks_read",
        s.history_blocks_read as f64,
        "count",
    );
    report.metric("core.stms.end_marks", s.end_marks as f64, "count");
    report.metric("core.index.lookups", probe.index.lookups as f64, "count");
    report.metric(
        "core.index.buffer_hits",
        probe.index.buffer_hits as f64,
        "count",
    );
    report.metric(
        "core.index.writebacks",
        probe.index.writebacks as f64,
        "count",
    );
    report.metric(
        "core.index.lookup_ns",
        probe.meta.lookup.per_call(clock),
        "ns",
    );
    report.metric(
        "core.index.update_ns",
        probe.meta.update.per_call(clock),
        "ns",
    );
    report.metric(
        "core.history.append_ns",
        probe.meta.append.per_call(clock),
        "ns",
    );
    report.metric(
        "core.history.read_block_ns",
        probe.meta.read_block.per_call(clock),
        "ns",
    );

    for (f, family) in Family::ALL.into_iter().enumerate().skip(2) {
        report.metric(
            format!("prefetch.{}.callback_ns_per_access", family.name()),
            callback_per_access[f],
            "ns",
        );
        let calls: u64 = probe.times[f].calls.iter().sum();
        report.metric(
            format!("prefetch.{}.calls", family.name()),
            calls as f64,
            "count",
        );
    }

    let pass = &campaign.pass;
    let job_ms: Vec<f64> = pass.job_s.iter().map(|s| s * 1e3).collect();
    let jobs = Summary::of(&job_ms);
    let busy = pass.job_s.iter().sum::<f64>() / (campaign.threads as f64 * pass.wall_s);
    if busy > 1.0 {
        gate.fail(format!("campaign workers busy {busy:.3} of the time (> 1)"));
    }
    report.note(format!("campaign job time: {}", jobs.describe(1.0, "ms")));
    report.metric("sim.campaign.jobs", job_ms.len() as f64, "count");
    report.metric(
        "sim.campaign.distinct_traces",
        campaign.distinct_traces as f64,
        "count",
    );
    report.metric("sim.campaign.job_ms_p50", jobs.median, "ms");
    report.metric(
        "sim.campaign.job_ms_tail",
        jobs.tail.map_or(jobs.median, |t| t.1),
        "ms",
    );
    report.metric(
        "sim.campaign.job_ms_tail_pct",
        jobs.tail.map_or(50.0, |t| t.0),
        "pct",
    );
    report.metric("sim.campaign.busy_frac", busy, "ratio");

    let gets = Summary::of(get_us);
    report.note(format!("result-store get: {}", gets.describe(1.0, "us")));
    report.metric("sim.result_store.hits", store.0 as f64, "count");
    report.metric("sim.result_store.misses", store.1 as f64, "count");
    report.metric("sim.result_store.get_us_p50", gets.median, "us");
    report.metric(
        "sim.result_store.get_us_tail",
        gets.tail.map_or(gets.median, |t| t.1),
        "us",
    );
    report.metric(
        "sim.result_store.get_us_tail_pct",
        gets.tail.map_or(50.0, |t| t.0),
        "pct",
    );

    let overhead = (traced_total - untraced_total) / untraced_total;
    report.note(format!(
        "tracing overhead: {:.2}% of the untraced replay time",
        overhead * 100.0
    ));
    report.metric("bench.tracing_overhead", overhead, "ratio");
    debug_assert_eq!(report.names(), per_layer_names());
}
