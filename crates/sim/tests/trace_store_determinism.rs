//! Trace-store determinism under concurrency: many pool workers requesting
//! the same `(spec, accesses)` must share one bit-identical trace, and
//! different specs must never alias a cache entry.

use std::sync::Arc;
use stms_sim::campaign::{JobPool, TraceStore};
use stms_types::SharedTrace;
use stms_workloads::{generate, presets};

const ACCESSES: usize = 6_000;

/// Runs `tasks` on a pool of `threads` workers; results in task order.
fn run_batch<F: FnOnce() -> SharedTrace + Send>(threads: usize, tasks: Vec<F>) -> Vec<SharedTrace> {
    let mut traces: Vec<Option<SharedTrace>> = vec![None; tasks.len()];
    JobPool::new(threads).for_each(tasks, |i, trace| {
        traces[i] = Some(trace.expect("generation never panics"));
    });
    traces.into_iter().map(Option::unwrap).collect()
}

#[test]
fn concurrent_requests_for_one_spec_share_one_bit_identical_trace() {
    let store = TraceStore::new();
    let requests = 16;

    let tasks: Vec<_> = (0..requests)
        .map(|_| || store.get_or_generate(&presets::web_apache(), ACCESSES))
        .collect();
    let traces = run_batch(8, tasks);

    // Every worker got the same allocation — not merely an equal trace.
    for trace in &traces[1..] {
        assert!(Arc::ptr_eq(&traces[0], trace));
    }
    // And it is bit-identical to a from-scratch generation of the same spec.
    let direct = generate(&presets::web_apache().with_accesses(ACCESSES));
    assert_eq!(*traces[0], direct);

    let stats = store.stats();
    assert_eq!(stats.generated, 1, "the trace was generated exactly once");
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, requests - 1);
    assert_eq!(store.len(), 1);
}

#[test]
fn distinct_specs_never_alias_a_cache_entry() {
    let store = TraceStore::new();

    // 4 distinct keys requested twice each, interleaved: different workloads,
    // a reseeded twin, and a different trace length of the same workload.
    let specs = [
        (presets::web_apache(), ACCESSES),
        (presets::sci_ocean(), ACCESSES),
        (presets::web_apache().with_seed(0xDEAD), ACCESSES),
        (presets::web_apache(), 2 * ACCESSES),
    ];
    let tasks: Vec<_> = (0..2 * specs.len())
        .map(|i| {
            let (spec, accesses) = &specs[i % specs.len()];
            || store.get_or_generate(spec, *accesses)
        })
        .collect();
    let traces = run_batch(4, tasks);

    // Same key -> same allocation; different key -> different allocation.
    for (i, a) in traces.iter().enumerate() {
        for (j, b) in traces.iter().enumerate() {
            let same_key = i % specs.len() == j % specs.len();
            assert_eq!(
                Arc::ptr_eq(a, b),
                same_key,
                "request {i} vs {j}: aliasing must follow key identity"
            );
        }
    }
    let stats = store.stats();
    assert_eq!(stats.generated, specs.len() as u64);
    assert_eq!(stats.misses, specs.len() as u64);
    assert_eq!(stats.hits, specs.len() as u64);
    assert_eq!(store.len(), specs.len());

    // The distinct entries really hold different traces.
    assert_ne!(traces[0], traces[2], "seed changes content");
    assert_ne!(traces[0].len(), traces[3].len(), "length changes content");
}
