//! Property tests for the telemetry primitives: snapshot merge must be
//! associative and commutative (snapshots can fold in any order),
//! counters and histograms must saturate rather than wrap near `u64::MAX`,
//! and concurrent recording must lose no samples.

use proptest::prelude::*;
use stms_obs::{HistogramSnapshot, Registry, Snapshot, BUCKETS};

/// Builds a registry-backed snapshot from generated samples, so merges are
/// exercised against snapshots the real recording path produces.
fn snapshot_of(counters: &[(u8, u64)], samples: &[(u8, u64)]) -> Snapshot {
    let registry = Registry::new();
    for &(name, value) in counters {
        registry.counter(&format!("c{}", name % 4)).add(value);
    }
    for &(name, value) in samples {
        registry.histogram(&format!("h{}", name % 4)).record(value);
    }
    registry.snapshot()
}

// Values stay below 2^53 so snapshots survive the JSON number round trip
// (the document stores integers in f64-exact range, like every JSON
// consumer); saturation near `u64::MAX` has its own property below.
fn arb_samples() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..(1 << 45)), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn merge_is_associative_and_commutative(
        a in (arb_samples(), arb_samples()),
        b in (arb_samples(), arb_samples()),
        c in (arb_samples(), arb_samples()),
    ) {
        let (sa, sb, sc) = (
            snapshot_of(&a.0, &a.1),
            snapshot_of(&b.0, &b.1),
            snapshot_of(&c.0, &c.1),
        );

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        // Merging preserves total sample counts (saturating-safe for these
        // sizes) and survives a JSON round trip.
        let direct = snapshot_of(
            &[a.0.clone(), b.0.clone()].concat(),
            &[a.1.clone(), b.1.clone()].concat(),
        );
        prop_assert_eq!(&ab, &direct);
        prop_assert_eq!(Snapshot::parse(&ab.to_json_string()).unwrap(), ab);
    }

    #[test]
    fn saturation_near_u64_max(base in (u64::MAX - 64)..u64::MAX, n in 1u64..64) {
        let registry = Registry::new();
        let counter = registry.counter("c");
        counter.add(base);
        for _ in 0..n {
            counter.add(u64::MAX);
        }
        prop_assert_eq!(counter.get(), u64::MAX, "counter froze at the ceiling");

        let histogram = registry.histogram("h");
        for _ in 0..n {
            histogram.record(base);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("h").unwrap();
        prop_assert_eq!(hist.count, n);
        prop_assert_eq!(hist.sum, if n == 1 { base } else { u64::MAX });
        prop_assert_eq!(hist.max, base);

        // Merging two saturated snapshots stays saturated, never wraps.
        let mut merged = snap.clone();
        merged.merge(&snap);
        prop_assert_eq!(merged.counter("c"), Some(u64::MAX));
        prop_assert_eq!(merged.histogram("h").unwrap().sum, u64::MAX);
        prop_assert_eq!(merged.histogram("h").unwrap().count, 2 * n);
    }

    #[test]
    fn concurrent_recording_loses_nothing(threads in 2usize..6, per_thread in 1u64..200) {
        let registry = Registry::new();
        // Handles created up front and shared across threads.
        let counter = registry.counter("c");
        let histogram = registry.histogram("h");
        let gauge = registry.gauge("g");
        std::thread::scope(|scope| {
            for t in 0..threads {
                let counter = counter.clone();
                let histogram = histogram.clone();
                let gauge = gauge.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        counter.incr();
                        histogram.record(i + t as u64);
                        gauge.record_max(i + 1);
                    }
                });
            }
        });
        let expected = threads as u64 * per_thread;
        prop_assert_eq!(counter.get(), expected);
        let snap = registry.snapshot();
        let hist = snap.histogram("h").unwrap();
        prop_assert_eq!(hist.count, expected);
        let bucket_total: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, expected, "every sample landed in a bucket");
        prop_assert_eq!(snap.gauge("g"), Some(per_thread));
    }

    #[test]
    fn bucket_indices_stay_in_range(samples in proptest::collection::vec(any::<u64>(), 1..64)) {
        let registry = Registry::new();
        let histogram = registry.histogram("h");
        for &v in &samples {
            histogram.record(v);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("h").unwrap();
        prop_assert_eq!(hist.count, samples.len() as u64);
        prop_assert_eq!(hist.max, samples.iter().copied().max().unwrap());
        for &(index, _) in &hist.buckets {
            prop_assert!((index as usize) < BUCKETS);
        }
        // Quantiles are monotone in q and clamped to the observed max.
        let (p50, p95, p100) = (hist.quantile(0.5), hist.quantile(0.95), hist.quantile(1.0));
        prop_assert!(p50 <= p95 && p95 <= p100);
        prop_assert_eq!(p100, hist.max);
    }
}

#[test]
fn merge_with_empty_is_identity() {
    let snap = snapshot_of(&[(0, 5), (1, 7)], &[(0, 100), (2, 3)]);
    let mut merged = snap.clone();
    merged.merge(&Snapshot::default());
    assert_eq!(merged, snap);
    let mut from_empty = Snapshot::default();
    from_empty.merge(&snap);
    assert_eq!(from_empty, snap);
    assert_eq!(HistogramSnapshot::default().mean(), 0);
}
