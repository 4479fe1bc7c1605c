//! Property tests for the telemetry primitives: counters and histograms
//! must saturate rather than wrap near `u64::MAX`, and concurrent
//! recording must lose no samples.

use proptest::prelude::*;
use stms_obs::{Registry, BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

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
