//! The synthetic trace generator.
//!
//! Given a [`WorkloadSpec`], the generator produces a multi-core [`Trace`]
//! whose off-chip miss stream has the statistical structure that drives the
//! paper's results: recurring variable-length temporal streams, single-visit
//! scan traffic, cache-resident hot data, pointer-dependence (MLP) and
//! compute gaps.

use crate::dist::sample_gap;
use crate::pool::{SharedStream, StreamPool};
use crate::spec::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stms_types::{AccessKind, CoreId, LineAddr, MemAccess, Trace, TraceMeta};

/// Base of the region from which unique (never-reused) stream/noise lines are
/// allocated. Kept far away from the hot set (lines `0..hot_lines`).
const FRESH_BASE: u64 = 1 << 33;
/// Base of the region from which sequential scan runs are allocated.
const SCAN_BASE: u64 = 1 << 34;
/// Multiplier of the bijective scrambling applied to fresh line numbers so
/// that consecutive allocations are not at stride-predictable addresses.
const SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Fresh allocations are scrambled within a 2^32-line (256 GB) region, large
/// enough that they never collide for any realistic trace length.
const FRESH_MASK: u64 = (1 << 32) - 1;

/// What a core is currently doing.
#[derive(Debug, Clone)]
enum Activity {
    /// Nothing queued; the next access picks a new activity.
    Idle,
    /// Replaying a temporal stream (either its first occurrence or a
    /// recurrence) starting at `pos`.
    Stream { stream: SharedStream, pos: usize },
    /// Emitting a sequential cold scan run.
    Scan { next: LineAddr, remaining: u64 },
}

/// Cold accesses are emitted in bursts of this many references before the
/// core returns to its hot (cache-resident) phase; this is what lets
/// independent off-chip misses overlap inside one reorder-buffer window and
/// gives the workloads their memory-level parallelism (Table 2).
const COLD_BURST_LEN: u32 = 8;

/// Alternating hot/cold execution phases of one core.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Emitting cold (temporal-stream / scan) accesses.
    Cold { remaining: u32 },
    /// Emitting hot-set accesses interleaved with the bulk of the compute.
    Hot { remaining: u32 },
}

/// Deterministic synthetic trace generator: the state behind [`generate`].
#[derive(Debug)]
pub(crate) struct TraceGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    /// One pool if `shared_pool`, otherwise one pool per core.
    pools: Vec<StreamPool>,
    activities: Vec<Activity>,
    phases: Vec<Phase>,
    fresh_counter: u64,
    scan_counter: u64,
}

impl TraceGenerator {
    /// Creates a generator for the given specification.
    ///
    /// # Panics
    ///
    /// Panics if the specification fails [`WorkloadSpec::validate`].
    fn new(spec: &WorkloadSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec {}: {e}", spec.name);
        }
        let pool_count = if spec.shared_pool { 1 } else { spec.cores };
        TraceGenerator {
            spec: spec.clone(),
            rng: StdRng::seed_from_u64(spec.seed),
            pools: (0..pool_count)
                .map(|_| StreamPool::new(spec.max_pool_streams))
                .collect(),
            activities: vec![Activity::Idle; spec.cores],
            phases: vec![
                Phase::Cold {
                    remaining: COLD_BURST_LEN
                };
                spec.cores
            ],
            fresh_counter: 0,
            scan_counter: 0,
        }
    }

    /// Samples the length of a hot phase so that, averaged over many phases,
    /// the requested `hot_fraction` of accesses target the hot set.
    fn sample_hot_phase_len(&mut self) -> u32 {
        let h = self.spec.hot_fraction;
        if h <= 0.0 {
            return 0;
        }
        let mean = (COLD_BURST_LEN as f64 * h / (1.0 - h).max(1e-6)).max(1.0);
        // Uniform in [0.5*mean, 1.5*mean] keeps the mean while adding jitter.
        let lo = (mean * 0.5).max(1.0) as u32;
        let hi = (mean * 1.5).ceil() as u32;
        self.rng.gen_range(lo..=hi.max(lo + 1))
    }

    fn pool_index(&self, core: CoreId) -> usize {
        if self.spec.shared_pool {
            0
        } else {
            core.index()
        }
    }

    /// Allocates a fresh, never-before-used line at a scrambled address.
    fn fresh_line(&mut self) -> LineAddr {
        let scrambled = (self.fresh_counter.wrapping_mul(SCRAMBLE)) & FRESH_MASK;
        self.fresh_counter += 1;
        LineAddr::new(FRESH_BASE + scrambled)
    }

    /// Allocates the start of a fresh sequential scan region.
    fn fresh_scan_run(&mut self, run: u64) -> LineAddr {
        let start = SCAN_BASE + self.scan_counter;
        self.scan_counter += run + 16; // leave a gap between runs
        LineAddr::new(start)
    }

    /// Builds a brand-new temporal stream of fresh addresses and registers it
    /// in the pool used by `core`.
    fn new_stream(&mut self, core: CoreId) -> SharedStream {
        let len = self.spec.stream_len.sample(&mut self.rng).max(2) as usize;
        let mut addrs = Vec::with_capacity(len);
        for _ in 0..len {
            addrs.push(self.fresh_line());
        }
        let pool = self.pool_index(core);
        self.pools[pool].add(addrs)
    }

    /// Picks a new activity for a core that has finished its previous one.
    fn new_activity(&mut self, core: CoreId) -> Activity {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < self.spec.p_noise {
            let run = self.spec.scan_run.max(1);
            if run == 1 {
                // A single cold access, emitted immediately as a 1-element scan.
                return Activity::Scan {
                    next: self.fresh_line(),
                    remaining: 1,
                };
            }
            return Activity::Scan {
                next: self.fresh_scan_run(run),
                remaining: run,
            };
        }
        let pool = self.pool_index(core);
        let recur =
            self.rng.gen_range(0.0..1.0) < self.spec.p_repeat && !self.pools[pool].is_empty();
        let stream = if recur {
            // Uniform selection over the retained pool: recurrences reach far
            // back in time, so most of them have aged out of the caches and
            // show up in the off-chip miss stream (where temporal streaming
            // can cover them).
            self.pools[pool]
                .pick(&mut self.rng)
                .expect("pool checked non-empty")
        } else {
            self.new_stream(core)
        };
        Activity::Stream { stream, pos: 0 }
    }

    /// Produces the next access for `core`.
    fn next_access(&mut self, core: CoreId) -> MemAccess {
        // Each core alternates between hot phases (cache-resident accesses
        // carrying the bulk of the compute, `mean_gap` instructions apart)
        // and cold bursts (temporal-stream / scan accesses back to back).
        // Hot accesses carry the same dependence behaviour as the rest of the
        // workload: pointer chasing through cache-resident structures (B-tree
        // upper levels, lock words) is what makes L1/L2 hit latency a
        // first-order bottleneck in commercial workloads (§5.2), while the
        // cold bursts give the off-chip miss stream its memory-level
        // parallelism (Table 2).
        let core_idx = core.index();
        match self.phases[core_idx] {
            Phase::Hot { remaining } => {
                self.phases[core_idx] = if remaining <= 1 {
                    Phase::Cold {
                        remaining: COLD_BURST_LEN,
                    }
                } else {
                    Phase::Hot {
                        remaining: remaining - 1,
                    }
                };
                let line = LineAddr::new(self.rng.gen_range(0..self.spec.hot_lines.max(1)));
                let dependent = self.rng.gen_range(0.0..1.0) < self.spec.p_dependent;
                return self.finish_access(core, line, dependent, self.spec.mean_gap);
            }
            Phase::Cold { remaining } => {
                self.phases[core_idx] = if remaining <= 1 {
                    let hot_len = self.sample_hot_phase_len();
                    if hot_len == 0 {
                        Phase::Cold {
                            remaining: COLD_BURST_LEN,
                        }
                    } else {
                        Phase::Hot { remaining: hot_len }
                    }
                } else {
                    Phase::Cold {
                        remaining: remaining - 1,
                    }
                };
            }
        }
        // Take the activity out to appease the borrow checker.
        let mut activity = std::mem::replace(&mut self.activities[core_idx], Activity::Idle);
        if matches!(activity, Activity::Idle) {
            activity = self.new_activity(core);
        }
        let (line, next_activity) = match activity {
            Activity::Idle => unreachable!("idle replaced above"),
            Activity::Stream { stream, pos } => {
                let line = stream[pos];
                let diverge = self.rng.gen_range(0.0..1.0) < self.spec.p_divergence;
                let next_pos = pos + 1;
                let next = if diverge || next_pos >= stream.len() {
                    Activity::Idle
                } else {
                    Activity::Stream {
                        stream,
                        pos: next_pos,
                    }
                };
                (line, next)
            }
            Activity::Scan { next, remaining } => {
                let line = next;
                let next_activity = if remaining <= 1 {
                    Activity::Idle
                } else {
                    Activity::Scan {
                        next: next.next(),
                        remaining: remaining - 1,
                    }
                };
                (line, next_activity)
            }
        };
        self.activities[core_idx] = next_activity;
        let dependent = self.rng.gen_range(0.0..1.0) < self.spec.p_dependent;
        // Cold (stream/scan) accesses arrive in bursts with little compute in
        // between, so that independent misses can overlap inside one ROB
        // window.
        let burst_gap = self.spec.mean_gap.min(4);
        self.finish_access(core, line, dependent, burst_gap)
    }

    fn finish_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        dependent: bool,
        gap_mean: u32,
    ) -> MemAccess {
        let gap = sample_gap(&mut self.rng, gap_mean);
        let kind = if self.rng.gen_range(0.0..1.0) < self.spec.p_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemAccess {
            core,
            line,
            kind,
            compute_gap: gap,
            dependent,
        }
    }
}

/// Generates the trace for a spec: `spec.accesses` accesses, issued by
/// the cores in round-robin order.
///
/// # Panics
///
/// Panics if the specification fails [`WorkloadSpec::validate`].
///
/// # Example
///
/// ```
/// use stms_workloads::{generate, presets};
///
/// let spec = presets::web_apache().with_accesses(5_000);
/// let trace = generate(&spec);
/// assert_eq!(trace.len(), 5_000);
/// assert_eq!(trace.meta().workload, "Web Apache");
/// assert_eq!(trace, generate(&spec), "generation is deterministic");
/// ```
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let mut generator = TraceGenerator::new(spec);
    let meta = TraceMeta {
        workload: spec.name.clone(),
        cores: spec.cores,
        seed: spec.seed,
        footprint_lines: spec.approx_footprint_lines(),
    };
    let mut accesses = Vec::with_capacity(spec.accesses);
    for i in 0..spec.accesses {
        let core = CoreId::new((i % spec.cores) as u16);
        accesses.push(generator.next_access(core));
    }
    Trace::from_accesses(meta, accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LengthDist;
    use crate::spec::WorkloadClass;
    use std::collections::HashMap;

    fn test_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "gen-test".into(),
            class: WorkloadClass::Web,
            cores: 4,
            accesses: 40_000,
            p_repeat: 0.6,
            stream_len: LengthDist::Pareto {
                min: 4,
                max: 200,
                alpha: 1.2,
            },
            max_pool_streams: 200,
            shared_pool: true,
            p_noise: 0.1,
            scan_run: 1,
            hot_fraction: 0.3,
            hot_lines: 256,
            p_dependent: 0.6,
            mean_gap: 8,
            p_divergence: 0.01,
            p_write: 0.1,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_length_and_meta() {
        let spec = test_spec();
        let t = generate(&spec);
        assert_eq!(t.len(), 40_000);
        assert_eq!(t.meta().workload, "gen-test");
        assert_eq!(t.meta().cores, 4);
        assert_eq!(t.meta().seed, 42);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = test_spec();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        let c = generate(&spec.clone().with_seed(43));
        assert_ne!(a, c);
    }

    #[test]
    fn all_cores_emit_accesses() {
        let t = generate(&test_spec());
        for core in 0..4u16 {
            assert!(
                !t.per_core(CoreId::new(core)).is_empty(),
                "core {core} emitted no accesses"
            );
        }
    }

    #[test]
    fn hot_fraction_produces_hot_accesses() {
        let spec = test_spec();
        let t = generate(&spec);
        let hot = t.iter().filter(|a| a.line.raw() < spec.hot_lines).count();
        let frac = hot as f64 / t.len() as f64;
        assert!(
            (frac - spec.hot_fraction).abs() < 0.05,
            "hot access fraction {frac} should be near {}",
            spec.hot_fraction
        );
    }

    #[test]
    fn repetition_exists_for_repeating_workload() {
        let t = generate(&test_spec());
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for a in t.iter().filter(|a| a.line.raw() >= FRESH_BASE) {
            *counts.entry(a.line.raw()).or_default() += 1;
        }
        let repeated = counts.values().filter(|&&c| c >= 2).count();
        let frac = repeated as f64 / counts.len().max(1) as f64;
        assert!(
            frac > 0.3,
            "a repeating workload should revisit lines, got {frac}"
        );
    }

    #[test]
    fn zero_repeat_workload_has_no_stream_repetition() {
        let mut spec = test_spec();
        spec.p_repeat = 0.0;
        spec.p_divergence = 0.0;
        let t = generate(&spec);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for a in t.iter().filter(|a| a.line.raw() >= FRESH_BASE) {
            *counts.entry(a.line.raw()).or_default() += 1;
        }
        let repeated = counts.values().filter(|&&c| c >= 2).count();
        let frac = repeated as f64 / counts.len().max(1) as f64;
        assert!(
            frac < 0.02,
            "non-repeating workload revisits {frac} of lines"
        );
    }

    #[test]
    fn write_fraction_roughly_matches() {
        let t = generate(&test_spec());
        let writes = t.iter().filter(|a| a.kind == AccessKind::Write).count();
        let frac = writes as f64 / t.len() as f64;
        assert!((frac - 0.1).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn dependence_fraction_roughly_matches() {
        let spec = test_spec();
        let t = generate(&spec);
        // Only non-hot accesses carry the dependence flag.
        let cold: Vec<_> = t.iter().filter(|a| a.line.raw() >= FRESH_BASE).collect();
        let dep = cold.iter().filter(|a| a.dependent).count();
        let frac = dep as f64 / cold.len() as f64;
        assert!(
            (frac - spec.p_dependent).abs() < 0.07,
            "dependent fraction {frac}"
        );
    }

    #[test]
    fn scan_runs_are_sequential() {
        let mut spec = test_spec();
        spec.p_noise = 1.0;
        spec.scan_run = 32;
        spec.hot_fraction = 0.0;
        spec.accesses = 1000;
        spec.cores = 1;
        let t = generate(&spec);
        // Consecutive accesses within a run differ by exactly one line.
        let unit_steps = t
            .accesses()
            .windows(2)
            .filter(|w| w[1].line.raw() == w[0].line.raw() + 1)
            .count();
        assert!(
            unit_steps > 800,
            "scan workload should be mostly sequential, got {unit_steps}"
        );
    }

    #[test]
    fn fresh_lines_do_not_collide_with_hot_or_scan_regions() {
        let mut g = TraceGenerator::new(&test_spec());
        for _ in 0..10_000 {
            let l = g.fresh_line().raw();
            assert!((FRESH_BASE..SCAN_BASE).contains(&l));
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn invalid_spec_panics() {
        let mut spec = test_spec();
        spec.p_repeat = 2.0;
        let _ = TraceGenerator::new(&spec);
    }
}
