//! The set-associative correlation table behind the fixed-depth and Markov
//! prefetchers.
//!
//! Both prefetchers map a miss address (an entry's tag) to a short list of
//! successor addresses, in a table with true LRU replacement inside each
//! set. They differ only in how a new successor updates the list:
//! fixed-depth appends until the list is `depth` long
//! ([`CorrelationTable::append`]), Markov keeps it most-recent-first,
//! deduplicated and at most `depth` long
//! ([`CorrelationTable::push_front_unique`]).
//!
//! Memory grows with occupancy, not with the configured geometry. Each set
//! is a `Vec` of entries holding the tag, the LRU stamp and the successor
//! count inline. The successors live in one shared arena with `depth` slots
//! for each entry ever created; a victim's slots pass to the entry that
//! replaces it, so the arena never holds more than `entries × depth`
//! addresses and nothing is freed or allocated on replacement. Figure 6
//! (right) configures a 2^20-entry table at depth 12, 96 MiB if preallocated,
//! of which a figure trace fills a few percent.

use stms_types::LineAddr;

/// The largest successor count an entry can hold (its count field is a
/// `u16`).
pub(crate) const MAX_SUCCESSORS: usize = u16::MAX as usize;

/// One table entry; its successors are `depth` arena slots from
/// `block * depth` on, of which the first `len` are valid.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: LineAddr,
    lru: u64,
    block: u32,
    len: u16,
}

/// A set-associative table from a line to at most `depth` successor lines.
#[derive(Debug)]
pub(crate) struct CorrelationTable {
    sets: Vec<Vec<Entry>>,
    set_mask: u64,
    ways: usize,
    depth: usize,
    /// The successor arena: `depth` slots per entry ever created.
    successors: Vec<LineAddr>,
    clock: u64,
}

impl CorrelationTable {
    /// A table of `entries` entries in `associativity`-way sets, each
    /// holding at most `depth` successors. The caller validates `depth`
    /// (1 to [`MAX_SUCCESSORS`]) with its own message.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `associativity`, the set
    /// count is not a power of two, or `entries` exceeds `u32::MAX`.
    pub(crate) fn new(entries: usize, associativity: usize, depth: usize) -> Self {
        assert!(associativity > 0 && entries.is_multiple_of(associativity));
        let sets = entries / associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            u32::try_from(entries).is_ok(),
            "at most {} table entries",
            u32::MAX
        );
        debug_assert!((1..=MAX_SUCCESSORS).contains(&depth));
        CorrelationTable {
            sets: vec![Vec::new(); sets],
            set_mask: sets as u64 - 1,
            ways: associativity,
            depth,
            successors: Vec::new(),
            clock: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// The successors of `line`'s entry, in list order, refreshing its
    /// recency; `None` when the table holds no entry for `line`.
    pub(crate) fn lookup(&mut self, line: LineAddr) -> Option<&[LineAddr]> {
        self.clock += 1;
        let set_idx = self.set_of(line);
        let entry = self.sets[set_idx].iter_mut().find(|e| e.tag == line)?;
        entry.lru = self.clock;
        let start = entry.block as usize * self.depth;
        Some(&self.successors[start..start + usize::from(entry.len)])
    }

    /// The entry for `tag` with recency refreshed, created empty when
    /// absent (in a free way, else over the set's least recently used
    /// entry, whose successor slots it takes), and its `depth` slots.
    fn entry_mut(&mut self, tag: LineAddr) -> (&mut u16, &mut [LineAddr]) {
        self.clock += 1;
        let clock = self.clock;
        let depth = self.depth;
        let set_idx = self.set_of(tag);
        let set = &mut self.sets[set_idx];
        let way = match set.iter().position(|e| e.tag == tag) {
            Some(way) => way,
            None if set.len() < self.ways => {
                let block = (self.successors.len() / depth) as u32;
                self.successors
                    .resize(self.successors.len() + depth, LineAddr::default());
                set.push(Entry {
                    tag,
                    lru: clock,
                    block,
                    len: 0,
                });
                set.len() - 1
            }
            None => {
                let (way, victim) = set
                    .iter_mut()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .expect("associativity > 0");
                victim.tag = tag;
                victim.len = 0;
                way
            }
        };
        let entry = &mut set[way];
        entry.lru = clock;
        let start = entry.block as usize * depth;
        (&mut entry.len, &mut self.successors[start..start + depth])
    }

    /// Fixed-depth update: appends `successor` to `trigger`'s list unless
    /// the list is full.
    pub(crate) fn append(&mut self, trigger: LineAddr, successor: LineAddr) {
        let (len, slots) = self.entry_mut(trigger);
        if let Some(slot) = slots.get_mut(usize::from(*len)) {
            *slot = successor;
            *len += 1;
        }
    }

    /// Markov update: puts `successor` first in `trigger`'s list, removing
    /// an earlier copy of it, and drops the last successor when the list
    /// would exceed `depth`.
    pub(crate) fn push_front_unique(&mut self, trigger: LineAddr, successor: LineAddr) {
        let (len, slots) = self.entry_mut(trigger);
        let valid = usize::from(*len);
        let last = match slots[..valid].iter().position(|&s| s == successor) {
            Some(at) => at,
            None if valid < slots.len() => {
                *len += 1;
                valid
            }
            None => valid - 1,
        };
        slots[..=last].rotate_right(1);
        slots[0] = successor;
    }

    /// Number of entries stored.
    pub(crate) fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The two prefetchers' tables as they were before [`CorrelationTable`]:
/// one heap `Vec` of successors per entry, a cloned window and
/// `remove(0)`. Kept as the reference the differential tests compare
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use stms_types::{CoreId, LineAddr};

    #[derive(Debug, Clone)]
    struct Entry {
        tag: LineAddr,
        successors: Vec<LineAddr>,
        lru: u64,
    }

    /// A `Vec<Vec<Entry>>` table; `markov` picks the update rule.
    #[derive(Debug)]
    struct VecTable {
        sets: Vec<Vec<Entry>>,
        assoc: usize,
        depth: usize,
        markov: bool,
        clock: u64,
    }

    impl VecTable {
        fn new(entries: usize, assoc: usize, depth: usize, markov: bool) -> Self {
            VecTable {
                sets: vec![Vec::new(); entries / assoc],
                assoc,
                depth,
                markov,
                clock: 0,
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line.raw() % self.sets.len() as u64) as usize
        }

        fn learn(&mut self, trigger: LineAddr, successor: LineAddr) {
            self.clock += 1;
            let clock = self.clock;
            let (assoc, depth, markov) = (self.assoc, self.depth, self.markov);
            let set_idx = self.set_of(trigger);
            let set = &mut self.sets[set_idx];
            if let Some(e) = set.iter_mut().find(|e| e.tag == trigger) {
                e.lru = clock;
                if markov {
                    // Most-recent successor first; keep the list deduplicated.
                    e.successors.retain(|&s| s != successor);
                    e.successors.insert(0, successor);
                    e.successors.truncate(depth);
                } else if e.successors.len() < depth {
                    e.successors.push(successor);
                }
                return;
            }
            let entry = Entry {
                tag: trigger,
                successors: vec![successor],
                lru: clock,
            };
            if set.len() < assoc {
                set.push(entry);
            } else {
                let victim = set.iter_mut().min_by_key(|e| e.lru).expect("assoc > 0");
                *victim = entry;
            }
        }

        fn lookup(&mut self, line: LineAddr) -> Option<Vec<LineAddr>> {
            self.clock += 1;
            let clock = self.clock;
            let set_idx = self.set_of(line);
            let entry = self.sets[set_idx].iter_mut().find(|e| e.tag == line)?;
            entry.lru = clock;
            Some(entry.successors.clone()).filter(|s| !s.is_empty())
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// The fixed-depth prefetcher's table and per-core windows.
    #[derive(Debug)]
    pub(crate) struct FixedDepthRef {
        table: VecTable,
        recent: Vec<Vec<LineAddr>>,
    }

    impl FixedDepthRef {
        pub(crate) fn new(cores: usize, entries: usize, assoc: usize, depth: usize) -> Self {
            FixedDepthRef {
                table: VecTable::new(entries, assoc, depth, false),
                recent: vec![Vec::new(); cores],
            }
        }

        pub(crate) fn record(&mut self, core: CoreId, line: LineAddr) {
            let window: Vec<LineAddr> = self.recent[core.index()].clone();
            for &trigger in &window {
                self.table.learn(trigger, line);
            }
            let recent = &mut self.recent[core.index()];
            recent.push(line);
            if recent.len() > self.table.depth {
                recent.remove(0);
            }
        }

        pub(crate) fn lookup(&mut self, line: LineAddr) -> Option<Vec<LineAddr>> {
            self.table.lookup(line)
        }

        pub(crate) fn occupancy(&self) -> usize {
            self.table.occupancy()
        }
    }

    /// The Markov prefetcher's table and per-core last misses.
    #[derive(Debug)]
    pub(crate) struct MarkovRef {
        table: VecTable,
        last_miss: Vec<Option<LineAddr>>,
    }

    impl MarkovRef {
        pub(crate) fn new(cores: usize, entries: usize, assoc: usize, successors: usize) -> Self {
            MarkovRef {
                table: VecTable::new(entries, assoc, successors, true),
                last_miss: vec![None; cores],
            }
        }

        pub(crate) fn record(&mut self, core: CoreId, line: LineAddr) {
            if let Some(prev) = self.last_miss[core.index()] {
                if prev != line {
                    self.table.learn(prev, line);
                }
            }
            self.last_miss[core.index()] = Some(line);
        }

        pub(crate) fn lookup(&mut self, line: LineAddr) -> Option<Vec<LineAddr>> {
            self.table.lookup(line)
        }

        pub(crate) fn occupancy(&self) -> usize {
            self.table.occupancy()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{FixedDepthRef, MarkovRef};
    use super::*;
    use crate::{
        FixedDepthConfig, FixedDepthPrefetcher, MarkovConfig, MarkovPrefetcher, TablePlacement,
    };
    use proptest::prelude::*;
    use stms_mem::{DramModel, Prefetcher, SystemConfig};
    use stms_types::{CoreId, Cycle};

    fn lines(raw: &[u64]) -> Vec<LineAddr> {
        raw.iter().copied().map(LineAddr::new).collect()
    }

    #[test]
    fn append_stops_at_depth() {
        let mut t = CorrelationTable::new(4, 2, 2);
        for s in [5, 6, 7] {
            t.append(LineAddr::new(1), LineAddr::new(s));
        }
        assert_eq!(t.lookup(LineAddr::new(1)), Some(&lines(&[5, 6])[..]));
        assert_eq!(t.lookup(LineAddr::new(2)), None);
    }

    #[test]
    fn push_front_unique_is_mru_first_and_bounded() {
        let mut t = CorrelationTable::new(4, 2, 3);
        for s in [5, 6, 7, 6, 8] {
            t.push_front_unique(LineAddr::new(1), LineAddr::new(s));
        }
        assert_eq!(t.lookup(LineAddr::new(1)), Some(&lines(&[8, 6, 7])[..]));
    }

    #[test]
    fn victim_hands_its_slots_to_the_new_entry() {
        // One set of two ways: the third tag replaces the least recently
        // used one and starts with an empty list in its slots.
        let mut t = CorrelationTable::new(2, 2, 2);
        t.append(LineAddr::new(1), LineAddr::new(10));
        t.append(LineAddr::new(2), LineAddr::new(20));
        t.append(LineAddr::new(1), LineAddr::new(11));
        t.append(LineAddr::new(3), LineAddr::new(30));
        assert_eq!(t.lookup(LineAddr::new(2)), None);
        assert_eq!(t.lookup(LineAddr::new(3)), Some(&lines(&[30])[..]));
        assert_eq!(t.lookup(LineAddr::new(1)), Some(&lines(&[10, 11])[..]));
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.successors.len(), 2 * 2, "no slots beyond the ways");
    }

    #[test]
    fn memory_grows_with_occupancy() {
        // Figure 6 (right)'s geometry: a handful of entries costs a
        // handful of successor slots, not entries x depth.
        let mut t = CorrelationTable::new(1 << 20, 16, 12);
        for l in 0..5u64 {
            t.append(LineAddr::new(l), LineAddr::new(l + 1));
        }
        assert_eq!(t.occupancy(), 5);
        assert_eq!(t.successors.len(), 5 * 12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_panics() {
        let _ = CorrelationTable::new(12, 4, 1);
    }

    /// A table geometry small enough that sets fill and victims get
    /// chosen (1-4 sets, 1-4 ways, depth 1-6, 1-4 cores), and a script of
    /// `(record?, core, line)` steps over 24 lines.
    type Case = (usize, usize, usize, usize, Vec<(bool, u16, u64)>);

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            0u32..3,
            1usize..5,
            1usize..7,
            1u16..5,
            collection::vec((any::<bool>(), 0u16..4, 0u64..24), 0..300),
        )
            .prop_map(|(set_bits, ways, depth, cores, mut ops)| {
                for op in &mut ops {
                    op.1 %= cores;
                }
                ((1 << set_bits) * ways, ways, depth, usize::from(cores), ops)
            })
    }

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn fixed_depth_matches_vec_reference(case in arb_case()) {
            let (entries, associativity, depth, cores, ops) = case;
            let mut pf = FixedDepthPrefetcher::new(FixedDepthConfig {
                cores,
                entries,
                associativity,
                depth,
                placement: TablePlacement::OnChip,
            });
            let mut reference = FixedDepthRef::new(cores, entries, associativity, depth);
            let mut d = dram();
            for (record, core, raw) in ops {
                let (core, line) = (CoreId::new(core), LineAddr::new(raw));
                if record {
                    pf.record(core, line, false, Cycle::ZERO, &mut d);
                    reference.record(core, line);
                } else {
                    let chunk = pf.on_trigger(core, line, Cycle::ZERO, &mut d);
                    prop_assert_eq!(chunk.map(|c| c.addresses), reference.lookup(line));
                }
            }
            prop_assert_eq!(pf.occupancy(), reference.occupancy());
        }

        #[test]
        fn markov_matches_vec_reference(case in arb_case()) {
            let (entries, associativity, successors, cores, ops) = case;
            let mut pf = MarkovPrefetcher::new(MarkovConfig {
                cores,
                entries,
                associativity,
                successors,
            });
            let mut reference = MarkovRef::new(cores, entries, associativity, successors);
            let mut d = dram();
            for (record, core, raw) in ops {
                let (core, line) = (CoreId::new(core), LineAddr::new(raw));
                if record {
                    pf.record(core, line, false, Cycle::ZERO, &mut d);
                    reference.record(core, line);
                } else {
                    let chunk = pf.on_trigger(core, line, Cycle::ZERO, &mut d);
                    prop_assert_eq!(chunk.map(|c| c.addresses), reference.lookup(line));
                }
            }
            prop_assert_eq!(pf.occupancy(), reference.occupancy());
        }
    }
}
