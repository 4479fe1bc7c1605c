//! Slot-parallel `u32` lanes for the small associative tables searched on
//! nearly every L1 miss: the stride table, the prefetch buffer and the
//! index table's bucket buffer.
//!
//! A table keeps one lane per slot, padded to whole groups of 32 lanes. A
//! lane of 0 marks a free slot. The stride table and the prefetch buffer
//! store a key's fingerprint, the high 32 bits of a multiplicative hash
//! with the low bit forced to 1, so never 0; the bucket buffer stores its
//! bucket index plus one, which is exact. A lookup compares a whole group
//! with the lane value into a bitmask, a loop LLVM lowers to SSE2
//! `pcmpeqd` with no branches, and checks the exact key only at the set
//! bits. Distinct keys may share a fingerprint; the exact check tells them
//! apart.

/// Lanes compared per bitmask.
pub(crate) const LANES: usize = 32;

/// The lane value of a free slot; no fingerprint equals it.
pub(crate) const FREE: u32 = 0;

/// The fingerprint of `key`: never [`FREE`].
#[inline]
pub(crate) fn fingerprint(key: u64) -> u32 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    ((key.wrapping_mul(MIX) >> 32) as u32) | 1
}

/// One `u32` lane per slot, in whole groups of 32; 0 marks a free slot.
#[derive(Debug, Clone)]
pub struct Lanes {
    groups: Vec<[u32; LANES]>,
}

impl Lanes {
    /// Lanes for `slots` slots, all free.
    pub fn new(slots: usize) -> Self {
        Lanes {
            groups: vec![[FREE; LANES]; slots.div_ceil(LANES)],
        }
    }

    /// Sets the lane of `slot` to `value`.
    #[inline]
    pub fn set(&mut self, slot: usize, value: u32) {
        self.groups[slot / LANES][slot % LANES] = value;
    }

    /// Frees every slot.
    pub fn clear(&mut self) {
        self.groups.fill([FREE; LANES]);
    }

    /// The first slot whose lane equals `fp` and for which `is_key` holds.
    #[inline]
    pub fn find(&self, fp: u32, mut is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        for (g, group) in self.groups.iter().enumerate() {
            let mut mask = match_mask(group, fp);
            while mask != 0 {
                let slot = g * LANES + mask.trailing_zeros() as usize;
                if is_key(slot) {
                    return Some(slot);
                }
                mask &= mask - 1;
            }
        }
        None
    }
}

/// Bit `i` is set when `group[i] == fp`.
#[inline(always)]
fn match_mask(group: &[u32; LANES], fp: u32) -> u32 {
    let mut mask = 0u32;
    for (i, &lane) in group.iter().enumerate() {
        mask |= u32::from(lane == fp) << i;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_never_free() {
        for key in [0, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_ne!(fingerprint(key), FREE);
        }
    }

    #[test]
    fn lanes_pad_to_whole_groups() {
        assert_eq!(Lanes::new(0).groups.len(), 0);
        assert_eq!(Lanes::new(1).groups.len(), 1);
        assert_eq!(Lanes::new(32).groups.len(), 1);
        assert_eq!(Lanes::new(33).groups.len(), 2);
    }

    #[test]
    fn find_checks_every_matching_lane_in_order() {
        let mut lanes = Lanes::new(40);
        for slot in [3, 31, 32, 39] {
            lanes.set(slot, 7);
        }
        let mut seen = Vec::new();
        let none = lanes.find(7, |slot| {
            seen.push(slot);
            false
        });
        assert_eq!(none, None);
        assert_eq!(seen, vec![3, 31, 32, 39]);
        assert_eq!(lanes.find(7, |slot| slot > 31), Some(32));
        assert_eq!(lanes.find(FREE, |_| true), Some(0));
        lanes.clear();
        assert_eq!(lanes.find(7, |_| true), None);
    }
}
