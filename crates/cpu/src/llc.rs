//! Shared last-level cache (Table I: 8 MB, 16-way, 64 B lines).

use pim_mapping::{PhysAddr, LINE_SHIFT};

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    tag: u64,
    dirty: bool,
    lru: u64,
    valid: bool,
}

/// A set-associative, write-back, LRU last-level cache model.
///
/// Only tags are tracked (the timing simulation does not move data).
/// Non-cacheable accesses (PIM space, non-temporal stores) never reach
/// this structure.
#[derive(Debug)]
pub struct Llc {
    sets: Vec<Vec<TagEntry>>,
    set_mask: u64,
    stamp: u64,
    /// Load/store probes that hit.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl Llc {
    /// Create a cache of `bytes` capacity and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn new(bytes: u64, ways: u32) -> Self {
        let lines = bytes >> LINE_SHIFT;
        let sets = lines / ways as u64;
        assert!(sets.is_power_of_two(), "LLC sets must be a power of two");
        Llc {
            sets: vec![
                vec![
                    TagEntry {
                        tag: 0,
                        dirty: false,
                        lru: 0,
                        valid: false
                    };
                    ways as usize
                ];
                sets as usize
            ],
            set_mask: sets - 1,
            stamp: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.line();
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Probe for a load. Returns `true` on hit (LRU updated).
    pub fn probe_load(&mut self, addr: PhysAddr) -> bool {
        self.probe(addr, false)
    }

    /// Probe for a store. Returns `true` on hit (line marked dirty).
    pub fn probe_store(&mut self, addr: PhysAddr) -> bool {
        self.probe(addr, true)
    }

    fn probe(&mut self, addr: PhysAddr, write: bool) -> bool {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        for e in &mut self.sets[set] {
            if e.valid && e.tag == tag {
                e.lru = self.stamp;
                if write {
                    e.dirty = true;
                }
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Whether `addr`'s line is resident. A pure read: no LRU update and
    /// no hit or miss counted.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|e| e.valid && e.tag == tag)
    }

    /// Count `n` probes of a line that is not resident, exactly as `n`
    /// missing [`probe_load`](Self::probe_load)/[`probe_store`](Self::probe_store)
    /// calls would: each takes an LRU stamp and counts a miss.
    pub fn count_misses(&mut self, n: u64) {
        self.stamp += n;
        self.misses += n;
    }

    /// Install `addr`'s line (after a fill from memory), evicting the LRU
    /// way. Returns the physical address of an evicted *dirty* line that
    /// must be written back, if any.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Option<PhysAddr> {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        // Already present (racing fills): just refresh.
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.valid && e.tag == tag) {
            e.lru = self.stamp;
            e.dirty |= dirty;
            return None;
        }
        let stamp = self.stamp;
        let set_bits = self.set_mask.count_ones();
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("nonzero associativity");
        let mut evicted = None;
        if victim.valid && victim.dirty {
            let line = (victim.tag << set_bits) | set as u64;
            evicted = Some(PhysAddr(line << LINE_SHIFT));
            self.writebacks += 1;
        }
        *victim = TagEntry {
            tag,
            dirty,
            lru: stamp,
            valid: true,
        };
        evicted
    }

    /// Hit rate over all probes so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Llc::new(1 << 20, 16);
        let a = PhysAddr(0x4000);
        assert!(!c.contains(a));
        assert!(!c.probe_load(a));
        assert_eq!(c.fill(a, false), None);
        assert!(c.contains(a));
        assert!(c.probe_load(a));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        c.count_misses(3);
        assert_eq!((c.hits, c.misses), (1, 4), "contains counts nothing");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        // 2-way cache, tiny: force conflict evictions.
        let mut c = Llc::new(64 * 4, 2); // 2 sets x 2 ways
        let set_stride = 128; // 2 sets * 64 B
        let a = PhysAddr(0);
        let b = PhysAddr(set_stride);
        let d = PhysAddr(2 * set_stride);
        c.fill(a, true); // dirty
        c.fill(b, false);
        // Same set as a and b; evicts LRU = a (dirty).
        let wb = c.fill(d, false);
        assert_eq!(wb, Some(a));
        assert_eq!(c.writebacks, 1);
        // a is gone, d present.
        assert!(!c.probe_load(a));
        assert!(c.probe_load(d));
    }

    #[test]
    fn store_marks_dirty() {
        let mut c = Llc::new(1 << 16, 4);
        let a = PhysAddr(0x1000);
        c.fill(a, false);
        assert!(c.probe_store(a));
        // Evict everything in that set; a's eviction must write back.
        let sets = (1u64 << 16 >> 6) / 4;
        let stride = sets * 64;
        let mut wbs = 0;
        for i in 1..=4u64 {
            if c.fill(PhysAddr(0x1000 + i * stride), false).is_some() {
                wbs += 1;
            }
        }
        assert_eq!(wbs, 1);
    }

    #[test]
    fn table1_geometry() {
        let c = Llc::new(8 << 20, 16);
        assert_eq!(c.sets.len(), 8192);
        assert_eq!(c.hit_rate(), 0.0);
    }
}
