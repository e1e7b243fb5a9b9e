//! The translation cache.
//!
//! "Caching the translations in a translation cache allows CMS to re-use
//! translations. When a previously translated x86 instruction sequence is
//! encountered, CMS skips the translation process and executes the cached
//! translation directly out of the translation cache. Thus, caching and
//! reusing translations exploits the locality of instruction streams such
//! that the initial cost of the translation is amortized over repeated
//! executions" (§2.2).
//!
//! Entries are keyed by guest block-leader pc and sized by their encoded
//! molecule bits; eviction is LRU when the configured capacity is
//! exceeded. CMS can also *flush* the cache (the real CMS does this on
//! self-modifying code or generation upgrades).
//!
//! The table is dense: slot `pc` holds the translation of the block
//! starting at `pc`, so a lookup — one per block execution — is an index,
//! not a hash. It grows to the highest pc ever inserted. Every lookup and
//! insertion takes a fresh tick, so `last_used` values are distinct and
//! the LRU victim does not depend on the order slots are walked in.

use crate::schedule::BlockSchedule;

/// One cached translation.
#[derive(Debug, Clone)]
pub struct TranslationEntry {
    /// Guest pc of the block leader.
    pub pc: usize,
    /// End of the guest block (exclusive instruction index).
    pub end: usize,
    /// The scheduled molecules and their timing.
    pub schedule: BlockSchedule,
    /// Logical timestamp of last use (for LRU).
    last_used: u64,
}

/// Translation-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TCacheStats {
    /// Lookups that found a translation.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Translations inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Whole-cache flushes.
    pub flushes: u64,
}

impl TCacheStats {
    /// Hit rate over all lookups, in `[0, 1]`; zero when there were none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The translation cache proper.
#[derive(Debug)]
pub struct TCache {
    capacity_bits: u64,
    used_bits: u64,
    /// Indexed by block-leader pc.
    slots: Vec<Option<TranslationEntry>>,
    len: usize,
    tick: u64,
    /// Running statistics.
    pub stats: TCacheStats,
}

impl TCache {
    /// Create a cache holding at most `capacity_bits` of translated code.
    pub fn new(capacity_bits: u64) -> Self {
        Self {
            capacity_bits,
            used_bits: 0,
            slots: Vec::new(),
            len: 0,
            tick: 0,
            stats: TCacheStats::default(),
        }
    }

    /// Capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_bits
    }

    /// Bits currently occupied by translations.
    pub fn used_bits(&self) -> u64 {
        self.used_bits
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the cache holds no translations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up a translation for the block starting at `pc`, updating LRU
    /// state and hit/miss statistics.
    pub fn lookup(&mut self, pc: usize) -> Option<&TranslationEntry> {
        self.tick += 1;
        match self.slots.get_mut(pc) {
            Some(Some(e)) => {
                self.stats.hits += 1;
                e.last_used = self.tick;
                Some(e)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The translation for the block starting at `pc`, without counting a
    /// lookup or touching LRU state (for inspection, not execution).
    pub(crate) fn peek(&self, pc: usize) -> Option<&TranslationEntry> {
        self.slots.get(pc)?.as_ref()
    }

    /// Insert a translation, evicting LRU entries if needed. A translation
    /// larger than the whole cache is rejected (returns `false`) — the real
    /// CMS would interpret such a region forever.
    pub fn insert(&mut self, pc: usize, end: usize, schedule: BlockSchedule) -> bool {
        let bits = schedule.code_bits;
        if bits > self.capacity_bits {
            return false;
        }
        self.remove(pc);
        while self.used_bits + bits > self.capacity_bits {
            let victim = self
                .slots
                .iter()
                .flatten()
                .min_by_key(|e| e.last_used)
                .map(|e| e.pc)
                .expect("capacity exceeded with no entries");
            self.remove(victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        if self.slots.len() <= pc {
            self.slots.resize_with(pc + 1, || None);
        }
        self.slots[pc] = Some(TranslationEntry {
            pc,
            end,
            schedule,
            last_used: self.tick,
        });
        self.len += 1;
        self.used_bits += bits;
        self.stats.insertions += 1;
        true
    }

    /// Remove one translation (self-modifying-code invalidation).
    /// Returns true if an entry existed.
    pub fn remove(&mut self, pc: usize) -> bool {
        match self.slots.get_mut(pc).and_then(Option::take) {
            Some(e) => {
                self.used_bits -= e.schedule.code_bits;
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Drop every translation (self-modifying code / CMS upgrade).
    pub fn flush(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.used_bits = 0;
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::Molecule;

    fn sched(bits: u64) -> BlockSchedule {
        BlockSchedule {
            cycles: 4,
            molecules: vec![Molecule { atoms: vec![0] }],
            n_atoms: 1,
            code_bits: bits,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut tc = TCache::new(1024);
        assert!(tc.lookup(0).is_none());
        assert!(tc.insert(0, 4, sched(128)));
        assert!(tc.lookup(0).is_some());
        assert_eq!(tc.stats.hits, 1);
        assert_eq!(tc.stats.misses, 1);
        assert_eq!(tc.used_bits(), 128);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut tc = TCache::new(256);
        assert!(tc.insert(0, 1, sched(128)));
        assert!(tc.insert(10, 11, sched(128)));
        // Touch 0 so 10 is LRU.
        assert!(tc.lookup(0).is_some());
        assert!(tc.insert(20, 21, sched(128)));
        assert_eq!(tc.stats.evictions, 1);
        assert!(tc.lookup(10).is_none(), "10 was LRU and must be gone");
        assert!(tc.lookup(0).is_some());
        assert!(tc.lookup(20).is_some());
        assert!(tc.used_bits() <= 256);
    }

    #[test]
    fn peek_neither_counts_nor_refreshes() {
        let mut tc = TCache::new(256);
        assert!(tc.insert(0, 1, sched(128)));
        assert!(tc.insert(10, 11, sched(128)));
        let before = tc.stats;
        assert!(tc.peek(0).is_some() && tc.peek(5).is_none());
        assert_eq!(tc.stats, before);
        // 0 was not touched, so it is still the LRU entry.
        assert!(tc.insert(20, 21, sched(128)));
        assert!(tc.peek(0).is_none() && tc.peek(10).is_some());
    }

    #[test]
    fn oversized_translation_is_rejected() {
        let mut tc = TCache::new(64);
        assert!(!tc.insert(0, 1, sched(128)));
        assert!(tc.is_empty());
    }

    #[test]
    fn reinsert_replaces_and_adjusts_size() {
        let mut tc = TCache::new(1024);
        assert!(tc.insert(0, 1, sched(128)));
        assert!(tc.insert(0, 1, sched(256)));
        assert_eq!(tc.used_bits(), 256);
        assert_eq!(tc.len(), 1);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut tc = TCache::new(1024);
        assert_eq!(tc.stats.hit_rate(), 0.0, "no lookups yet");
        tc.lookup(0); // miss
        tc.insert(0, 4, sched(128));
        tc.lookup(0); // hit
        tc.lookup(0); // hit
        assert!((tc.stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_empties_everything() {
        let mut tc = TCache::new(1024);
        tc.insert(0, 1, sched(128));
        tc.insert(5, 6, sched(128));
        tc.flush();
        assert!(tc.is_empty());
        assert_eq!(tc.used_bits(), 0);
        assert_eq!(tc.stats.flushes, 1);
        assert!(tc.lookup(0).is_none());
    }
}
