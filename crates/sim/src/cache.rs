//! A set-associative cache with true-LRU replacement, prefetched-line
//! tracking (including *timeliness*), and Tartan's FCP indexing and recency
//! manipulation (§VII).

use crate::config::FcpConfig;
use crate::stats::CacheStats;

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present (including in-flight prefetches).
    pub hit: bool,
    /// Whether this was the first demand touch of a *timely* prefetched
    /// line (a fully covered miss).
    pub covered_by_prefetch: bool,
    /// If the access caught an in-flight prefetch that had not yet arrived,
    /// the remaining cycles until the data is ready (a *late* prefetch:
    /// §VIII-C-2's "untimeliness"; counted as a miss for coverage).
    pub late_by: Option<u64>,
    /// Line evicted to make room, if the access missed and displaced a
    /// valid victim.
    pub evicted: Option<EvictedLine>,
}

/// A line displaced from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line number (byte address / line size) of the victim.
    pub line_number: u64,
    /// Whether the victim was dirty (requires a writeback).
    pub dirty: bool,
    /// Whether the victim was a prefetched line never touched by a demand
    /// access — prefetch pollution (the waste FCP and ANL's accuracy are
    /// meant to contain).
    pub prefetched: bool,
}

/// Outcome of a prefetch insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The line was already resident; nothing happened.
    AlreadyPresent,
    /// The line was inserted; `evicted` reports any displaced victim.
    Inserted {
        /// Displaced victim, if any.
        evicted: Option<EvictedLine>,
    },
}

/// Per-way status bits, one byte per way in [`Cache`]'s `flags` array.
/// Validity is not a bit: it is encoded in the tag (see `Cache::tags`).
const DIRTY: u8 = 1 << 0;
const PREFETCHED: u8 = 1 << 1;

/// The stored tag of a resident line: `line_number + 1`, so the tag 0 of a
/// zero-initialised way means "invalid". Line numbers are byte addresses
/// shifted right by the line size's log2, so `u64::MAX` never occurs from
/// the memory system; a direct caller passing it gets a panic, not a wrapped
/// tag that would match every invalid way.
#[inline(always)]
fn tag_of(line_number: u64) -> u64 {
    line_number
        .checked_add(1)
        .expect("line number u64::MAX has no tag")
}

/// One set-associative cache level.
///
/// The cache stores no data — only tags and replacement metadata — because
/// the simulator is execution-driven: functional values live in the
/// workload's own memory. The per-access loop is the simulator's hottest
/// code: way metadata lives in one flat array per field (tags, ages, flags,
/// prefetch arrival cycles), sets are contiguous slices of each, the FCP
/// index function runs on masks/shifts precomputed at construction, and the
/// tag scan and LRU aging are branchless over the set. Every array starts
/// zeroed (all ways invalid), so construction writes none of it.
///
/// Methods taking a line number panic on `u64::MAX`, which has no tag.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    latency: u64,
    fcp: Option<FcpConfig>,
    /// `sets - 1`: the conventional index mask.
    sets_mask: u64,
    /// `lines_per_region - 1` (0 without FCP).
    fcp_offset_mask: u64,
    /// `log2(lines_per_region)` — shifts replace the per-access divisions.
    fcp_region_shift: u32,
    /// `offset_bits - xor_bits`: selects the high offset bits to XOR.
    fcp_offset_shift: u32,
    /// Per way: [`tag_of`] the resident line, 0 when the way is invalid.
    tags: Vec<u64>,
    /// Per way: LRU age, 0 = most recently used; larger = closer to
    /// eviction. Never above [`AGE_MAX`]. Meaningless for invalid ways.
    ages: Vec<u16>,
    /// Per way: `DIRTY` / `PREFETCHED` bits. Meaningless for invalid ways.
    flags: Vec<u8>,
    /// Per way: cycle (thread-local time domain) at which a prefetched
    /// line's data arrives. Read and written only for `PREFETCHED` ways, so
    /// a level that never receives prefetches never touches its pages.
    ready: Vec<u64>,
    /// Public running statistics for this level.
    pub stats: CacheStats,
}

/// Age values saturate here so FCP's `x²` manipulation cannot overflow.
const AGE_MAX: u16 = 1 << 15;

impl Cache {
    /// Creates a cache level.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two, if the geometry is degenerate,
    /// or if an FCP configuration is inconsistent with the line size
    /// (`region < 2^l` lines).
    pub fn new(
        size_bytes: u64,
        ways: u32,
        latency: u64,
        line_bytes: u64,
        fcp: Option<FcpConfig>,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1, "cache needs at least one way");
        let sets = size_bytes / (line_bytes * u64::from(ways));
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let (fcp_offset_mask, fcp_region_shift, fcp_offset_shift) = match fcp {
            None => (0, 0, 0),
            Some(fcp) => {
                let lines_per_region = fcp.region_bytes / line_bytes;
                assert!(
                    lines_per_region.is_power_of_two() && lines_per_region >= (1 << fcp.xor_bits),
                    "FCP region must hold at least 2^l lines"
                );
                let offset_bits = lines_per_region.trailing_zeros();
                (
                    lines_per_region - 1,
                    offset_bits,
                    offset_bits - fcp.xor_bits,
                )
            }
        };
        let n = (sets as usize) * (ways as usize);
        Cache {
            sets,
            ways: ways as usize,
            latency,
            fcp,
            sets_mask: sets - 1,
            fcp_offset_mask,
            fcp_region_shift,
            fcp_offset_shift,
            // `vec![0; n]` takes the zeroed-allocation path: no page is
            // written until a way is first filled.
            tags: vec![0; n],
            ages: vec![0; n],
            flags: vec![0; n],
            ready: vec![0; n],
            stats: CacheStats::default(),
        }
    }

    /// Access latency of this level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways as u32
    }

    /// Computes the set index for a line number.
    ///
    /// Without FCP this is the conventional low-order-bits index. With FCP
    /// (§VII-B) the index is *region-based*: the region number provides the
    /// index, with the high-order `l` bits of the intra-region offset XORed
    /// into its low-order `l` bits. Lines of one region therefore spread
    /// over exactly `2^l` sets — enough sets to exploit spatial locality,
    /// few enough that a runaway region cannot monopolize the cache. The
    /// low-order offset bits are excluded from the XOR so that next-line
    /// prefetch bursts land set-local rather than hashing across the whole
    /// cache.
    #[inline(always)]
    pub fn index_of(&self, line_number: u64) -> u64 {
        match self.fcp {
            None => line_number & self.sets_mask,
            Some(_) => {
                let offset = line_number & self.fcp_offset_mask;
                let region = line_number >> self.fcp_region_shift;
                (region ^ (offset >> self.fcp_offset_shift)) & self.sets_mask
            }
        }
    }

    /// Index of set `index`'s first way in the per-way arrays.
    #[inline(always)]
    fn set_start(&self, index: u64) -> usize {
        (index as usize) * self.ways
    }

    /// True-LRU touch: the accessed way becomes age 0, ways that were
    /// younger than it age by one. The loop is branchless: the accessed way
    /// itself contributes a zero increment (`age < old_age` is false for
    /// `age == old_age`), as do already-older ways. Invalid ways age too:
    /// their age is never read (a fill resets it), and no clamp is needed
    /// because a way only increments when `age < old_age ≤ AGE_MAX`.
    #[inline(always)]
    fn touch(ages: &mut [u16], way: usize) {
        let old_age = ages[way];
        for age in ages.iter_mut() {
            *age += u16::from(*age < old_age);
        }
        ages[way] = 0;
    }

    /// Tag compare across all ways, branchless: every way contributes a
    /// conditional-move instead of an early-exit branch, so the scan runs at
    /// a fixed few cycles regardless of which way (if any) matches. Invalid
    /// ways hold tag 0, which no line's tag equals, so no valid test is
    /// needed. A line is resident in at most one way, so keeping the last
    /// match is equivalent to the first.
    #[inline(always)]
    fn find(tags: &[u64], tag: u64) -> Option<usize> {
        let mut found = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            found = if t == tag { w } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// First invalid way, else the oldest (smallest way index on ties) — a
    /// single pass instead of the scan-then-max two-pass.
    #[inline(always)]
    fn victim(tags: &[u64], ages: &[u16]) -> usize {
        let mut victim = 0usize;
        let mut victim_age = ages[0];
        for (w, (&t, &age)) in tags.iter().zip(ages).enumerate() {
            if t == 0 {
                return w;
            }
            if age > victim_age {
                victim = w;
                victim_age = age;
            }
        }
        victim
    }

    /// Applies FCP's recency manipulation `m(x)` to resident lines that
    /// share the filled line's region (§VII-B, steps 3–5 of Fig. 5).
    fn manipulate_region(&mut self, index: u64, filled_line: u64) {
        let Some(fcp) = self.fcp else { return };
        let region_shift = self.fcp_region_shift;
        let region = filled_line >> region_shift;
        let filled_tag = tag_of(filled_line);
        let m = fcp.manipulation;
        let start = self.set_start(index);
        let range = start..start + self.ways;
        for (&t, age) in self.tags[range.clone()].iter().zip(&mut self.ages[range]) {
            if t != 0 && t != filled_tag && (t - 1) >> region_shift == region {
                // `min(AGE_MAX)` keeps the result inside `u16`.
                *age = m.apply(u32::from(*age)).min(u32::from(AGE_MAX)) as u16;
            }
        }
    }

    /// Performs a demand access (load or store) on a line at thread-local
    /// time `now`.
    pub fn access(&mut self, line_number: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let index = self.index_of(line_number);
        let start = self.set_start(index);
        let tags = &self.tags[start..start + self.ways];
        if let Some(found) = Self::find(tags, tag_of(line_number)) {
            let way = start + found;
            let flags = self.flags[way];
            self.flags[way] = (flags & !PREFETCHED) | if is_write { DIRTY } else { 0 };
            // Touching the most recently used way changes no age: skip it.
            if self.ages[way] != 0 {
                Self::touch(&mut self.ages[start..start + self.ways], found);
            }
            if flags & PREFETCHED != 0 {
                let ready = self.ready[way];
                self.stats.prefetches_useful += 1;
                if ready <= now {
                    // Timely prefetch: the miss is fully covered.
                    self.stats.prefetch_covered += 1;
                    return AccessOutcome {
                        hit: true,
                        covered_by_prefetch: true,
                        late_by: None,
                        evicted: None,
                    };
                }
                // Late prefetch: the line is in flight; the access waits for
                // the remainder and counts as a miss for coverage.
                self.stats.misses += 1;
                self.stats.prefetches_late += 1;
                return AccessOutcome {
                    hit: true,
                    covered_by_prefetch: false,
                    late_by: Some(ready - now),
                    evicted: None,
                };
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                covered_by_prefetch: false,
                late_by: None,
                evicted: None,
            };
        }
        // Miss: fill.
        self.stats.misses += 1;
        let evicted = self.fill(index, line_number, if is_write { DIRTY } else { 0 }, 0);
        AccessOutcome {
            hit: false,
            covered_by_prefetch: false,
            late_by: None,
            evicted,
        }
    }

    /// Inserts a prefetched line whose data arrives at `ready`.
    pub fn insert_prefetch(&mut self, line_number: u64, ready: u64) -> PrefetchOutcome {
        if self.contains(line_number) {
            return PrefetchOutcome::AlreadyPresent;
        }
        self.stats.prefetches_issued += 1;
        let index = self.index_of(line_number);
        let evicted = self.fill(index, line_number, PREFETCHED, ready);
        PrefetchOutcome::Inserted { evicted }
    }

    /// Fills `line_number` into set `index` with status `flags`; `ready` is
    /// stored only for a prefetched fill.
    fn fill(&mut self, index: u64, line_number: u64, flags: u8, ready: u64) -> Option<EvictedLine> {
        let start = self.set_start(index);
        let end = start + self.ways;
        let found = Self::victim(&self.tags[start..end], &self.ages[start..end]);
        let way = start + found;
        let old_tag = self.tags[way];
        let evicted = (old_tag != 0).then(|| EvictedLine {
            line_number: old_tag - 1,
            dirty: self.flags[way] & DIRTY != 0,
            prefetched: self.flags[way] & PREFETCHED != 0,
        });
        self.tags[way] = tag_of(line_number);
        self.flags[way] = flags;
        if flags & PREFETCHED != 0 {
            self.ready[way] = ready;
        }
        // Start "infinitely old" so the touch below ages every other
        // resident line by one, as a true LRU stack would.
        self.ages[way] = AGE_MAX;
        Self::touch(&mut self.ages[start..end], found);
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            if ev.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.manipulate_region(index, line_number);
        evicted
    }

    /// Whether a line is currently resident (no state change).
    pub fn contains(&self, line_number: u64) -> bool {
        let start = self.set_start(self.index_of(line_number));
        Self::find(&self.tags[start..start + self.ways], tag_of(line_number)).is_some()
    }

    /// Number of currently valid lines (for invariants/testing).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Invalidates everything, keeping statistics. Only the tags are
    /// cleared: an invalid way's age, flags and arrival cycle are never
    /// read before a fill rewrites them.
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcpManipulation;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(512, 2, 4, 64, None)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache();
        let first = c.access(10, false, 0);
        assert!(!first.hit);
        let second = c.access(10, false, 10);
        assert!(second.hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (index = line & 3).
        c.access(0, false, 0);
        c.access(4, false, 0);
        c.access(0, false, 0); // 0 is now MRU, 4 is LRU
        let out = c.access(8, false, 0);
        assert_eq!(
            out.evicted,
            Some(EvictedLine {
                line_number: 4,
                dirty: false,
                prefetched: false
            })
        );
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.access(0, true, 0);
        c.access(4, false, 0);
        let out = c.access(8, false, 0);
        assert_eq!(
            out.evicted,
            Some(EvictedLine {
                line_number: 0,
                dirty: true,
                prefetched: false
            })
        );
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn timely_prefetch_covers_demand() {
        let mut c = small_cache();
        assert!(matches!(
            c.insert_prefetch(12, 50),
            PrefetchOutcome::Inserted { .. }
        ));
        assert!(matches!(
            c.insert_prefetch(12, 50),
            PrefetchOutcome::AlreadyPresent
        ));
        let out = c.access(12, false, 100);
        assert!(out.hit && out.covered_by_prefetch && out.late_by.is_none());
        // Second touch is a plain hit.
        let out2 = c.access(12, false, 101);
        assert!(out2.hit && !out2.covered_by_prefetch);
        assert_eq!(c.stats.prefetch_covered, 1);
        assert_eq!(c.stats.prefetches_useful, 1);
        assert_eq!(c.stats.prefetches_issued, 1);
    }

    #[test]
    fn late_prefetch_counts_as_miss_and_waits() {
        let mut c = small_cache();
        c.insert_prefetch(12, 500);
        let out = c.access(12, false, 100);
        assert!(out.hit && !out.covered_by_prefetch);
        assert_eq!(out.late_by, Some(400));
        assert_eq!(c.stats.prefetches_late, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.prefetch_covered, 0);
        // The line has arrived by the next touch: plain hit.
        let out2 = c.access(12, false, 600);
        assert!(out2.hit && out2.late_by.is_none());
    }

    #[test]
    fn unused_prefetched_victim_is_flagged() {
        let mut c = small_cache();
        // Prefetch into set 0, never touch it, then stream demand lines
        // through the same set until it is displaced.
        c.insert_prefetch(0, 10);
        c.access(4, false, 0);
        let out = c.access(8, false, 0);
        let ev = out.evicted.expect("set is full, something must go");
        assert!(ev.prefetched, "untouched prefetched victim must be flagged");
        // A demanded prefetched line loses the flag before eviction.
        let mut c2 = small_cache();
        c2.insert_prefetch(0, 10);
        c2.access(0, false, 20); // demand touch clears `prefetched`
        c2.access(4, false, 21);
        c2.access(8, false, 22);
        let ev2 = c2.access(12, false, 23).evicted.expect("victim");
        assert!(!ev2.prefetched);
    }

    #[test]
    #[should_panic(expected = "has no tag")]
    fn line_number_without_tag_is_rejected() {
        small_cache().access(u64::MAX, false, 0);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = small_cache();
        for line in 0..100 {
            c.access(line, line % 3 == 0, line);
        }
        assert!(c.valid_lines() <= 8);
    }

    fn fcp_cache(l: u32, m: FcpManipulation) -> Cache {
        // 16 sets × 4 ways × 64 B = 4 KB; regions of 512 B = 8 lines.
        Cache::new(
            4096,
            4,
            4,
            64,
            Some(FcpConfig {
                region_bytes: 512,
                xor_bits: l,
                manipulation: m,
            }),
        )
    }

    #[test]
    fn fcp_spreads_region_over_2_to_l_sets() {
        for l in [1u32, 2, 3] {
            let c = fcp_cache(l, FcpManipulation::Square);
            // All 8 lines of region 5.
            let mut sets: Vec<u64> = (0..8).map(|o| c.index_of(5 * 8 + o)).collect();
            sets.sort_unstable();
            sets.dedup();
            assert_eq!(sets.len(), 1 << l, "l = {l}");
        }
    }

    #[test]
    fn fcp_indexing_separates_regions() {
        let c = fcp_cache(2, FcpManipulation::Square);
        // Offset-0 lines of 16 consecutive regions hit 16 distinct sets.
        let mut sets: Vec<u64> = (0..16).map(|r| c.index_of(r * 8)).collect();
        sets.sort_unstable();
        sets.dedup();
        assert_eq!(sets.len(), 16);
    }

    #[test]
    fn fcp_manipulation_ages_region_mates() {
        // With m(x) = x², filling lines from one region repeatedly ages
        // the region's other lines, so a *different* region's line survives
        // contention that plain LRU would lose.
        let mut c = fcp_cache(1, FcpManipulation::Square);
        // Region A = region 0 (lines 0..8); region B = region 16 (lines 128..136).
        let a0 = 0u64;
        let b0 = 128u64;
        assert_eq!(c.index_of(a0), c.index_of(b0));
        c.access(b0, false, 0); // B resident
        // Stream region-A lines mapping to the same set (offset_high = 0).
        c.access(0, false, 1);
        c.access(1, false, 2);
        c.access(2, false, 3);
        c.access(3, false, 4);
        assert!(c.contains(b0), "FCP must protect the other region's line");
    }

    #[test]
    fn plain_lru_would_evict_other_region() {
        // Control for the test above: without FCP, streaming one region
        // through a set evicts the bystander.
        let mut c = Cache::new(4096 / 16, 4, 4, 64, None); // 1 set × 4 ways
        c.access(100, false, 0);
        c.access(0, false, 1);
        c.access(1, false, 2);
        c.access(2, false, 3);
        c.access(3, false, 4);
        assert!(!c.contains(100));
    }

    #[test]
    fn flush_clears_contents_but_not_stats() {
        let mut c = small_cache();
        c.access(3, false, 0);
        c.flush();
        assert!(!c.contains(3));
        assert_eq!(c.stats.misses, 1);
    }

    /// The array-of-structs cache this module's struct-of-arrays layout
    /// replaced, kept as the reference its decisions must match: one
    /// 24-byte `Line` per way with a valid bit, `u32` ages, and no skipped
    /// MRU touch. Index math is shared with [`Cache::index_of`].
    mod reference {
        use super::super::{AccessOutcome, EvictedLine, PrefetchOutcome};
        use crate::config::FcpConfig;
        use crate::stats::CacheStats;
        use crate::Cache;

        const VALID: u8 = 1 << 0;
        const DIRTY: u8 = 1 << 1;
        const PREFETCHED: u8 = 1 << 2;
        const AGE_MAX: u32 = 1 << 15;

        #[derive(Debug, Clone, Copy, Default)]
        struct Line {
            line_number: u64,
            ready: u64,
            age: u32,
            flags: u8,
        }

        impl Line {
            fn valid(&self) -> bool {
                self.flags & VALID != 0
            }
        }

        pub struct AosCache {
            geometry: Cache,
            fcp: Option<FcpConfig>,
            region_shift: u32,
            ways: usize,
            lines: Vec<Line>,
            pub stats: CacheStats,
        }

        impl AosCache {
            pub fn new(
                size_bytes: u64,
                ways: u32,
                line_bytes: u64,
                fcp: Option<FcpConfig>,
            ) -> Self {
                let geometry = Cache::new(size_bytes, ways, 4, line_bytes, fcp);
                let n = geometry.sets() as usize * ways as usize;
                AosCache {
                    fcp,
                    region_shift: geometry.fcp_region_shift,
                    geometry,
                    ways: ways as usize,
                    lines: vec![Line::default(); n],
                    stats: CacheStats::default(),
                }
            }

            fn set(&mut self, index: u64) -> &mut [Line] {
                let start = index as usize * self.ways;
                &mut self.lines[start..start + self.ways]
            }

            fn touch(set: &mut [Line], way: usize) {
                let old_age = set[way].age;
                for line in set.iter_mut() {
                    line.age += (line.valid() & (line.age < old_age)) as u32;
                }
                set[way].age = 0;
            }

            fn find(set: &[Line], line_number: u64) -> Option<usize> {
                set.iter()
                    .position(|l| l.valid() && l.line_number == line_number)
            }

            fn victim(set: &[Line]) -> usize {
                let mut victim = 0usize;
                let mut victim_age = set[0].age;
                for (w, l) in set.iter().enumerate() {
                    if !l.valid() {
                        return w;
                    }
                    if l.age > victim_age {
                        victim = w;
                        victim_age = l.age;
                    }
                }
                victim
            }

            pub fn access(&mut self, line_number: u64, is_write: bool, now: u64) -> AccessOutcome {
                self.stats.accesses += 1;
                let index = self.geometry.index_of(line_number);
                let set = self.set(index);
                if let Some(way) = Self::find(set, line_number) {
                    let was_prefetched = set[way].flags & PREFETCHED != 0;
                    let ready = set[way].ready;
                    set[way].flags =
                        (set[way].flags & !PREFETCHED) | if is_write { DIRTY } else { 0 };
                    Self::touch(set, way);
                    let mut out = AccessOutcome {
                        hit: true,
                        covered_by_prefetch: false,
                        late_by: None,
                        evicted: None,
                    };
                    if !was_prefetched {
                        self.stats.hits += 1;
                    } else if ready <= now {
                        self.stats.prefetches_useful += 1;
                        self.stats.prefetch_covered += 1;
                        out.covered_by_prefetch = true;
                    } else {
                        self.stats.prefetches_useful += 1;
                        self.stats.misses += 1;
                        self.stats.prefetches_late += 1;
                        out.late_by = Some(ready - now);
                    }
                    return out;
                }
                self.stats.misses += 1;
                let evicted = self.fill(index, line_number, is_write, false, 0);
                AccessOutcome {
                    hit: false,
                    covered_by_prefetch: false,
                    late_by: None,
                    evicted,
                }
            }

            pub fn insert_prefetch(&mut self, line_number: u64, ready: u64) -> PrefetchOutcome {
                let index = self.geometry.index_of(line_number);
                if Self::find(self.set(index), line_number).is_some() {
                    return PrefetchOutcome::AlreadyPresent;
                }
                self.stats.prefetches_issued += 1;
                let evicted = self.fill(index, line_number, false, true, ready);
                PrefetchOutcome::Inserted { evicted }
            }

            fn fill(
                &mut self,
                index: u64,
                line_number: u64,
                dirty: bool,
                prefetched: bool,
                ready: u64,
            ) -> Option<EvictedLine> {
                let set = self.set(index);
                let way = Self::victim(set);
                let evicted = set[way].valid().then(|| EvictedLine {
                    line_number: set[way].line_number,
                    dirty: set[way].flags & DIRTY != 0,
                    prefetched: set[way].flags & PREFETCHED != 0,
                });
                set[way] = Line {
                    line_number,
                    ready,
                    age: AGE_MAX,
                    flags: VALID
                        | if dirty { DIRTY } else { 0 }
                        | if prefetched { PREFETCHED } else { 0 },
                };
                Self::touch(set, way);
                if let Some(ev) = evicted {
                    self.stats.evictions += 1;
                    self.stats.writebacks += u64::from(ev.dirty);
                }
                if let Some(fcp) = self.fcp {
                    let shift = self.region_shift;
                    for line in self.set(index) {
                        if line.valid()
                            && line.line_number != line_number
                            && line.line_number >> shift == line_number >> shift
                        {
                            line.age = fcp.manipulation.apply(line.age).min(AGE_MAX);
                        }
                    }
                }
                evicted
            }

            pub fn contains(&self, line_number: u64) -> bool {
                let start = self.geometry.index_of(line_number) as usize * self.ways;
                Self::find(&self.lines[start..start + self.ways], line_number).is_some()
            }

            pub fn valid_lines(&self) -> usize {
                self.lines.iter().filter(|l| l.valid()).count()
            }

            pub fn flush(&mut self) {
                self.lines.fill(Line::default());
            }
        }
    }

    /// Seeded random streams of demand reads and writes, prefetch inserts
    /// arriving before and after `now`, residency probes and flushes: the
    /// struct-of-arrays cache must decide exactly like the AoS reference.
    #[test]
    fn soa_layout_matches_aos_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let manipulations = [
            None,
            Some(FcpManipulation::Increment),
            Some(FcpManipulation::Double),
            Some(FcpManipulation::Square),
        ];
        for ways in [1u32, 2, 8, 16] {
            for (m, manipulation) in manipulations.into_iter().enumerate() {
                let fcp = manipulation.map(|manipulation| FcpConfig {
                    region_bytes: 512,
                    xor_bits: 2,
                    manipulation,
                });
                // 16 sets of 64 B lines; FCP regions hold 8 lines.
                let size = 16 * u64::from(ways) * 64;
                let mut soa = Cache::new(size, ways, 4, 64, fcp);
                let mut aos = reference::AosCache::new(size, ways, 64, fcp);
                let mut rng = StdRng::seed_from_u64(u64::from(ways) * 10 + m as u64);
                let regions = 8 * u64::from(ways);
                let mut now = 0u64;
                for step in 0..20_000 {
                    now += rng.random_range(0..24u64);
                    // Few regions, so lines collide in sets and FCP's
                    // region mates share them.
                    let line = rng.random_range(0..regions) * 8 + rng.random_range(0..8u64);
                    let ctx = format!("ways {ways}, fcp {manipulation:?}, step {step}");
                    match rng.random_range(0..1000u32) {
                        0..=599 => {
                            let write = rng.random_range(0..3u32) == 0;
                            assert_eq!(
                                soa.access(line, write, now),
                                aos.access(line, write, now),
                                "{ctx}: access"
                            );
                        }
                        600..=899 => {
                            let ready = (now + rng.random_range(0..400u64)).saturating_sub(200);
                            assert_eq!(
                                soa.insert_prefetch(line, ready),
                                aos.insert_prefetch(line, ready),
                                "{ctx}: prefetch insert"
                            );
                        }
                        900..=998 => {
                            assert_eq!(soa.contains(line), aos.contains(line), "{ctx}: contains");
                        }
                        _ => {
                            soa.flush();
                            aos.flush();
                        }
                    }
                    assert_eq!(soa.valid_lines(), aos.valid_lines(), "{ctx}: valid lines");
                    assert_eq!(soa.stats, aos.stats, "{ctx}: stats");
                }
                let s = soa.stats;
                assert!(
                    s.evictions > 0 && s.writebacks > 0 && s.prefetch_covered > 0 && s.prefetches_late > 0,
                    "ways {ways}, fcp {manipulation:?}: the stream must reach every outcome, got {s:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "FCP region must hold")]
    fn fcp_region_smaller_than_xor_span_rejected() {
        let _ = Cache::new(
            4096,
            4,
            4,
            64,
            Some(FcpConfig {
                region_bytes: 128, // 2 lines, but l = 2 needs ≥ 4
                xor_bits: 2,
                manipulation: FcpManipulation::Square,
            }),
        );
    }
}
