//! The structured, cycle-stamped event taxonomy.
//!
//! Every event carries a `cycle` stamp in the *global* simulated-cycle
//! domain (the machine's wall clock at the start of the emitting execution
//! section plus the emitting thread's local cycles). Stamps are therefore
//! deterministic: two runs of the same seeded workload produce the same
//! event stream, byte for byte.

use std::fmt;

use crate::json::push_str;

/// Cache hierarchy level an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-core L1.
    L1,
    /// Per-core L2 (where the prefetchers live).
    L2,
    /// Shared L3.
    L3,
}

impl Level {
    /// Short label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
        }
    }
}

/// Outcome of one demand cache access at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// Plain hit on a resident line.
    Hit,
    /// Miss: the line is fetched from below.
    Miss,
    /// First touch of a *timely* prefetched line — a miss fully covered by
    /// the prefetcher (a *useful* prefetch).
    Covered,
    /// First touch of an in-flight prefetched line — a *late* prefetch;
    /// counted as a miss for coverage.
    Late,
}

impl CacheOutcome {
    /// Short label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Covered => "covered",
            CacheOutcome::Late => "late",
        }
    }
}

/// Where a fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Accelerator output perturbation / invocation failure.
    Accel,
    /// Memory latency spike (timing-only).
    Memory,
}

impl FaultSite {
    /// Short label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Accel => "accel",
            FaultSite::Memory => "memory",
        }
    }
}

/// A cycle-stamped telemetry event.
///
/// Variants map one-to-one onto the instrumentation sites in the
/// simulator: the cache hierarchy, the L2 prefetchers, OVEC address
/// generation, NPU invocation/supervision, fault injection/recovery, and
/// phase scopes.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One demand access at one cache level.
    CacheAccess {
        /// Global cycle stamp.
        cycle: u64,
        /// Cache level.
        level: Level,
        /// Line address (bytes).
        line_addr: u64,
        /// Whether the access was a store.
        write: bool,
        /// Hit/miss/covered/late.
        outcome: CacheOutcome,
    },
    /// A line displaced from a cache level.
    CacheEviction {
        /// Global cycle stamp.
        cycle: u64,
        /// Cache level.
        level: Level,
        /// Victim line address (bytes).
        line_addr: u64,
        /// Whether the victim was dirty (costs a writeback).
        dirty: bool,
        /// Whether the victim was a prefetched line that was never touched
        /// by a demand access — prefetch pollution.
        prefetched_unused: bool,
    },
    /// A prefetch issued into a cache level.
    PrefetchIssue {
        /// Global cycle stamp.
        cycle: u64,
        /// Cache level prefetched into.
        level: Level,
        /// Prefetched line address (bytes).
        line_addr: u64,
    },
    /// One demand line request entering the cache hierarchy — the *input*
    /// of every cache/prefetch decision that follows it. This is the
    /// replay stream the differential oracle (`tartan-oracle`) feeds to
    /// its golden models; it is emitted only under [`Interest::TRACE`]
    /// because it roughly doubles the cache firehose.
    MemRequest {
        /// Global cycle stamp.
        cycle: u64,
        /// Requesting core (owns the private L1/L2 the request hits first).
        core: u32,
        /// Program counter of the requesting instruction (prefetcher
        /// training input).
        pc: u64,
        /// Line address (bytes).
        line_addr: u64,
        /// Whether the access is a store.
        write: bool,
        /// Whether the access dirties cache lines (false for reads and for
        /// write-through stores).
        dirty: bool,
        /// Bytes streamed to the L3 by a write-through store (0 otherwise).
        wt_bytes: u64,
        /// Thread-local cycle time of the access — the clock prefetch
        /// timeliness (`ready <= now`) is judged against.
        now: u64,
    },
    /// One OVEC oriented-load address generation (`O_MOVE`, §IV).
    OvecAddrGen {
        /// Global cycle stamp.
        cycle: u64,
        /// Number of lane addresses generated.
        lanes: u32,
        /// Base byte address of the oriented pattern.
        base: u64,
        /// Fractional element index of lane 0.
        origin: f64,
        /// Fractional per-lane element displacement.
        orient: f64,
        /// Element size in bytes.
        elem_bytes: u64,
        /// Lane indices clamp to `[0, max_elems)`.
        max_elems: u64,
    },
    /// One accelerator (NPU) invocation round-trip.
    NpuInvoke {
        /// Global cycle stamp (at issue).
        cycle: u64,
        /// Input vector width.
        inputs: u32,
        /// Output vector width.
        outputs: u32,
        /// CPU↔NPU communication cycles charged.
        comm_cycles: u64,
        /// Accelerator compute cycles charged.
        compute_cycles: u64,
    },
    /// An AXAR-family supervisor judged one iteration.
    NpuVerdict {
        /// Global cycle stamp.
        cycle: u64,
        /// Whether the iteration was accepted (false = rollback).
        accepted: bool,
    },
    /// Supervised recovery resorted to CPU-exact re-execution.
    NpuRollback {
        /// Global cycle stamp.
        cycle: u64,
        /// True when this rollback re-ran the function on the CPU; false
        /// when a device retry repaired it.
        cpu_fallback: bool,
    },
    /// The fault plan injected `count` faults.
    FaultInjected {
        /// Global cycle stamp.
        cycle: u64,
        /// Injection site.
        site: FaultSite,
        /// Number of faults injected at this site by this event.
        count: u64,
    },
    /// A supervisor detected `count` faults.
    FaultDetected {
        /// Global cycle stamp.
        cycle: u64,
        /// Number of faults detected.
        count: u64,
    },
    /// `count` detected faults were fully repaired.
    FaultRecovered {
        /// Global cycle stamp.
        cycle: u64,
        /// Number of faults repaired.
        count: u64,
    },
    /// `count` faults corrupted a consumed result.
    FaultUnrecovered {
        /// Global cycle stamp.
        cycle: u64,
        /// Number of unrecovered faults.
        count: u64,
    },
    /// A phase scope (robot, iteration, or kernel) opened.
    PhaseBegin {
        /// Global cycle stamp.
        cycle: u64,
        /// Scope label.
        name: &'static str,
    },
    /// A phase scope closed.
    PhaseEnd {
        /// Global cycle stamp.
        cycle: u64,
        /// Scope label.
        name: &'static str,
    },
}

impl Event {
    /// The event's global cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::CacheAccess { cycle, .. }
            | Event::CacheEviction { cycle, .. }
            | Event::PrefetchIssue { cycle, .. }
            | Event::MemRequest { cycle, .. }
            | Event::OvecAddrGen { cycle, .. }
            | Event::NpuInvoke { cycle, .. }
            | Event::NpuVerdict { cycle, .. }
            | Event::NpuRollback { cycle, .. }
            | Event::FaultInjected { cycle, .. }
            | Event::FaultDetected { cycle, .. }
            | Event::FaultRecovered { cycle, .. }
            | Event::FaultUnrecovered { cycle, .. }
            | Event::PhaseBegin { cycle, .. }
            | Event::PhaseEnd { cycle, .. } => cycle,
        }
    }

    /// Stable kind label, used by counting sinks and exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CacheAccess { .. } => "cache_access",
            Event::CacheEviction { .. } => "cache_eviction",
            Event::PrefetchIssue { .. } => "prefetch_issue",
            Event::MemRequest { .. } => "mem_request",
            Event::OvecAddrGen { .. } => "ovec_addr_gen",
            Event::NpuInvoke { .. } => "npu_invoke",
            Event::NpuVerdict { .. } => "npu_verdict",
            Event::NpuRollback { .. } => "npu_rollback",
            Event::FaultInjected { .. } => "fault_injected",
            Event::FaultDetected { .. } => "fault_detected",
            Event::FaultRecovered { .. } => "fault_recovered",
            Event::FaultUnrecovered { .. } => "fault_unrecovered",
            Event::PhaseBegin { .. } => "phase_begin",
            Event::PhaseEnd { .. } => "phase_end",
        }
    }

    /// The interest category the event belongs to (used for sink-side
    /// filtering before the event is even constructed).
    pub fn category(&self) -> Interest {
        match self {
            Event::CacheAccess { .. } | Event::CacheEviction { .. } => Interest::CACHE,
            Event::PrefetchIssue { .. } => Interest::PREFETCH,
            Event::MemRequest { .. } => Interest::TRACE,
            Event::OvecAddrGen { .. } => Interest::OVEC,
            Event::NpuInvoke { .. } | Event::NpuVerdict { .. } | Event::NpuRollback { .. } => {
                Interest::NPU
            }
            Event::FaultInjected { .. }
            | Event::FaultDetected { .. }
            | Event::FaultRecovered { .. }
            | Event::FaultUnrecovered { .. } => Interest::FAULT,
            Event::PhaseBegin { .. } | Event::PhaseEnd { .. } => Interest::PHASE,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// The format is stable and versioned with the stats schema (see
    /// `SCHEMA.md` at the repository root): every object carries `kind`
    /// and `cycle`, plus variant-specific fields.
    pub fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        buf.push_str("{\"kind\":");
        push_str(buf, self.kind());
        let _ = write!(buf, ",\"cycle\":{}", self.cycle());
        match *self {
            Event::CacheAccess {
                level,
                line_addr,
                write,
                outcome,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"level\":\"{}\",\"line_addr\":{},\"write\":{},\"outcome\":\"{}\"",
                    level.name(),
                    line_addr,
                    write,
                    outcome.name()
                );
            }
            Event::CacheEviction {
                level,
                line_addr,
                dirty,
                prefetched_unused,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"level\":\"{}\",\"line_addr\":{},\"dirty\":{},\"prefetched_unused\":{}",
                    level.name(),
                    line_addr,
                    dirty,
                    prefetched_unused
                );
            }
            Event::PrefetchIssue {
                level, line_addr, ..
            } => {
                let _ = write!(
                    buf,
                    ",\"level\":\"{}\",\"line_addr\":{}",
                    level.name(),
                    line_addr
                );
            }
            Event::MemRequest {
                core,
                pc,
                line_addr,
                write,
                dirty,
                wt_bytes,
                now,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"core\":{core},\"pc\":{pc},\"line_addr\":{line_addr},\"write\":{write},\"dirty\":{dirty},\"wt_bytes\":{wt_bytes},\"now\":{now}"
                );
            }
            Event::OvecAddrGen {
                lanes,
                base,
                origin,
                orient,
                elem_bytes,
                max_elems,
                ..
            } => {
                let _ = write!(buf, ",\"lanes\":{lanes},\"base\":{base},\"origin\":");
                crate::json::push_f64(buf, origin);
                buf.push_str(",\"orient\":");
                crate::json::push_f64(buf, orient);
                let _ = write!(buf, ",\"elem_bytes\":{elem_bytes},\"max_elems\":{max_elems}");
            }
            Event::NpuInvoke {
                inputs,
                outputs,
                comm_cycles,
                compute_cycles,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"inputs\":{inputs},\"outputs\":{outputs},\"comm_cycles\":{comm_cycles},\"compute_cycles\":{compute_cycles}"
                );
            }
            Event::NpuVerdict { accepted, .. } => {
                let _ = write!(buf, ",\"accepted\":{accepted}");
            }
            Event::NpuRollback { cpu_fallback, .. } => {
                let _ = write!(buf, ",\"cpu_fallback\":{cpu_fallback}");
            }
            Event::FaultInjected { site, count, .. } => {
                let _ = write!(buf, ",\"site\":\"{}\",\"count\":{}", site.name(), count);
            }
            Event::FaultDetected { count, .. }
            | Event::FaultRecovered { count, .. }
            | Event::FaultUnrecovered { count, .. } => {
                let _ = write!(buf, ",\"count\":{count}");
            }
            Event::PhaseBegin { name, .. } | Event::PhaseEnd { name, .. } => {
                buf.push_str(",\"name\":");
                push_str(buf, name);
            }
        }
        buf.push('}');
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_json(&mut s);
        f.write_str(&s)
    }
}

/// Bitmask of event categories a sink wants to receive.
///
/// The simulator caches the attached sink's interest and skips event
/// construction entirely for masked categories, so a sink interested only
/// in, say, faults pays nothing for the cache-access firehose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interest(u32);

impl Interest {
    /// Cache accesses and evictions.
    pub const CACHE: Interest = Interest(1);
    /// Prefetch issues (useful/late show up as [`CacheOutcome`]s).
    pub const PREFETCH: Interest = Interest(1 << 1);
    /// OVEC address generations.
    pub const OVEC: Interest = Interest(1 << 2);
    /// NPU invocations, verdicts, and rollbacks.
    pub const NPU: Interest = Interest(1 << 3);
    /// Fault injection/detection/recovery.
    pub const FAULT: Interest = Interest(1 << 4);
    /// Phase scopes.
    pub const PHASE: Interest = Interest(1 << 5);
    /// Per-request replay trace ([`Event::MemRequest`]). Deliberately *not*
    /// part of [`Interest::all`]: it roughly doubles the cache firehose, so
    /// sinks must opt in with `Interest::all() | Interest::TRACE`.
    pub const TRACE: Interest = Interest(1 << 6);

    /// Every standard category (excludes the opt-in [`Interest::TRACE`]).
    pub const fn all() -> Interest {
        Interest(0x3F)
    }

    /// No category (telemetry effectively disabled).
    pub const fn none() -> Interest {
        Interest(0)
    }

    /// Whether `self` includes every category in `other`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no category is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Interest {
    fn bitor_assign(&mut self, rhs: Interest) {
        self.0 |= rhs.0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn cycle_and_kind_cover_all_variants() {
        let events = sample_events();
        for e in &events {
            assert_eq!(e.cycle(), 7, "{e:?}");
            assert!(!e.kind().is_empty());
            assert!((Interest::all() | Interest::TRACE).contains(e.category()));
        }
        // Kind labels are unique.
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn json_lines_are_valid_json() {
        for e in sample_events() {
            let mut s = String::new();
            e.write_json(&mut s);
            crate::json::parse(&s).unwrap_or_else(|err| panic!("{s}: {err}"));
            assert!(s.contains("\"cycle\":7"));
        }
    }

    #[test]
    fn interest_algebra() {
        let i = Interest::CACHE | Interest::FAULT;
        assert!(i.contains(Interest::CACHE));
        assert!(i.contains(Interest::FAULT));
        assert!(!i.contains(Interest::NPU));
        assert!(!i.contains(Interest::CACHE | Interest::NPU));
        assert!(Interest::none().is_empty());
        assert!(!Interest::all().is_empty());
        // The replay firehose is opt-in, never implied by all().
        assert!(!Interest::all().contains(Interest::TRACE));
        let mut j = Interest::none();
        j |= Interest::OVEC;
        assert!(j.contains(Interest::OVEC));
    }

    pub(crate) fn sample_events() -> Vec<Event> {
        vec![
            Event::CacheAccess {
                cycle: 7,
                level: Level::L2,
                line_addr: 128,
                write: false,
                outcome: CacheOutcome::Covered,
            },
            Event::CacheEviction {
                cycle: 7,
                level: Level::L3,
                line_addr: 256,
                dirty: true,
                prefetched_unused: false,
            },
            Event::PrefetchIssue {
                cycle: 7,
                level: Level::L2,
                line_addr: 192,
            },
            Event::MemRequest {
                cycle: 7,
                core: 0,
                pc: 0x4000,
                line_addr: 128,
                write: true,
                dirty: false,
                wt_bytes: 8,
                now: 42,
            },
            Event::OvecAddrGen {
                cycle: 7,
                lanes: 16,
                base: 0x1_0000,
                origin: 0.5,
                orient: 1.25,
                elem_bytes: 4,
                max_elems: 1024,
            },
            Event::NpuInvoke {
                cycle: 7,
                inputs: 6,
                outputs: 1,
                comm_cycles: 8,
                compute_cycles: 40,
            },
            Event::NpuVerdict {
                cycle: 7,
                accepted: true,
            },
            Event::NpuRollback {
                cycle: 7,
                cpu_fallback: true,
            },
            Event::FaultInjected {
                cycle: 7,
                site: FaultSite::Accel,
                count: 2,
            },
            Event::FaultDetected { cycle: 7, count: 2 },
            Event::FaultRecovered { cycle: 7, count: 2 },
            Event::FaultUnrecovered { cycle: 7, count: 1 },
            Event::PhaseBegin {
                cycle: 7,
                name: "heuristic",
            },
            Event::PhaseEnd {
                cycle: 7,
                name: "heuristic",
            },
        ]
    }
}
