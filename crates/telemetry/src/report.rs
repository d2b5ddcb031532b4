//! Hierarchical phase-scope reports.
//!
//! The runner opens a scope per robot, a scope per iteration, and leaf
//! scopes per kernel phase; each scope carries cycle latency and a
//! [`ScopeCounters`] snapshot delta. Same-named sibling scopes (the
//! iterations of one robot, the kernel phases across iterations) merge
//! into one [`PhaseNode`] whose histogram then describes the distribution
//! over instances — that is where p50/p95/p99 come from.

use crate::hist::Histogram;
use crate::json::push_str;

/// Cache/prefetch/instruction counters attributed to one scope.
///
/// Cache counters are taken at the L2 — the level the ANL/stride
/// prefetchers live at, so miss-rate and prefetch-accuracy here measure
/// exactly what the Tartan prefetch stack is supposed to fix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Demand accesses (L2).
    pub accesses: u64,
    /// Demand misses, including late-prefetch touches (L2).
    pub misses: u64,
    /// Prefetches issued (L2).
    pub prefetches_issued: u64,
    /// Prefetches that covered a demand miss in time (L2).
    pub prefetches_useful: u64,
    /// Instructions retired in the scope.
    pub instructions: u64,
}

impl ScopeCounters {
    /// Element-wise sum.
    pub fn add(&mut self, other: &ScopeCounters) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_useful += other.prefetches_useful;
        self.instructions += other.instructions;
    }

    /// Demand miss rate in [0, 1]; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of issued prefetches that proved useful, in [0, 1].
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }
}

/// One node in the phase tree: a named scope with aggregated instances.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    /// Scope label (robot name, `"iteration"`, or a kernel phase).
    pub name: String,
    /// Total cycles across all merged instances.
    pub cycles: u64,
    /// How many instances merged into this node.
    pub instances: u64,
    /// Counters summed across instances.
    pub counters: ScopeCounters,
    /// Per-instance cycle latency distribution.
    pub latency: Histogram,
    /// Child scopes, in first-seen order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn new(name: &str) -> PhaseNode {
        PhaseNode {
            name: name.to_string(),
            cycles: 0,
            instances: 0,
            counters: ScopeCounters::default(),
            latency: Histogram::new(),
            children: Vec::new(),
        }
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&PhaseNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Merges `other` (an instance of the same scope) into `self`.
    fn absorb(&mut self, other: PhaseNode) {
        debug_assert_eq!(self.name, other.name);
        self.cycles += other.cycles;
        self.instances += other.instances;
        self.counters.add(&other.counters);
        self.latency.merge(&other.latency);
        for child in other.children {
            merge_into(&mut self.children, child);
        }
    }

    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        buf.push_str("{\"name\":");
        push_str(buf, &self.name);
        let _ = write!(
            buf,
            ",\"cycles\":{},\"instances\":{},\"latency\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            self.cycles,
            self.instances,
            self.latency.p50(),
            self.latency.p95(),
            self.latency.p99(),
            self.latency.mean(),
            self.latency.min(),
            self.latency.max(),
        );
        let _ = write!(
            buf,
            ",\"accesses\":{},\"misses\":{},\"miss_rate\":{:.6},\"prefetches_issued\":{},\"prefetches_useful\":{},\"prefetch_accuracy\":{:.6},\"instructions\":{}",
            self.counters.accesses,
            self.counters.misses,
            self.counters.miss_rate(),
            self.counters.prefetches_issued,
            self.counters.prefetches_useful,
            self.counters.prefetch_accuracy(),
            self.counters.instructions,
        );
        buf.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            c.write_json(buf);
        }
        buf.push_str("]}");
    }
}

fn merge_into(siblings: &mut Vec<PhaseNode>, node: PhaseNode) {
    if let Some(existing) = siblings.iter_mut().find(|c| c.name == node.name) {
        existing.absorb(node);
    } else {
        siblings.push(node);
    }
}

/// The aggregated phase tree for one (or more) runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Top-level scopes (one per robot run), in first-seen order.
    pub roots: Vec<PhaseNode>,
}

impl Report {
    /// Finds a top-level scope by name.
    pub fn root(&self, name: &str) -> Option<&PhaseNode> {
        self.roots.iter().find(|r| r.name == name)
    }

    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut buf = String::from("{\"roots\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            r.write_json(&mut buf);
        }
        buf.push_str("]}");
        buf
    }
}

/// Builds a [`Report`] from begin/end scope calls plus leaf attachments.
///
/// Scopes nest strictly: `end` always closes the innermost open scope.
/// Closing a scope records its latency instance and merges it into its
/// parent (or the root set), combining with an existing same-named
/// sibling.
#[derive(Debug, Default)]
pub struct ReportBuilder {
    stack: Vec<(PhaseNode, u64)>, // (node under construction, begin cycle)
    roots: Vec<PhaseNode>,
}

impl ReportBuilder {
    /// An empty builder.
    pub fn new() -> ReportBuilder {
        ReportBuilder::default()
    }

    /// Opens a scope at `cycle`.
    pub fn begin(&mut self, name: &str, cycle: u64) {
        self.stack.push((PhaseNode::new(name), cycle));
    }

    /// Closes the innermost scope at `cycle`, attributing `counters` to it.
    ///
    /// Panics if no scope is open (a begin/end mismatch is a bug in the
    /// instrumentation, not a runtime condition).
    pub fn end(&mut self, cycle: u64, counters: ScopeCounters) {
        let (mut node, begin) = self.stack.pop().expect("ReportBuilder::end without begin");
        let elapsed = cycle.saturating_sub(begin);
        node.cycles += elapsed;
        node.instances += 1;
        node.latency.record(elapsed);
        node.counters.add(&counters);
        match self.stack.last_mut() {
            Some((parent, _)) => merge_into(&mut parent.children, node),
            None => merge_into(&mut self.roots, node),
        }
    }

    /// Attaches a completed leaf scope (one instance of `cycles` length)
    /// under the innermost open scope, or at top level if none is open.
    pub fn leaf(&mut self, name: &str, cycles: u64, counters: ScopeCounters) {
        let mut node = PhaseNode::new(name);
        node.cycles = cycles;
        node.instances = 1;
        node.latency.record(cycles);
        node.counters = counters;
        match self.stack.last_mut() {
            Some((parent, _)) => merge_into(&mut parent.children, node),
            None => merge_into(&mut self.roots, node),
        }
    }

    /// Nesting depth of currently-open scopes.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finishes the report. Panics if scopes are still open.
    pub fn build(self) -> Report {
        assert!(
            self.stack.is_empty(),
            "ReportBuilder::build with {} open scope(s)",
            self.stack.len()
        );
        Report { roots: self.roots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(accesses: u64, misses: u64) -> ScopeCounters {
        ScopeCounters {
            accesses,
            misses,
            prefetches_issued: 10,
            prefetches_useful: 7,
            instructions: 1000,
        }
    }

    #[test]
    fn sibling_iterations_merge() {
        let mut b = ReportBuilder::new();
        b.begin("flybot", 0);
        for i in 0..5u64 {
            b.begin("iteration", i * 100);
            b.leaf("heuristic", 60, counters(100, 10));
            b.leaf("communication", 30, counters(20, 2));
            b.end(i * 100 + 90 + i, counters(120, 12));
        }
        b.end(600, counters(600, 60));
        let report = b.build();

        assert_eq!(report.roots.len(), 1);
        let root = report.root("flybot").unwrap();
        assert_eq!(root.instances, 1);
        assert_eq!(root.cycles, 600);
        let iter = root.child("iteration").unwrap();
        assert_eq!(iter.instances, 5);
        // Instance latencies were 90, 91, 92, 93, 94.
        assert_eq!(iter.latency.min(), 90);
        assert_eq!(iter.latency.max(), 94);
        assert_eq!(iter.cycles, 90 + 91 + 92 + 93 + 94);
        assert_eq!(iter.counters.accesses, 5 * 120);
        let heur = iter.child("heuristic").unwrap();
        assert_eq!(heur.instances, 5);
        assert_eq!(heur.cycles, 300);
        assert_eq!(heur.counters.misses, 50);
        assert!((heur.counters.miss_rate() - 0.1).abs() < 1e-12);
        assert!((heur.counters.prefetch_accuracy() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn report_json_is_valid() {
        let mut b = ReportBuilder::new();
        b.begin("carribot", 10);
        b.leaf("collision", 40, counters(50, 5));
        b.end(100, counters(50, 5));
        let report = b.build();
        let json = report.to_json();
        crate::json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"name\":\"carribot\""));
        assert!(json.contains("\"p95\""));
    }

    #[test]
    fn identical_builds_compare_equal() {
        let build = || {
            let mut b = ReportBuilder::new();
            b.begin("r", 0);
            for i in 0..100u64 {
                b.begin("iteration", i * 10);
                b.end(i * 10 + 7, counters(i, i / 2));
            }
            b.end(1000, counters(0, 0));
            b.build()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "open scope")]
    fn build_with_open_scope_panics() {
        let mut b = ReportBuilder::new();
        b.begin("r", 0);
        let _ = b.build();
    }

    #[test]
    fn empty_counters_rates_are_zero() {
        let c = ScopeCounters::default();
        assert_eq!(c.miss_rate(), 0.0);
        assert_eq!(c.prefetch_accuracy(), 0.0);
    }
}
