//! The experiment runner: builds a machine + robot, runs the pipeline, and
//! snapshots everything the figures need.

use tartan_robots::{RobotKind, Scale, SoftwareConfig};
use tartan_scenario::{ConfigId, RunParams};
use tartan_sim::telemetry::{
    CacheCounters, FaultCounters, PhaseEntry, Report, ReportBuilder, RobotRunStats, ScopeCounters,
    SupervisionCounters,
};
use tartan_sim::{CacheStats, FaultStats, Machine, MachineConfig, MachineStats};

/// Sizing knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Workload scale.
    pub scale: Scale,
    /// Pipeline periods per run.
    pub steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// Fast parameters for tests.
    pub fn quick() -> Self {
        ExperimentParams {
            scale: Scale::small(),
            steps: 2,
            seed: 42,
        }
    }

    /// The scale the figure harnesses use.
    pub fn paper() -> Self {
        ExperimentParams {
            scale: Scale::paper(),
            steps: 3,
            seed: 42,
        }
    }

    /// Parameters for coverage probes: the tiny [`Scale::probe`]
    /// workloads and a single pipeline period, so the scenario
    /// synthesizer can afford hundreds of runs. Not meaningful for
    /// figures — regimes, not magnitudes.
    pub fn probe() -> Self {
        ExperimentParams {
            scale: Scale::probe(),
            steps: 1,
            seed: 42,
        }
    }
}

impl From<RunParams> for ExperimentParams {
    fn from(p: RunParams) -> Self {
        ExperimentParams {
            scale: p.scale,
            steps: p.steps,
            seed: p.seed,
        }
    }
}

impl From<ExperimentParams> for RunParams {
    fn from(p: ExperimentParams) -> Self {
        RunParams {
            scale: p.scale,
            steps: p.steps,
            seed: p.seed,
        }
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Robot name.
    pub robot: &'static str,
    /// End-to-end wall cycles.
    pub wall_cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Cycles attributed to the robot's bottleneck phases (Fig. 1).
    pub bottleneck_cycles: u64,
    /// Cycles attributed to CPU↔NPU communication (Fig. 8).
    pub comm_cycles: u64,
    /// Full statistics snapshot.
    pub stats: MachineStats,
    /// Fault-injection counters for the run (zero without a fault plan).
    pub faults: FaultStats,
    /// Robot-specific quality metric (lower is better).
    pub quality: f64,
    /// Hierarchical phase report (robot → iteration → kernel scopes) with
    /// per-scope latency percentiles and L2 cache attribution.
    pub report: Report,
    /// Supervision counters, for robots that ran a supervised NPU or a
    /// verified approximate engine.
    pub supervision: Option<SupervisionCounters>,
}

impl RunOutcome {
    /// Total cycles attributed to phases (the breakdown denominator).
    pub fn phase_total(&self) -> u64 {
        self.stats.phases.values().map(|p| p.cycles).sum()
    }

    /// Fraction of attributed cycles spent in the bottleneck.
    pub fn bottleneck_fraction(&self) -> f64 {
        let total = self.phase_total();
        if total == 0 {
            0.0
        } else {
            self.bottleneck_cycles as f64 / total as f64
        }
    }

    /// Converts the outcome into one versioned `stats.json` run record.
    /// The hardware/software combination is labeled by its canonical
    /// [`ConfigId`] — the single rendering point for config labels, so
    /// exports can't drift between harnesses.
    pub fn to_run_stats(&self, config: &ConfigId) -> RobotRunStats {
        RobotRunStats {
            robot: self.robot.to_string(),
            config: config.as_str().to_string(),
            wall_cycles: self.wall_cycles,
            instructions: self.instructions,
            quality: self.quality,
            l1: cache_counters(&self.stats.l1),
            l2: cache_counters(&self.stats.l2),
            l3: cache_counters(&self.stats.l3),
            dram_bytes: self.stats.dram_bytes,
            l3_traffic_bytes: self.stats.l3_traffic_bytes,
            npu_invocations: self.stats.npu_invocations,
            supervision: self.supervision,
            faults: FaultCounters {
                injected: self.faults.injected,
                detected: self.faults.detected,
                recovered: self.faults.recovered,
                unrecovered: self.faults.unrecovered,
            },
            phases: self
                .stats
                .phases
                .iter()
                .map(|(name, p)| PhaseEntry {
                    name: (*name).to_string(),
                    cycles: p.cycles,
                    instructions: p.instructions,
                })
                .collect(),
        }
    }
}

/// Mirrors one cache level's counters into the export schema.
fn cache_counters(s: &CacheStats) -> CacheCounters {
    CacheCounters {
        accesses: s.accesses,
        hits: s.hits,
        misses: s.misses,
        prefetch_covered: s.prefetch_covered,
        prefetches_issued: s.prefetches_issued,
        prefetches_useful: s.prefetches_useful,
        prefetches_late: s.prefetches_late,
        evictions: s.evictions,
        writebacks: s.writebacks,
    }
}

/// L2-level counter delta between two stats snapshots — the attribution a
/// closing scope carries (`CacheStats::misses` already includes late
/// prefetches, matching [`ScopeCounters::misses`]).
fn scope_delta(before: &MachineStats, after: &MachineStats) -> ScopeCounters {
    ScopeCounters {
        accesses: after.l2.accesses.saturating_sub(before.l2.accesses),
        misses: after.l2.misses.saturating_sub(before.l2.misses),
        prefetches_issued: after
            .l2
            .prefetches_issued
            .saturating_sub(before.l2.prefetches_issued),
        prefetches_useful: after
            .l2
            .prefetches_useful
            .saturating_sub(before.l2.prefetches_useful),
        instructions: after.instructions.saturating_sub(before.instructions),
    }
}

/// Runs one robot on one configuration and snapshots the outcome.
pub fn run_robot(
    kind: RobotKind,
    hw: MachineConfig,
    sw: SoftwareConfig,
    params: &ExperimentParams,
) -> RunOutcome {
    let mut machine = Machine::new(hw);
    let mut robot = kind.build(&mut machine, sw, params.scale, params.seed);
    // Setup (environment generation, model training) happens in `build`
    // and is untimed except for explicit configuration costs; reset the
    // wall clock contribution by measuring a delta.
    let start_wall = machine.wall_cycles();
    let start_stats = machine.stats();
    // Phase scopes: one root per run, one "iteration" child per pipeline
    // period, one leaf per kernel phase that advanced during the period.
    // Same-named siblings merge, so the iteration node's histogram is the
    // per-period latency distribution (p50/p95/p99).
    let mut builder = ReportBuilder::new();
    builder.begin(robot.name(), start_wall);
    let mut prev = start_stats.clone();
    for _ in 0..params.steps {
        builder.begin("iteration", machine.wall_cycles());
        robot.step(&mut machine);
        let now = machine.stats();
        for (name, phase) in now.phases.iter() {
            let before = prev.phases.get(name).copied().unwrap_or_default();
            let cycles = phase.cycles.saturating_sub(before.cycles);
            let instructions = phase.instructions.saturating_sub(before.instructions);
            if cycles > 0 || instructions > 0 {
                builder.leaf(
                    name,
                    cycles,
                    ScopeCounters {
                        instructions,
                        ..ScopeCounters::default()
                    },
                );
            }
        }
        builder.end(machine.wall_cycles(), scope_delta(&prev, &now));
        prev = now;
    }
    let mut stats = machine.stats();
    builder.end(machine.wall_cycles(), scope_delta(&start_stats, &stats));
    let report = builder.build();
    // Subtract setup-time contributions (e.g., streaming NPU weights at
    // configuration) so every reported quantity covers the same window.
    // Saturating: a phase snapshot can only shrink if an accelerator was
    // re-registered mid-run, but a stats-accounting hiccup must yield a
    // zero delta, not a wrapped u64 that dwarfs every figure.
    for (name, phase) in stats.phases.iter_mut() {
        if let Some(before) = start_stats.phases.get(name) {
            phase.cycles = phase.cycles.saturating_sub(before.cycles);
            phase.instructions = phase.instructions.saturating_sub(before.instructions);
        }
    }
    let bottleneck_cycles = robot
        .bottleneck_phases()
        .iter()
        .map(|ph| stats.phase_cycles(ph))
        .sum();
    RunOutcome {
        robot: robot.name(),
        wall_cycles: stats.wall_cycles.saturating_sub(start_wall),
        instructions: stats.instructions.saturating_sub(start_stats.instructions),
        bottleneck_cycles,
        comm_cycles: stats.phase_cycles(tartan_sim::PHASE_COMM),
        faults: stats.faults,
        stats,
        quality: robot.quality(),
        report,
        supervision: robot.supervision(),
    }
}

/// One (robot, hardware, software) combination in a campaign job list.
pub type CampaignJob = (RobotKind, MachineConfig, SoftwareConfig);

/// Geometric mean of an iterator of positive numbers.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_outcome_has_consistent_fields() {
        let out = run_robot(
            RobotKind::DeliBot,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
            &ExperimentParams::quick(),
        );
        assert_eq!(out.robot, "DeliBot");
        assert!(out.wall_cycles > 0);
        assert!(out.instructions > 0);
        assert!(out.bottleneck_fraction() > 0.0 && out.bottleneck_fraction() <= 1.0);
    }

    #[test]
    fn report_scopes_cover_the_run() {
        let params = ExperimentParams::quick();
        let out = run_robot(
            RobotKind::DeliBot,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
            &params,
        );
        let root = out.report.root("DeliBot").expect("root scope");
        let iter = root.child("iteration").expect("iteration scope");
        assert_eq!(iter.instances, params.steps as u64);
        assert!(iter.cycles <= root.cycles);
        assert!(!iter.children.is_empty(), "kernel leaf scopes expected");
        assert!(iter.counters.accesses > 0);
        // The outcome round-trips through the versioned stats.json schema.
        let json = tartan_sim::telemetry::StatsExport {
            generator: "runner_test".into(),
            runs: vec![out.to_run_stats(&ConfigId::Baseline)],
            failures: Vec::new(),
        }
        .to_json();
        tartan_sim::telemetry::validate_stats_json(&json).unwrap();
    }

    #[test]
    fn gmean_of_equal_values() {
        assert!((gmean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(Vec::<f64>::new()), 0.0);
    }
}
