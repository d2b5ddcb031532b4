//! The traced replica: drives each distinct job of a batch through the
//! public calls `run_robot` makes — `Machine::new` → `RobotKind::build` →
//! `Robot::step` × steps → `Machine::stats` → `to_run_stats` — with a span
//! around each, and reads the simulated counts from `Machine::stats`.
//!
//! It runs in a process of its own (`perfbench --replica`), so the
//! process-global training memo is as cold as it is for the engine's run
//! of the same jobs. It prints one `unit <key> <wall_cycles>
//! <instructions>` line per job and one `metric <name> <value>` line per
//! per-layer metric; the traced run compares the units with the engine's
//! records.

use std::collections::BTreeMap;

use tartan::campaign::{Campaign, JobSet};
use tartan::core::{ExperimentParams, PlannedJob, RunOutcome};
use tartan::sim::telemetry::ReportBuilder;
use tartan::sim::{Machine, MachineStats};

use crate::trace::Tracer;

/// Simulated counts over the step loop of one or more jobs.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    cycles: u64,
    instructions: u64,
    l1_accesses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    prefetches_issued: u64,
    prefetches_useful: u64,
    npu_invocations: u64,
    faults_injected: u64,
    faults_recovered: u64,
}

impl Window {
    fn between(a: &MachineStats, b: &MachineStats) -> Window {
        let levels = |s: &MachineStats, f: fn(&tartan::sim::CacheStats) -> u64| {
            f(&s.l1) + f(&s.l2) + f(&s.l3)
        };
        Window {
            cycles: b.wall_cycles.saturating_sub(a.wall_cycles),
            instructions: b.instructions.saturating_sub(a.instructions),
            l1_accesses: b.l1.accesses - a.l1.accesses,
            l2_accesses: b.l2.accesses - a.l2.accesses,
            l2_misses: b.l2.misses - a.l2.misses,
            prefetches_issued: levels(b, |c| c.prefetches_issued)
                - levels(a, |c| c.prefetches_issued),
            prefetches_useful: levels(b, |c| c.prefetches_useful)
                - levels(a, |c| c.prefetches_useful),
            npu_invocations: b.npu_invocations - a.npu_invocations,
            faults_injected: b.faults.injected - a.faults.injected,
            faults_recovered: b.faults.recovered - a.faults.recovered,
        }
    }

    fn add(&mut self, o: Window) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.l1_accesses += o.l1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.l2_misses += o.l2_misses;
        self.prefetches_issued += o.prefetches_issued;
        self.prefetches_useful += o.prefetches_useful;
        self.npu_invocations += o.npu_invocations;
        self.faults_injected += o.faults_injected;
        self.faults_recovered += o.faults_recovered;
    }
}

/// Replicates one job, returning its step-loop counts and its record.
fn replicate(job: &PlannedJob, params: &ExperimentParams, tr: &mut Tracer) -> (Window, String) {
    let mut machine = tr.span("core.machine_new", |_| Machine::new(job.machine.clone()));
    let mut robot = tr.span("robots.build", |_| {
        job.robot
            .build(&mut machine, job.software, params.scale, params.seed)
    });
    let start = tr.span("core.record", |_| machine.stats());
    for _ in 0..params.steps {
        tr.span("robots.step", |_| robot.step(&mut machine));
    }
    tr.span("core.record", |_| {
        let stats = machine.stats();
        let window = Window::between(&start, &stats);
        let mut report = ReportBuilder::new();
        report.begin(robot.name(), start.wall_cycles);
        report.end(stats.wall_cycles, Default::default());
        let outcome = RunOutcome {
            robot: robot.name(),
            wall_cycles: window.cycles,
            instructions: window.instructions,
            bottleneck_cycles: 0,
            comm_cycles: 0,
            faults: stats.faults,
            quality: robot.quality(),
            report: report.build(),
            supervision: robot.supervision(),
            stats,
        };
        (window, outcome.to_run_stats(&job.config).to_json_record())
    })
}

/// Replicates every distinct job of `campaigns`, printing the unit and
/// metric lines, and returns the tracer holding the spans.
pub fn run(campaigns: &[Campaign]) -> Tracer {
    let mut tr = Tracer::new(true);
    let mut total = Window::default();
    for (i, unit) in JobSet::build(campaigns).units.iter().enumerate() {
        let r = unit.requesters[0];
        let campaign = &campaigns[r.campaign];
        let job = &campaign.plan.jobs[r.job];
        tr.set_job(Some(i as u64));
        let (window, record) = tr.span("replica.job", |tr| replicate(job, &campaign.params, tr));
        // The record is rendered only to time `core.record`.
        std::hint::black_box(record);
        println!(
            "unit {} {} {}",
            unit.key, window.cycles, window.instructions
        );
        total.add(window);
    }
    tr.set_job(None);
    let totals = tr.totals();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let step_ms = totals.ms("robots.step");
    // Self times of a job span and its children sum to the job's duration.
    let job_ms: f64 = [
        "replica.job",
        "core.machine_new",
        "robots.build",
        "robots.step",
        "core.record",
    ]
    .iter()
    .map(|n| totals.ms(n))
    .sum();
    let metrics: BTreeMap<&str, f64> = BTreeMap::from([
        ("robots.build_ms", totals.ms("robots.build")),
        ("robots.build_calls", totals.calls("robots.build") as f64),
        ("robots.step_ms", step_ms),
        ("robots.steps", totals.calls("robots.step") as f64),
        ("core.machine_new_ms", totals.ms("core.machine_new")),
        ("core.record_ms", totals.ms("core.record")),
        (
            "sim.ns_per_l1_access",
            step_ms * 1e6 / total.l1_accesses.max(1) as f64,
        ),
        (
            "sim.mcycles_per_step_s",
            total.cycles as f64 / 1e6 / (step_ms / 1e3),
        ),
        ("sim.cycles", total.cycles as f64),
        ("sim.instructions", total.instructions as f64),
        ("sim.l1_accesses", total.l1_accesses as f64),
        (
            "sim.l2_miss_ratio",
            ratio(total.l2_misses, total.l2_accesses),
        ),
        (
            "prefetch.useful_ratio",
            ratio(total.prefetches_useful, total.prefetches_issued),
        ),
        ("npu.invocations", total.npu_invocations as f64),
        (
            "fault.recovered_ratio",
            ratio(total.faults_recovered, total.faults_injected),
        ),
        ("replica.job_ms", job_ms),
    ]);
    for (name, value) in metrics {
        println!("metric {name} {value}");
    }
    tr
}
