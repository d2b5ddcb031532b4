//! Determinism regression for the parallel campaign engine: fanning a
//! campaign across host workers must not change a single exported byte.
//!
//! The engine's whole claim (DESIGN.md §12) is that workers race only over
//! *which* job they pick up, never over where its result lands or what the
//! simulation computes — every `run_robot` is self-contained and seeded.
//! These tests pin that claim on `tartan_campaign::Engine`, the path
//! `tartan_run`, `bench_tier1` and the figure harnesses take: a `jobs=4`
//! campaign must produce bit-identical `StatsExport` JSON and identical
//! per-run telemetry counter totals to the same campaign at `jobs=1`.

use std::collections::BTreeMap;

use tartan::campaign::{Campaign, CampaignOptions, CampaignSpec, Engine, PhaseClock};
use tartan::core::{
    CampaignJob, ConfigId, ExperimentParams, MachineConfig, Plan, PlannedJob, RobotKind,
    ScenarioSpec, SoftwareConfig,
};
use tartan::par;
use tartan::scenario::GroupPlan;
use tartan::sim::telemetry::{shared, CountingSink, StatsExport};
use tartan::sim::{Machine, MemPolicy};

/// A bench_tier1-style matrix over the quicker robots: baseline and Tartan
/// per robot (PatrolBot/CarriBot are left to the bench binary itself —
/// they dominate wall time without adding scheduling variety).
fn matrix() -> Vec<(ConfigId, CampaignJob)> {
    let mut m = Vec::new();
    for kind in [
        RobotKind::DeliBot,
        RobotKind::MoveBot,
        RobotKind::HomeBot,
        RobotKind::FlyBot,
    ] {
        m.push((
            ConfigId::Baseline,
            (
                kind,
                MachineConfig::upgraded_baseline(),
                SoftwareConfig::legacy(),
            ),
        ));
        m.push((
            ConfigId::Tartan,
            (kind, MachineConfig::tartan(), SoftwareConfig::approximable()),
        ));
    }
    m
}

/// The matrix as one engine campaign at quick scale.
fn campaign() -> Campaign {
    let jobs: Vec<PlannedJob> = matrix()
        .into_iter()
        .map(|(config, (robot, machine, software))| PlannedJob {
            robot,
            machine,
            software,
            label: String::new(),
            config,
            group: 0,
        })
        .collect();
    let spec = ScenarioSpec::from_json(
        r#"{"schema_version": 1, "name": "parallel_determinism", "groups": [{"robots": "all"}]}"#,
    )
    .expect("inline scenario parses");
    let plan = Plan {
        name: spec.name.clone(),
        title: None,
        groups: vec![GroupPlan {
            name: "matrix".into(),
            first: 0,
            len: jobs.len(),
            variants_per_robot: 2,
            robots: jobs.len() / 2,
        }],
        jobs,
    };
    Campaign {
        spec,
        plan,
        params: ExperimentParams::quick(),
    }
}

fn export_for(jobs: usize) -> StatsExport {
    let engine = Engine::new(CampaignSpec {
        campaigns: vec![campaign()],
        options: CampaignOptions {
            jobs,
            keep_outcomes: true,
            ..CampaignOptions::default()
        },
    });
    let report = engine
        .run(&mut PhaseClock::start(), None)
        .expect("no store to open");
    let result = &report.campaigns[0];
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    StatsExport {
        generator: "parallel_determinism".into(),
        runs: engine.spec.campaigns[0]
            .plan
            .jobs
            .iter()
            .zip(&result.results)
            .map(|(job, slot)| {
                slot.as_ref()
                    .and_then(|out| out.outcome.as_ref())
                    .expect("keep_outcomes was set")
                    .to_run_stats(&job.config)
            })
            .collect(),
        failures: Vec::new(),
    }
}

#[test]
fn four_worker_campaign_exports_identical_stats_json() {
    let sequential = export_for(1);
    let parallel = export_for(4);
    // Per-run struct equality first, for a readable diff on failure...
    for (s, p) in sequential.runs.iter().zip(&parallel.runs) {
        assert_eq!(s, p, "run {}/{} drifted under jobs=4", s.robot, s.config);
    }
    // ...then the real contract: the serialized export is byte-identical.
    assert_eq!(sequential.to_json(), parallel.to_json());
}

/// A small synthetic workload with telemetry counting attached: each job
/// runs its own `Machine` and returns the sink's per-kind event totals.
fn counted_run(job_index: usize) -> (u64, BTreeMap<&'static str, u64>) {
    let cfg = if job_index.is_multiple_of(2) {
        MachineConfig::upgraded_baseline()
    } else {
        MachineConfig::tartan()
    };
    let mut m = Machine::new(cfg);
    let (counts, sink) = shared(CountingSink::new());
    m.set_telemetry(sink);
    let stride = 8 + 8 * job_index as u64;
    m.run(|p| {
        for i in 0..512u64 {
            p.read(0x40, i * stride, 4, MemPolicy::Normal);
            if i.is_multiple_of(3) {
                p.write(0x44, i * stride + 4, 4, MemPolicy::Normal);
            }
        }
    });
    drop(m);
    let c = counts.lock().expect("counting sink poisoned");
    (c.total(), c.kinds().clone())
}

#[test]
fn telemetry_counter_totals_match_across_job_counts() {
    let sequential: Vec<_> = (0..8).map(counted_run).collect();
    let parallel = par::par_map_indexed(4, 8, counted_run);
    assert_eq!(sequential, parallel);
    // The workload must actually produce telemetry for this to mean much.
    assert!(sequential.iter().all(|(total, _)| *total > 0));
}
