//! Fault-injection campaigns: under supervised execution a fault plan may
//! cost cycles (retries, backoff, CPU fallbacks) but must never change any
//! functional result. Each campaign escalates injection rates against a
//! robot and compares quality bit-for-bit against the fault-free run.

use proptest::prelude::*;
use tartan::core::{
    run_robot, CampaignJob, ExperimentParams, RobotKind, RunOutcome, SoftwareConfig,
};
use tartan::nn::{Mlp, Topology};
use tartan::npu::SupervisedNpu;
use tartan::sim::telemetry::{shared, CountingSink};
use tartan::sim::{FaultPlan, Machine, MachineConfig};

fn job(kind: RobotKind, plan: Option<FaultPlan>) -> CampaignJob {
    let mut hw = MachineConfig::tartan();
    hw.fault_plan = plan;
    let sw = SoftwareConfig::approximable().effective(&hw);
    (kind, hw, sw)
}

fn outcome(kind: RobotKind, plan: Option<FaultPlan>) -> RunOutcome {
    let (kind, hw, sw) = job(kind, plan);
    run_robot(kind, hw, sw, &ExperimentParams::quick())
}

/// Fans a campaign matrix across four host workers, outcomes in job order.
fn campaign(jobs: &[CampaignJob]) -> Vec<RunOutcome> {
    tartan::par::par_map(4, jobs, |(kind, hw, sw)| {
        run_robot(*kind, hw.clone(), *sw, &ExperimentParams::quick())
    })
}

/// The NPU-carrying robots — the ones accelerator faults can reach.
const NPU_ROBOTS: [RobotKind; 3] = [RobotKind::PatrolBot, RobotKind::HomeBot, RobotKind::FlyBot];

#[test]
fn zero_rate_plans_are_bit_identical_to_no_plan() {
    let jobs: Vec<CampaignJob> = NPU_ROBOTS
        .iter()
        .flat_map(|&kind| [job(kind, None), job(kind, Some(FaultPlan::quiet(0xDEAD)))])
        .collect();
    let outcomes = campaign(&jobs);
    for (kind, pair) in NPU_ROBOTS.iter().zip(outcomes.chunks_exact(2)) {
        let (clean, quiet) = (&pair[0], &pair[1]);
        assert_eq!(
            clean.stats, quiet.stats,
            "{:?}: an all-zero-rate plan must be a perfect no-op",
            kind
        );
        assert_eq!(clean.wall_cycles, quiet.wall_cycles, "{kind:?}");
        assert_eq!(
            clean.quality.to_bits(),
            quiet.quality.to_bits(),
            "{kind:?}: quality must match bit for bit"
        );
        assert_eq!(quiet.faults, Default::default(), "{kind:?}");
    }
}

/// The escalation ladder shared by the accelerator campaigns.
const SEVERITIES: [(f64, u64); 3] = [(0.1, 11), (0.5, 12), (0.9, 13)];

#[test]
fn escalating_accel_campaigns_never_change_quality() {
    // Per robot: the fault-free reference, then the escalation ladder.
    let jobs: Vec<CampaignJob> = NPU_ROBOTS
        .iter()
        .flat_map(|&kind| {
            std::iter::once(job(kind, None)).chain(SEVERITIES.iter().map(move |&(severity, seed)| {
                let plan = FaultPlan::quiet(seed)
                    .with_accel_errors(severity, 0.5)
                    .with_accel_bitflips(severity * 0.5)
                    .with_accel_failures(severity * 0.25);
                job(kind, Some(plan))
            }))
        })
        .collect();
    let outcomes = campaign(&jobs);
    for (kind, chunk) in NPU_ROBOTS.iter().zip(outcomes.chunks_exact(1 + SEVERITIES.len())) {
        let reference = &chunk[0];
        let mut total_injected = 0u64;
        for ((severity, _), faulted) in SEVERITIES.iter().zip(&chunk[1..]) {
            assert!(
                (faulted.quality - reference.quality).abs() < 1e-9,
                "{:?} at severity {}: quality {} vs fault-free {}",
                kind,
                severity,
                faulted.quality,
                reference.quality
            );
            let f = faulted.faults;
            total_injected += f.injected;
            assert!(f.injected >= f.detected, "{kind:?}: {f:?}");
            assert!(f.detected >= f.recovered, "{kind:?}: {f:?}");
            assert_eq!(f.detected, f.recovered, "{kind:?}: supervision repairs all: {f:?}");
            assert_eq!(f.unrecovered, 0, "{kind:?}: {f:?}");
        }
        // Rates are per-invocation, so a low-severity run on a robot that
        // invokes the NPU only a handful of times at quick scale may draw
        // zero faults; across the whole escalation the campaign must bite.
        assert!(total_injected > 0, "{kind:?}: campaign never injected");
    }
}

#[test]
fn memory_spike_campaigns_slow_but_never_corrupt() {
    // Memory latency spikes are timing-only: injected, undetectable by
    // output supervision, and functionally harmless on every robot.
    let robots = [RobotKind::CarriBot, RobotKind::MoveBot];
    let jobs: Vec<CampaignJob> = robots
        .iter()
        .flat_map(|&kind| {
            [
                job(kind, None),
                job(kind, Some(FaultPlan::quiet(17).with_mem_spikes(0.02, 40))),
            ]
        })
        .collect();
    let outcomes = campaign(&jobs);
    for (kind, pair) in robots.iter().zip(outcomes.chunks_exact(2)) {
        let (reference, spiked) = (&pair[0], &pair[1]);
        assert_eq!(
            spiked.quality.to_bits(),
            reference.quality.to_bits(),
            "{kind:?}: latency spikes must not change any functional result"
        );
        let f = spiked.faults;
        assert!(f.injected > 0, "{kind:?}: {f:?}");
        assert_eq!(f.detected, 0, "{kind:?}: spikes are undetectable: {f:?}");
        assert_eq!(f.unrecovered, 0, "{kind:?}: {f:?}");
        assert!(
            spiked.wall_cycles > reference.wall_cycles,
            "{:?}: spikes must cost time ({} vs {})",
            kind,
            spiked.wall_cycles,
            reference.wall_cycles
        );
    }
}

#[test]
fn combined_campaign_on_flybot_keeps_the_final_path_exact() {
    // The harshest single campaign: accelerator errors + bitflips +
    // failures + memory spikes at once, against the robot whose NPU output
    // feeds a search heuristic (the AXAR case the paper's §V-F is about).
    let reference = outcome(RobotKind::FlyBot, None);
    let plan = FaultPlan::quiet(23)
        .with_accel_errors(0.6, 1.0)
        .with_accel_bitflips(0.3)
        .with_accel_failures(0.2)
        .with_mem_spikes(0.005, 25);
    let faulted = outcome(RobotKind::FlyBot, Some(plan));
    assert!(
        (faulted.quality - reference.quality).abs() < 1e-9,
        "final path cost must survive the combined campaign: {} vs {}",
        faulted.quality,
        reference.quality
    );
    let f = faulted.faults;
    assert!(f.injected >= f.detected && f.detected == f.recovered && f.unrecovered == 0,
        "{f:?}");
}

#[test]
fn telemetry_fault_events_reconcile_with_machine_stats() {
    // A combined accelerator + memory campaign, observed through a counting
    // sink: the event stream's fault sums must agree exactly with the
    // machine's fault counters, and the counters must conserve.
    let mut cfg = MachineConfig::tartan();
    cfg.fault_plan = Some(
        FaultPlan::quiet(31)
            .with_accel_errors(0.5, 0.5)
            .with_accel_bitflips(0.25)
            .with_accel_failures(0.1)
            .with_mem_spikes(0.01, 30),
    );
    let mut m = Machine::new(cfg);
    let (counts, sink) = shared(CountingSink::new());
    m.set_telemetry(sink);
    let mlp = Mlp::new(&Topology::new(&[6, 16, 16, 1]), 5);
    let mut npu = SupervisedNpu::attach(&mut m, mlp).expect("tartan config has an NPU");
    let inputs = [0.3f32, -0.2, 0.9, 0.0, 0.5, -0.7];
    for _ in 0..60 {
        let _ = m.run(|p| npu.invoke(p, &inputs));
    }
    let stats = m.stats();
    let f = stats.faults;
    assert!(f.injected > 0, "campaign must inject: {f:?}");

    let c = counts.lock().unwrap();
    let ev = *c.faults();
    assert_eq!(ev.injected, f.injected, "event sum vs stats: injected");
    assert_eq!(ev.detected, f.detected, "event sum vs stats: detected");
    assert_eq!(ev.recovered, f.recovered, "event sum vs stats: recovered");
    assert_eq!(
        ev.unrecovered, f.unrecovered,
        "event sum vs stats: unrecovered"
    );
    // Conservation: every injected fault is either detected or undetected
    // (memory latency spikes are the undetectable kind), and recovery never
    // exceeds detection.
    assert_eq!(f.injected, f.detected + f.undetected(), "{f:?}");
    assert!(f.recovered <= f.detected, "{f:?}");
    // Device invocations include supervised retries, so the machine total
    // can only meet or exceed the supervisor's own invocation count.
    assert!(stats.npu_invocations >= npu.counters().invocations);
}

fn supervised_outputs(plan: Option<FaultPlan>, inputs: &[f32]) -> Vec<Vec<f32>> {
    let mut cfg = MachineConfig::tartan();
    cfg.fault_plan = plan;
    let mut m = Machine::new(cfg);
    let mlp = Mlp::new(&Topology::new(&[6, 16, 16, 1]), 5);
    let mut npu = SupervisedNpu::attach(&mut m, mlp).expect("tartan config has an NPU");
    (0..40)
        .map(|_| m.run(|p| npu.invoke(p, inputs)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For *any* fault plan, a supervised invocation stream returns exactly
    /// the fault-free outputs — the exact-recovery guarantee at the unit
    /// level, over the whole plan parameter space.
    #[test]
    fn any_fault_plan_yields_fault_free_outputs(
        seed in 0u64..1_000_000,
        err_rate in 0.0f64..1.0,
        err_mag in 0.0f64..1.0,
        flip_rate in 0.0f64..1.0,
        fail_rate in 0.0f64..1.0,
    ) {
        let inputs = [0.3f32, -0.2, 0.9, 0.0, 0.5, -0.7];
        let reference = supervised_outputs(None, &inputs);
        let plan = FaultPlan::quiet(seed)
            .with_accel_errors(err_rate, err_mag)
            .with_accel_bitflips(flip_rate)
            .with_accel_failures(fail_rate);
        let faulted = supervised_outputs(Some(plan), &inputs);
        prop_assert_eq!(reference, faulted);
    }
}
