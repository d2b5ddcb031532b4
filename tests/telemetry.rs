//! Telemetry integration: trace determinism, zero timing perturbation,
//! event↔stats reconciliation, and export validity for full robot runs.

use tartan::core::{run_robot, ExperimentParams, MachineConfig, RobotKind, SoftwareConfig};
use tartan::robots::Scale;
use tartan::sim::telemetry::{
    chrome_trace_json, json, shared, validate_bench_history_line, validate_host_bench_json,
    validate_stats_json, CountingSink, JsonLinesSink, Level, RingBufferSink, StatsExport,
};
use tartan::sim::{Machine, MachineStats};

/// One FlyBot run with a JSON-lines sink attached; returns the serialized
/// event stream and the machine stats.
fn traced_flybot(seed: u64) -> (String, MachineStats) {
    let mut m = Machine::new(MachineConfig::tartan());
    let (lines, sink) = shared(JsonLinesSink::new());
    m.set_telemetry(sink);
    let sw = SoftwareConfig::approximable().effective(m.config());
    let mut bot = RobotKind::FlyBot.build(&mut m, sw, Scale::small(), seed);
    bot.run(&mut m, 2);
    let stats = m.stats();
    let guard = lines.lock().unwrap();
    assert_eq!(guard.dropped(), 0, "byte cap must not truncate a tier-1 run");
    (guard.contents().to_string(), stats)
}

#[test]
fn same_seed_runs_trace_identically() {
    let (a, stats_a) = traced_flybot(7);
    let (b, stats_b) = traced_flybot(7);
    assert!(!a.is_empty(), "a traced FlyBot run must produce events");
    assert_eq!(a, b, "same-seed event streams must be byte-identical");
    assert_eq!(stats_a, stats_b);
    for line in a.lines().take(500) {
        json::parse(line).unwrap_or_else(|e| panic!("bad event line {line}: {e}"));
    }
}

#[test]
fn attaching_a_sink_never_perturbs_timing() {
    let run = |attach: bool| {
        let mut m = Machine::new(MachineConfig::tartan());
        if attach {
            let (_counts, sink) = shared(CountingSink::new());
            m.set_telemetry(sink);
        }
        let sw = SoftwareConfig::approximable().effective(m.config());
        let mut bot = RobotKind::FlyBot.build(&mut m, sw, Scale::small(), 7);
        bot.run(&mut m, 2);
        m.stats()
    };
    let observed = run(true);
    let bare = run(false);
    assert_eq!(
        observed, bare,
        "telemetry must be read-only: stats with a sink attached must be \
         bit-identical to stats without one"
    );
}

#[test]
fn counting_sink_reconciles_with_machine_stats() {
    let mut m = Machine::new(MachineConfig::tartan());
    let (counts, sink) = shared(CountingSink::new());
    m.set_telemetry(sink);
    let sw = SoftwareConfig::approximable().effective(m.config());
    let mut bot = RobotKind::FlyBot.build(&mut m, sw, Scale::small(), 7);
    bot.run(&mut m, 2);
    let stats = m.stats();
    let c = counts.lock().unwrap();
    for (level, cache) in [
        (Level::L1, &stats.l1),
        (Level::L2, &stats.l2),
        (Level::L3, &stats.l3),
    ] {
        let lc = c.level(level);
        assert_eq!(lc.accesses, cache.accesses, "{level:?} accesses");
        assert_eq!(lc.hits, cache.hits, "{level:?} hits");
        assert_eq!(lc.misses + lc.late, cache.misses, "{level:?} misses");
        assert_eq!(lc.covered, cache.prefetch_covered, "{level:?} covered");
        assert_eq!(
            lc.prefetches_issued, cache.prefetches_issued,
            "{level:?} prefetches"
        );
        assert_eq!(lc.evictions, cache.evictions, "{level:?} evictions");
        assert_eq!(lc.dirty_evictions, cache.writebacks, "{level:?} writebacks");
    }
    // The supervised NPU stream: every invocation leaves an invoke event.
    assert_eq!(c.count("npu_invoke"), stats.npu_invocations);
    assert!(c.count("phase_begin") > 0, "phase scopes must be traced");
    assert_eq!(c.count("phase_begin"), c.count("phase_end"));
}

#[test]
fn reports_are_deterministic_and_structured() {
    let params = ExperimentParams::quick();
    let run = || {
        run_robot(
            RobotKind::FlyBot,
            MachineConfig::tartan(),
            SoftwareConfig::approximable(),
            &params,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report, "same-seed reports must aggregate identically");
    let root = a.report.root("FlyBot").expect("FlyBot root scope");
    let iter = root.child("iteration").expect("iteration scope");
    assert_eq!(iter.instances, params.steps as u64);
    assert!(iter.latency.p99() >= iter.latency.p50());
    json::parse(&a.report.to_json()).unwrap();
}

#[test]
fn schema_md_documents_the_current_version() {
    // Mirror of CI's schema guard: bumping STATS_SCHEMA_VERSION requires a
    // matching changelog entry in SCHEMA.md.
    let schema = include_str!("../SCHEMA.md");
    let needle = format!("### v{} ", tartan::sim::telemetry::STATS_SCHEMA_VERSION);
    assert!(
        schema.contains(&needle),
        "SCHEMA.md has no '{needle}' entry; schema version changes must be logged"
    );
}

#[test]
fn checked_in_bench_results_validate() {
    // The committed bench documents are what the writers produce, so each
    // must decode and re-render byte for byte.
    validate_stats_json(include_str!("../results/BENCH_tier1.json"))
        .unwrap_or_else(|e| panic!("results/BENCH_tier1.json: {e}"));
    validate_host_bench_json(include_str!("../results/BENCH_host.json"))
        .unwrap_or_else(|e| panic!("results/BENCH_host.json: {e}"));
    for line in include_str!("../results/BENCH_history.jsonl").lines() {
        validate_bench_history_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

#[test]
fn flybot_exports_valid_chrome_trace_and_stats_json() {
    let mut m = Machine::new(MachineConfig::tartan());
    let (ring, sink) = shared(RingBufferSink::new(200_000));
    m.set_telemetry(sink);
    let sw = SoftwareConfig::approximable().effective(m.config());
    let mut bot = RobotKind::FlyBot.build(&mut m, sw, Scale::small(), 7);
    bot.run(&mut m, 2);
    let events = ring.lock().unwrap().events();
    assert!(!events.is_empty());
    let trace = chrome_trace_json("FlyBot", &events);
    json::parse(&trace).unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
    assert!(trace.contains("\"traceEvents\""));

    let out = run_robot(
        RobotKind::FlyBot,
        MachineConfig::tartan(),
        SoftwareConfig::approximable(),
        &ExperimentParams::quick(),
    );
    assert!(out.stats.npu_invocations > 0, "AXAR must reach the NPU");
    let sup = out.supervision.expect("a supervised NPU reports counters");
    assert!(sup.invocations > 0);
    let export = StatsExport {
        generator: "telemetry_test".into(),
        runs: vec![out.to_run_stats(&tartan::core::ConfigId::Tartan)],
        failures: Vec::new(),
    };
    validate_stats_json(&export.to_json()).unwrap();
}
