//! The versioned `stats.json` export schema.
//!
//! This is the machine-readable contract between the simulator, the bench
//! harness (`results/BENCH_tier1.json`), and CI. The structs here mirror
//! the simulator's counters *by value* — telemetry sits below `tartan-sim`
//! in the dependency graph, so it cannot name those types; the sim/core
//! layers convert into these mirrors.
//!
//! Versioning policy (enforced by CI against `SCHEMA.md`):
//! * Adding a field or a new optional section → bump
//!   [`STATS_SCHEMA_VERSION`], append a `SCHEMA.md` entry.
//! * Removing or renaming a field → same, and call it out as breaking.
//! * Consumers must ignore unknown fields.

use crate::json::{push_str, render, round_trip, Codec, Record, Value};

/// Version of the `stats.json` schema emitted by [`StatsExport::to_json`].
///
/// CI fails if this changes without a matching entry in `SCHEMA.md`.
///
/// v2: every document carries an always-present `"failures"` array of
/// structured per-job failure records (empty on a clean campaign).
///
/// v3: `BENCH_host.json` may carry an optional `"warm"` section (a second
/// store-served timing pass, written only when the bench ran with
/// `--store`); `stats.json` itself is unchanged beyond the version stamp.
pub const STATS_SCHEMA_VERSION: u32 = 3;

/// Mirror of one cache level's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses covered by a timely prefetch.
    pub prefetch_covered: u64,
    /// Prefetches issued into this level.
    pub prefetches_issued: u64,
    /// Prefetched lines later demanded.
    pub prefetches_useful: u64,
    /// Prefetches that arrived late.
    pub prefetches_late: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty writebacks.
    pub writebacks: u64,
}

impl CacheCounters {
    /// Demand miss ratio, 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl Record for CacheCounters {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("accesses", &mut self.accesses)?;
        c.field("hits", &mut self.hits)?;
        c.field("misses", &mut self.misses)?;
        c.derived("miss_ratio", self.miss_ratio())?;
        c.field("prefetch_covered", &mut self.prefetch_covered)?;
        c.field("prefetches_issued", &mut self.prefetches_issued)?;
        c.field("prefetches_useful", &mut self.prefetches_useful)?;
        c.field("prefetches_late", &mut self.prefetches_late)?;
        c.field("evictions", &mut self.evictions)?;
        c.field("writebacks", &mut self.writebacks)
    }
}

/// Mirror of the fault-injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected by the plan.
    pub injected: u64,
    /// Faults caught by a supervisor.
    pub detected: u64,
    /// Detected faults fully repaired.
    pub recovered: u64,
    /// Faults that corrupted a consumed result.
    pub unrecovered: u64,
}

impl Record for FaultCounters {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("injected", &mut self.injected)?;
        c.field("detected", &mut self.detected)?;
        c.field("recovered", &mut self.recovered)?;
        c.field("unrecovered", &mut self.unrecovered)
    }
}

/// NPU supervision counters, for robots that run a supervised NPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Accelerator invocations issued.
    pub invocations: u64,
    /// Iterations rolled back by the supervisor.
    pub rollbacks: u64,
    /// Rollbacks that re-ran the function on the CPU.
    pub cpu_fallbacks: u64,
}

impl Record for SupervisionCounters {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("invocations", &mut self.invocations)?;
        c.field("rollbacks", &mut self.rollbacks)?;
        c.field("cpu_fallbacks", &mut self.cpu_fallbacks)
    }
}

/// One named phase's cycle/instruction attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Phase label.
    pub name: String,
    /// Cycles attributed.
    pub cycles: u64,
    /// Instructions attributed.
    pub instructions: u64,
}

impl Record for PhaseEntry {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("name", &mut self.name)?;
        c.field("cycles", &mut self.cycles)?;
        c.field("instructions", &mut self.instructions)
    }
}

/// Everything `stats.json` records about one robot run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobotRunStats {
    /// Robot name (e.g. `"flybot"`).
    pub robot: String,
    /// Software configuration label (e.g. `"tartan"`, `"legacy"`).
    pub config: String,
    /// Wall cycles for the run.
    pub wall_cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Output quality in [0, 1].
    pub quality: f64,
    /// L1 counters (per-core, merged).
    pub l1: CacheCounters,
    /// L2 counters (per-core, merged).
    pub l2: CacheCounters,
    /// Shared L3 counters.
    pub l3: CacheCounters,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// L3↔L2 traffic in bytes.
    pub l3_traffic_bytes: u64,
    /// NPU invocations observed by the machine (0 for CPU-only robots).
    pub npu_invocations: u64,
    /// Supervision counters, when the robot runs a supervised NPU.
    pub supervision: Option<SupervisionCounters>,
    /// Fault counters (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Per-phase breakdown, sorted by name.
    pub phases: Vec<PhaseEntry>,
}

impl RobotRunStats {
    /// Serializes this run as a standalone JSON object — exactly the bytes
    /// [`StatsExport::to_json`] would place in its `"runs"` array.
    ///
    /// This is the campaign store's payload unit: a cached record can be
    /// spliced verbatim into a later export with [`stats_export_json`] and
    /// the result is byte-identical to a fresh serialization, which is what
    /// makes resumed campaigns reproduce a clean run's output bit for bit.
    pub fn to_json_record(&self) -> String {
        render(self.clone())
    }
}

impl Record for RobotRunStats {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("robot", &mut self.robot)?;
        c.field("config", &mut self.config)?;
        c.field("wall_cycles", &mut self.wall_cycles)?;
        c.field("instructions", &mut self.instructions)?;
        c.field("quality", &mut self.quality)?;
        c.field("l1", &mut self.l1)?;
        c.field("l2", &mut self.l2)?;
        c.field("l3", &mut self.l3)?;
        c.field("dram_bytes", &mut self.dram_bytes)?;
        c.field("l3_traffic_bytes", &mut self.l3_traffic_bytes)?;
        c.field("npu_invocations", &mut self.npu_invocations)?;
        c.field("supervision", &mut self.supervision)?;
        c.field("faults", &mut self.faults)?;
        c.field("phases", &mut self.phases)
    }
}

/// One job that produced no result: it panicked on every attempt the
/// campaign's retry policy allowed (schema v2 `"failures"` entry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobFailureStats {
    /// Robot name of the failed job.
    pub robot: String,
    /// Configuration label of the failed job.
    pub config: String,
    /// Scenario job label.
    pub label: String,
    /// Scenario group name.
    pub group: String,
    /// Attempts made before giving up (≥ 1).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
}

impl Record for JobFailureStats {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("robot", &mut self.robot)?;
        c.field("config", &mut self.config)?;
        c.field("label", &mut self.label)?;
        c.field("group", &mut self.group)?;
        c.field("attempts", &mut self.attempts)?;
        c.field("message", &mut self.message)
    }
}

/// The top-level `stats.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsExport {
    /// Tool that produced the document (e.g. `"bench_tier1"`).
    pub generator: String,
    /// One entry per robot run.
    pub runs: Vec<RobotRunStats>,
    /// Jobs that failed to produce a run (empty on a clean campaign).
    pub failures: Vec<JobFailureStats>,
}

impl StatsExport {
    /// Serializes the document. The schema version is stamped
    /// automatically; the output is byte-deterministic.
    pub fn to_json(&self) -> String {
        self.clone().into_json()
    }

    fn into_json(self) -> String {
        let records: Vec<String> = self.runs.into_iter().map(render).collect();
        stats_export_json(&self.generator, &records, &self.failures)
    }
}

/// The top-level layout [`stats_export_json`] writes; used to decode.
impl Record for StatsExport {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.fixed("schema_version", STATS_SCHEMA_VERSION)?;
        c.field("generator", &mut self.generator)?;
        c.field("runs", &mut self.runs)?;
        c.field("failures", &mut self.failures)
    }
}

/// Assembles a `stats.json` document from pre-serialized run records
/// (each the output of [`RobotRunStats::to_json_record`], spliced in
/// verbatim) plus structured failures.
///
/// [`StatsExport::to_json`] is implemented on top of this, so an export
/// built from cached record bytes is byte-identical to one re-serialized
/// from live [`RobotRunStats`] values — the invariant the campaign store's
/// `--resume` path relies on.
pub fn stats_export_json(
    generator: &str,
    run_records: &[String],
    failures: &[JobFailureStats],
) -> String {
    let mut buf = String::new();
    use std::fmt::Write;
    let _ = write!(buf, "{{\"schema_version\":{STATS_SCHEMA_VERSION},\"generator\":");
    push_str(&mut buf, generator);
    buf.push_str(",\"runs\":[");
    for (i, r) in run_records.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(r);
    }
    buf.push_str("],\"failures\":");
    failures.to_vec().write(&mut buf);
    buf.push_str("}\n");
    buf
}

/// Host wall-time measurement for one robot run, as recorded by the bench
/// harness into `results/BENCH_host.json`.
///
/// Unlike [`RobotRunStats`], these values depend on the machine running the
/// benchmark: `host_nanos` is real elapsed time, so the document is *not*
/// byte-deterministic across runs. Simulated results stay in
/// `BENCH_tier1.json`; this file exists to track simulator throughput.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostRunStats {
    /// Robot name (e.g. `"flybot"`).
    pub robot: String,
    /// Software configuration label (e.g. `"tartan"`, `"baseline"`).
    pub config: String,
    /// Simulated wall cycles for the run.
    pub wall_cycles: u64,
    /// Host nanoseconds this row's pass took. For a cold row that is the
    /// simulation time; for a warm row it is the store fetch + decode time.
    pub host_nanos: u64,
    /// For warm rows: host nanoseconds the *cold* pass spent actually
    /// simulating the `wall_cycles` this row repeats. Warm rows reuse the
    /// cold pass's cycle count, so dividing it by the warm `host_nanos`
    /// would fabricate an absurd throughput; this field keeps the
    /// numerator and denominator from the same pass. `None` on cold rows
    /// (and in pre-existing documents), where `host_nanos` already is the
    /// simulation time.
    pub cold_host_nanos: Option<u64>,
}

impl HostRunStats {
    /// Simulator throughput: simulated cycles per host second, always
    /// measured against the pass that produced the cycles (the cold
    /// simulation), never against a store fetch.
    pub fn sim_cycles_per_host_sec(&self) -> f64 {
        let nanos = self.cold_host_nanos.unwrap_or(self.host_nanos);
        if nanos == 0 {
            0.0
        } else {
            self.wall_cycles as f64 * 1e9 / nanos as f64
        }
    }
}

impl Record for HostRunStats {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("robot", &mut self.robot)?;
        c.field("config", &mut self.config)?;
        c.field("wall_cycles", &mut self.wall_cycles)?;
        c.field("host_nanos", &mut self.host_nanos)?;
        c.optional("cold_host_nanos", &mut self.cold_host_nanos)?;
        c.derived("sim_cycles_per_host_sec", self.sim_cycles_per_host_sec())
    }
}

/// The warm (store-served) half of a cold/warm bench split: the same run
/// matrix timed again with every result served from the result store, so
/// cache speedup is measurable instead of silently mixed into one number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmBenchStats {
    /// Elapsed host nanoseconds for the warm pass.
    pub total_host_nanos: u64,
    /// One entry per run, submission order; `host_nanos` is the store
    /// fetch + decode time for that run's record.
    pub runs: Vec<HostRunStats>,
}

impl WarmBenchStats {
    /// Warm throughput in store-served runs per host second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.total_host_nanos == 0 {
            0.0
        } else {
            self.runs.len() as f64 * 1e9 / self.total_host_nanos as f64
        }
    }
}

impl Record for WarmBenchStats {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("total_host_nanos", &mut self.total_host_nanos)?;
        c.derived("runs_per_sec", self.runs_per_sec())?;
        c.field("runs", &mut self.runs)
    }
}

/// The top-level `BENCH_host.json` document: host wall-time and throughput
/// for a bench campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostBenchExport {
    /// Tool that produced the document (e.g. `"bench_tier1"`).
    pub generator: String,
    /// Host worker threads the campaign ran with (`--jobs`).
    pub jobs: u64,
    /// Elapsed host nanoseconds for the whole campaign (wall clock, not the
    /// sum of per-run times — with `jobs > 1` runs overlap).
    pub total_host_nanos: u64,
    /// One entry per robot run, in campaign submission order.
    pub runs: Vec<HostRunStats>,
    /// Warm-pass timings, when the bench ran a cold/warm split (`--store`).
    pub warm: Option<WarmBenchStats>,
}

impl HostBenchExport {
    /// Campaign throughput in completed runs per host second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.total_host_nanos == 0 {
            0.0
        } else {
            self.runs.len() as f64 * 1e9 / self.total_host_nanos as f64
        }
    }

    /// Serializes the document, stamping the schema version. The layout is
    /// deterministic; the timing *values* are whatever the host measured.
    pub fn to_json(&self) -> String {
        render(self.clone()) + "\n"
    }
}

impl Record for HostBenchExport {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.fixed("schema_version", STATS_SCHEMA_VERSION)?;
        c.field("generator", &mut self.generator)?;
        c.field("jobs", &mut self.jobs)?;
        c.field("total_host_nanos", &mut self.total_host_nanos)?;
        c.derived("runs_per_sec", self.runs_per_sec())?;
        c.field("runs", &mut self.runs)?;
        c.optional("warm", &mut self.warm)
    }
}

/// Validates a `BENCH_host.json` document by decoding it into a
/// [`HostBenchExport`] (the current [`STATS_SCHEMA_VERSION`], every key
/// in writer order, integers where the writer puts integers; the
/// `"warm"` section and warm rows' `cold_host_nanos` are optional) and
/// requiring [`HostBenchExport::to_json`] to reproduce it byte for byte,
/// which recomputes every `runs_per_sec` and `sim_cycles_per_host_sec`.
pub fn validate_host_bench_json(s: &str) -> Result<(), String> {
    round_trip(s, |e: HostBenchExport| render(e) + "\n")
}

/// Validates a `stats.json` document by decoding every run and failure
/// record into a [`StatsExport`] (the current [`STATS_SCHEMA_VERSION`],
/// every key in writer order) and requiring [`StatsExport::to_json`] to
/// reproduce it byte for byte, which recomputes every `miss_ratio`. Used
/// by the binaries, tests and the benchmark.
pub fn validate_stats_json(s: &str) -> Result<(), String> {
    round_trip(s, StatsExport::into_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_export() -> StatsExport {
        StatsExport {
            generator: "unit_test".into(),
            runs: vec![RobotRunStats {
                robot: "flybot".into(),
                config: "tartan".into(),
                wall_cycles: 123_456,
                instructions: 98_765,
                quality: 0.997,
                l1: CacheCounters {
                    accesses: 1000,
                    hits: 900,
                    misses: 100,
                    ..CacheCounters::default()
                },
                l2: CacheCounters {
                    accesses: 100,
                    hits: 40,
                    misses: 30,
                    prefetch_covered: 30,
                    prefetches_issued: 50,
                    prefetches_useful: 35,
                    prefetches_late: 5,
                    evictions: 10,
                    writebacks: 4,
                },
                l3: CacheCounters::default(),
                dram_bytes: 64_000,
                l3_traffic_bytes: 128_000,
                npu_invocations: 12,
                supervision: Some(SupervisionCounters {
                    invocations: 12,
                    rollbacks: 2,
                    cpu_fallbacks: 1,
                }),
                faults: FaultCounters {
                    injected: 3,
                    detected: 3,
                    recovered: 2,
                    unrecovered: 0,
                },
                phases: vec![
                    PhaseEntry {
                        name: "heuristic".into(),
                        cycles: 80_000,
                        instructions: 60_000,
                    },
                    PhaseEntry {
                        name: "communication".into(),
                        cycles: 20_000,
                        instructions: 1_000,
                    },
                ],
            }],
            failures: Vec::new(),
        }
    }

    #[test]
    fn export_round_trips_validation() {
        let json = sample_export().to_json();
        validate_stats_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"robot\":\"flybot\""));
        assert!(json.contains("\"supervision\":{\"invocations\":12"));
        assert!(json.contains("\"failures\":[]"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn null_supervision_serializes() {
        let mut e = sample_export();
        e.runs[0].supervision = None;
        let json = e.to_json();
        validate_stats_json(&json).unwrap();
        assert!(json.contains("\"supervision\":null"));
    }

    #[test]
    fn validator_rejects_wrong_version() {
        // 31 starts with the current version's digits.
        for stamp in ["9999", "31"] {
            let json = sample_export().to_json().replace(
                "\"schema_version\":3",
                &format!("\"schema_version\":{stamp}"),
            );
            assert!(validate_stats_json(&json).is_err(), "{stamp} accepted");
        }
    }

    #[test]
    fn failures_section_serializes_and_validates() {
        let mut e = sample_export();
        e.failures.push(JobFailureStats {
            robot: "DeliBot".into(),
            config: "tartan".into(),
            label: "sweep \"a\"".into(),
            group: "main".into(),
            attempts: 2,
            message: "index out of bounds: the len is 4".into(),
        });
        let json = e.to_json();
        validate_stats_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        assert!(json.contains("\"failures\":[{\"robot\":\"DeliBot\""));
        assert!(json.contains("\"attempts\":2"));
        assert!(json.contains("\"sweep \\\"a\\\"\""), "labels must be escaped");
    }

    #[test]
    fn validator_requires_failures_key() {
        let json = sample_export().to_json().replace("\"failures\":", "\"f\":");
        assert!(validate_stats_json(&json).is_err());
    }

    // The store splices cached record bytes into exports; this equality is
    // what makes a resumed campaign byte-identical to a clean one.
    #[test]
    fn spliced_records_equal_direct_serialization() {
        let e = sample_export();
        let records: Vec<String> =
            e.runs.iter().map(RobotRunStats::to_json_record).collect();
        assert_eq!(
            stats_export_json(&e.generator, &records, &e.failures),
            e.to_json()
        );
        // And with a failure present.
        let failures = vec![JobFailureStats {
            robot: "FlyBot".into(),
            config: "baseline".into(),
            label: "l".into(),
            group: "g".into(),
            attempts: 1,
            message: "boom".into(),
        }];
        let mut e2 = e.clone();
        e2.failures = failures.clone();
        assert_eq!(
            stats_export_json(&e2.generator, &records, &failures),
            e2.to_json()
        );
    }

    #[test]
    fn validator_rejects_missing_run_keys() {
        let e = sample_export();
        let record = e.runs[0].to_json_record();
        let l2 = render(e.runs[0].l2);
        let no_l2 = record.replace(&format!(",\"l2\":{l2}"), "");
        assert_ne!(no_l2, record);
        let mut runs_as_text = String::new();
        push_str(&mut runs_as_text, &record);
        for (what, json) in [
            ("renamed key", e.to_json().replace("\"quality\":", "\"q\":")),
            (
                "second run without l2",
                stats_export_json("g", &[record.clone(), no_l2], &[]),
            ),
            (
                "runs as a string holding the keys",
                format!(
                    "{{\"schema_version\":3,\"generator\":\"g\",\"runs\":{runs_as_text},\"failures\":[]}}\n"
                ),
            ),
            (
                "malformed number",
                e.to_json().replace("\"wall_cycles\":123456", "\"wall_cycles\":1-2.3.4"),
            ),
            (
                "miss_ratio that is not misses / accesses",
                e.to_json().replace("\"miss_ratio\":0.1,", "\"miss_ratio\":0.5,"),
            ),
        ] {
            assert!(validate_stats_json(&json).is_err(), "{what} accepted: {json}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(sample_export().to_json(), sample_export().to_json());
    }

    fn sample_host_export() -> HostBenchExport {
        HostBenchExport {
            generator: "bench_tier1".into(),
            jobs: 4,
            total_host_nanos: 2_000_000_000,
            runs: vec![
                HostRunStats {
                    robot: "flybot".into(),
                    config: "tartan".into(),
                    wall_cycles: 1_000_000,
                    host_nanos: 500_000_000,
                    cold_host_nanos: None,
                },
                HostRunStats {
                    robot: "delibot".into(),
                    config: "baseline".into(),
                    wall_cycles: 3_000_000,
                    host_nanos: 1_500_000_000,
                    cold_host_nanos: None,
                },
            ],
            warm: None,
        }
    }

    #[test]
    fn host_export_round_trips_validation() {
        let json = sample_host_export().to_json();
        validate_host_bench_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"jobs\":4"));
        assert!(json.contains("\"runs_per_sec\":1"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn host_throughput_math_is_sane() {
        let e = sample_host_export();
        assert!((e.runs_per_sec() - 1.0).abs() < 1e-12);
        assert!((e.runs[0].sim_cycles_per_host_sec() - 2_000_000.0).abs() < 1e-6);
        let idle = HostRunStats::default();
        assert_eq!(idle.sim_cycles_per_host_sec(), 0.0);
        assert_eq!(HostBenchExport::default().runs_per_sec(), 0.0);
    }

    #[test]
    fn warm_rows_measure_throughput_against_the_cold_pass() {
        // A warm row repeats the cold pass's wall_cycles but its own
        // host_nanos is just a store fetch; the throughput figure must use
        // cold_host_nanos so warm and cold rows stay comparable.
        let mut row = sample_host_export().runs[0].clone();
        row.host_nanos = 1_000; // 1 µs store fetch
        row.cold_host_nanos = Some(500_000_000);
        assert!((row.sim_cycles_per_host_sec() - 2_000_000.0).abs() < 1e-6);
        let json = render(row);
        assert!(json.contains("\"host_nanos\":1000,\"cold_host_nanos\":500000000"));
        // Cold rows keep the key out of the document entirely.
        let json = render(sample_host_export().runs[0].clone());
        assert!(!json.contains("cold_host_nanos"));
    }

    #[test]
    fn warm_section_is_optional_and_validates() {
        let mut e = sample_host_export();
        let json = e.to_json();
        assert!(!json.contains("\"warm\":"), "warm must be absent by default");
        e.warm = Some(WarmBenchStats {
            total_host_nanos: 100_000_000,
            runs: e.runs.clone(),
        });
        let json = e.to_json();
        validate_host_bench_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        assert!(json.contains("\"warm\":{\"total_host_nanos\":100000000"));
        // 2 runs in 0.1 s → 20 runs/s.
        assert!((e.warm.as_ref().unwrap().runs_per_sec() - 20.0).abs() < 1e-9);
        assert_eq!(WarmBenchStats::default().runs_per_sec(), 0.0);
    }

    #[test]
    fn host_validator_rejects_missing_keys() {
        let json = sample_host_export().to_json().replace("\"jobs\":", "\"j\":");
        assert!(validate_host_bench_json(&json).is_err());
        let json = sample_host_export()
            .to_json()
            .replace("\"host_nanos\":", "\"hn\":");
        assert!(validate_host_bench_json(&json).is_err());
    }
}
