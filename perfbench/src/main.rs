//! `perfbench`: the repository's benchmark. Three single-worker campaign
//! workloads through `tartan::campaign::Engine`, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload tier1_cold|corpus_cold|corpus_warm --seed N --seconds S --trace 0|1
//! perfbench --write-reference
//! ```
//!
//! Run it from the repository root, which holds the scenarios it loads:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! corpus_warm --seed 42 --seconds 10 --trace 0`. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/NOTES.md` explains the workloads, the metrics and the
//! layer each metric maps to.
//!
//! `--write-reference` regenerates the digest tables under
//! `perfbench/reference/` from the current program.

mod ladder;
mod reference;
mod replica;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use tartan::campaign::{CampaignOptions, CampaignSpec, Engine, PhaseClock};
use tartan::store::ResultStore;

use trace::Tracer;
use workload::{Batch, Prepared, References, Tally, Workload};

const USAGE: &str = "usage: perfbench --workload tier1_cold|corpus_cold|corpus_warm \
                     --seed N --seconds S --trace 0|1\n       perfbench --write-reference";

/// Where the benchmark keeps its stores and span files, under the
/// directory it runs in.
const WORK_ROOT: &str = ".perfbench_work";

/// End-to-end metrics, printed by the untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run.
const PER_LAYER: [(&str, &str); 33] = [
    ("robots.build_ms", "ms"),
    ("robots.build_calls", "count"),
    ("robots.step_ms", "ms"),
    ("robots.steps", "count"),
    ("sim.ns_per_l1_access", "ns"),
    ("sim.mcycles_per_step_s", "Mcycles/s"),
    ("sim.cycles", "cycles"),
    ("sim.instructions", "count"),
    ("sim.l1_accesses", "count"),
    ("sim.l2_miss_ratio", "ratio"),
    ("prefetch.useful_ratio", "ratio"),
    ("npu.invocations", "count"),
    ("fault.recovered_ratio", "ratio"),
    ("core.machine_new_ms", "ms"),
    ("core.record_ms", "ms"),
    ("scenario.parse_ms", "ms"),
    ("scenario.expand_ms", "ms"),
    ("scenario.jobs", "count"),
    ("campaign.run_ms", "ms"),
    ("campaign.overhead_ms", "ms"),
    ("campaign.distinct_ratio", "ratio"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.validate_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("sim.access_ns.l1_hit", "ns"),
    ("sim.access_ns.l2_hit_fcp", "ns"),
    ("sim.access_ns.dram_miss", "ns"),
    ("sim.memrun_ns_per_elem", "ns"),
    ("nn.fit_ms", "ms"),
];

/// Set-up repetitions per run; `setup_s` is their median.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::CorpusWarm => 5,
        _ => 15,
    }
}

/// `corpus_warm` traced run: blocks of untraced then traced passes.
const WARM_TRACE_BLOCKS: usize = 10;
const WARM_TRACE_PASSES: usize = 20;

/// What the command line asks for.
#[derive(Debug)]
enum Mode {
    /// A benchmark run, traced or untraced.
    Bench {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// The replica half of a traced run (see `replica.rs`).
    Replica { workload: Workload, seed: u64 },
    /// Regenerate the digest tables.
    WriteReference,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--write-reference"] {
        return Ok(Mode::WriteReference);
    }
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut replica = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--replica" => replica = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = flags.get("--seed").map_or(Ok(42), |_| number("--seed"))?;
    if replica {
        return Ok(Mode::Replica { workload, seed });
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Mode::Bench {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A per-run scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The result line's fields.
struct Output {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Output {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Pairs each metric in `table` with its value, failing on a missing or
/// non-finite one.
fn collect(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    table
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, unit, *v)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("/proc/self/status: no VmHWM line".into())
}

/// Timed batches per run: about `seconds` of work on a 2-core reference
/// host. The count depends only on `seconds`, so every run of a workload
/// does the same work.
fn batch_count(w: Workload, seconds: u64) -> u64 {
    let per_second = match w {
        Workload::Tier1Cold | Workload::CorpusCold => 0.1,
        Workload::CorpusWarm => 120.0,
    };
    ((seconds as f64 * per_second).round() as u64).max(1)
}

/// The untraced run: repeated set-up, then [`batch_count`] batches.
/// Each rate is the median over batches of that batch's own rate, so one
/// batch caught in a slow spell of a shared host does not move it.
fn bench(w: Workload, seed: u64, seconds: u64) -> Result<Output, String> {
    let refs = References::load()?;
    let work = WorkDir::new(w)?;
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for rep in 0..setup_reps(w) {
        if let Some(old) = prepared.take().and_then(|p| p.seeded) {
            let _ = fs::remove_dir_all(&old.store);
        }
        let t = Instant::now();
        prepared = Some(workload::setup(w, seed, &work.0, rep, &mut off)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");

    let mut tally = Tally::default();
    let (mut jobs_per_s, mut mcycles_per_s) = (Vec::new(), Vec::new());
    for unit in 0..batch_count(w, seconds) {
        let t = Instant::now();
        let batch = workload::run_unit(&p, unit, &work.0, &mut off)?;
        let secs = t.elapsed().as_secs_f64();
        let checked = workload::check(&p, &batch, &refs);
        jobs_per_s.push(checked.attempted as f64 / secs);
        mcycles_per_s.push(checked.cycles as f64 / 1e6 / secs);
        tally.add(checked);
        if w.is_cold() {
            let _ = fs::remove_dir_all(&batch.store);
        }
    }
    let values = BTreeMap::from([
        ("setup_s", median(setups)),
        ("jobs_per_s", median(jobs_per_s)),
        ("sim_mcycles_per_s", median(mcycles_per_s)),
        ("peak_rss_mb", peak_rss_mb()?),
    ]);
    Ok(Output {
        tally,
        metrics: collect(&END_TO_END, &values)?,
    })
}

/// What the replica process reported.
struct ReplicaOut {
    units: HashMap<String, (u64, u64)>,
    metrics: BTreeMap<String, f64>,
}

impl ReplicaOut {
    fn metric(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .get(name)
            .copied()
            .ok_or(format!("replica did not report {name}"))
    }
}

/// Runs the replica of `w`'s first batch in a child process.
fn spawn_replica(w: Workload, seed: u64) -> Result<ReplicaOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--replica",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("replica: {e}"))?;
    if !out.status.success() {
        return Err(format!("replica exited with {}", out.status));
    }
    let mut r = ReplicaOut {
        units: HashMap::new(),
        metrics: BTreeMap::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("replica: bad line {line:?}");
        match f[..] {
            ["unit", key, wall, instr] => {
                let wall = wall.parse().map_err(|_| bad())?;
                let instr = instr.parse().map_err(|_| bad())?;
                r.units.insert(key.to_string(), (wall, instr));
            }
            ["metric", name, value] => {
                r.metrics
                    .insert(name.to_string(), value.parse().map_err(|_| bad())?);
            }
            _ => return Err(bad()),
        }
    }
    Ok(r)
}

/// The replica process: replicates the distinct jobs of `w`'s first
/// simulating batch (the seeding pass for `corpus_warm`).
fn replica_main(w: Workload, seed: u64) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let p = workload::load(w, seed, &mut off)?;
    let campaigns = match w {
        Workload::Tier1Cold => workload::batch_campaigns(&p, 0, &mut off)?,
        _ => p.campaigns,
    };
    let tr = replica::run(&campaigns);
    let path = trace_path(w, seed, "replica");
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn trace_path(w: Workload, seed: u64, part: &str) -> PathBuf {
    Path::new(WORK_ROOT)
        .join("trace")
        .join(format!("{}-seed{seed}-{part}.jsonl", w.name()))
}

/// Fails unless every fresh unit of `batch` has the replica's wall
/// cycles and instructions, and the replica ran no other job.
fn check_replica(batch: &Batch, replica: &ReplicaOut) -> Result<(), String> {
    let mut compared = 0;
    for (key, out) in workload::units(batch) {
        if out.cached {
            continue;
        }
        compared += 1;
        match replica.units.get(&key) {
            Some(&(wall, instr)) if wall == out.wall_cycles && instr == out.instructions => {}
            got => {
                return Err(format!(
                    "traced replica of {} {} differs from the engine record: \
                     engine (wall {}, instr {}), replica {got:?}",
                    out.robot,
                    &key[..12],
                    out.wall_cycles,
                    out.instructions
                ))
            }
        }
    }
    if compared != replica.units.len() {
        return Err(format!(
            "replica ran {} jobs, the engine simulated {compared}",
            replica.units.len()
        ));
    }
    Ok(())
}

/// Times `store.get` of every key in `store` and `store.put` of each
/// payload into a fresh store under `work`.
fn probe_store(
    keys: &[String],
    store: &Path,
    work: &Path,
    tr: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: tartan::store::StoreError| format!("{}: {}", e.path.display(), e.reason);
    let src = ResultStore::open(store).map_err(err)?;
    let dst = ResultStore::open(work.join("probe-store")).map_err(err)?;
    for key in keys {
        let payload = tr
            .span("store.get", |_| src.get(key))
            .map_err(err)?
            .ok_or(format!("store {} lost entry {key}", store.display()))?;
        tr.span("store.put", |_| dst.put(key, &payload))
            .map_err(err)?;
    }
    let mut bytes = 0u64;
    let mut dirs = vec![store.join("objects")];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let meta = entry
                .metadata()
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            if meta.is_dir() {
                dirs.push(entry.path());
            } else {
                bytes += meta.len();
            }
        }
    }
    let totals = tr.totals();
    let n = keys.len().max(1) as f64;
    Ok(BTreeMap::from([
        ("store.get_us", totals.ms("store.get") * 1e3 / n),
        ("store.put_us", totals.ms("store.put") * 1e3 / n),
        ("store.entries", src.len().map_err(err)? as f64),
        ("store.bytes", bytes as f64),
    ]))
}

/// Summed host time of a batch's units, as the engine's per-unit spans
/// report it.
fn job_nanos(batch: &Batch) -> u64 {
    batch
        .report
        .spans
        .iter()
        .map(|s| s.end_nanos.saturating_sub(s.start_nanos))
        .sum()
}

/// The traced run: one batch (cold) or interleaved untraced and traced
/// passes (`corpus_warm`) with spans around every layer call, the
/// replica in a child process, and the ladder rungs.
fn traced(w: Workload, seed: u64) -> Result<Output, String> {
    let refs = References::load()?;
    let work = WorkDir::new(w)?;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut tally = Tally::default();

    // The scenario layer runs in set-up on cold workloads and in every
    // pass on corpus_warm; trace it where it is timed.
    let p = if w.is_cold() {
        tr.span("setup", |tr| workload::setup(w, seed, &work.0, 0, tr))?
    } else {
        workload::setup(w, seed, &work.0, 0, &mut off)?
    };
    let mut traced_batches = 0u64;
    let mut job_ns = 0u64;
    let last = if w.is_cold() {
        let batch = tr.span("batch", |tr| workload::run_unit(&p, 0, &work.0, tr))?;
        tally.add(workload::check(&p, &batch, &refs));
        traced_batches = 1;
        job_ns = job_nanos(&batch);
        batch
    } else {
        let (mut on_ns, mut off_ns) = (0u128, 0u128);
        let mut unit = 0;
        let mut last = None;
        for _ in 0..WARM_TRACE_BLOCKS {
            for traced in [false, true] {
                for _ in 0..WARM_TRACE_PASSES {
                    let t = Instant::now();
                    let batch = if traced {
                        tr.span("batch", |tr| workload::run_unit(&p, unit, &work.0, tr))?
                    } else {
                        workload::run_unit(&p, unit, &work.0, &mut off)?
                    };
                    let ns = t.elapsed().as_nanos();
                    tally.add(workload::check(&p, &batch, &refs));
                    unit += 1;
                    if traced {
                        on_ns += ns;
                        traced_batches += 1;
                        job_ns += job_nanos(&batch);
                        last = Some(batch);
                    } else {
                        off_ns += ns;
                    }
                }
            }
        }
        values.insert(
            "trace.overhead_pct",
            (on_ns as f64 / off_ns as f64 - 1.0) * 100.0,
        );
        last.expect("at least one traced pass")
    };

    // The replica covers the jobs this workload simulates: the traced
    // batch on cold workloads, the seeding pass on corpus_warm.
    let simulated = p.seeded.as_ref().unwrap_or(&last);
    let replica = spawn_replica(w, seed)?;
    check_replica(simulated, &replica)?;
    for &(name, _) in &PER_LAYER {
        if let Ok(v) = replica.metric(name) {
            values.insert(name, v);
        }
    }
    if w.is_cold() {
        let engine_ms = job_ns as f64 / 1e6;
        values.insert(
            "trace.overhead_pct",
            (replica.metric("replica.job_ms")? / engine_ms - 1.0) * 100.0,
        );
    }

    let keys: Vec<String> = workload::units(simulated)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    values.extend(probe_store(&keys, &simulated.store, &work.0, &mut tr)?);

    let totals = tr.totals();
    let per_batch = |name: &str| totals.ms(name) / traced_batches as f64;
    let scenario_batches = if w.is_cold() {
        1.0
    } else {
        traced_batches as f64
    };
    values.insert(
        "scenario.parse_ms",
        totals.ms("scenario.parse") / scenario_batches,
    );
    values.insert(
        "scenario.expand_ms",
        totals.ms("scenario.expand") / scenario_batches,
    );
    values.insert("scenario.jobs", last.report.total_jobs as f64);
    values.insert("campaign.run_ms", per_batch("campaign.run"));
    values.insert(
        "campaign.overhead_ms",
        per_batch("campaign.run") - job_ns as f64 / 1e6 / traced_batches as f64,
    );
    values.insert(
        "campaign.distinct_ratio",
        last.report.distinct_keys as f64 / last.report.total_jobs as f64,
    );
    values.insert("telemetry.export_ms", per_batch("telemetry.export"));
    values.insert("telemetry.validate_ms", per_batch("telemetry.validate"));
    values.extend(ladder::run());

    let path = trace_path(w, seed, "engine");
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Output {
        tally,
        metrics: collect(&PER_LAYER, &values)?,
    })
}

/// Regenerates the digest tables under `perfbench/reference/`.
fn write_reference() -> Result<(), String> {
    let mut tables = Vec::new();
    for w in [Workload::Tier1Cold, Workload::CorpusCold] {
        let mut off = Tracer::new(false);
        let p = workload::load(w, 0, &mut off)?;
        let batches: Vec<_> = match w {
            Workload::Tier1Cold => (0..reference::TIER1_SEEDS / workload::TIER1_MATRICES)
                .map(|u| workload::batch_campaigns(&p, u, &mut off))
                .collect::<Result<_, _>>()?,
            _ => vec![p.campaigns.clone()],
        };
        let mut lines = Vec::new();
        for campaigns in batches {
            let engine = Engine::new(CampaignSpec {
                campaigns,
                options: CampaignOptions::default(),
            });
            let report = engine
                .run(&mut PhaseClock::start(), None)
                .map_err(|e| format!("{}: {}", e.path.display(), e.reason))?;
            for (c, r) in engine.spec.campaigns.iter().zip(&report.campaigns) {
                let id = match w {
                    Workload::Tier1Cold => c.params.seed.to_string(),
                    _ => c.spec.name.clone(),
                };
                for (job, slot) in r.results.iter().enumerate() {
                    let out = slot.as_ref().ok_or(format!("{id} job {job} failed"))?;
                    lines.push(reference::line(&id, job, &out.record));
                }
            }
        }
        lines.sort();
        tables.push((
            format!("perfbench/reference/{}.txt", w.name()),
            lines.concat(),
        ));
    }
    for (path, text) in tables {
        fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = match mode {
        Mode::WriteReference => write_reference(),
        Mode::Replica { workload, seed } => replica_main(workload, seed),
        Mode::Bench {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let out = if trace {
                traced(workload, seed)
            } else {
                bench(workload, seed, seconds)
            };
            out.map(|o| println!("{}", o.to_json()))
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan::scenario::json::{parse, JsonValue};

    /// `(name, unit)` of every metric in a `BENCHMARK.json` list.
    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(JsonValue::Str(n)), Some(JsonValue::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    }

    fn sorted(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut v: Vec<_> = table.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        v.sort();
        v
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        let mut e2e = listed(&doc, "end_to_end");
        e2e.sort();
        assert_eq!(e2e, sorted(&END_TO_END));
        let mut layers = listed(&doc, "per_layer");
        layers.sort();
        assert_eq!(layers, sorted(&PER_LAYER));
        let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<_> = Workload::ALL
            .iter()
            .map(|w| JsonValue::Str(w.name().into()))
            .collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let out = Output {
            tally: Tally {
                attempted: 3,
                failed: 1,
                cycles: 0,
            },
            metrics: vec![("setup_s", "s", 0.25), ("jobs_per_s", "jobs/s", 12.0)],
        };
        let doc = parse(&out.to_json()).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("attempted"), Some(&JsonValue::Num("3".into())));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit"), Some(&JsonValue::Str("s".into())));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&[
            "--workload",
            "nope",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "corpus_warm",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--workload", "corpus_warm", "--trace", "0"])).is_err());
        let ok = parse_args(&args(&[
            "--workload",
            "corpus_warm",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert!(matches!(
            ok,
            Mode::Bench {
                workload: Workload::CorpusWarm,
                seed: 42,
                seconds: 3,
                trace: true
            }
        ));
    }
}
