//! The three workloads: what each loads during set-up, the batch each
//! times, and the checks each applies to a batch's outputs.
//!
//! Every batch runs through [`Engine::run`] with one worker, then renders
//! and validates each campaign's `stats.json` export, as `tartan_run`
//! does. Spans go around each of those calls when the tracer is on.

use std::fs;
use std::path::{Path, PathBuf};

use tartan::campaign::{
    render_exports, Campaign, CampaignOptions, CampaignReport, CampaignSpec, Engine, JobOutput,
    JobSet, PhaseClock,
};
use tartan::core::{ExperimentParams, ScenarioSpec};
use tartan::robots::Scale;
use tartan::sim::telemetry::validate_stats_json;

use crate::reference::{Reference, CORPUS_COLD, TIER1_COLD, TIER1_SEEDS};
use crate::trace::Tracer;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The tier-1 bench matrix over 8 consecutive seeds, into a fresh store.
    Tier1Cold,
    /// The checked-in scenario corpus as one batch, into a fresh store.
    CorpusCold,
    /// The corpus at probe scale, served from a store seeded in set-up.
    CorpusWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Tier1Cold,
        Workload::CorpusCold,
        Workload::CorpusWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tier1Cold => "tier1_cold",
            Workload::CorpusCold => "corpus_cold",
            Workload::CorpusWarm => "corpus_warm",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the timed batches simulate (a fresh store each batch).
    pub fn is_cold(self) -> bool {
        self != Workload::CorpusWarm
    }

    /// The `generator` its exports carry.
    fn generator(self) -> &'static str {
        match self {
            Workload::Tier1Cold => "bench_tier1",
            _ => "tartan_run",
        }
    }
}

const TIER1_SCENARIO: &str = "scenarios/bench_tier1.json";
/// The checked-in export of the tier-1 matrix at seed 42.
const TIER1_EXPORT: &str = "results/BENCH_tier1.json";
const TIER1_EXPORT_SEED: u64 = 42;
const CORPUS_DIR: &str = "scenarios/corpus";
/// Consecutive matrix seeds in one `tier1_cold` batch.
pub const TIER1_MATRICES: u64 = 8;

/// Scenario files as read from the checkout: (file name, text).
pub type Sources = Vec<(String, String)>;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Reads the workload's scenario files; the corpus in file-name order.
fn read_sources(workload: Workload) -> Result<Sources, String> {
    if workload == Workload::Tier1Cold {
        return Ok(vec![(TIER1_SCENARIO.to_string(), read(TIER1_SCENARIO)?)]);
    }
    let mut names: Vec<String> = fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("{CORPUS_DIR}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("gen-") && n.ends_with(".json"))
        .collect();
    if names.is_empty() {
        return Err(format!("{CORPUS_DIR}: no gen-*.json scenarios"));
    }
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let path = format!("{CORPUS_DIR}/{n}");
            let text = read(&path)?;
            Ok((path, text))
        })
        .collect()
}

/// Parses and expands every source, overriding the scale to the probe
/// scale for `corpus_warm`.
fn parse_campaigns(
    workload: Workload,
    sources: &Sources,
    tr: &mut Tracer,
) -> Result<Vec<Campaign>, String> {
    sources
        .iter()
        .map(|(path, text)| {
            let spec = tr
                .span("scenario.parse", |_| ScenarioSpec::from_json(text))
                .map_err(|e| format!("{path}: {e}"))?;
            let mut campaign = tr
                .span("scenario.expand", |_| Campaign::from_spec(spec))
                .map_err(|e| format!("{path}: {e}"))?;
            match workload {
                // The bench matrix always runs at test scale, as bench_tier1 does.
                Workload::Tier1Cold => campaign.params = ExperimentParams::quick(),
                Workload::CorpusCold => {}
                Workload::CorpusWarm => campaign.override_scale(Scale::probe()),
            }
            Ok(campaign)
        })
        .collect()
}

/// Everything set-up leaves for the timed batches.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    sources: Sources,
    /// The parsed campaigns: the matrix template for `tier1_cold`, the
    /// batch for the corpus workloads.
    pub campaigns: Vec<Campaign>,
    /// `corpus_warm` only: the pass that seeded the store.
    pub seeded: Option<Batch>,
}

/// Reads, parses and expands the workload's scenarios.
pub fn load(workload: Workload, seed: u64, tr: &mut Tracer) -> Result<Prepared, String> {
    let sources = read_sources(workload)?;
    let campaigns = parse_campaigns(workload, &sources, tr)?;
    Ok(Prepared {
        workload,
        seed,
        sources,
        campaigns,
        seeded: None,
    })
}

/// [`load`], then for `corpus_warm` a seeding pass into a fresh store
/// under `work` (in `seed-store-<rep>`).
pub fn setup(
    workload: Workload,
    seed: u64,
    work: &Path,
    rep: usize,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let mut p = load(workload, seed, tr)?;
    if workload == Workload::CorpusWarm {
        let store = work.join(format!("seed-store-{rep}"));
        p.seeded = Some(run_batch(workload, p.campaigns.clone(), store, false, tr)?);
    }
    Ok(p)
}

/// The campaigns batch number `unit` runs. `corpus_warm` parses and
/// expands its scenarios again in every pass.
pub fn batch_campaigns(p: &Prepared, unit: u64, tr: &mut Tracer) -> Result<Vec<Campaign>, String> {
    match p.workload {
        Workload::Tier1Cold => Ok((0..TIER1_MATRICES)
            .map(|k| {
                let mut c = p.campaigns[0].clone();
                c.params.seed = (p.seed % TIER1_SEEDS + unit * TIER1_MATRICES + k) % TIER1_SEEDS;
                c
            })
            .collect()),
        Workload::CorpusCold => Ok(p.campaigns.clone()),
        Workload::CorpusWarm => parse_campaigns(p.workload, &p.sources, tr),
    }
}

/// One executed batch and its rendered exports.
#[derive(Debug)]
pub struct Batch {
    /// The campaigns the batch ran.
    pub campaigns: Vec<Campaign>,
    /// The engine's report.
    pub report: CampaignReport,
    /// Each campaign's `stats.json` export.
    pub exports: Vec<String>,
    /// Per campaign: did its export pass schema validation.
    pub valid: Vec<bool>,
    /// The store the batch wrote or read.
    pub store: PathBuf,
}

/// Runs `campaigns` through the engine with one worker against `store`,
/// then renders and validates every export.
pub fn run_batch(
    workload: Workload,
    campaigns: Vec<Campaign>,
    store: PathBuf,
    resume: bool,
    tr: &mut Tracer,
) -> Result<Batch, String> {
    let engine = Engine::new(CampaignSpec {
        campaigns,
        options: CampaignOptions {
            jobs: 1,
            store: Some(store.clone()),
            resume,
            tool: "perfbench",
            ..CampaignOptions::default()
        },
    });
    let report = tr
        .span("campaign.run", |_| {
            engine.run(&mut PhaseClock::start(), None)
        })
        .map_err(|e| format!("{}: {}", e.path.display(), e.reason))?;
    let campaigns = engine.spec.campaigns;
    let mut exports = Vec::with_capacity(campaigns.len());
    let mut valid = Vec::with_capacity(campaigns.len());
    for (campaign, result) in campaigns.iter().zip(&report.campaigns) {
        let (json, _csv) = tr.span("telemetry.export", |_| {
            render_exports(workload.generator(), campaign, result)
        });
        valid.push(
            tr.span("telemetry.validate", |_| validate_stats_json(&json))
                .is_ok(),
        );
        exports.push(json);
    }
    Ok(Batch {
        campaigns,
        report,
        exports,
        valid,
        store,
    })
}

/// Runs batch number `unit`: cold workloads into a fresh store under
/// `work`, `corpus_warm` resumed from its seeded store.
pub fn run_unit(p: &Prepared, unit: u64, work: &Path, tr: &mut Tracer) -> Result<Batch, String> {
    let campaigns = batch_campaigns(p, unit, tr)?;
    match &p.seeded {
        Some(seeded) => run_batch(p.workload, campaigns, seeded.store.clone(), true, tr),
        None => run_batch(
            p.workload,
            campaigns,
            work.join(format!("store-{unit}")),
            false,
            tr,
        ),
    }
}

/// The references a batch's outputs are checked against.
#[derive(Debug)]
pub struct References {
    tier1: Reference,
    corpus: Reference,
    tier1_export: String,
}

impl References {
    /// Parses the digest tables and reads the checked-in tier-1 export.
    pub fn load() -> Result<References, String> {
        Ok(References {
            tier1: Reference::parse(TIER1_COLD)?,
            corpus: Reference::parse(CORPUS_COLD)?,
            tier1_export: read(TIER1_EXPORT)?,
        })
    }
}

/// What the checks found in one batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Jobs the batch requested.
    pub attempted: u64,
    /// Jobs that errored, missed the store (`corpus_warm`), or whose
    /// record or export differs from the reference.
    pub failed: u64,
    /// Simulated wall cycles of the batch: of its freshly simulated units
    /// on cold workloads, of every served job on `corpus_warm`.
    pub cycles: u64,
}

impl Tally {
    /// Adds another batch's tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cycles += other.cycles;
    }
}

/// Checks every job of `batch` against the workload's reference.
pub fn check(p: &Prepared, batch: &Batch, refs: &References) -> Tally {
    let seeded = p.seeded.as_ref();
    let mut tally = Tally::default();
    for (ci, (campaign, result)) in batch
        .campaigns
        .iter()
        .zip(&batch.report.campaigns)
        .enumerate()
    {
        let export = &batch.exports[ci];
        let export_ok = batch.valid[ci]
            && match p.workload {
                Workload::Tier1Cold => {
                    campaign.params.seed != TIER1_EXPORT_SEED || *export == refs.tier1_export
                }
                Workload::CorpusCold => true,
                Workload::CorpusWarm => seeded.is_some_and(|s| *export == s.exports[ci]),
            };
        for (job, slot) in result.results.iter().enumerate() {
            let record_ok = slot.as_ref().is_some_and(|out| match p.workload {
                Workload::Tier1Cold => {
                    let id = campaign.params.seed.to_string();
                    refs.tier1.matches(&id, job, &out.record)
                }
                Workload::CorpusCold => refs.corpus.matches(&campaign.spec.name, job, &out.record),
                Workload::CorpusWarm => {
                    out.cached
                        && seeded
                            .and_then(|s| s.report.campaigns[ci].results[job].as_ref())
                            .is_some_and(|s| s.record == out.record)
                }
            });
            tally.attempted += 1;
            if !(export_ok && record_ok) {
                tally.failed += 1;
            }
        }
    }
    tally.cycles = if p.workload.is_cold() {
        units(batch)
            .iter()
            .filter(|(_, out)| !out.cached)
            .map(|(_, out)| out.wall_cycles)
            .sum()
    } else {
        batch
            .report
            .campaigns
            .iter()
            .flat_map(|c| c.results.iter().flatten())
            .map(|out| out.wall_cycles)
            .sum()
    };
    tally
}

/// Each distinct unit of `batch` that completed: its key and the result
/// of its first requester.
pub fn units(batch: &Batch) -> Vec<(String, &JobOutput)> {
    JobSet::build(&batch.campaigns)
        .units
        .into_iter()
        .filter_map(|unit| {
            let r = unit.requesters[0];
            let out = batch.report.campaigns[r.campaign].results[r.job].as_ref()?;
            Some((unit.key, out))
        })
        .collect()
}
