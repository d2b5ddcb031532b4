//! The campaign engine (DESIGN.md §18): one library entry point owning the
//! plan → key → execute → fan-out pipeline that `tartan_run`, `bench_tier1`,
//! `tartan_gen`, and the figure harnesses all used to re-implement.
//!
//! A [`CampaignSpec`] holds one or many expanded scenarios ([`Campaign`])
//! plus execution options. [`JobSet::build`] computes every planned job's
//! content address up front and **dedupes across campaigns**: jobs with
//! identical cache keys become one [`ExecUnit`] that executes once and fans
//! its result back to every requesting `(campaign, job)` slot. Because cache
//! keys cover everything that determines a run's bytes (config, machine,
//! software, scale, steps, seed, schema versions — see DESIGN.md §14) and
//! simulations are byte-deterministic, fanning out a clone is
//! indistinguishable from re-running the job.
//!
//! [`Engine::run`] wraps `tartan-par`'s panic-isolated retrying pool with
//! the store/resume/verify machinery behind a single call, streams typed
//! [`CampaignEvent`]s in a deterministic order (a prefix-release reorder
//! buffer over unit indices: unit *i*'s events are emitted once every unit
//! `<= i` has finished, so the event sequence depends only on the job set,
//! never on scheduling), and returns a [`CampaignReport`] with per-campaign
//! results, failures, spans, and the metrics snapshot.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tartan_core::{run_robot, ExperimentParams, RunOutcome};
use tartan_par as par;
use tartan_robots::Scale;
use tartan_telemetry::json::{parse as parse_json, JsonValue};
use tartan_scenario::{Plan, RunParams, ScenarioError, ScenarioSpec};
use tartan_store::{sha256_hex, ResultStore, StoreCounts, StoreError};
use tartan_telemetry::{
    push_str, stats_export_json, CampaignPhase, Counter, Heartbeat, JobFailureStats, JobSpan,
    MetricsRegistry, RobotRunStats,
};

/// How `--progress` renders its stderr heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// One human-readable line per heartbeat.
    Human,
    /// One schema-validated JSON line per heartbeat.
    Jsonl,
}

/// Minimum gap between mid-campaign heartbeats; the first and last
/// completions always emit one regardless.
const HEARTBEAT_INTERVAL_NANOS: u64 = 200_000_000;

/// One expanded scenario: the spec, its ordered job plan, and the
/// parameters its jobs run at.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The parsed scenario (name, title, and `params.adjust` live here).
    pub spec: ScenarioSpec,
    /// The expanded, ordered job list.
    pub plan: Plan,
    /// Scale/steps/seed the jobs run at.
    pub params: ExperimentParams,
}

impl Campaign {
    /// Expands a spec into a campaign running at the spec's own base
    /// parameters (scale preset + `adjust` list, steps, seed).
    ///
    /// # Errors
    ///
    /// Whatever [`ScenarioSpec::expand`] reports, with field-path context.
    pub fn from_spec(spec: ScenarioSpec) -> Result<Campaign, ScenarioError> {
        let plan = spec.expand()?;
        let params: ExperimentParams = spec.base_params().into();
        Ok(Campaign { spec, plan, params })
    }

    /// Replaces the campaign's scale with `scale`, re-applying the spec's
    /// `params.adjust` list on top — the `--scale` override semantics.
    pub fn override_scale(&mut self, mut scale: Scale) {
        self.spec.params.apply_adjusts(&mut scale);
        self.params.scale = scale;
    }

    /// The scenario's name (export file stem).
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

/// Execution options shared by every campaign in a batch.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Host worker threads (default 1: sequential). The binaries pass
    /// their parsed `--jobs` here, where `--jobs 0` already means every
    /// core.
    pub jobs: usize,
    /// Attempts per job (≥ 1); panics are isolated per attempt.
    pub retries: u32,
    /// Flag jobs running longer than this (surfaced, never killed).
    pub watchdog: Option<Duration>,
    /// Content-addressed result store directory.
    pub store: Option<PathBuf>,
    /// Serve jobs from the store instead of re-simulating them.
    pub resume: bool,
    /// Re-execute a seeded sample of N cache-served jobs per campaign and
    /// byte-diff the records; mismatches are quarantined and repaired.
    pub verify: usize,
    /// Heartbeat rendering; `None` collects metrics silently.
    pub progress: Option<ProgressMode>,
    /// Keep each fresh run's full [`RunOutcome`] in its [`JobOutput`]
    /// (the figure harnesses and the bench need it; `tartan_run` doesn't).
    pub keep_outcomes: bool,
    /// Tool name prefixed to every diagnostic line (`"tartan_run"`, ...).
    pub tool: &'static str,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            jobs: 1,
            retries: 1,
            watchdog: None,
            store: None,
            resume: false,
            verify: 0,
            progress: None,
            keep_outcomes: false,
            tool: "tartan-campaign",
        }
    }
}

/// One or many campaigns plus the options they execute under.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The campaigns, in batch order.
    pub campaigns: Vec<Campaign>,
    /// Shared execution options.
    pub options: CampaignOptions,
}

/// A `(campaign, job)` coordinate into a [`CampaignSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRef {
    /// Index into [`CampaignSpec::campaigns`].
    pub campaign: usize,
    /// Index into that campaign's `plan.jobs`.
    pub job: usize,
}

/// One distinct cache key and every planned job that requested it. The
/// first requester (discovery order: campaign index, then job index) is
/// the unit's primary — its robot/config/label label the spans and
/// diagnostics.
#[derive(Debug, Clone)]
pub struct ExecUnit {
    /// SHA-256 content address of the job's canonical rendering.
    pub key: String,
    /// Every `(campaign, job)` slot this unit's result fans out to, in
    /// discovery order; never empty.
    pub requesters: Vec<JobRef>,
}

/// The keyed, deduplicated execution plan for a batch.
#[derive(Debug, Clone)]
pub struct JobSet {
    /// Distinct execution units, in first-occurrence order.
    pub units: Vec<ExecUnit>,
    /// `unit_of[campaign][job]` → index into [`JobSet::units`].
    pub unit_of: Vec<Vec<usize>>,
    /// Total planned jobs across all campaigns (before dedupe).
    pub total_jobs: usize,
}

impl JobSet {
    /// Computes every job's cache key and groups identical keys into
    /// execution units. Jobs from different campaigns (or duplicated
    /// within one) that share a key execute once.
    pub fn build(campaigns: &[Campaign]) -> JobSet {
        let mut by_key: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut units: Vec<ExecUnit> = Vec::new();
        let mut unit_of: Vec<Vec<usize>> = Vec::with_capacity(campaigns.len());
        let mut total_jobs = 0usize;
        for (ci, campaign) in campaigns.iter().enumerate() {
            let run_params: RunParams = campaign.params.into();
            let mut indices = Vec::with_capacity(campaign.plan.jobs.len());
            for (ji, job) in campaign.plan.jobs.iter().enumerate() {
                total_jobs += 1;
                let key = sha256_hex(job.cache_key_text(&run_params).as_bytes());
                let unit = *by_key.entry(key.clone()).or_insert_with(|| {
                    units.push(ExecUnit {
                        key,
                        requesters: Vec::new(),
                    });
                    units.len() - 1
                });
                units[unit].requesters.push(JobRef {
                    campaign: ci,
                    job: ji,
                });
                indices.push(unit);
            }
            unit_of.push(indices);
        }
        JobSet {
            units,
            unit_of,
            total_jobs,
        }
    }

    /// Number of distinct cache keys (units that actually execute).
    pub fn distinct(&self) -> usize {
        self.units.len()
    }
}

/// One completed job, whether simulated fresh, served from the store, or
/// fanned out from a deduplicated unit.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The run's `stats.json` record, verbatim — the splice/export unit.
    pub record: String,
    /// Robot name (comes back from the payload on cache hits so a
    /// corrupted entry can never relabel a row).
    pub robot: String,
    /// End-to-end wall cycles.
    pub wall_cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// L2 demand misses.
    pub l2_demand_misses: u64,
    /// Quality as the CSV renders it (`{}` on the f64), kept as text so a
    /// cached row reproduces the fresh row byte-for-byte.
    pub quality: String,
    /// L2 demand miss ratio, for console lines (fresh runs only).
    pub l2_miss_pct: Option<f64>,
    /// Whether this result came out of the store.
    pub cached: bool,
    /// Host nanos spent producing this result: simulation time for fresh
    /// runs, store fetch + decode time for cached ones.
    pub host_nanos: u64,
    /// The full outcome, for fresh runs under
    /// [`CampaignOptions::keep_outcomes`].
    pub outcome: Option<RunOutcome>,
}

impl JobOutput {
    /// A copy without the (potentially large) [`RunOutcome`], for event
    /// streaming.
    fn light(&self) -> JobOutput {
        JobOutput {
            outcome: None,
            ..self.clone()
        }
    }
}

/// A typed per-job lifecycle event, streamed in deterministic order (see
/// the module docs). `deduped` marks fan-out beyond a unit's primary
/// requester.
#[derive(Debug)]
pub enum CampaignEvent<'a> {
    /// The job's unit has begun executing (emitted with its terminal
    /// event, in unit order).
    Started {
        /// Campaign index.
        campaign: usize,
        /// Job index within the campaign's plan.
        job: usize,
    },
    /// The job was served from the result store.
    Cached {
        /// Campaign index.
        campaign: usize,
        /// Job index within the campaign's plan.
        job: usize,
        /// The served result.
        output: &'a JobOutput,
        /// True when this slot received a fan-out copy.
        deduped: bool,
    },
    /// The job simulated fresh and completed.
    Done {
        /// Campaign index.
        campaign: usize,
        /// Job index within the campaign's plan.
        job: usize,
        /// The fresh result.
        output: &'a JobOutput,
        /// True when this slot received a fan-out copy.
        deduped: bool,
    },
    /// The job's unit failed every attempt.
    Failed {
        /// Campaign index.
        campaign: usize,
        /// Job index within the campaign's plan.
        job: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// The final panic message.
        message: &'a str,
        /// True when this slot mirrors a shared unit's failure.
        deduped: bool,
    },
}

/// Receives [`CampaignEvent`]s as units complete.
pub type EventSink<'a> = &'a (dyn Fn(&CampaignEvent<'_>) + Sync);

/// Per-campaign results, in plan order.
#[derive(Debug)]
pub struct CampaignResult {
    /// One slot per planned job; `None` means the job's unit failed.
    pub results: Vec<Option<JobOutput>>,
    /// Structured failures, in plan order.
    pub failures: Vec<JobFailureStats>,
}

impl CampaignResult {
    /// Planned jobs served from the store.
    pub fn cached_served(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.as_ref().is_some_and(|r| r.cached))
            .count()
    }
}

/// Everything [`Engine::run`] produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-campaign results, parallel to [`CampaignSpec::campaigns`].
    pub campaigns: Vec<CampaignResult>,
    /// Planned jobs across all campaigns (before dedupe).
    pub total_jobs: usize,
    /// Distinct cache keys executed.
    pub distinct_keys: usize,
    /// Units simulated fresh this run.
    pub simulated: u64,
    /// Units served from the store.
    pub cached_units: u64,
    /// `--verify` mismatches found (each also repaired the store entry).
    pub verify_mismatches: usize,
    /// Unit indices that needed extra attempts.
    pub retried_jobs: Vec<usize>,
    /// Extra attempts across all units.
    pub total_retries: u64,
    /// Unit indices flagged by the watchdog.
    pub slow_jobs: Vec<usize>,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-clock nanos of the execution phase.
    pub exec_host_nanos: u64,
    /// One span per unit, labeled with the primary requester's job.
    pub spans: Vec<JobSpan>,
    /// The campaign's metrics registry (gauges `campaign.total_jobs`,
    /// `campaign.distinct_jobs`, `campaign.workers`; counters `job.*`,
    /// `campaign.simulated`, `campaign.deduped`, and `store.*`).
    pub registry: MetricsRegistry,
    /// Store op counts for this run's handle, when a store was configured.
    pub store_counts: Option<StoreCounts>,
}

impl CampaignReport {
    /// Execution wall time in seconds (the figure `tartan_run` prints).
    pub fn host_secs(&self) -> f64 {
        self.exec_host_nanos as f64 / 1e9
    }

    /// True when any campaign recorded a failure.
    pub fn any_failures(&self) -> bool {
        self.campaigns.iter().any(|c| !c.failures.is_empty())
    }
}

/// Disjoint wall-clock attribution (DESIGN.md §15): each `mark` closes
/// the segment since the previous mark, so the per-phase nanos sum to
/// `total_nanos()` exactly by construction.
#[derive(Debug)]
pub struct PhaseClock {
    t0: Instant,
    last: Instant,
    phases: Vec<CampaignPhase>,
}

impl PhaseClock {
    /// Starts the clock; the campaign epoch is now.
    pub fn start() -> PhaseClock {
        let now = Instant::now();
        PhaseClock {
            t0: now,
            last: now,
            phases: Vec::new(),
        }
    }

    /// Closes the segment since the previous mark under `name`.
    pub fn mark(&mut self, name: &str) {
        let now = Instant::now();
        self.phases.push(CampaignPhase {
            name: name.to_string(),
            host_nanos: now.duration_since(self.last).as_nanos() as u64,
        });
        self.last = now;
    }

    /// The campaign epoch (span timestamps are nanos since this instant).
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// The phases marked so far.
    pub fn phases(&self) -> &[CampaignPhase] {
        &self.phases
    }

    /// Nanos from the epoch to the last mark.
    pub fn total_nanos(&self) -> u64 {
        self.last.duration_since(self.t0).as_nanos() as u64
    }
}

/// Store payload: one summary header line (the CSV numerics), then the
/// full `stats.json` record verbatim. See `SCHEMA.md` ("store entry").
fn render_payload(result: &JobOutput, config: &str) -> String {
    let mut header = String::from("{\"robot\":");
    push_str(&mut header, &result.robot);
    header.push_str(",\"config\":");
    push_str(&mut header, config);
    header.push_str(&format!(
        ",\"wall_cycles\":{},\"instructions\":{},\"l2_demand_misses\":{},\"quality\":\"{}\"}}",
        result.wall_cycles, result.instructions, result.l2_demand_misses, result.quality
    ));
    format!("{header}\n{}", result.record)
}

/// Decodes a store payload back into a [`JobOutput`], cross-checking the
/// robot/config against the job it is about to stand in for. `None` means
/// "treat as a miss" (the caller quarantines and re-runs).
fn parse_payload(payload: &str, want_robot: &str, want_config: &str) -> Option<JobOutput> {
    let (header, record) = payload.split_once('\n')?;
    let v = parse_json(header).ok()?;
    let get_str = |key: &str| match v.get(key) {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let get_u64 = |key: &str| match v.get(key) {
        Some(JsonValue::Num(raw)) => raw.parse::<u64>().ok(),
        _ => None,
    };
    let robot = get_str("robot")?;
    let config = get_str("config")?;
    if robot != want_robot || config != want_config {
        return None;
    }
    Some(JobOutput {
        record: record.to_string(),
        robot,
        wall_cycles: get_u64("wall_cycles")?,
        instructions: get_u64("instructions")?,
        l2_demand_misses: get_u64("l2_demand_misses")?,
        quality: get_str("quality")?,
        l2_miss_pct: None,
        cached: true,
        host_nanos: 0,
        outcome: None,
    })
}

/// Builds a fresh [`JobOutput`] from a completed simulation.
fn fresh_output(out: RunOutcome, config: &tartan_scenario::ConfigId, keep: bool) -> JobOutput {
    let mut fresh = JobOutput {
        record: out.to_run_stats(config).to_json_record(),
        robot: out.robot.to_string(),
        wall_cycles: out.wall_cycles,
        instructions: out.instructions,
        l2_demand_misses: out.stats.l2.demand_misses(),
        quality: format!("{}", out.quality),
        l2_miss_pct: Some(100.0 * out.stats.l2.miss_ratio()),
        cached: false,
        host_nanos: 0,
        outcome: None,
    };
    if keep {
        fresh.outcome = Some(out);
    }
    fresh
}

/// Comma-separated job indices from a test-hook env var.
fn env_index_set(name: &str) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter(|s| !s.is_empty())
                .filter_map(|s| s.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// xorshift64* — the deterministic sampler behind `--verify N`.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F491_4F6CDD1D)
}

/// A unit's terminal state in the event reorder buffer.
enum UnitTerminal {
    Output(Box<JobOutput>),
    Failure { attempts: u32, message: String },
}

/// The prefix-release reorder buffer: units stash their terminal state as
/// they finish, and events are emitted for the longest contiguous prefix
/// of finished units — so the emitted sequence depends only on the job
/// set, not on which worker finished first.
struct EventHub<'a> {
    sink: EventSink<'a>,
    units: &'a [ExecUnit],
    state: Mutex<HubState>,
}

struct HubState {
    slots: Vec<Option<UnitTerminal>>,
    released: usize,
}

impl<'a> EventHub<'a> {
    fn new(sink: EventSink<'a>, units: &'a [ExecUnit]) -> EventHub<'a> {
        EventHub {
            sink,
            units,
            state: Mutex::new(HubState {
                slots: (0..units.len()).map(|_| None).collect(),
                released: 0,
            }),
        }
    }

    fn stash(&self, unit: usize, terminal: UnitTerminal) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.slots[unit] = Some(terminal);
        self.release(&mut state);
    }

    fn release(&self, state: &mut HubState) {
        while state.released < state.slots.len() {
            let i = state.released;
            let Some(terminal) = &state.slots[i] else {
                return;
            };
            for (ri, r) in self.units[i].requesters.iter().enumerate() {
                let deduped = ri > 0;
                (self.sink)(&CampaignEvent::Started {
                    campaign: r.campaign,
                    job: r.job,
                });
                match terminal {
                    UnitTerminal::Output(output) if output.cached => {
                        (self.sink)(&CampaignEvent::Cached {
                            campaign: r.campaign,
                            job: r.job,
                            output,
                            deduped,
                        });
                    }
                    UnitTerminal::Output(output) => {
                        (self.sink)(&CampaignEvent::Done {
                            campaign: r.campaign,
                            job: r.job,
                            output,
                            deduped,
                        });
                    }
                    UnitTerminal::Failure { attempts, message } => {
                        (self.sink)(&CampaignEvent::Failed {
                            campaign: r.campaign,
                            job: r.job,
                            attempts: *attempts,
                            message,
                            deduped,
                        });
                    }
                }
            }
            state.released += 1;
        }
    }
}

/// The campaign tap (DESIGN.md §15): receives `tartan-par`'s per-job
/// lifecycle events and aggregates them into named metrics, one
/// [`JobSpan`] per unit for the profile/trace exports, and rate-limited
/// stderr heartbeats. Purely additive — it never touches job results or
/// the deterministic stats/CSV outputs.
struct ProgressObserver<'a> {
    /// Campaign epoch; span timestamps are host nanos since this instant.
    epoch: Instant,
    total: usize,
    /// `None` collects metrics and spans without printing anything.
    mode: Option<ProgressMode>,
    claimed: Counter,
    started: Counter,
    retried: Counter,
    slow: Counter,
    panicked: Counter,
    done: Counter,
    failed: Counter,
    /// Results served from the store; bumped by the job closure, read
    /// here for the heartbeat's cache-hit figure.
    cached: Counter,
    spans: Mutex<Vec<JobSpan>>,
    finished: AtomicUsize,
    last_beat_nanos: AtomicU64,
    /// Event reorder buffer; failures are stashed from `on_panicked`.
    hub: Option<&'a EventHub<'a>>,
}

impl<'a> ProgressObserver<'a> {
    fn new(
        registry: &MetricsRegistry,
        epoch: Instant,
        total: usize,
        mode: Option<ProgressMode>,
        hub: Option<&'a EventHub<'a>>,
    ) -> ProgressObserver<'a> {
        ProgressObserver {
            epoch,
            total,
            mode,
            claimed: registry.counter("job.claimed"),
            started: registry.counter("job.started"),
            retried: registry.counter("job.retried"),
            slow: registry.counter("job.slow"),
            panicked: registry.counter("job.panicked"),
            done: registry.counter("job.done"),
            failed: registry.counter("job.failed"),
            cached: registry.counter("job.cached"),
            spans: Mutex::new(
                (0..total)
                    .map(|index| JobSpan {
                        index,
                        ..JobSpan::default()
                    })
                    .collect(),
            ),
            finished: AtomicUsize::new(0),
            last_beat_nanos: AtomicU64::new(0),
            hub,
        }
    }

    fn nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_span(&self, index: usize, f: impl FnOnce(&mut JobSpan)) {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(span) = spans.get_mut(index) {
            f(span);
        }
    }

    fn into_spans(self) -> Vec<JobSpan> {
        self.spans.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    fn heartbeat(&self, done: usize) {
        let Some(mode) = self.mode else { return };
        let now = self.nanos();
        let last = self.last_beat_nanos.load(Ordering::Relaxed);
        // First and final completions always beat; in between, rate-limit
        // and let the compare-exchange loser yield to the thread that won.
        let boundary = done == 1 || done == self.total;
        if !boundary && now.saturating_sub(last) < HEARTBEAT_INTERVAL_NANOS {
            return;
        }
        if self
            .last_beat_nanos
            .compare_exchange(last, now, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
            && !boundary
        {
            return;
        }
        let beat = Heartbeat {
            done,
            total: self.total,
            elapsed_nanos: now,
            cache_hits: self.cached.get(),
            retries: self.retried.get(),
            slow: self.slow.get(),
            failures: self.failed.get(),
        };
        match mode {
            ProgressMode::Jsonl => eprintln!("{}", beat.to_json_line()),
            ProgressMode::Human => eprintln!("{}", beat.render_human()),
        }
    }
}

impl par::JobObserver for ProgressObserver<'_> {
    fn on_claimed(&self, index: usize, worker: usize) {
        self.claimed.inc();
        let now = self.nanos();
        self.with_span(index, |s| {
            s.worker = worker;
            s.start_nanos = now;
        });
    }

    fn on_started(&self, _index: usize, _attempt: u32) {
        self.started.inc();
    }

    fn on_retried(&self, _index: usize, _attempt: u32, _message: &str) {
        self.retried.inc();
    }

    fn on_slow(&self, index: usize, _elapsed: Duration) {
        self.slow.inc();
        self.with_span(index, |s| s.slow = true);
    }

    fn on_panicked(&self, index: usize, attempts: u32, message: &str) {
        self.panicked.inc();
        if let Some(hub) = self.hub {
            hub.stash(
                index,
                UnitTerminal::Failure {
                    attempts,
                    message: message.to_string(),
                },
            );
        }
    }

    fn on_done(&self, index: usize, worker: usize, _host_nanos: u64, attempts: u32, ok: bool) {
        self.done.inc();
        if !ok {
            self.failed.inc();
        }
        let now = self.nanos();
        self.with_span(index, |s| {
            s.worker = worker;
            s.end_nanos = now;
            s.attempts = attempts;
            s.ok = ok;
        });
        let done = self.finished.fetch_add(1, Ordering::SeqCst) + 1;
        self.heartbeat(done);
    }
}

/// The unified campaign engine: executes a [`CampaignSpec`] behind one
/// entry point. See the module docs for the pipeline.
#[derive(Debug)]
pub struct Engine {
    /// The batch this engine executes.
    pub spec: CampaignSpec,
}

impl Engine {
    /// Wraps a spec. Nothing runs until [`Engine::run`].
    pub fn new(spec: CampaignSpec) -> Engine {
        Engine { spec }
    }

    /// Executes the batch: keys and dedupes the jobs, runs each distinct
    /// unit once under `tartan-par` (store-served when resuming, with
    /// panic isolation and retries), streams events to `sink`, verifies a
    /// sample when asked, and fans results back to every requester.
    ///
    /// `clock` must have had its pre-execution phases marked already (the
    /// binaries mark `parse`); the engine marks `plan`, `simulate`, and
    /// `store-io`, leaving `export` to the caller.
    ///
    /// # Errors
    ///
    /// Only store-open failures; everything per-job is isolated and lands
    /// in the report's `failures`.
    pub fn run(
        &self,
        clock: &mut PhaseClock,
        sink: Option<EventSink<'_>>,
    ) -> Result<CampaignReport, StoreError> {
        let opts = &self.spec.options;
        let campaigns = &self.spec.campaigns;
        let tool = opts.tool;
        let jobset = JobSet::build(campaigns);
        let units = &jobset.units;

        let store = match &opts.store {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };

        let panic_at = env_index_set("TARTAN_RUN_PANIC_AT");
        let exit_after: Option<usize> = std::env::var("TARTAN_RUN_EXIT_AFTER")
            .ok()
            .and_then(|v| v.parse().ok());
        let completed = AtomicUsize::new(0);
        clock.mark("plan");

        // Worker count the pool will actually use — also the trace's tracks.
        let workers = opts.jobs.max(1).min(units.len().max(1));
        let registry = MetricsRegistry::new();
        registry
            .gauge("campaign.total_jobs")
            .set(jobset.total_jobs as u64);
        registry
            .gauge("campaign.distinct_jobs")
            .set(units.len() as u64);
        registry.gauge("campaign.workers").set(workers as u64);
        let simulated_ctr = registry.counter("campaign.simulated");
        let deduped_ctr = registry.counter("campaign.deduped");

        let hub = sink.map(|s| EventHub::new(s, units));
        let observer = ProgressObserver::new(
            &registry,
            clock.epoch(),
            units.len(),
            opts.progress,
            hub.as_ref(),
        );
        let cached_ctr = observer.cached.clone();

        let exec = Instant::now();
        let policy = par::RetryPolicy {
            attempts: opts.retries,
            backoff: Duration::from_millis(10),
            watchdog: opts.watchdog,
        };
        let report = par::try_par_map_indexed_observed(workers, units.len(), &policy, &observer, |i| {
            let unit = &units[i];
            if panic_at.contains(&i) {
                panic!("injected test panic at job {i}");
            }
            let primary = unit.requesters[0];
            let campaign = &campaigns[primary.campaign];
            let job = &campaign.plan.jobs[primary.job];
            let config = job.config.as_str();
            let fetch = Instant::now();
            let result = store
                .as_ref()
                .filter(|_| opts.resume)
                .and_then(|s| match s.get(&unit.key) {
                    Ok(Some(payload)) => {
                        let parsed = parse_payload(&payload, job.robot.name(), config);
                        if parsed.is_none() {
                            // Hash-valid but semantically wrong for this job
                            // (stale key scheme, hand-edited entry): self-heal.
                            eprintln!(
                                "{tool}: store entry {} does not describe job {i}; quarantining",
                                &unit.key[..12]
                            );
                            let _ = s.quarantine(&unit.key);
                        }
                        parsed
                    }
                    Ok(None) => None,
                    Err(e) => {
                        eprintln!("{tool}: {e}; re-running job {i}");
                        None
                    }
                })
                .map(|mut cached| {
                    cached.host_nanos = fetch.elapsed().as_nanos() as u64;
                    cached
                });
            let result = result.unwrap_or_else(|| {
                let sim = Instant::now();
                let out = run_robot(job.robot, job.machine.clone(), job.software, &campaign.params);
                let host_nanos = sim.elapsed().as_nanos() as u64;
                let mut fresh = fresh_output(out, &job.config, opts.keep_outcomes);
                fresh.host_nanos = host_nanos;
                simulated_ctr.inc();
                if let Some(s) = &store {
                    // Commit immediately — a kill after this point loses
                    // nothing this job computed.
                    if let Err(e) = s.put(&unit.key, &render_payload(&fresh, config)) {
                        eprintln!("{tool}: {e}; result kept in memory only");
                    }
                }
                fresh
            });
            if result.cached {
                cached_ctr.inc();
            }
            if let Some(hub) = &hub {
                hub.stash(i, UnitTerminal::Output(Box::new(result.light())));
            }
            let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
            if exit_after.is_some_and(|n| done >= n) {
                // Simulated kill for the resume tests: completed jobs are
                // already committed to the store; everything else is lost.
                std::process::exit(3);
            }
            result
        });
        let exec_host_nanos = exec.elapsed().as_nanos() as u64;
        clock.mark("simulate");
        let retried_jobs = report.retried();
        let total_retries = report.total_retries();
        let slow_jobs = report.slow.clone();

        // Fan each unit's terminal state out to every requester, in unit
        // (= first-occurrence) order.
        let mut out: Vec<CampaignResult> = campaigns
            .iter()
            .map(|c| CampaignResult {
                results: vec![None; c.plan.jobs.len()],
                failures: Vec::new(),
            })
            .collect();
        let mut cached_units = 0u64;
        for (u, res) in report.results.into_iter().enumerate() {
            let unit = &units[u];
            deduped_ctr.add(unit.requesters.len() as u64 - 1);
            match res {
                Ok(result) => {
                    if result.cached {
                        cached_units += 1;
                    }
                    let (last, head) = unit.requesters.split_last().expect("never empty");
                    for r in head {
                        out[r.campaign].results[r.job] = Some(result.clone());
                    }
                    out[last.campaign].results[last.job] = Some(result);
                }
                Err(f) => {
                    for r in &unit.requesters {
                        let job = &campaigns[r.campaign].plan.jobs[r.job];
                        eprintln!(
                            "{tool}: job {} ({} {} {:?}) failed after {} attempt(s): {}",
                            r.job,
                            job.robot.name(),
                            job.config.as_str(),
                            job.label,
                            f.attempts,
                            f.message
                        );
                        out[r.campaign].failures.push(JobFailureStats {
                            robot: job.robot.name().to_string(),
                            config: job.config.as_str().to_string(),
                            label: job.label.clone(),
                            group: campaigns[r.campaign].plan.groups[job.group].name.clone(),
                            attempts: f.attempts,
                            message: f.message.clone(),
                        });
                    }
                }
            }
        }

        // --verify N: per campaign, re-execute a seeded sample of the
        // cache-served jobs and demand byte-identical records. A mismatch
        // means the entry lied about its content (or determinism broke) —
        // quarantine, repair, fail.
        let mut verify_mismatches = 0usize;
        if opts.verify > 0 {
            for (ci, campaign) in campaigns.iter().enumerate() {
                let mut cached_idx: Vec<usize> = out[ci]
                    .results
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.as_ref().is_some_and(|r| r.cached))
                    .map(|(i, _)| i)
                    .collect();
                let mut rng = campaign.params.seed ^ 0x9E37_79B9_7F4A_7C15;
                let sample = opts.verify.min(cached_idx.len());
                for _ in 0..sample {
                    let pick = (xorshift64star(&mut rng) % cached_idx.len() as u64) as usize;
                    let i = cached_idx.swap_remove(pick);
                    let job = &campaign.plan.jobs[i];
                    let outcome =
                        run_robot(job.robot, job.machine.clone(), job.software, &campaign.params);
                    let fresh = fresh_output(outcome, &job.config, opts.keep_outcomes);
                    let cached = out[ci].results[i].as_ref().expect("sampled index is Some");
                    if cached.record == fresh.record {
                        println!("verified job {i}: cached record matches re-execution");
                    } else {
                        verify_mismatches += 1;
                        eprintln!(
                            "{tool}: verify mismatch on job {i} ({} {}): cached record differs from re-execution; repairing entry",
                            job.robot.name(),
                            job.config.as_str()
                        );
                        let unit = jobset.unit_of[ci][i];
                        if let Some(s) = &store {
                            let _ = s.quarantine(&units[unit].key);
                            if let Err(e) = s.put(
                                &units[unit].key,
                                &render_payload(&fresh, job.config.as_str()),
                            ) {
                                eprintln!("{tool}: {e}");
                            }
                        }
                        // The repaired result replaces every requester of
                        // the unit, not just the sampled slot.
                        for r in &units[unit].requesters {
                            out[r.campaign].results[r.job] = Some(fresh.clone());
                        }
                    }
                }
                if sample < opts.verify {
                    println!(
                        "verify: only {sample} cached result(s) available (asked for {})",
                        opts.verify
                    );
                }
            }
        }
        clock.mark("store-io");

        let store_counts = store.as_ref().map(|s| {
            let c = s.counts();
            registry.counter("store.hit").add(c.hits);
            registry.counter("store.miss").add(c.misses);
            registry.counter("store.put").add(c.puts);
            registry.counter("store.quarantine").add(c.quarantines);
            c
        });

        let simulated = simulated_ctr.get();
        let mut spans = observer.into_spans();
        for (u, span) in spans.iter_mut().enumerate() {
            let primary = units[u].requesters[0];
            let job = &campaigns[primary.campaign].plan.jobs[primary.job];
            span.robot = job.robot.name().to_string();
            span.config = job.config.as_str().to_string();
            span.label = job.label.clone();
            span.cached = out[primary.campaign].results[primary.job]
                .as_ref()
                .is_some_and(|r| r.cached);
        }

        Ok(CampaignReport {
            campaigns: out,
            total_jobs: jobset.total_jobs,
            distinct_keys: units.len(),
            simulated,
            cached_units,
            verify_mismatches,
            retried_jobs,
            total_retries,
            slow_jobs,
            workers,
            exec_host_nanos,
            spans,
            registry,
            store_counts,
        })
    }
}

/// Quotes a CSV field only when it needs it (commas, quotes, newlines).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders one campaign's exports: the versioned `stats.json` document
/// (records spliced verbatim, so cached and fresh runs are byte-identical)
/// and the flat CSV. The caller validates and writes them.
pub fn render_exports(
    generator: &str,
    campaign: &Campaign,
    result: &CampaignResult,
) -> (String, String) {
    let mut records: Vec<String> = Vec::with_capacity(campaign.plan.jobs.len());
    let mut csv = String::from(
        "robot,config,label,group,wall_cycles,instructions,l2_demand_misses,quality\n",
    );
    for (job, slot) in campaign.plan.jobs.iter().zip(&result.results) {
        let Some(out) = slot else { continue };
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            csv_field(&out.robot),
            csv_field(job.config.as_str()),
            csv_field(&job.label),
            csv_field(&campaign.plan.groups[job.group].name),
            out.wall_cycles,
            out.instructions,
            out.l2_demand_misses,
            out.quality,
        ));
        records.push(out.record.clone());
    }
    (stats_export_json(generator, &records, &result.failures), csv)
}

/// Runs every planned job of `spec` through the engine at exactly
/// `params`, returning full outcomes in plan order — the contract the
/// figure harnesses rely on. Runs on one host worker, the
/// [`CampaignOptions`] default.
///
/// # Panics
///
/// On an invalid spec or any job failure: the harnesses treat both as a
/// broken build, exactly as a propagated simulation panic did before.
pub fn run_plan(spec: &ScenarioSpec, params: &ExperimentParams) -> Vec<RunOutcome> {
    let plan = spec
        .expand()
        .unwrap_or_else(|e| panic!("checked-in scenario does not expand: {e}"));
    let campaign = Campaign {
        spec: spec.clone(),
        plan,
        params: *params,
    };
    let engine = Engine::new(CampaignSpec {
        campaigns: vec![campaign],
        options: CampaignOptions {
            keep_outcomes: true,
            ..CampaignOptions::default()
        },
    });
    let report = engine
        .run(&mut PhaseClock::start(), None)
        .unwrap_or_else(|e| panic!("{e}"));
    let [result] = <[CampaignResult; 1]>::try_from(report.campaigns)
        .unwrap_or_else(|_| unreachable!("one campaign in, one result out"));
    if let Some(failure) = result.failures.first() {
        panic!("{}", failure.message);
    }
    result
        .results
        .into_iter()
        .map(|slot| {
            slot.expect("no failures")
                .outcome
                .expect("keep_outcomes was set")
        })
        .collect()
}

/// Runs every planned job of a scenario at the probe scale and returns
/// one stats record per job, in plan order.
///
/// This is the coverage signal behind `tartan_gen`: the spec expands as
/// usual (so sweep axes, presets, FCP/fault plans all take effect), but
/// the workload runs at [`Scale::probe`] — with the spec's own `adjust`
/// list applied on top, so scale-bending scenarios still probe
/// differently from unbent ones — and for the spec's `steps` (default
/// 1). Milliseconds per job instead of hundreds, which is what makes
/// enumerating and shrinking hundreds of scenarios affordable. Probing
/// runs sequentially through the engine (the synthesizer parallelizes
/// across specs, not within one).
///
/// # Errors
///
/// Whatever [`ScenarioSpec::expand`] reports: unresolvable presets or
/// invalid machine geometry, with field-path context.
///
/// # Panics
///
/// If a probe run itself dies — the legacy behavior, where a simulation
/// panic propagated straight out of the probe loop.
pub fn probe_spec(spec: &ScenarioSpec) -> Result<Vec<RobotRunStats>, ScenarioError> {
    let plan = spec.expand()?;
    let mut scale = Scale::probe();
    spec.params.apply_adjusts(&mut scale);
    let params = ExperimentParams {
        scale,
        steps: spec.params.steps.unwrap_or(1) as usize,
        seed: spec.params.seed.unwrap_or(42),
    };
    let campaign = Campaign {
        spec: spec.clone(),
        plan,
        params,
    };
    let engine = Engine::new(CampaignSpec {
        campaigns: vec![campaign],
        options: CampaignOptions {
            jobs: 1,
            keep_outcomes: true,
            ..CampaignOptions::default()
        },
    });
    let report = engine
        .run(&mut PhaseClock::start(), None)
        .unwrap_or_else(|e| panic!("{e}"));
    let result = &report.campaigns[0];
    if let Some(failure) = result.failures.first() {
        panic!("{}", failure.message);
    }
    let campaign = &engine.spec.campaigns[0];
    Ok(result
        .results
        .iter()
        .zip(&campaign.plan.jobs)
        .map(|(slot, job)| {
            slot.as_ref()
                .expect("no failures")
                .outcome
                .as_ref()
                .expect("keep_outcomes was set")
                .to_run_stats(&job.config)
        })
        .collect())
}

/// Writes `json` to `path`, mapping the error into the store layer's
/// `path: reason` diagnostic shape so binaries can `die` uniformly.
pub fn write_file(path: &Path, contents: &str) -> Result<(), StoreError> {
    fs::write(path, contents).map_err(|e| StoreError {
        path: path.to_path_buf(),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, robots: &str) -> ScenarioSpec {
        let text = format!(
            r#"{{"schema_version": 1, "name": "{name}", "params": {{"steps": 1}},
                "groups": [{{"robots": [{robots}],
                    "axes": [{{"variants": [
                        {{"label": "base"}},
                        {{"label": "tartan",
                         "machine": {{"preset": "tartan"}},
                         "software": {{"preset": "approximable"}}}}
                    ]}}]}}]}}"#
        );
        ScenarioSpec::from_json(&text).expect("inline scenario parses")
    }

    #[test]
    fn jobset_dedupes_identical_keys_across_campaigns() {
        let a = Campaign::from_spec(spec("a", "\"DeliBot\"")).unwrap();
        let b = Campaign::from_spec(spec("b", "\"DeliBot\", \"MoveBot\"")).unwrap();
        let set = JobSet::build(&[a, b]);
        // a: DeliBot base/tartan. b: DeliBot base/tartan + MoveBot
        // base/tartan. Overlap: both DeliBot jobs.
        assert_eq!(set.total_jobs, 6);
        assert_eq!(set.distinct(), 4);
        // a's two jobs share units with b's first two.
        assert_eq!(set.unit_of[0], &[0, 1]);
        assert_eq!(set.unit_of[1][0], 0);
        assert_eq!(set.unit_of[1][1], 1);
        let shared = &set.units[0];
        assert_eq!(shared.requesters.len(), 2);
        assert_eq!(shared.requesters[0], JobRef { campaign: 0, job: 0 });
        assert_eq!(shared.requesters[1], JobRef { campaign: 1, job: 0 });
    }

    #[test]
    fn overlapping_batch_simulates_each_distinct_key_exactly_once() {
        let a = Campaign::from_spec(spec("a", "\"DeliBot\"")).unwrap();
        let b = Campaign::from_spec(spec("b", "\"DeliBot\", \"MoveBot\"")).unwrap();
        let solo_a = run_batch(vec![a.clone()]);
        let solo_b = run_batch(vec![b.clone()]);
        let batch = Engine::new(CampaignSpec {
            campaigns: vec![a, b],
            options: CampaignOptions {
                jobs: 2,
                ..CampaignOptions::default()
            },
        });
        let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let sink = |ev: &CampaignEvent<'_>| {
            let line = match ev {
                CampaignEvent::Started { campaign, job } => format!("start {campaign}/{job}"),
                CampaignEvent::Done {
                    campaign,
                    job,
                    deduped,
                    ..
                } => format!("done {campaign}/{job} dedup={deduped}"),
                CampaignEvent::Cached { campaign, job, .. } => format!("cached {campaign}/{job}"),
                CampaignEvent::Failed { campaign, job, .. } => format!("failed {campaign}/{job}"),
            };
            events.lock().unwrap().push(line);
        };
        let report = batch.run(&mut PhaseClock::start(), Some(&sink)).unwrap();

        // 6 planned jobs, 4 distinct keys, 4 simulations, 2 fan-outs.
        assert_eq!(report.total_jobs, 6);
        assert_eq!(report.distinct_keys, 4);
        assert_eq!(report.simulated, 4);
        let snapshot = report.registry.snapshot();
        assert_eq!(snapshot.counter("campaign.simulated"), Some(4));
        assert_eq!(snapshot.counter("campaign.deduped"), Some(2));
        assert_eq!(snapshot.counter("job.done"), Some(4));

        // Both campaigns' exports match their standalone runs byte-for-byte.
        let batch_a = render_exports("t", &batch.spec.campaigns[0], &report.campaigns[0]);
        let batch_b = render_exports("t", &batch.spec.campaigns[1], &report.campaigns[1]);
        assert_eq!(batch_a, solo_a);
        assert_eq!(batch_b, solo_b);

        // The event stream covers every planned job once, in unit order:
        // the shared DeliBot units fan out to both campaigns back-to-back.
        let events = events.into_inner().unwrap();
        let starts: Vec<&String> = events.iter().filter(|e| e.starts_with("start")).collect();
        assert_eq!(starts.len(), 6);
        assert_eq!(
            events,
            [
                "start 0/0",
                "done 0/0 dedup=false",
                "start 1/0",
                "done 1/0 dedup=true",
                "start 0/1",
                "done 0/1 dedup=false",
                "start 1/1",
                "done 1/1 dedup=true",
                "start 1/2",
                "done 1/2 dedup=false",
                "start 1/3",
                "done 1/3 dedup=false",
            ]
        );
    }

    fn run_batch(campaigns: Vec<Campaign>) -> (String, String) {
        let engine = Engine::new(CampaignSpec {
            campaigns,
            options: CampaignOptions {
                jobs: 1,
                ..CampaignOptions::default()
            },
        });
        let report = engine.run(&mut PhaseClock::start(), None).unwrap();
        render_exports("t", &engine.spec.campaigns[0], &report.campaigns[0])
    }

    #[test]
    fn probe_spec_returns_one_record_per_planned_job() {
        let s = spec("probe", "\"DeliBot\"");
        let runs = probe_spec(&s).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].robot, "DeliBot");
    }
}
