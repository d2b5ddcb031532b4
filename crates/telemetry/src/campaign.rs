//! Campaign-level observability documents.
//!
//! Where `stats.json` describes *simulated* results (byte-deterministic
//! for a fixed seed), the documents in this module describe the *host
//! execution* of a campaign: who ran which job on which worker thread,
//! when, how long it took, what was retried, what the store served. Their
//! layout is fixed and validated, but the timing values are whatever the
//! host measured — like `BENCH_host.json`, they are intentionally not
//! byte-deterministic.
//!
//! Three document shapes share [`CAMPAIGN_SCHEMA_VERSION`]:
//!
//! * **Heartbeat lines** ([`Heartbeat`]) — one JSON object per line on
//!   stderr (`tartan_run --progress=jsonl`), cheap enough to tail.
//! * **Campaign profile** ([`CampaignProfile`]) — the post-campaign
//!   export (`<name>.campaign_profile.json`): host-time attribution per
//!   phase, one [`JobSpan`] per job, and a [`MetricsSnapshot`].
//! * **Bench history lines** ([`BenchHistoryLine`]) — one line appended
//!   to `results/BENCH_history.jsonl` per `bench_tier1` invocation, the
//!   input to `bench_compare`'s regression detection.
//!
//! [`campaign_trace_json`] additionally renders the job spans as a
//! Chrome-trace timeline with one track per worker thread, loadable in
//! Perfetto next to the per-run simulator traces.

use crate::json::{push_str, render, round_trip, Codec, Record};
use crate::metrics::MetricsSnapshot;

/// Version stamped into every campaign-observability document
/// (`campaign_profile.json`, heartbeat lines, `BENCH_history.jsonl`).
///
/// Independent of `STATS_SCHEMA_VERSION`: these documents describe host
/// execution, not simulated results. CI's schema guard requires a
/// matching `SCHEMA.md` entry when this changes.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 1;

/// One phase of a campaign's host wall-clock, as a disjoint segment:
/// the per-phase `host_nanos` of a profile sum to (approximately) the
/// campaign's `total_host_nanos`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignPhase {
    /// Phase label (`parse`, `plan`, `simulate`, `store-io`, `export`).
    pub name: String,
    /// Host nanoseconds spent in the phase.
    pub host_nanos: u64,
}

impl Record for CampaignPhase {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("name", &mut self.name)?;
        c.field("host_nanos", &mut self.host_nanos)
    }
}

/// The host-execution record of one campaign job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Submission index of the job.
    pub index: usize,
    /// Robot name.
    pub robot: String,
    /// Canonical config label.
    pub config: String,
    /// Sweep label.
    pub label: String,
    /// Worker thread (0-based) that completed the job.
    pub worker: usize,
    /// Host nanoseconds from campaign start to the job's first attempt.
    pub start_nanos: u64,
    /// Host nanoseconds from campaign start to the job's completion.
    pub end_nanos: u64,
    /// Execution attempts made (≥ 1; > 1 means the job was retried).
    pub attempts: u32,
    /// Whether the watchdog flagged the job as slow.
    pub slow: bool,
    /// Whether the result was served from the result store.
    pub cached: bool,
    /// Whether the job produced a result (false = failed every attempt).
    pub ok: bool,
}

impl Record for JobSpan {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field("index", &mut self.index)?;
        c.field("robot", &mut self.robot)?;
        c.field("config", &mut self.config)?;
        c.field("label", &mut self.label)?;
        c.field("worker", &mut self.worker)?;
        c.field("start_nanos", &mut self.start_nanos)?;
        c.field("end_nanos", &mut self.end_nanos)?;
        c.field("attempts", &mut self.attempts)?;
        c.field("slow", &mut self.slow)?;
        c.field("cached", &mut self.cached)?;
        c.field("ok", &mut self.ok)
    }
}

/// The `campaign_profile.json` document: host-time attribution for one
/// campaign. See the module docs for the determinism caveat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignProfile {
    /// Tool that produced the document (e.g. `"tartan_run"`).
    pub generator: String,
    /// Scenario name the campaign ran.
    pub scenario: String,
    /// Host worker threads the campaign ran with.
    pub jobs: u64,
    /// Campaign wall-clock, start of parse to end of export.
    pub total_host_nanos: u64,
    /// Disjoint wall-clock phases; their `host_nanos` sum reconciles with
    /// `total_host_nanos` (±1%, the instrumentation gap).
    pub phases: Vec<CampaignPhase>,
    /// One span per job, submission order.
    pub spans: Vec<JobSpan>,
    /// Campaign metrics (worker lifecycle + store counters).
    pub metrics: MetricsSnapshot,
}

impl CampaignProfile {
    /// Sum of the per-phase host nanoseconds.
    pub fn phase_nanos_sum(&self) -> u64 {
        self.phases.iter().map(|p| p.host_nanos).sum()
    }

    /// Serializes the document; layout deterministic, values host-measured.
    pub fn to_json(&self) -> String {
        render(self.clone()) + "\n"
    }
}

impl Record for CampaignProfile {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.fixed("campaign_schema_version", CAMPAIGN_SCHEMA_VERSION)?;
        c.field("generator", &mut self.generator)?;
        c.field("scenario", &mut self.scenario)?;
        c.field("jobs", &mut self.jobs)?;
        c.field("total_host_nanos", &mut self.total_host_nanos)?;
        c.field("phases", &mut self.phases)?;
        c.field("spans", &mut self.spans)?;
        c.field("metrics", &mut self.metrics)
    }
}

/// Validates a `campaign_profile.json` document by decoding it into a
/// [`CampaignProfile`] (the current [`CAMPAIGN_SCHEMA_VERSION`], every key
/// in writer order, metric names sorted and unique) and requiring
/// [`CampaignProfile::to_json`] to reproduce it byte for byte.
pub fn validate_campaign_profile_json(s: &str) -> Result<(), String> {
    round_trip(s, |p: CampaignProfile| render(p) + "\n")
}

/// Renders a campaign's job spans as a Chrome-trace JSON object with one
/// thread row per worker: each job is a complete (`"X"`) event, and jobs
/// served from the result store additionally carry a `store_hit` instant
/// at their start. Timestamps are microseconds from campaign start.
pub fn campaign_trace_json(scenario: &str, workers: usize, spans: &[JobSpan]) -> String {
    use std::fmt::Write;
    let mut buf = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |buf: &mut String| {
        if !std::mem::take(&mut first) {
            buf.push(',');
        }
    };
    sep(&mut buf);
    buf.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":");
    push_str(&mut buf, scenario);
    buf.push_str("}}");
    for w in 0..workers.max(1) {
        sep(&mut buf);
        let _ = write!(
            buf,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"worker-{w}\"}}}}",
            w + 1
        );
    }
    for s in spans {
        let tid = s.worker + 1;
        let ts = s.start_nanos / 1_000;
        let dur = (s.end_nanos.saturating_sub(s.start_nanos) / 1_000).max(1);
        sep(&mut buf);
        let _ = write!(
            buf,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":"
        );
        push_str(&mut buf, &format!("{} {}", s.robot, s.config));
        buf.push_str(",\"cat\":\"job\",\"args\":{\"index\":");
        let _ = write!(buf, "{}", s.index);
        buf.push_str(",\"label\":");
        push_str(&mut buf, &s.label);
        let _ = write!(
            buf,
            ",\"attempts\":{},\"slow\":{},\"cached\":{},\"ok\":{}}}}}",
            s.attempts, s.slow, s.cached, s.ok
        );
        if s.cached {
            sep(&mut buf);
            let _ = write!(
                buf,
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"store_hit\",\"cat\":\"store\"}}"
            );
        }
    }
    buf.push_str("]}");
    buf
}

/// One mid-campaign progress heartbeat (the `--progress` unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// Jobs completed so far (including failures).
    pub done: usize,
    /// Total jobs in the campaign.
    pub total: usize,
    /// Host nanoseconds since the campaign started.
    pub elapsed_nanos: u64,
    /// Results served from the store so far.
    pub cache_hits: u64,
    /// Retry attempts made so far (attempts beyond each job's first).
    pub retries: u64,
    /// Jobs the watchdog has flagged as slow so far.
    pub slow: u64,
    /// Jobs that failed every attempt so far.
    pub failures: u64,
}

impl Heartbeat {
    /// Completed jobs per host second so far (0 while nothing finished).
    pub fn runs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.done as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }

    /// Naive remaining-time estimate: elapsed × remaining / done.
    pub fn eta_nanos(&self) -> u64 {
        if self.done == 0 {
            return 0;
        }
        let remaining = self.total.saturating_sub(self.done) as u128;
        ((self.elapsed_nanos as u128 * remaining) / self.done as u128) as u64
    }

    /// Renders the heartbeat as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        render(*self)
    }

    /// Renders the heartbeat as the human `--progress` line.
    pub fn render_human(&self) -> String {
        let pct = (100 * self.done).checked_div(self.total).unwrap_or(100);
        let cache_pct = (100 * self.cache_hits as usize)
            .checked_div(self.done)
            .unwrap_or(0);
        format!(
            "progress: {}/{} ({pct}%)  {:.1} runs/s  eta {:.1}s  cache {cache_pct}%  retries {}  slow {}  failed {}",
            self.done,
            self.total,
            self.runs_per_sec(),
            self.eta_nanos() as f64 / 1e9,
            self.retries,
            self.slow,
            self.failures
        )
    }
}

impl Record for Heartbeat {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.fixed("campaign_schema_version", CAMPAIGN_SCHEMA_VERSION)?;
        c.fixed("type", String::from("heartbeat"))?;
        c.field("done", &mut self.done)?;
        c.field("total", &mut self.total)?;
        c.field("elapsed_nanos", &mut self.elapsed_nanos)?;
        c.derived("runs_per_sec", self.runs_per_sec())?;
        c.derived("eta_nanos", self.eta_nanos())?;
        c.field("cache_hits", &mut self.cache_hits)?;
        c.field("retries", &mut self.retries)?;
        c.field("slow", &mut self.slow)?;
        c.field("failures", &mut self.failures)
    }
}

/// Validates one heartbeat JSONL line by decoding it into a [`Heartbeat`]
/// and requiring [`Heartbeat::to_json_line`] to reproduce it byte for
/// byte, which recomputes `runs_per_sec` and `eta_nanos`.
pub fn validate_heartbeat_json(line: &str) -> Result<(), String> {
    round_trip(line, render::<Heartbeat>)
}

/// One `results/BENCH_history.jsonl` line: a compact record of one
/// `bench_tier1` invocation, appended (never rewritten) so the file
/// accumulates a local throughput trajectory across commits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchHistoryLine {
    /// Tool that produced the line (e.g. `"bench_tier1"`).
    pub generator: String,
    /// Unix seconds when the bench finished.
    pub timestamp_secs: u64,
    /// Host worker threads.
    pub jobs: u64,
    /// Runs in the campaign.
    pub runs: u64,
    /// Campaign wall-clock in host nanoseconds (cold pass).
    pub total_host_nanos: u64,
    /// Cold throughput in runs per host second.
    pub runs_per_sec: f64,
    /// Warm (store-served) throughput, when the bench ran with `--store`.
    pub warm_runs_per_sec: Option<f64>,
}

impl BenchHistoryLine {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        render(self.clone())
    }
}

impl Record for BenchHistoryLine {
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.fixed("campaign_schema_version", CAMPAIGN_SCHEMA_VERSION)?;
        c.fixed("type", String::from("bench"))?;
        c.field("generator", &mut self.generator)?;
        c.field("timestamp_secs", &mut self.timestamp_secs)?;
        c.field("jobs", &mut self.jobs)?;
        c.field("runs", &mut self.runs)?;
        c.field("total_host_nanos", &mut self.total_host_nanos)?;
        c.field("runs_per_sec", &mut self.runs_per_sec)?;
        c.field("warm_runs_per_sec", &mut self.warm_runs_per_sec)
    }
}

/// Validates one `BENCH_history.jsonl` line by decoding it into a
/// [`BenchHistoryLine`] and requiring [`BenchHistoryLine::to_json_line`]
/// to reproduce it byte for byte.
pub fn validate_bench_history_line(line: &str) -> Result<(), String> {
    round_trip(line, render::<BenchHistoryLine>)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(index: usize, worker: usize) -> JobSpan {
        JobSpan {
            index,
            robot: "delibot".into(),
            config: "tartan".into(),
            label: format!("v{index}"),
            worker,
            start_nanos: 1_000_000 * index as u64,
            end_nanos: 1_000_000 * index as u64 + 500_000,
            attempts: 1 + (index % 2) as u32,
            slow: index == 3,
            cached: index == 1,
            ok: index != 2,
        }
    }

    fn sample_profile() -> CampaignProfile {
        let reg = crate::MetricsRegistry::new();
        reg.counter("job.done").add(4);
        reg.counter("store.hit").add(1);
        reg.gauge("campaign.total").set(4);
        CampaignProfile {
            generator: "tartan_run".into(),
            scenario: "smoke".into(),
            jobs: 2,
            total_host_nanos: 10_000_000,
            phases: vec![
                CampaignPhase {
                    name: "parse".into(),
                    host_nanos: 1_000_000,
                },
                CampaignPhase {
                    name: "simulate".into(),
                    host_nanos: 9_000_000,
                },
            ],
            spans: (0..4).map(|i| sample_span(i, i % 2)).collect(),
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn profile_round_trips_validation() {
        let json = sample_profile().to_json();
        validate_campaign_profile_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"campaign_schema_version\":1"));
        assert!(json.contains("\"phases\":[{\"name\":\"parse\""));
        assert!(json.contains("\"metrics\":{\"counters\":{\"job.done\":4"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn profile_phase_sum_helper() {
        assert_eq!(sample_profile().phase_nanos_sum(), 10_000_000);
    }

    #[test]
    fn profile_validator_rejects_malformed() {
        // Not JSON at all.
        assert!(validate_campaign_profile_json("{nope").is_err());
        // Wrong version.
        let json = sample_profile()
            .to_json()
            .replace("\"campaign_schema_version\":1", "\"campaign_schema_version\":99");
        assert!(validate_campaign_profile_json(&json).is_err());
        // Missing top-level key.
        let json = sample_profile().to_json().replace("\"phases\":", "\"p\":");
        assert!(validate_campaign_profile_json(&json).is_err());
        // Missing span key.
        let json = sample_profile().to_json().replace("\"worker\":", "\"w\":");
        assert!(validate_campaign_profile_json(&json).is_err());
    }

    #[test]
    fn trace_has_one_track_per_worker_and_store_instants() {
        let spans: Vec<JobSpan> = (0..4).map(|i| sample_span(i, i % 2)).collect();
        let json = campaign_trace_json("smoke", 2, &spans);
        crate::json::parse(&json).unwrap_or_else(|e| panic!("{e}"));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        assert!(!json.contains("\"name\":\"worker-2\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        // Exactly one cached span → one store_hit instant.
        assert_eq!(json.matches("store_hit").count(), 1);
        // Zero-length spans still render a visible 1 µs slice.
        let mut z = sample_span(0, 0);
        z.end_nanos = z.start_nanos;
        assert!(campaign_trace_json("z", 1, &[z]).contains("\"dur\":1"));
    }

    #[test]
    fn heartbeat_line_round_trips_validation() {
        let hb = Heartbeat {
            done: 3,
            total: 14,
            elapsed_nanos: 1_500_000_000,
            cache_hits: 1,
            retries: 2,
            slow: 1,
            failures: 0,
        };
        let line = hb.to_json_line();
        validate_heartbeat_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(!line.contains('\n'));
        assert!((hb.runs_per_sec() - 2.0).abs() < 1e-12);
        // 3 done in 1.5 s → 11 left → 5.5 s eta.
        assert_eq!(hb.eta_nanos(), 5_500_000_000);
        let human = hb.render_human();
        assert!(human.contains("3/14"), "{human}");
        assert!(human.contains("retries 2"), "{human}");
    }

    #[test]
    fn heartbeat_validator_rejects_malformed() {
        assert!(validate_heartbeat_json("").is_err());
        assert!(validate_heartbeat_json("{}").is_err());
        let line = Heartbeat::default().to_json_line();
        validate_heartbeat_json(&line).unwrap();
        assert!(validate_heartbeat_json(&line.replace("\"eta_nanos\":", "\"e\":")).is_err());
        assert!(
            validate_heartbeat_json(&line.replace("\"type\":\"heartbeat\"", "\"type\":\"x\""))
                .is_err()
        );
    }

    #[test]
    fn heartbeat_degenerate_cases() {
        let hb = Heartbeat::default();
        assert_eq!(hb.runs_per_sec(), 0.0);
        assert_eq!(hb.eta_nanos(), 0);
        assert!(hb.render_human().contains("0/0 (100%)"));
    }

    #[test]
    fn bench_history_line_round_trips_validation() {
        let mut line = BenchHistoryLine {
            generator: "bench_tier1".into(),
            timestamp_secs: 1_765_000_000,
            jobs: 2,
            runs: 12,
            total_host_nanos: 2_000_000_000,
            runs_per_sec: 6.0,
            warm_runs_per_sec: None,
        };
        let text = line.to_json_line();
        validate_bench_history_line(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(text.contains("\"warm_runs_per_sec\":null"));
        line.warm_runs_per_sec = Some(40.0);
        let text = line.to_json_line();
        validate_bench_history_line(&text).unwrap();
        assert!(text.contains("\"warm_runs_per_sec\":40"));
        assert!(validate_bench_history_line(&text.replace("\"runs\":", "\"r\":")).is_err());
        assert!(validate_bench_history_line("not json").is_err());
    }
}
