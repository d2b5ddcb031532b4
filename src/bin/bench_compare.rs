//! `bench_compare`: diffs two `BENCH_host.json` documents and fails on a
//! host-time regression.
//!
//! ```text
//! bench_compare BASELINE CURRENT [--threshold PCT]
//! ```
//!
//! Host timings are noisy — a loaded CI runner can easily be 20% slower
//! than the machine that produced the baseline — so the check is built
//! around two noise-resistant figures rather than any single run:
//!
//! * the **median per-run `host_nanos` ratio** across runs matched by
//!   `(robot, config)` — the median ignores one or two outlier runs that
//!   hit a scheduler hiccup, and a ratio-of-pairs cancels run-matrix
//!   changes in a way comparing totals would not;
//! * the **campaign `runs_per_sec` ratio** — the end-to-end throughput
//!   figure the bench prints, sensitive to regressions that per-run
//!   medians smear (e.g. one robot getting 10× slower).
//!
//! When **both** documents carry the v3 `warm` section (a cold/warm split
//! from `bench_tier1 --store`), the same two figures are compared for the
//! warm (store-served) pass as well, so a store-path slowdown is caught
//! even when simulation time is unchanged. A document whose warm rows
//! lack the v3 fields (`robot`/`config`/`host_nanos`/`cold_host_nanos`)
//! is rejected with a single-line error and exit 2 — never a panic. A
//! warm section present in only one input is reported and skipped: the
//! cold figures still compare.
//!
//! A regression is declared when either figure degrades by more than
//! `--threshold` percent (default 50 — generous on purpose: the gate is
//! for 2× blowups, not 5% jitter). CI enforces the gate with
//! `--threshold 10` (see ci.yml).
//!
//! Exit codes: 0 no regression, 1 regression, 2 usage / unreadable or
//! malformed input.

use std::fs;

use tartan::campaign::cli;
use tartan::sim::telemetry::json::{parse as parse_json, JsonValue};

const USAGE: &str = "usage: bench_compare BASELINE CURRENT [--threshold PCT]";

fn usage_error(msg: &str) -> ! {
    cli::usage_error("bench_compare", USAGE, msg)
}

/// One run's identity and host time, pulled out of a `runs` array entry.
struct RunTime {
    robot: String,
    config: String,
    host_nanos: f64,
}

/// The warm (store-served) half of a v3 cold/warm split.
struct WarmDoc {
    total_host_nanos: f64,
    runs: Vec<RunTime>,
}

impl WarmDoc {
    fn runs_per_sec(&self) -> f64 {
        if self.total_host_nanos > 0.0 {
            self.runs.len() as f64 / (self.total_host_nanos / 1e9)
        } else {
            0.0
        }
    }
}

/// The slice of a `BENCH_host.json` document this tool compares.
struct BenchDoc {
    runs_per_sec: f64,
    runs: Vec<RunTime>,
    warm: Option<WarmDoc>,
}

fn num(v: Option<&JsonValue>) -> Option<f64> {
    match v {
        Some(JsonValue::Num(raw)) => raw.parse().ok(),
        _ => None,
    }
}

fn string(v: Option<&JsonValue>) -> Option<String> {
    match v {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Loads and dissects one `BENCH_host.json`. Tolerates schema-version
/// drift on purpose: a baseline captured under an older stats schema is
/// still a valid timing reference as long as the timing keys are present.
fn load(path: &str) -> BenchDoc {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: {path}: {e}");
        std::process::exit(2);
    });
    let doc = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("bench_compare: {path}: {e}");
        std::process::exit(2);
    });
    let bad = |what: &str| -> ! { cli::input_error("bench_compare", path, what) };
    let Some(runs_per_sec) = num(doc.get("runs_per_sec")) else {
        bad("\"runs_per_sec\"");
    };
    let Some(JsonValue::Arr(entries)) = doc.get("runs") else {
        bad("\"runs\" array");
    };
    let mut runs = Vec::with_capacity(entries.len());
    for entry in entries {
        let (Some(robot), Some(config), Some(host_nanos)) = (
            string(entry.get("robot")),
            string(entry.get("config")),
            num(entry.get("host_nanos")),
        ) else {
            bad("runs[] entry (robot/config/host_nanos)");
        };
        runs.push(RunTime {
            robot,
            config,
            host_nanos,
        });
    }
    if runs.is_empty() {
        bad("\"runs\" array (empty)");
    }
    // The v3 warm section is optional, but when present it must carry the
    // fields the warm comparison divides by — a half-written row dies
    // here with a single line, not a panic in the ratio math.
    let warm = doc.get("warm").map(|section| {
        let Some(total_host_nanos) = num(section.get("total_host_nanos")) else {
            bad("warm \"total_host_nanos\"");
        };
        let Some(JsonValue::Arr(entries)) = section.get("runs") else {
            bad("warm \"runs\" array");
        };
        let mut runs = Vec::with_capacity(entries.len());
        for entry in entries {
            let (Some(robot), Some(config), Some(host_nanos), Some(_cold)) = (
                string(entry.get("robot")),
                string(entry.get("config")),
                num(entry.get("host_nanos")),
                num(entry.get("cold_host_nanos")),
            ) else {
                bad("warm runs[] entry (robot/config/host_nanos/cold_host_nanos)");
            };
            runs.push(RunTime {
                robot,
                config,
                host_nanos,
            });
        }
        if runs.is_empty() {
            bad("warm \"runs\" array (empty)");
        }
        WarmDoc {
            total_host_nanos,
            runs,
        }
    });
    BenchDoc {
        runs_per_sec,
        runs,
        warm,
    }
}

/// Median of a non-empty slice (mean of the middle two when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Pairs `current` runs with `baseline` by `(robot, config)` and returns
/// the per-run host-time ratios plus the count left unmatched.
fn pair_ratios(baseline: &[RunTime], current: &[RunTime]) -> (Vec<f64>, usize) {
    let mut ratios = Vec::new();
    let mut unmatched = 0usize;
    for cur in current {
        let base = baseline
            .iter()
            .find(|b| b.robot == cur.robot && b.config == cur.config);
        match base {
            Some(b) if b.host_nanos > 0.0 => ratios.push(cur.host_nanos / b.host_nanos),
            _ => unmatched += 1,
        }
    }
    (ratios, unmatched)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut threshold_pct: f64 = 50.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(p)) if p > 0.0 && p.is_finite() => threshold_pct = p,
                _ => usage_error("--threshold needs a positive percent"),
            },
            other if other.starts_with("--") => {
                usage_error(&format!("unrecognized flag {other}"))
            }
            other => files.push(other.to_string()),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        usage_error("exactly two files are expected (BASELINE CURRENT)");
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    // Pair runs by (robot, config); unmatched runs are reported but never
    // counted — a grown or shrunk matrix is not by itself a regression.
    let (mut ratios, unmatched) = pair_ratios(&baseline.runs, &current.runs);
    if unmatched > 0 {
        println!("bench_compare: {unmatched} run(s) have no baseline counterpart; skipped");
    }
    if ratios.is_empty() {
        eprintln!("bench_compare: no runs match between {baseline_path} and {current_path}");
        std::process::exit(2);
    }

    let limit = 1.0 + threshold_pct / 100.0;
    let median_ratio = median(&mut ratios);
    let throughput_ratio = if current.runs_per_sec > 0.0 {
        baseline.runs_per_sec / current.runs_per_sec
    } else {
        f64::INFINITY
    };
    println!(
        "bench_compare: {} matched run(s): median host_nanos ratio {median_ratio:.3}, \
         runs/s {:.3} -> {:.3} (slowdown {throughput_ratio:.3}), threshold {limit:.2}x",
        ratios.len(),
        baseline.runs_per_sec,
        current.runs_per_sec,
    );

    let mut regressed = false;
    if median_ratio > limit {
        println!(
            "bench_compare: REGRESSION: median per-run host time grew {median_ratio:.2}x \
             (limit {limit:.2}x)"
        );
        regressed = true;
    }
    if throughput_ratio > limit {
        println!(
            "bench_compare: REGRESSION: campaign throughput fell {throughput_ratio:.2}x \
             (limit {limit:.2}x)"
        );
        regressed = true;
    }

    // Warm (store-served) comparison: same figures, same threshold, only
    // when both sides measured a warm pass.
    match (&baseline.warm, &current.warm) {
        (Some(base_warm), Some(cur_warm)) => {
            let (mut warm_ratios, warm_unmatched) =
                pair_ratios(&base_warm.runs, &cur_warm.runs);
            if warm_unmatched > 0 {
                println!(
                    "bench_compare: {warm_unmatched} warm run(s) have no baseline counterpart; skipped"
                );
            }
            if warm_ratios.is_empty() {
                println!("bench_compare: no warm runs match; warm comparison skipped");
            } else {
                let warm_median = median(&mut warm_ratios);
                let base_rps = base_warm.runs_per_sec();
                let cur_rps = cur_warm.runs_per_sec();
                let warm_slowdown = if cur_rps > 0.0 {
                    base_rps / cur_rps
                } else {
                    f64::INFINITY
                };
                println!(
                    "bench_compare: warm: {} matched run(s): median host_nanos ratio \
                     {warm_median:.3}, runs/s {base_rps:.3} -> {cur_rps:.3} \
                     (slowdown {warm_slowdown:.3})",
                    warm_ratios.len(),
                );
                if warm_median > limit {
                    println!(
                        "bench_compare: REGRESSION: median warm (store-served) host time grew \
                         {warm_median:.2}x (limit {limit:.2}x)"
                    );
                    regressed = true;
                }
                if warm_slowdown > limit {
                    println!(
                        "bench_compare: REGRESSION: warm (store-served) throughput fell \
                         {warm_slowdown:.2}x (limit {limit:.2}x)"
                    );
                    regressed = true;
                }
            }
        }
        (None, None) => {}
        _ => println!("bench_compare: warm section present in only one input; skipped"),
    }

    if regressed {
        std::process::exit(1);
    }
    println!("bench_compare: OK (within threshold)");
}
