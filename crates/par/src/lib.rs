#![warn(missing_docs)]

//! Deterministic host-level parallelism for simulation campaigns.
//!
//! Every campaign — a figure harness, the tier-1 bench, a `tartan_run`
//! scenario, a fuzz run — executes a (robot × config × seed) matrix of
//! *independent, deterministic* simulations. This crate fans those jobs
//! out across host cores with nothing but `std`, through one worker pool:
//!
//! * **Scoped worker pool** — [`par_map`]/[`par_map_indexed`] spawn at most
//!   `jobs` workers inside [`std::thread::scope`], so borrowed job data
//!   needs no `'static` bound and no reference counting.
//! * **Deterministic job list** — workers pull indices from one atomic
//!   counter (work-conserving: a slow simulation never idles the other
//!   cores), but every result lands in the slot of its *submission index*.
//!   The returned `Vec` is therefore identical — element for element — to
//!   what the sequential loop would have produced, which is what keeps all
//!   CSV/JSON exports byte-identical between `jobs = 1` and `jobs = N`.
//! * **Sequential fast path** — `jobs <= 1` (or a single job) runs inline
//!   on the caller's thread: no spawn, no locks, bit-identical by
//!   construction.
//! * **Fault isolation** — [`try_par_map_indexed`] wraps each job in
//!   [`std::panic::catch_unwind`], so one panicking job yields a structured
//!   [`JobFailure`] in its slot while every other job still completes and
//!   returns its result. A [`RetryPolicy`] adds bounded per-job retries
//!   with linear backoff and an optional watchdog timeout that *flags*
//!   (never kills) jobs running past their deadline. [`par_map_indexed`]
//!   is the same pool with the default policy; it re-raises the
//!   lowest-index failure once every job has finished.
//! * **Lifecycle observability** — [`try_par_map_indexed_observed`] taps
//!   every claimed/started/retried/slow/panicked/done transition (with
//!   per-job host nanoseconds and worker ids) through a [`JobObserver`],
//!   feeding the campaign progress/metrics layer without changing any
//!   result.
//!
//! Every entry point takes its worker count as an argument; there is no
//! process-wide default. Binaries parse `--jobs N` at the CLI edge
//! ([`parse_jobs_flag`]) and pass the count down explicitly.
//!
//! # Examples
//!
//! ```
//! let squares = tartan_par::par_map_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of host cores available to this process (≥ 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--jobs N` / `--jobs=N` flag out of an argument list,
/// returning `(jobs, remaining_args)`. `--jobs 0` and an absent flag both
/// mean "auto": [`available_jobs`].
///
/// # Errors
///
/// Returns a message when the flag has a missing or non-numeric value.
pub fn parse_jobs_flag(args: &[String]) -> Result<(usize, Vec<String>), String> {
    let mut jobs = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--jobs" {
            let v = it
                .next()
                .ok_or_else(|| "flag --jobs needs a value".to_string())?;
            jobs = Some(v.parse::<usize>().map_err(|e| format!("bad --jobs: {e}"))?);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            jobs = Some(v.parse::<usize>().map_err(|e| format!("bad --jobs: {e}"))?);
        } else {
            rest.push(arg.clone());
        }
    }
    let jobs = match jobs {
        None | Some(0) => available_jobs(),
        Some(n) => n,
    };
    Ok((jobs, rest))
}

/// Runs `count` independent jobs `f(0) .. f(count - 1)` on up to `jobs`
/// worker threads and returns their results **in submission order**.
///
/// `f` must be a pure function of its index (plus captured shared state)
/// for the parallel result to equal the sequential one; every caller in
/// this workspace passes a deterministic simulation. This is
/// [`try_par_map_indexed`] with the default [`RetryPolicy`]: a panic in one
/// job never stops the others, and once every job has finished the
/// lowest-index failure's message is re-raised as a panic.
pub fn par_map_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_par_map_indexed(jobs, count, &RetryPolicy::default(), f)
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|failure| panic!("{}", failure.message)))
        .collect()
}

/// [`par_map_indexed`] over a slice of job descriptions: returns
/// `f(&items[0]) .. f(&items[n-1])` in item order.
pub fn par_map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(jobs, items.len(), |i| f(&items[i]))
}

/// Observer for per-job lifecycle events inside a fault-isolated campaign
/// ([`try_par_map_indexed_observed`]).
///
/// Every method has a no-op default, so an observer implements only what
/// it needs. Methods are called from worker threads (and `on_slow` also
/// from the watchdog thread) — implementations must be cheap and
/// `Sync`-safe; the campaign observability layer backs them with atomic
/// counters. Events never affect results: an observed campaign returns
/// exactly what an unobserved one would.
///
/// Event order per job: `on_claimed` → `on_started` (once per attempt) →
/// zero or more `on_retried` → optionally `on_panicked` → `on_done`.
/// `on_slow` can interleave at any point after the first `on_started`.
pub trait JobObserver: Sync {
    /// Worker `worker` (0-based) pulled job `index` off the queue.
    fn on_claimed(&self, index: usize, worker: usize) {
        let _ = (index, worker);
    }

    /// Attempt `attempt` (1-based) of job `index` began executing.
    fn on_started(&self, index: usize, attempt: u32) {
        let _ = (index, attempt);
    }

    /// Attempt `attempt` of job `index` panicked with `message`, and
    /// another attempt will follow.
    fn on_retried(&self, index: usize, attempt: u32, message: &str) {
        let _ = (index, attempt, message);
    }

    /// The watchdog flagged job `index` as running past its deadline
    /// (`elapsed` so far). Fires at most once per job.
    fn on_slow(&self, index: usize, elapsed: Duration) {
        let _ = (index, elapsed);
    }

    /// Job `index` exhausted all `attempts` attempts; `message` is the
    /// final panic payload. `on_done` still follows with `ok = false`.
    fn on_panicked(&self, index: usize, attempts: u32, message: &str) {
        let _ = (index, attempts, message);
    }

    /// Job `index` finished on worker `worker` after `attempts` attempts
    /// and `host_nanos` of host time (all attempts plus retry backoff).
    fn on_done(&self, index: usize, worker: usize, host_nanos: u64, attempts: u32, ok: bool) {
        let _ = (index, worker, host_nanos, attempts, ok);
    }
}

/// A [`JobObserver`] that ignores every event — the default for the
/// unobserved entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl JobObserver for NoopObserver {}

/// A job that did not produce a result: it panicked on every attempt the
/// [`RetryPolicy`] allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// How many attempts were made (≥ 1).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
}

/// Failure-handling policy for [`try_par_map_indexed`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per job (≥ 1; 1 = no retry).
    pub attempts: u32,
    /// Base sleep before retry `n` (the actual sleep is `backoff * n`,
    /// i.e. linear backoff). [`Duration::ZERO`] retries immediately.
    pub backoff: Duration,
    /// If set, jobs running longer than this are *flagged* in
    /// [`TryReport::slow`] (and noted on stderr mid-flight by a watchdog
    /// thread) — never killed: a deterministic simulation that is slow is
    /// still making progress.
    pub watchdog: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
            watchdog: None,
        }
    }
}

/// Outcome of a fault-isolated campaign: per-job results in submission
/// order plus the indices the watchdog flagged as slow.
#[derive(Debug)]
pub struct TryReport<T> {
    /// One entry per job, in submission order: the job's value, or a
    /// [`JobFailure`] if every attempt panicked.
    pub results: Vec<Result<T, JobFailure>>,
    /// Submission indices whose runtime exceeded the watchdog timeout,
    /// sorted ascending. Flagged jobs still ran to completion (or failure)
    /// and their `results` entries are valid.
    pub slow: Vec<usize>,
    /// Execution attempts per job, in submission order (all ≥ 1; an entry
    /// > 1 means the job was retried).
    pub attempts: Vec<u32>,
}

impl<T> TryReport<T> {
    /// The failures, in submission order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.results.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Whether every job produced a value.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// Submission indices that needed more than one attempt (whether they
    /// eventually succeeded or not), sorted ascending.
    pub fn retried(&self) -> Vec<usize> {
        self.attempts
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total retry attempts across the campaign: attempts beyond each
    /// job's first.
    pub fn total_retries(&self) -> u64 {
        self.attempts.iter().map(|&a| u64::from(a) - 1).sum()
    }
}

/// Best-effort human-readable panic payload (`&str` / `String` payloads,
/// which is what `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs job `i` under `catch_unwind` with the policy's retry budget.
/// Returns the result plus the number of attempts actually made.
fn run_isolated<T, F, O>(
    i: usize,
    policy: &RetryPolicy,
    observer: &O,
    f: &F,
) -> (Result<T, JobFailure>, u32)
where
    F: Fn(usize) -> T + Sync,
    O: JobObserver + ?Sized,
{
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    for attempt in 1..=attempts {
        observer.on_started(i, attempt);
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => return (Ok(v), attempt),
            Err(payload) => {
                last = panic_message(payload.as_ref());
                if attempt < attempts {
                    observer.on_retried(i, attempt, &last);
                    if !policy.backoff.is_zero() {
                        std::thread::sleep(policy.backoff * attempt);
                    }
                }
            }
        }
    }
    observer.on_panicked(i, attempts, &last);
    (
        Err(JobFailure {
            index: i,
            attempts,
            message: last,
        }),
        attempts,
    )
}

/// The worker pool: runs `count` jobs on up to `jobs` workers (`jobs <= 1`
/// runs them inline on the caller's thread), isolating each job with
/// [`catch_unwind`]. A panicking job
/// records a [`JobFailure`] in its submission-order slot — it never aborts
/// the pool, and every other job still completes. Retries and the watchdog
/// timeout come from `policy`.
///
/// Results (and failures) land in submission order, so successful entries
/// are byte-identical to what a sequential run would produce.
pub fn try_par_map_indexed<T, F>(
    jobs: usize,
    count: usize,
    policy: &RetryPolicy,
    f: F,
) -> TryReport<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_par_map_indexed_observed(jobs, count, policy, &NoopObserver, f)
}

/// [`try_par_map_indexed`] with per-job lifecycle events delivered to
/// `observer` (see [`JobObserver`] for the event order). The observer is
/// purely a tap: results, ordering, and failure handling are identical to
/// the unobserved call.
pub fn try_par_map_indexed_observed<T, F, O>(
    jobs: usize,
    count: usize,
    policy: &RetryPolicy,
    observer: &O,
    f: F,
) -> TryReport<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: JobObserver + ?Sized,
{
    let jobs = jobs.max(1).min(count.max(1));
    let epoch = Instant::now();
    // starts[i] holds (millis since epoch) + 1 while job i is running; 0 =
    // not running. The watchdog samples these without stopping anyone.
    let starts: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
    let slow: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
    let attempts_made: Vec<AtomicU32> = (0..count).map(|_| AtomicU32::new(0)).collect();

    let flag_if_slow = |i: usize, elapsed: Duration| {
        if let Some(limit) = policy.watchdog {
            if elapsed > limit && !slow[i].swap(true, Ordering::SeqCst) {
                eprintln!(
                    "tartan-par: job {i} exceeded the {:.1}s watchdog ({:.1}s); still running to completion",
                    limit.as_secs_f64(),
                    elapsed.as_secs_f64()
                );
                observer.on_slow(i, elapsed);
            }
        }
    };

    let run_job = |i: usize, worker: usize| {
        observer.on_claimed(i, worker);
        let begun = epoch.elapsed();
        starts[i].store(begun.as_millis() as u64 + 1, Ordering::SeqCst);
        let (result, attempts) = run_isolated(i, policy, observer, &f);
        starts[i].store(0, Ordering::SeqCst);
        let elapsed = epoch.elapsed() - begun;
        // Post-completion check covers the sequential path (no watchdog
        // thread) and jobs that finished between watchdog ticks.
        flag_if_slow(i, elapsed);
        attempts_made[i].store(attempts, Ordering::SeqCst);
        observer.on_done(i, worker, elapsed.as_nanos() as u64, attempts, result.is_ok());
        result
    };

    let results: Vec<Result<T, JobFailure>> = if jobs <= 1 {
        (0..count).map(|i| run_job(i, 0)).collect()
    } else {
        let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if let Some(limit) = policy.watchdog {
                let (stop, starts, flag_if_slow) = (&stop, &starts, &flag_if_slow);
                scope.spawn(move || {
                    let tick = (limit / 4).min(Duration::from_millis(50)).max(Duration::from_millis(1));
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        let now = epoch.elapsed().as_millis() as u64;
                        for (i, s) in starts.iter().enumerate() {
                            let begun = s.load(Ordering::SeqCst);
                            if begun != 0 {
                                flag_if_slow(i, Duration::from_millis(now.saturating_sub(begun - 1)));
                            }
                        }
                    }
                });
            }
            let mut workers = Vec::with_capacity(jobs);
            for w in 0..jobs {
                let (run_job, slots, next) = (&run_job, &slots, &next);
                workers.push(scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = run_job(i, w);
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                }));
            }
            for w in workers {
                let _ = w.join();
            }
            stop.store(true, Ordering::SeqCst);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every job index was claimed by exactly one worker")
            })
            .collect()
    };

    let slow: Vec<usize> = slow
        .iter()
        .enumerate()
        .filter(|(_, s)| s.load(Ordering::SeqCst))
        .map(|(i, _)| i)
        .collect();
    let attempts = attempts_made
        .iter()
        .map(|a| a.load(Ordering::SeqCst).max(1))
        .collect();
    TryReport {
        results,
        slow,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        // Make early jobs slow so completion order inverts submission order.
        let out = par_map_indexed(4, 16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let seq = par_map_indexed(1, 100, work);
        for jobs in [2, 3, 4, 8, 100, 1000] {
            assert_eq!(par_map_indexed(jobs, 100, work), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        assert_eq!(par_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_borrows_items() {
        let items: Vec<String> = (0..10).map(|i| format!("job{i}")).collect();
        let out = par_map(3, &items, |s| s.len());
        assert_eq!(out, vec![4; 10]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let runs: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        par_map_indexed(8, 64, |i| runs[i].fetch_add(1, Ordering::SeqCst));
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn par_map_reraises_the_lowest_failure_after_every_job_ran() {
        for jobs in [1, 4] {
            let ran: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_indexed(jobs, 16, |i| {
                    ran[i].fetch_add(1, Ordering::SeqCst);
                    if i == 5 || i == 11 {
                        panic!("boom {i}");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("a failed job must panic the caller");
            assert_eq!(panic_message(payload.as_ref()), "boom 5", "jobs = {jobs}");
            for (i, r) in ran.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "jobs = {jobs}: job {i}");
            }
        }
    }

    #[test]
    fn jobs_flag_parses_and_strips() {
        let args: Vec<String> = ["--iters", "5", "--jobs", "3", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, rest) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 3);
        assert_eq!(rest, vec!["--iters", "5", "--out", "x"]);
        let (jobs, _) = parse_jobs_flag(&["--jobs=2".to_string()]).unwrap();
        assert_eq!(jobs, 2);
        // Absent or zero → auto.
        let (auto, _) = parse_jobs_flag(&[]).unwrap();
        assert!(auto >= 1);
        let (auto0, _) = parse_jobs_flag(&["--jobs=0".to_string()]).unwrap();
        assert_eq!(auto0, auto);
        assert!(parse_jobs_flag(&["--jobs".to_string()]).is_err());
        assert!(parse_jobs_flag(&["--jobs".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn duplicate_jobs_flag_last_wins() {
        let args: Vec<String> = ["--jobs", "2", "--jobs", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, rest) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 5);
        assert!(rest.is_empty());
        // Mixed spellings: the later `--jobs=N` still wins.
        let args: Vec<String> = ["--jobs", "7", "--jobs=3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, _) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 3);
    }

    #[test]
    fn empty_jobs_value_rejected() {
        let err = parse_jobs_flag(&["--jobs=".to_string()]).unwrap_err();
        assert!(err.contains("bad --jobs"), "got: {err}");
        let err =
            parse_jobs_flag(&["--jobs".to_string(), String::new()]).unwrap_err();
        assert!(err.contains("bad --jobs"), "got: {err}");
    }

    // One panicking job must still yield every other job's result — no
    // pool-wide abort, no poisoned-slot panic.
    #[test]
    fn one_panicking_job_spares_the_rest() {
        let report = try_par_map_indexed(4, 32, &RetryPolicy::default(), |i| {
            if i == 13 {
                panic!("injected failure in job {i}");
            }
            i * 2
        });
        assert_eq!(report.results.len(), 32);
        for (i, r) in report.results.iter().enumerate() {
            if i == 13 {
                let f = r.as_ref().unwrap_err();
                assert_eq!(f.index, 13);
                assert_eq!(f.attempts, 1);
                assert!(f.message.contains("injected failure"), "{}", f.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2, "job {i}");
            }
        }
        assert!(!report.all_ok());
        assert_eq!(report.failures().len(), 1);
        assert!(report.slow.is_empty());
    }

    #[test]
    fn k_failures_leave_n_minus_k_results() {
        let bad = [3usize, 7, 8, 20];
        for jobs in [1, 4] {
            let report = try_par_map_indexed(jobs, 24, &RetryPolicy::default(), |i| {
                if bad.contains(&i) {
                    panic!("boom {i}");
                }
                i
            });
            let failed: Vec<usize> =
                report.failures().iter().map(|f| f.index).collect();
            assert_eq!(failed, bad, "jobs = {jobs}");
            assert_eq!(
                report.results.iter().filter(|r| r.is_ok()).count(),
                24 - bad.len(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn retry_recovers_flaky_jobs() {
        use std::sync::atomic::AtomicU32;
        let tries: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
            watchdog: None,
        };
        let report = try_par_map_indexed(2, 8, &policy, |i| {
            // Every job fails its first two attempts, succeeds on the third.
            if tries[i].fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient {i}");
            }
            i + 100
        });
        assert!(report.all_ok());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i + 100);
            assert_eq!(tries[i].load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        use std::sync::atomic::AtomicU32;
        let tries = AtomicU32::new(0);
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
            watchdog: None,
        };
        let report = try_par_map_indexed(1, 1, &policy, |_| -> usize {
            tries.fetch_add(1, Ordering::SeqCst);
            panic!("always fails");
        });
        let f = report.results[0].as_ref().unwrap_err();
        assert_eq!(f.attempts, 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(f.message, "always fails");
    }

    #[test]
    fn watchdog_flags_but_never_kills() {
        let policy = RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
            watchdog: Some(Duration::from_millis(10)),
        };
        for jobs in [1, 3] {
            let report = try_par_map_indexed(jobs, 6, &policy, |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                i
            });
            assert!(report.all_ok(), "jobs = {jobs}: slow job must complete");
            assert_eq!(
                *report.results[2].as_ref().unwrap(),
                2,
                "jobs = {jobs}: flagged job's result is intact"
            );
            assert!(
                report.slow.contains(&2),
                "jobs = {jobs}: slow = {:?}",
                report.slow
            );
        }
    }

    #[test]
    fn try_results_preserve_submission_order() {
        let report = try_par_map_indexed(4, 16, &RetryPolicy::default(), |i| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(20 - 4 * i as u64));
            }
            i * 10
        });
        let values: Vec<usize> = report
            .results
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn try_empty_job_list() {
        let report =
            try_par_map_indexed(4, 0, &RetryPolicy::default(), |i| i);
        assert!(report.results.is_empty());
        assert!(report.slow.is_empty());
        assert!(report.attempts.is_empty());
        assert!(report.all_ok());
    }

    #[test]
    fn attempts_recorded_per_job() {
        use std::sync::atomic::AtomicU32;
        let tries: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
            watchdog: None,
        };
        let report = try_par_map_indexed(2, 6, &policy, |i| {
            // Job 2 needs two attempts, job 4 fails all three.
            let t = tries[i].fetch_add(1, Ordering::SeqCst);
            if (i == 2 && t < 1) || i == 4 {
                panic!("boom {i}");
            }
            i
        });
        assert_eq!(report.attempts, vec![1, 1, 2, 1, 3, 1]);
        assert_eq!(report.retried(), vec![2, 4]);
        assert_eq!(report.total_retries(), 3);
    }

    /// Counting observer used by the lifecycle tests.
    #[derive(Default)]
    struct CountingObserver {
        claimed: AtomicU64,
        started: AtomicU64,
        retried: AtomicU64,
        slow: AtomicU64,
        panicked: AtomicU64,
        done: AtomicU64,
        done_ok: AtomicU64,
        host_nanos: AtomicU64,
        max_worker: AtomicU64,
    }

    impl JobObserver for CountingObserver {
        fn on_claimed(&self, _i: usize, worker: usize) {
            self.claimed.fetch_add(1, Ordering::SeqCst);
            self.max_worker.fetch_max(worker as u64, Ordering::SeqCst);
        }
        fn on_started(&self, _i: usize, _attempt: u32) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn on_retried(&self, _i: usize, _attempt: u32, _message: &str) {
            self.retried.fetch_add(1, Ordering::SeqCst);
        }
        fn on_slow(&self, _i: usize, _elapsed: Duration) {
            self.slow.fetch_add(1, Ordering::SeqCst);
        }
        fn on_panicked(&self, _i: usize, _attempts: u32, _message: &str) {
            self.panicked.fetch_add(1, Ordering::SeqCst);
        }
        fn on_done(&self, _i: usize, _worker: usize, host_nanos: u64, _attempts: u32, ok: bool) {
            self.done.fetch_add(1, Ordering::SeqCst);
            if ok {
                self.done_ok.fetch_add(1, Ordering::SeqCst);
            }
            self.host_nanos.fetch_add(host_nanos, Ordering::SeqCst);
        }
    }

    // Satellite reconciliation: the observer's event counts must agree
    // with the TryReport the same campaign returns.
    #[test]
    fn observer_events_reconcile_with_report() {
        use std::sync::atomic::AtomicU32;
        let tries: Vec<AtomicU32> = (0..12).map(|_| AtomicU32::new(0)).collect();
        let policy = RetryPolicy {
            attempts: 2,
            backoff: Duration::ZERO,
            watchdog: Some(Duration::from_millis(10)),
        };
        for jobs in [1, 3] {
            tries.iter().for_each(|t| t.store(0, Ordering::SeqCst));
            let obs = CountingObserver::default();
            let report = try_par_map_indexed_observed(jobs, 12, &policy, &obs, |i| {
                let t = tries[i].fetch_add(1, Ordering::SeqCst);
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                if i == 7 || (i == 9 && t == 0) {
                    panic!("boom {i}");
                }
                i
            });
            assert_eq!(obs.claimed.load(Ordering::SeqCst), 12, "jobs = {jobs}");
            assert_eq!(obs.done.load(Ordering::SeqCst), 12, "jobs = {jobs}");
            assert_eq!(
                obs.done_ok.load(Ordering::SeqCst) as usize,
                report.results.iter().filter(|r| r.is_ok()).count(),
                "jobs = {jobs}"
            );
            assert_eq!(
                obs.started.load(Ordering::SeqCst),
                report.attempts.iter().map(|&a| u64::from(a)).sum::<u64>(),
                "jobs = {jobs}"
            );
            assert_eq!(
                obs.retried.load(Ordering::SeqCst),
                report.total_retries(),
                "jobs = {jobs}"
            );
            assert_eq!(
                obs.panicked.load(Ordering::SeqCst) as usize,
                report.failures().len(),
                "jobs = {jobs}"
            );
            assert_eq!(
                obs.slow.load(Ordering::SeqCst) as usize,
                report.slow.len(),
                "jobs = {jobs}"
            );
            assert!(report.slow.contains(&5), "jobs = {jobs}");
            assert!(
                obs.host_nanos.load(Ordering::SeqCst) >= 30_000_000,
                "jobs = {jobs}: per-job host time must cover the slow job"
            );
            assert!(
                (obs.max_worker.load(Ordering::SeqCst) as usize) < jobs.max(1),
                "jobs = {jobs}: worker ids stay in range"
            );
        }
    }

    #[test]
    fn observed_results_equal_unobserved() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(9);
        let plain = try_par_map_indexed(3, 40, &RetryPolicy::default(), work);
        let obs = CountingObserver::default();
        let observed =
            try_par_map_indexed_observed(3, 40, &RetryPolicy::default(), &obs, work);
        let a: Vec<u64> = plain.results.into_iter().map(|r| r.unwrap()).collect();
        let b: Vec<u64> = observed.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        assert_eq!(observed.attempts, vec![1; 40]);
    }
}
