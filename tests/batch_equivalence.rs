//! Differential validation of the batched address-stream interface
//! (`Proc::run_mem` / `Proc::run_mem_addrs` / `Buffer::{get_run,set_run}`):
//! a run must be *charge-for-charge identical* to the scalar loop it
//! replaces — same wall cycles, same `MachineStats`, same telemetry event
//! stream, byte for byte.
//!
//! Two sources of address streams:
//! * every checked-in oracle corpus trace (`tests/corpus/*.txt`), replayed
//!   op-for-op scalar vs. greedily coalesced into runs, and
//! * seeded random run-streams built to hammer the collapse fast path
//!   (same-line repeats) and every slow-path edge (line crossers, negative
//!   strides, dependent reads, write-through policies).
//!
//! Each comparison runs three times: with a full-interest sink attached
//! (the CACHE/TRACE interest disables the collapse, checking the exact slow
//! path and the event stream), bare (collapse active, checking the
//! bulk-accounting fast path against the scalar ground truth), and with a
//! FAULT-only sink (collapse active; under a fault plan this checks the
//! per-element spike draws and their event stamps).

use tartan::sim::telemetry::{shared, JsonLinesSink};
use tartan::sim::{
    AccessKind, FaultPlan, FaultStats, Interest, Machine, MachineConfig, MachineStats, MemPolicy,
    MemRun, Proc,
};
use tartan_oracle::{corpus, Op, XorShift};

/// Expands a run into the scalar loop the `MemRun` contract documents.
fn scalar_run(p: &mut Proc<'_>, pc: u64, run: &MemRun) {
    for i in 0..run.count {
        let addr = run.base.wrapping_add_signed(i as i64 * run.stride);
        p.instr(run.lead_instr);
        match (run.kind, run.dependent) {
            (AccessKind::Read, false) => p.read(pc, addr, run.bytes, run.policy),
            (AccessKind::Read, true) => p.read_dep(pc, addr, run.bytes, run.policy),
            (AccessKind::Write, _) => p.write(pc, addr, run.bytes, run.policy),
        }
    }
}

/// Runs `body` on a fresh machine, with a JSON-lines sink restricted to
/// `interest` unless it is empty, and returns (wall cycles, stats, fault
/// counters, serialized event stream).
fn measure(
    cfg: &MachineConfig,
    interest: Interest,
    body: impl FnOnce(&mut Proc<'_>),
) -> (u64, MachineStats, FaultStats, String) {
    let mut m = Machine::new(cfg.clone());
    let lines = (!interest.is_empty()).then(|| {
        // The full stream is uncapped; a restricted one stays far below the
        // default cap.
        let sink = if interest == Interest::all() {
            JsonLinesSink::with_limit(usize::MAX)
        } else {
            JsonLinesSink::with_interest(interest)
        };
        let (lines, sink) = shared(sink);
        m.set_telemetry(sink);
        lines
    });
    m.run(body);
    let events = lines
        .map(|l| {
            let guard = l.lock().unwrap();
            assert_eq!(guard.dropped(), 0, "event stream must not truncate");
            guard.contents().to_string()
        })
        .unwrap_or_default();
    (m.wall_cycles(), m.stats(), m.fault_stats(), events)
}

/// Asserts the scalar and batched executions of the same logical stream
/// are indistinguishable: fully traced, untraced, and with only fault
/// events subscribed.
fn assert_equivalent(
    label: &str,
    cfg: &MachineConfig,
    scalar: impl Fn(&mut Proc<'_>) + Copy,
    batched: impl Fn(&mut Proc<'_>) + Copy,
) {
    for interest in [Interest::all(), Interest::none(), Interest::FAULT] {
        let (sc, ss, sf, se) = measure(cfg, interest, scalar);
        let (bc, bs, bf, be) = measure(cfg, interest, batched);
        assert_eq!(sc, bc, "{label}: wall cycles ({interest:?})");
        assert_eq!(ss, bs, "{label}: machine stats ({interest:?})");
        assert_eq!(sf, bf, "{label}: fault stats ({interest:?})");
        assert_eq!(se, be, "{label}: event streams ({interest:?})");
    }
}

/// The per-op scalar replay used for corpus traces (single core; the
/// comparison is scalar-vs-batch, not sim-vs-golden, so multi-core cases
/// replay their full op list on core 0).
fn exec_scalar(p: &mut Proc<'_>, op: &Op) {
    match *op {
        Op::Read { pc, addr, bytes, .. } => p.read(pc, addr, bytes, MemPolicy::Normal),
        Op::Write { pc, addr, bytes, through, .. } => {
            let policy = if through { MemPolicy::WriteThrough } else { MemPolicy::Normal };
            p.write(pc, addr, bytes, policy);
        }
        Op::Ovec { pc, base, origin, orient, lanes, elem_bytes, max_elems, .. } => {
            let _ = p.oriented_load(pc, base, origin, orient, lanes, elem_bytes, max_elems, MemPolicy::Normal);
        }
        Op::Barrier => {}
    }
}

/// Coalescing key: ops may merge into one run only when every run-level
/// field agrees.
fn run_key(op: &Op) -> Option<(u64, u64, AccessKind, MemPolicy)> {
    match *op {
        Op::Read { pc, bytes, .. } => Some((pc, bytes, AccessKind::Read, MemPolicy::Normal)),
        Op::Write { pc, bytes, through, .. } => {
            let policy = if through { MemPolicy::WriteThrough } else { MemPolicy::Normal };
            Some((pc, bytes, AccessKind::Write, policy))
        }
        _ => None,
    }
}

fn op_addr(op: &Op) -> u64 {
    match *op {
        Op::Read { addr, .. } | Op::Write { addr, .. } => addr,
        _ => unreachable!("only scalar accesses carry a plain address"),
    }
}

/// Batched replay: greedily coalesce maximal adjacent scalar-access spans
/// sharing a run key into `run_mem_addrs` calls.
fn exec_batched(p: &mut Proc<'_>, ops: &[Op]) {
    let mut i = 0;
    let mut addrs = Vec::new();
    while i < ops.len() {
        match run_key(&ops[i]) {
            None => {
                exec_scalar(p, &ops[i]);
                i += 1;
            }
            Some(key) => {
                addrs.clear();
                let mut j = i;
                while j < ops.len() && run_key(&ops[j]) == Some(key) {
                    addrs.push(op_addr(&ops[j]));
                    j += 1;
                }
                let (pc, bytes, kind, policy) = key;
                p.run_mem_addrs(pc, &addrs, bytes, kind, policy, 0, false);
                i = j;
            }
        }
    }
}

#[test]
fn corpus_traces_replay_identically_through_runs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut cases = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = corpus::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        let cfg = case.config();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let ops = &case.ops;
        assert_equivalent(
            &name,
            &cfg,
            |p| {
                for op in ops {
                    exec_scalar(p, op);
                }
            },
            |p| exec_batched(p, ops),
        );
        cases += 1;
    }
    assert!(cases > 0, "corpus must contain at least one case");
}

/// One randomly generated logical stream: interleaved runs and loose
/// charges, biased toward small strides so the same-line collapse carries
/// most elements.
fn random_stream(seed: u64) -> Vec<(u64, MemRun)> {
    let mut rng = XorShift::new(seed);
    let mut out = Vec::new();
    for _ in 0..40 {
        let kind = if rng.chance(1, 3) { AccessKind::Write } else { AccessKind::Read };
        let dependent = kind == AccessKind::Read && rng.chance(1, 4);
        let policy = if kind == AccessKind::Write && rng.chance(1, 5) {
            MemPolicy::WriteThrough
        } else {
            MemPolicy::Normal
        };
        let stride = *rng.pick(&[0i64, 1, 4, 4, 4, 8, -4, 12, 64, -64]);
        let bytes = *rng.pick(&[1u64, 4, 4, 4, 8, 16]);
        out.push((
            0x9_0000 + rng.below(8),
            MemRun {
                // Unaligned bases force line-crossing elements.
                base: 0x1000 + rng.below(0x8000) + rng.below(3),
                stride,
                count: 1 + rng.below(48),
                bytes,
                kind,
                policy,
                lead_instr: rng.below(9),
                dependent,
            },
        ));
    }
    out
}

#[test]
fn seeded_random_run_streams_replay_identically() {
    for seed in 1..=6u64 {
        let stream = random_stream(seed);
        for cfg in [MachineConfig::upgraded_baseline(), MachineConfig::tartan()] {
            let label = format!("seed {seed}");
            assert_equivalent(
                &label,
                &cfg,
                |p| {
                    for (pc, run) in &stream {
                        scalar_run(p, *pc, run);
                        p.flop(3);
                    }
                },
                |p| {
                    for (pc, run) in &stream {
                        p.run_mem(*pc, run);
                        p.flop(3);
                    }
                },
            );
        }
    }
}

#[test]
fn fault_plan_run_streams_replay_identically() {
    // Latency spikes change no cache state, so same-line repeats still skip
    // the hierarchy walk under a fault plan; each must draw its spike in
    // scalar order, which the FAULT event stamps and counters check.
    for seed in 1..=4u64 {
        let stream = random_stream(seed);
        for (rate, cycles) in [(0.05, 40), (0.5, 7)] {
            for base in [MachineConfig::upgraded_baseline(), MachineConfig::tartan()] {
                let mut cfg = base;
                cfg.fault_plan = Some(FaultPlan::quiet(seed).with_mem_spikes(rate, cycles));
                let label = format!("seed {seed}, spike rate {rate}");
                let (_, _, faults, events) = measure(&cfg, Interest::FAULT, |p| {
                    for (pc, run) in &stream {
                        p.run_mem(*pc, run);
                    }
                });
                assert!(faults.injected > 0 && !events.is_empty(), "{label}: spikes must fire");
                assert_equivalent(
                    &label,
                    &cfg,
                    |p| {
                        for (pc, run) in &stream {
                            scalar_run(p, *pc, run);
                            p.flop(3);
                        }
                    },
                    |p| {
                        for (pc, run) in &stream {
                            p.run_mem(*pc, run);
                            p.flop(3);
                        }
                    },
                );
            }
        }
    }
}

#[test]
fn collapse_fast_path_actually_engages() {
    // Guard against the fast path silently never firing (which would make
    // the equivalence tests above vacuous for the bulk-accounting branch):
    // a unit-stride f32 run over a cold region must miss exactly once per
    // line and collapse every same-line repeat into an L1 hit.
    let cfg = MachineConfig::upgraded_baseline();
    let lines = (16u64 * 4).div_ceil(cfg.line_bytes);
    let mut m = Machine::new(cfg);
    m.run(|p| {
        p.run_mem(
            0x42,
            &MemRun {
                base: 0x40_000,
                stride: 4,
                count: 16,
                bytes: 4,
                kind: AccessKind::Read,
                policy: MemPolicy::Normal,
                lead_instr: 0,
                dependent: false,
            },
        );
    });
    let stats = m.stats();
    assert_eq!(stats.l1.accesses, 16);
    assert_eq!(stats.l1.hits, 16 - lines, "same-line repeats must collapse to L1 hits");
    assert_eq!(stats.l1.misses, lines, "each line's first touch is its only miss");
}
