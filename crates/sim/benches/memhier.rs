//! Microbenchmarks for the memory-hierarchy hot path: the per-line access
//! loop every simulated load/store takes through `MemorySystem::access`,
//! and the batched `MemRun` interface layered on top of it.
//!
//! Seven regimes bracket the cases that dominate real runs:
//!
//! * `l1_hit` — the pure fast path: a working set resident in the L1.
//! * `l2_hit_fcp` — L1 misses that land in the private L2 (FCP-indexed on
//!   Tartan configs).
//! * `dram_miss_stream` — the full-hierarchy miss: streaming accesses that
//!   walk L1 → L2 → L3 → DRAM and exercise fills, evictions, and
//!   writebacks.
//! * `prefetch_covered_stream` — a sequential stream under the next-line
//!   prefetcher, so most demand accesses find a timely in-flight line.
//! * `batch_unit_stride_run`, `batch_ovec_strided_run`,
//!   `batch_mixed_interleave` — the batched interface: a collapsing
//!   unit-stride run, OVEC oriented loads, and short runs interleaved with
//!   scalar accesses.
//!
//! Host wall time per iteration is the figure of merit; simulated cycles
//! are irrelevant here. `cargo bench -p tartan-sim` runs every regime and
//! prints one `memhier/<id>: X us/iter (N iters)` line each.

use std::hint::black_box;
use std::time::Instant;
use tartan_sim::{AccessKind, Machine, MachineConfig, MemPolicy, MemRun, MemorySystem};

/// Accesses per benchmark iteration, so per-line costs are measured over a
/// loop long enough to hide harness overhead.
const ACCESSES: u64 = 4096;

/// Runs `body` `iters` times and prints its mean wall time per iteration.
fn bench<R>(id: &str, iters: u64, mut body: impl FnMut() -> R) {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    let mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!(
        "memhier/{id}: {:.1} us/iter ({iters} iters)",
        mean_ns / 1000.0
    );
}

fn l1_hit() {
    let cfg = MachineConfig::upgraded_baseline();
    let mut mem = MemorySystem::new(&cfg);
    // A tiny working set: 8 lines, touched once to warm the L1.
    for i in 0..8u64 {
        mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, 0);
    }
    let mut now = 0u64;
    bench("l1_hit", 200, || {
        let mut worst = 0;
        for i in 0..ACCESSES {
            let addr = (i % 8) * 64;
            now += 1;
            worst |= mem.access(0, 1, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
        }
        worst
    });
}

fn l2_hit() {
    // Tartan config: the L2 runs FCP indexing, so this measures the
    // region/XOR index computation on every access.
    let cfg = MachineConfig::tartan();
    let mut mem = MemorySystem::new(&cfg);
    // A working set larger than the L1 but comfortably inside the L2:
    // 2048 lines striding past the L1 sets.
    let lines = 2048u64;
    let mut now = 0u64;
    for i in 0..lines {
        now += mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, now);
    }
    bench("l2_hit_fcp", 100, || {
        let mut worst = 0;
        for i in 0..ACCESSES {
            let addr = ((i * 97) % lines) * 64;
            now += 1;
            worst |= mem.access(0, 1, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
        }
        worst
    });
}

fn dram_miss() {
    let cfg = MachineConfig::upgraded_baseline();
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut next_line = 0u64;
    bench("dram_miss_stream", 50, || {
        let mut worst = 0;
        for _ in 0..ACCESSES {
            // Every access touches a never-seen line: full miss path,
            // with steady-state evictions once the hierarchy is warm.
            let addr = next_line * 64;
            next_line += 1;
            now += 1;
            worst |= mem.access(
                0,
                7,
                addr,
                4,
                if next_line.is_multiple_of(5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                MemPolicy::Normal,
                now,
            );
        }
        worst
    });
}

fn prefetch_covered() {
    let mut cfg = MachineConfig::upgraded_baseline();
    cfg.prefetcher = tartan_sim::PrefetcherKind::NextLine;
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut next_line = 0u64;
    bench("prefetch_covered_stream", 50, || {
        let mut worst = 0;
        for _ in 0..ACCESSES {
            let addr = next_line * 64;
            next_line += 1;
            // A compute gap gives prefetches time to land, so demand
            // accesses take the covered fast path.
            now += 400;
            worst |= mem.access(0, 7, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
        }
        worst
    });
}

fn batch_unit_stride() {
    // The batched interface's best case: one unit-stride run over a small
    // working set, where nearly every element collapses onto the previous
    // line (bulk L1-hit accounting instead of one `access` call each).
    let mut m = Machine::new(MachineConfig::upgraded_baseline());
    let buf = m.buffer_from_vec(vec![0.0f32; 4096], MemPolicy::Normal);
    let run = MemRun {
        base: buf.base_addr(),
        stride: 4,
        count: ACCESSES,
        bytes: 4,
        kind: AccessKind::Read,
        policy: MemPolicy::Normal,
        lead_instr: 3,
        dependent: false,
    };
    bench("batch_unit_stride_run", 100, || {
        m.run(|p| p.run_mem(7, &run));
        m.wall_cycles()
    });
}

fn batch_ovec_strided() {
    // OVEC oriented loads with a fractional stride — the ray-walk access
    // shape — through the fused zero-materialization lane fetch.
    let mut m = Machine::new(MachineConfig::tartan());
    let buf = m.buffer_from_vec(vec![0.0f32; 256 * 256], MemPolicy::Normal);
    bench("batch_ovec_strided_run", 100, || {
        m.run(|p| {
            let lanes = p.lanes();
            for block in 0..(ACCESSES as usize / lanes) {
                p.oriented_load_discard(
                    7,
                    buf.base_addr(),
                    100.0 + block as f64 * lanes as f64 * 257.3,
                    257.3,
                    lanes,
                    4,
                    256 * 256,
                    MemPolicy::Normal,
                );
            }
        });
        m.wall_cycles()
    });
}

fn batch_mixed_interleave() {
    // Realistic kernel shape: short scalar bursts (pose bookkeeping)
    // interleaved with medium address runs (a ray segment), exercising the
    // batch entry/exit overhead rather than the steady state.
    let mut m = Machine::new(MachineConfig::upgraded_baseline());
    let buf = m.buffer_from_vec(vec![0.0f32; 4096], MemPolicy::Normal);
    bench("batch_mixed_interleave", 100, || {
        m.run(|p| {
            for i in 0..(ACCESSES / 32) {
                let base = buf.base_addr() + (i % 64) * 64;
                p.read(7, base, 4, MemPolicy::Normal);
                p.flop(6);
                p.run_mem(
                    7,
                    &MemRun {
                        base,
                        stride: 4,
                        count: 30,
                        bytes: 4,
                        kind: AccessKind::Read,
                        policy: MemPolicy::Normal,
                        lead_instr: 8,
                        dependent: false,
                    },
                );
                p.write(7, base, 4, MemPolicy::Normal);
            }
        });
        m.wall_cycles()
    });
}

fn main() {
    l1_hit();
    l2_hit();
    dram_miss();
    prefetch_covered();
    batch_unit_stride();
    batch_ovec_strided();
    batch_mixed_interleave();
}
