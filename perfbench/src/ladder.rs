//! Layer-ladder rungs: host cost of single simulator and trainer
//! operations, timed through their public functions. Each rung reports
//! the median over several samples, so one preempted sample does not
//! move it.

use std::hint::black_box;
use std::time::Instant;

use tartan::nn::{Activation, Loss, Mlp, Topology, Trainer};
use tartan::robots::Scale;
use tartan::sim::{AccessKind, Machine, MachineConfig, MemPolicy, MemRun, MemorySystem};

use crate::median;

/// Accesses per sample, as in `crates/sim/benches/memhier.rs`.
const ACCESSES: u64 = 4096;
/// Samples per memory rung.
const SAMPLES: usize = 41;
/// `Trainer::fit` calls timed by the training rung.
const FITS: usize = 5;

/// Median nanos per element of `sample`, which performs `ACCESSES` elements.
fn ns_per_elem(mut sample: impl FnMut()) -> f64 {
    median(
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                sample();
                t.elapsed().as_nanos() as f64 / ACCESSES as f64
            })
            .collect(),
    )
}

/// `MemorySystem::access` on a working set resident in the L1.
fn l1_hit() -> f64 {
    let mut mem = MemorySystem::new(&MachineConfig::upgraded_baseline());
    for i in 0..8u64 {
        mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, 0);
    }
    let mut now = 0u64;
    ns_per_elem(|| {
        let mut worst = 0;
        for i in 0..ACCESSES {
            now += 1;
            worst |= mem.access(
                0,
                1,
                (i % 8) * 64,
                4,
                AccessKind::Read,
                MemPolicy::Normal,
                now,
            );
        }
        black_box(worst);
    })
}

/// `MemorySystem::access` on L1 misses that hit the FCP-indexed L2.
fn l2_hit_fcp() -> f64 {
    let mut mem = MemorySystem::new(&MachineConfig::tartan());
    let lines = 2048u64;
    let mut now = 0u64;
    for i in 0..lines {
        now += mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, now);
    }
    ns_per_elem(|| {
        let mut worst = 0;
        for i in 0..ACCESSES {
            now += 1;
            let addr = ((i * 97) % lines) * 64;
            worst |= mem.access(0, 1, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
        }
        black_box(worst);
    })
}

/// `MemorySystem::access` on never-seen lines: the full miss path.
fn dram_miss() -> f64 {
    let mut mem = MemorySystem::new(&MachineConfig::upgraded_baseline());
    let mut now = 0u64;
    let mut next_line = 0u64;
    ns_per_elem(|| {
        let mut worst = 0;
        for _ in 0..ACCESSES {
            next_line += 1;
            now += 1;
            let kind = if next_line.is_multiple_of(5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            worst |= mem.access(0, 7, next_line * 64, 4, kind, MemPolicy::Normal, now);
        }
        black_box(worst);
    })
}

/// `Proc::run_mem` on one unit-stride run over a small working set.
fn memrun() -> f64 {
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
    ns_per_elem(|| {
        m.run(|p| p.run_mem(7, &run));
        black_box(m.wall_cycles());
    })
}

/// Median milliseconds of `Trainer::fit` at PatrolBot's small-scale
/// detector shape. Each call trains on fresh data, so the trainer's
/// memo never serves it.
fn fit_ms() -> f64 {
    let scale = Scale::small();
    let (h1, h2) = scale.patrol_hidden;
    let k = scale.pca_k;
    let topo = Topology::new(&[k, h1, h2, 1]);
    let mut state = 0x5EED_u64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    median(
        (0..FITS)
            .map(|_| {
                let inputs: Vec<Vec<f32>> =
                    (0..160).map(|_| (0..k).map(|_| draw()).collect()).collect();
                let labels: Vec<Vec<f32>> = inputs
                    .iter()
                    .map(|x| vec![if x[0] > 0.5 { 1.0 } else { 0.0 }])
                    .collect();
                let mut mlp = Mlp::new(&topo, 0x77);
                mlp.set_output_activation(Activation::Sigmoid);
                let trainer = Trainer::new(Loss::Bce)
                    .learning_rate(0.1)
                    .epochs(scale.train_epochs);
                let t = Instant::now();
                black_box(trainer.fit(&mut mlp, &inputs, &labels));
                t.elapsed().as_nanos() as f64 / 1e6
            })
            .collect(),
    )
}

/// Every rung: `(metric name, value)`.
pub fn run() -> Vec<(&'static str, f64)> {
    vec![
        ("sim.access_ns.l1_hit", l1_hit()),
        ("sim.access_ns.l2_hit_fcp", l2_hit_fcp()),
        ("sim.access_ns.dram_miss", dram_miss()),
        ("sim.memrun_ns_per_elem", memrun()),
        ("nn.fit_ms", fit_ms()),
    ]
}
