//! Criterion benchmarks for the simulation engine itself.
//!
//! Full-run throughput with the calendar-queue scheduler (fast-forward)
//! on vs off, across the three regimes that stress it differently:
//! idle-heavy (long quiet stretches the queue jumps over),
//! contention-heavy (near-every-cycle activity, where scheduling must
//! cost ~nothing), and rollover-heavy (a tiny timestamp threshold keeps
//! the RCC rollover FSM — a global, every-component event source —
//! firing). Plus a microbench of the queue's own post/cancel/pop ops,
//! and the cost of quantum boundaries: the same run whole, and as a
//! parked `SliceRun` chain that checkpoints and verifies every boundary
//! the way rcc-serve does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::{EventQueue, SliceOutcome, SliceRun};
use rcc_workloads::{Benchmark, Scale};

fn engine_fast_forward(c: &mut Criterion) {
    let scale = Scale::quick();
    let mut rollover_cfg = GpuConfig::small();
    // Hardware rolls a 32-bit timestamp over ~never; a tiny threshold
    // makes the global flush FSM a first-class event source.
    rollover_cfg.rcc.rollover_threshold = 4096;
    // bh's barrier phases leave the machine idle between bursts;
    // hsp keeps every core streaming so almost no cycle is skippable.
    for (label, bench, cfg) in [
        ("idle-heavy/bh", Benchmark::Bh, GpuConfig::small()),
        ("contention/hsp", Benchmark::Hsp, GpuConfig::small()),
        ("rollover/hsp", Benchmark::Hsp, rollover_cfg),
    ] {
        let wl = bench.generate(&cfg, &scale, 7);
        let mut group = c.benchmark_group(format!("engine/{label}"));
        group.sample_size(10);
        for (name, ff) in [("ff-on", true), ("ff-off", false)] {
            let mut opts = SimOptions::fast();
            opts.fast_forward = ff;
            group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
                b.iter(|| simulate(ProtocolKind::RccSc, &cfg, &wl, opts).cycles)
            });
        }
        group.finish();
    }
}

// The queue's three hot operations, at the GTX 480's slot count (16
// cores + 16 L1s + 2 NoC directions + 8 × (bank, inbox, delay pipe,
// DRAM channel) + rollover = 67). A set-arm over an armed slot is the
// cancel path (the slot moves between wheel buckets); `pop` is a run
// loop's step: `next_wake`, `advance_to` the wake, then a phase-style
// visit of the due set.
fn event_queue_ops(c: &mut Criterion) {
    const COMPS: usize = 67;
    let mut group = c.benchmark_group("sched/queue");
    // Deterministic wake pattern; an LCG stands in for arrival jitter.
    let lcg = |s: &mut u64| {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    };
    group.bench_function("post", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            q.advance_to(now);
            for comp in 0..COMPS {
                q.arm_min(comp, now + 1 + lcg(&mut seed) % 512);
            }
        });
    });
    group.bench_function("cancel", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            q.advance_to(now);
            for comp in 0..COMPS {
                q.arm_at(comp, now + 1 + lcg(&mut seed) % 512);
                q.arm_at(comp, now + 1 + lcg(&mut seed) % 512);
            }
        });
    });
    group.bench_function("pop", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        let mut now = 0u64;
        b.iter(|| {
            for comp in 0..COMPS {
                q.arm_at(comp, now + 1 + lcg(&mut seed) % 512);
            }
            let mut sum = 0u64;
            while let Some(wake) = q.next_wake() {
                sum += wake;
                now = wake;
                q.advance_to(now);
                // Retire every component due at the popped horizon so
                // the drain terminates.
                let mut from = 0;
                while let Some(comp) = q.first_due(from, COMPS) {
                    q.take_due(comp);
                    from = comp + 1;
                }
            }
            sum
        });
    });
    group.finish();
}

// dlb at standard scale on the 8-core small machine, the size of an
// rcc-serve job: the direct run against a chain of 30k-cycle slices on
// one parked machine, each boundary checkpointed and then verified as
// the worker does before the next slice. The gap is the per-boundary
// cost (one state digest per boundary).
fn slice_boundary(c: &mut Criterion) {
    let cfg = GpuConfig {
        num_cores: 8,
        ..GpuConfig::small()
    };
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::standard(), 7);
    let direct = SimOptions::fast();
    let sliced = SimOptions {
        quantum: 30_000,
        ..SimOptions::fast()
    };
    let mut group = c.benchmark_group("slice_boundary/dlb-standard-8c");
    group.sample_size(10);
    group.bench_function("direct", |b| {
        b.iter(|| simulate(ProtocolKind::RccSc, &cfg, &wl, &direct).cycles)
    });
    group.bench_function("q30k-chain", |b| {
        b.iter(|| {
            let mut run = SliceRun::start(ProtocolKind::RccSc, &cfg, wl.clone(), &sliced);
            loop {
                match run.next_slice().expect("slice") {
                    SliceOutcome::Finished(m) => break m.cycles,
                    SliceOutcome::Preempted { ck, .. } => run.verify(&ck).expect("parked run"),
                }
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    engine_fast_forward,
    event_queue_ops,
    slice_boundary
);
criterion_main!(benches);
