//! Criterion microbenchmarks on the substrate data structures.

use criterion::{criterion_group, criterion_main, Criterion};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_common::Pcg32;

fn tag_array(c: &mut Criterion) {
    use rcc_mem::{LineData, TagArray};
    let mut group = c.benchmark_group("tag_array");
    group.bench_function("fill+probe 64-set/8-way", |b| {
        b.iter(|| {
            let mut tags: TagArray<u64> = TagArray::new(64, 8);
            let mut rng = Pcg32::seeded(1);
            for _ in 0..4096 {
                let line = LineAddr(rng.below(2048));
                if tags.probe(line).is_none() {
                    let _ = tags.fill(line, 0, LineData::zeroed(), false, |_, _| true);
                }
            }
            tags.len()
        })
    });
    group.finish();
}

fn dram_channel(c: &mut Criterion) {
    use rcc_dram::DramChannel;
    let cfg = GpuConfig::gtx480();
    let mut group = c.benchmark_group("dram");
    group.bench_function("fr-fcfs 1k requests", |b| {
        b.iter(|| {
            let mut ch = DramChannel::new(&cfg.dram);
            let mut rng = Pcg32::seeded(2);
            let mut done = 0;
            for i in 0..1000u64 {
                ch.enqueue(Cycle(i * 3), LineAddr(rng.below(1 << 16)), rng.chance(0.3));
            }
            let mut t = 0;
            while ch.pending() > 0 {
                t += 1;
                done += ch.tick(Cycle(3000 + t)).len();
            }
            done
        })
    });
    group.finish();
}

fn network(c: &mut Criterion) {
    use rcc_noc::Network;
    let cfg = GpuConfig::gtx480();
    let mut group = c.benchmark_group("noc");
    group.bench_function("xbar 10k packets", |b| {
        b.iter(|| {
            let mut net: Network<u64> = Network::new(&cfg.noc, 16, 8, 2);
            let mut rng = Pcg32::seeded(3);
            let mut arrived = Vec::new();
            let mut delivered = 0;
            for i in 0..10_000u64 {
                net.inject(
                    Cycle(i),
                    rng.below(16) as usize,
                    rng.below(8) as usize,
                    0,
                    if rng.chance(0.3) { 34 } else { 2 },
                    i,
                );
                net.deliver(Cycle(i), &mut arrived);
                delivered += arrived.len();
                arrived.clear();
            }
            net.deliver(Cycle(10_000_000), &mut arrived);
            delivered + arrived.len()
        })
    });
    group.finish();
}

fn rcc_protocol_fsm(c: &mut Criterion) {
    use rcc_common::ids::{CoreId, PartitionId, WarpId};
    use rcc_core::msg::{Access, AccessKind};
    use rcc_core::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox, Protocol};
    use rcc_core::rcc::RccProtocol;
    let cfg = GpuConfig::small();
    let protocol = RccProtocol::sequential(&cfg);
    let mut group = c.benchmark_group("rcc_fsm");
    group.bench_function("l1+l2 10k ops", |b| {
        b.iter(|| {
            let mut l1 = protocol.make_l1(CoreId(0), &cfg);
            let mut l2 = protocol.make_l2(PartitionId(0), &cfg);
            let mut rng = Pcg32::seeded(4);
            let mut completions = 0;
            for i in 0..10_000u64 {
                let cycle = Cycle(i);
                let addr = LineAddr(rng.below(64)).word(0);
                let kind = if rng.chance(0.7) {
                    AccessKind::Load
                } else {
                    AccessKind::Store { value: i }
                };
                let mut out = L1Outbox::new();
                let _ = l1.access(
                    cycle,
                    Access {
                        warp: WarpId((i % 8) as usize),
                        addr,
                        kind,
                    },
                    &mut out,
                );
                for req in out.to_l2 {
                    let mut l2out = L2Outbox::new();
                    let _ = l2.handle_req(cycle, req, &mut l2out);
                    for line in l2out.dram_fetch {
                        let mut fill = L2Outbox::new();
                        l2.handle_dram(cycle, line, Box::default(), &mut fill);
                        for resp in fill.to_l1 {
                            let mut o = L1Outbox::new();
                            l1.handle_resp(cycle, resp, &mut o);
                            completions += o.completions.len();
                        }
                    }
                    for resp in l2out.to_l1 {
                        let mut o = L1Outbox::new();
                        l1.handle_resp(cycle, resp, &mut o);
                        completions += o.completions.len();
                    }
                }
            }
            completions
        })
    });
    group.finish();
}

criterion_group!(benches, tag_array, dram_channel, network, rcc_protocol_fsm);
criterion_main!(benches);
