//! Property-based tests for the crossbar network.

use proptest::prelude::*;
use rcc_chaos::{ChaosProfile, ChaosSpec, PerturbPoint, Perturber, Site};
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_noc::Network;

/// Every packet due by `now`, in delivery order.
fn delivered<T>(net: &mut Network<T>, now: Cycle) -> Vec<(usize, T)> {
    let mut out = Vec::new();
    net.deliver(now, &mut out);
    out
}

/// The crossbar's timing written out independently of the network: the
/// cycle each packet is delivered, from injection and ejection port
/// serialization, the traversal latency, and the chaos jitter drawn in
/// injection order.
struct TimingModel {
    cycles_per_flit: u64,
    traversal: u64,
    src_free_at: Vec<u64>,
    dst_free_at: Vec<u64>,
    chaos: Option<Perturber>,
}

impl TimingModel {
    fn delivery_cycle(&mut self, now: u64, src: usize, dst: usize, flits: u64) -> u64 {
        let serialized = self.src_free_at[src].max(now) + flits * self.cycles_per_flit;
        self.src_free_at[src] = serialized;
        let jitter = self
            .chaos
            .as_mut()
            .map_or(0, |c| c.jitter(Site::NocTraversal));
        let at_output = serialized + self.traversal + jitter;
        let delivered = self.dst_free_at[dst].max(at_output) + flits * self.cycles_per_flit;
        self.dst_free_at[dst] = delivered;
        delivered
    }
}

/// Delivers at `now` into `output` and checks the call against the
/// `(delivery cycle, injection index, destination)` of every packet
/// injected so far: it returns exactly the packets due by `now`, and
/// `next_event` is then the earliest pending delivery.
fn poll(
    net: &mut Network<usize>,
    now: u64,
    expected: &[(u64, usize, usize)],
    output: &mut Vec<(usize, usize)>,
) {
    net.deliver(Cycle(now), output);
    let due = expected.iter().filter(|(at, _, _)| *at <= now).count();
    assert_eq!(output.len(), due, "delivered by cycle {now}");
    let pending = expected
        .iter()
        .map(|(at, _, _)| *at)
        .filter(|at| *at > now)
        .min();
    assert_eq!(net.next_event(), pending.map(Cycle), "after cycle {now}");
}

proptest! {
    /// Every injected packet is delivered exactly once, to the right
    /// destination, and per-(src,dst) pairs arrive in injection order.
    #[test]
    fn exactly_once_in_order_delivery(
        packets in prop::collection::vec((0usize..4, 0usize..3, 1u64..40), 1..100),
    ) {
        let cfg = GpuConfig::small();
        let mut net: Network<(usize, usize, usize)> = Network::new(&cfg.noc, 4, 3, 2);
        for (i, (src, dst, flits)) in packets.iter().enumerate() {
            net.inject(Cycle(i as u64), *src, *dst, 0, *flits, (*src, *dst, i));
        }
        let got = delivered(&mut net, Cycle(u64::MAX / 2));
        prop_assert_eq!(got.len(), packets.len());
        prop_assert!(net.is_empty());
        let mut last_index = std::collections::HashMap::new();
        for (dst, (s, d, i)) in got {
            prop_assert_eq!(dst, d);
            if let Some(p) = last_index.insert((s, d), i) {
                prop_assert!(i > p, "per-pair FIFO violated");
            }
        }
    }

    /// Injections at random cycles to four destinations, interleaved with
    /// deliveries at random increasing cycles: the concatenated output is
    /// the packets sorted by (delivery cycle, injection index), each call
    /// returns exactly the packets due by its cycle, and afterwards
    /// `next_event` is the earliest pending delivery. With and without
    /// chaos jitter, which perturbs the cross-destination order.
    #[test]
    fn deliveries_merge_by_cycle_then_injection_order(
        steps in prop::collection::vec(
            (0u64..30, 0u8..4, 0usize..4, 0usize..4, 1u64..40),
            1..150,
        ),
        jitter_seed in 0u64..4,
    ) {
        let cfg = GpuConfig::small();
        let mut net: Network<usize> = Network::new(&cfg.noc, 4, 4, 2);
        let cpf = cfg.noc.core_cycles_per_noc_cycle;
        let mut model = TimingModel {
            cycles_per_flit: cpf,
            traversal: cfg.noc.traversal_latency * cpf,
            src_free_at: vec![0; 4],
            dst_free_at: vec![0; 4],
            chaos: None,
        };
        // Seed 0 runs clean; the others jitter every packet.
        if jitter_seed > 0 {
            let mut always = ChaosProfile::heavy();
            always.noc_jitter_p = 1.0;
            let spec = ChaosSpec::new(jitter_seed, always);
            net.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
            model.chaos = Some(Perturber::standalone(&spec, 0));
        }
        // (delivery cycle, injection index, destination) per packet.
        let mut expected: Vec<(u64, usize, usize)> = Vec::new();
        let mut output: Vec<(usize, usize)> = Vec::new();
        let mut now = 0u64;
        for &(gap, kind, src, dst, flits) in &steps {
            now += gap;
            if kind == 0 {
                poll(&mut net, now, &expected, &mut output);
            } else {
                let i = expected.len();
                expected.push((model.delivery_cycle(now, src, dst, flits), i, dst));
                net.inject(Cycle(now), src, dst, 0, flits, i);
            }
        }
        let last = expected.iter().map(|(at, _, _)| *at).max().unwrap_or(now);
        poll(&mut net, last.max(now), &expected, &mut output);
        prop_assert!(net.is_empty());
        expected.sort_unstable();
        let order: Vec<(usize, usize)> = expected.iter().map(|&(_, i, dst)| (dst, i)).collect();
        prop_assert_eq!(output, order);
    }

    /// Delivery never happens before the zero-load latency.
    #[test]
    fn latency_lower_bound(flits in 1u64..64, start in 0u64..1000) {
        let cfg = GpuConfig::small();
        let mut net: Network<u8> = Network::new(&cfg.noc, 2, 2, 2);
        net.inject(Cycle(start), 0, 1, 0, flits, 1);
        let cpf = cfg.noc.core_cycles_per_noc_cycle;
        let min = start + flits * cpf + cfg.noc.traversal_latency * cpf + flits * cpf;
        prop_assert!(delivered(&mut net, Cycle(min - 1)).is_empty());
        prop_assert_eq!(delivered(&mut net, Cycle(min)).len(), 1);
    }
}
