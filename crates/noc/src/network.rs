//! Timed network: crossbar or 2D mesh, selected by
//! [`NocParams::topology`].
//!
//! Both topologies model injection/ejection serialization and per-packet
//! traversal latency; the mesh additionally scales latency and energy
//! with the XY hop count between the source and destination tiles
//! (cores and L2 partitions interleaved over a near-square grid).
//! Per-(src,dst) FIFO delivery holds in both cases, which every protocol
//! in this suite relies on.
//!
//! Ejection-port serialization makes delivery cycles non-decreasing per
//! destination in injection order, so in-flight packets wait in one FIFO
//! *lane* per destination, and delivery merges the lane heads by
//! `(delivery cycle, injection order)`.

use rcc_chaos::{PerturbPoint, Site};
use rcc_common::config::{NocParams, NocTopology};
use rcc_common::snap::StateDigest;
use rcc_common::time::Cycle;
use std::collections::VecDeque;

/// A packet in flight in its destination's lane (internal).
struct InFlight<T> {
    deliver_at: u64,
    /// Monotonic tiebreaker so equal-time deliveries keep injection order.
    order: u64,
    payload: T,
}

impl<T> InFlight<T> {
    /// The delivery order across lanes.
    fn key(&self) -> (u64, u64) {
        (self.deliver_at, self.order)
    }
}

/// Tile coordinates of every endpoint on a near-square grid, for the
/// mesh topology. Sources occupy tiles `0..num_srcs` and destinations
/// the following tiles, row-major.
#[derive(Debug, Clone)]
struct MeshMap {
    width: usize,
    src_base: usize,
    dst_base: usize,
    /// Per-hop latency in core cycles (router pipeline + link).
    per_hop: u64,
}

impl MeshMap {
    fn new(num_srcs: usize, num_dsts: usize, per_hop: u64) -> Self {
        let nodes = num_srcs + num_dsts;
        let width = (nodes as f64).sqrt().ceil() as usize;
        MeshMap {
            width: width.max(1),
            src_base: 0,
            dst_base: num_srcs,
            per_hop: per_hop.max(1),
        }
    }

    fn coords(&self, tile: usize) -> (i64, i64) {
        ((tile % self.width) as i64, (tile / self.width) as i64)
    }

    /// XY hop count from source `src` to destination `dst` (≥ 1).
    fn hops(&self, src: usize, dst: usize) -> u64 {
        let (sx, sy) = self.coords(self.src_base + src);
        let (dx, dy) = self.coords(self.dst_base + dst);
        ((sx - dx).unsigned_abs() + (sy - dy).unsigned_abs()).max(1)
    }
}

/// One direction of the interconnect: `num_srcs` injection ports,
/// `num_dsts` ejection ports, each serializing one flit per NoC cycle.
pub struct Network<T> {
    /// Core cycles per flit on a port.
    cycles_per_flit: u64,
    /// Crossbar traversal latency in core cycles.
    traversal: u64,
    mesh: Option<MeshMap>,
    num_vcs: usize,
    src_free_at: Vec<u64>,
    dst_free_at: Vec<u64>,
    /// One FIFO per destination, ordered by delivery cycle (ejection
    /// serialization never lets a later packet overtake).
    lanes: Vec<VecDeque<InFlight<T>>>,
    next_order: u64,
    /// Chaos hook: adds bounded jitter to a packet's traversal latency
    /// (`Site::NocTraversal`). Applied *before* ejection-port
    /// serialization, so per-(src,dst) FIFO — which the protocols rely
    /// on — is preserved; only cross-flow arrival order is perturbed.
    chaos: Option<Box<dyn PerturbPoint>>,
    // Statistics.
    flits_injected: u64,
    packets_injected: u64,
    /// Flit × hop products (= flits for the crossbar) — the quantity
    /// dynamic NoC energy scales with.
    flit_hops: u64,
    total_packet_latency: u64,
    peak_in_flight: usize,
}

impl<T> Network<T> {
    /// Creates a network with `num_srcs` sources, `num_dsts` destinations
    /// and `num_vcs` virtual channels per port.
    pub fn new(params: &NocParams, num_srcs: usize, num_dsts: usize, num_vcs: usize) -> Self {
        let mesh = match params.topology {
            NocTopology::Crossbar => None,
            NocTopology::Mesh => {
                // Split the crossbar's lumped traversal latency into a
                // per-hop cost over the mesh diameter, so the two
                // topologies have comparable average zero-load latency.
                let nodes = num_srcs + num_dsts;
                let width = (nodes as f64).sqrt().ceil() as u64;
                let per_hop = (params.traversal_latency * params.core_cycles_per_noc_cycle
                    / width.max(1))
                .max(1);
                Some(MeshMap::new(num_srcs, num_dsts, per_hop))
            }
        };
        Network {
            cycles_per_flit: params.core_cycles_per_noc_cycle,
            traversal: params.traversal_latency * params.core_cycles_per_noc_cycle,
            mesh,
            num_vcs,
            src_free_at: vec![0; num_srcs],
            dst_free_at: vec![0; num_dsts],
            lanes: (0..num_dsts).map(|_| VecDeque::new()).collect(),
            next_order: 0,
            chaos: None,
            flits_injected: 0,
            packets_injected: 0,
            flit_hops: 0,
            total_packet_latency: 0,
            peak_in_flight: 0,
        }
    }

    /// Number of virtual channels (for energy accounting).
    pub fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    /// Installs a perturbation hook (see [`Site::NocTraversal`]).
    pub fn set_chaos(&mut self, hook: Box<dyn PerturbPoint>) {
        self.chaos = Some(hook);
    }

    /// Injects a packet of `flits` flits from `src` to `dst` on `vc`.
    /// The virtual channel affects statistics only; see the module docs.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        _vc: usize,
        flits: u64,
        payload: T,
    ) {
        let start = self.src_free_at[src].max(now.raw());
        let serialized = start + flits * self.cycles_per_flit;
        self.src_free_at[src] = serialized;
        let (traversal, hops) = match &self.mesh {
            None => (self.traversal, 1),
            Some(m) => {
                let hops = m.hops(src, dst);
                (hops * m.per_hop, hops)
            }
        };
        let jitter = match &mut self.chaos {
            Some(c) => c.jitter(Site::NocTraversal),
            None => 0,
        };
        let at_output = serialized + traversal + jitter;
        let delivered = self.dst_free_at[dst].max(at_output) + flits * self.cycles_per_flit;
        self.dst_free_at[dst] = delivered;
        self.flits_injected += flits;
        self.flit_hops += flits * hops;
        self.packets_injected += 1;
        self.total_packet_latency += delivered - now.raw();
        self.lanes[dst].push_back(InFlight {
            deliver_at: delivered,
            order: self.next_order,
            payload,
        });
        self.next_order += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight());
    }

    /// Moves every packet whose delivery time has arrived into `out`
    /// (appended, so a caller can reuse one buffer), as `(dst, payload)`
    /// pairs in delivery order: by delivery cycle, then injection order.
    pub fn deliver(&mut self, now: Cycle, out: &mut Vec<(usize, T)>) {
        let now = now.raw();
        loop {
            let mut best: Option<(usize, (u64, u64))> = None;
            for (dst, lane) in self.lanes.iter().enumerate() {
                if let Some(head) = lane.front() {
                    if head.deliver_at <= now && best.is_none_or(|(_, key)| head.key() < key) {
                        best = Some((dst, head.key()));
                    }
                }
            }
            let Some((dst, _)) = best else {
                return;
            };
            let p = self.lanes[dst].pop_front().expect("a lane head");
            out.push((dst, p.payload));
        }
    }

    /// Earliest pending delivery time, if any (lets the simulator skip
    /// idle cycles).
    pub fn next_event(&self) -> Option<Cycle> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.front().map(|p| p.deliver_at))
            .min()
            .map(Cycle)
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// High-water mark of packets simultaneously in flight — the
    /// VC-queue-depth figure the time-series sampler records.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Total flits injected so far.
    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    /// Total flit×hop products (equals [`Self::flits_injected`] on the
    /// crossbar) — what dynamic interconnect energy scales with.
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Total packets injected so far.
    pub fn packets_injected(&self) -> u64 {
        self.packets_injected
    }

    /// Mean end-to-end packet latency in core cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.packets_injected == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.packets_injected as f64
        }
    }

    /// Folds the network's full state — port serialization horizons, the
    /// set of in-flight packets (payloads included), the chaos stream,
    /// and statistics — into a cross-component state digest.
    pub fn digest_state(&self, d: &mut StateDigest)
    where
        T: std::fmt::Debug,
    {
        d.write_u64(self.cycles_per_flit);
        d.write_u64(self.traversal);
        d.write_u64(self.num_vcs as u64);
        d.write_debug(&self.src_free_at);
        d.write_debug(&self.dst_free_at);
        d.write_u64(self.next_order);
        // Fold the packets order-independently: the digest reflects the
        // *set* of in-flight packets, not how they are queued.
        let mut acc: u64 = 0;
        for (dst, lane) in self.lanes.iter().enumerate() {
            for p in lane {
                let mut e = StateDigest::new();
                e.write_u64(p.deliver_at);
                e.write_u64(p.order);
                e.write_u64(dst as u64);
                e.write_debug(&p.payload);
                acc ^= e.finish();
            }
        }
        d.write_u64(acc);
        if let Some(c) = &self.chaos {
            d.write_debug(c);
        }
        d.write_u64(self.flits_injected);
        d.write_u64(self.packets_injected);
        d.write_u64(self.flit_hops);
        d.write_u64(self.total_packet_latency);
        d.write_u64(self.peak_in_flight as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::config::GpuConfig;

    /// Every packet due by `now`, in delivery order.
    fn delivered<T>(n: &mut Network<T>, now: Cycle) -> Vec<(usize, T)> {
        let mut out = Vec::new();
        n.deliver(now, &mut out);
        out
    }

    fn net() -> Network<u32> {
        // small(): 2 core cycles/flit, traversal 6 NoC cycles = 12 core.
        Network::new(&GpuConfig::small().noc, 4, 2, 2)
    }

    #[test]
    fn zero_load_latency_is_serialization_plus_traversal() {
        let mut n = net();
        n.inject(Cycle(0), 0, 1, 0, 2, 7);
        // 2 flits × 2 + 12 + 2 flits × 2 = 20.
        assert!(delivered(&mut n, Cycle(19)).is_empty());
        let got = delivered(&mut n, Cycle(20));
        assert_eq!(got, vec![(1, 7)]);
        assert!(n.is_empty());
    }

    #[test]
    fn src_port_serializes_packets() {
        let mut n = net();
        n.inject(Cycle(0), 0, 0, 0, 10, 1);
        n.inject(Cycle(0), 0, 1, 0, 10, 2);
        // Second packet starts only after the first's 20 cycles of flits.
        let first = n.next_event().unwrap();
        let all = delivered(&mut n, Cycle(1000));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, 1);
        assert_eq!(all[1].1, 2);
        assert!(first >= Cycle(10 * 2 + 12 + 10 * 2));
    }

    #[test]
    fn different_sources_proceed_in_parallel() {
        let mut n = net();
        n.inject(Cycle(0), 0, 0, 0, 4, 1);
        n.inject(Cycle(0), 1, 1, 0, 4, 2);
        // Both delivered at the same zero-load time (no shared port).
        let t = 4 * 2 + 12 + 4 * 2;
        let got = delivered(&mut n, Cycle(t));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn dst_port_contends() {
        let mut n = net();
        n.inject(Cycle(0), 0, 0, 0, 4, 1);
        n.inject(Cycle(0), 1, 0, 0, 4, 2);
        let t = 4 * 2 + 12 + 4 * 2;
        assert_eq!(
            delivered(&mut n, Cycle(t)).len(),
            1,
            "ejection port serializes"
        );
        assert_eq!(delivered(&mut n, Cycle(t + 8)).len(), 1);
    }

    #[test]
    fn same_pair_fifo_order() {
        let mut n = net();
        for i in 0..10 {
            n.inject(Cycle(i), 2, 1, (i % 2) as usize, 3, i as u32);
        }
        let got = delivered(&mut n, Cycle(100_000));
        let vals: Vec<u32> = got.into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        n.inject(Cycle(0), 0, 0, 0, 5, 1);
        n.inject(Cycle(0), 1, 1, 1, 7, 2);
        assert_eq!(n.flits_injected(), 12);
        assert_eq!(n.packets_injected(), 2);
        assert!(n.mean_latency() > 0.0);
        assert_eq!(n.in_flight(), 2);
        delivered(&mut n, Cycle(100_000));
        assert!(n.is_empty());
    }

    #[test]
    fn mesh_latency_scales_with_distance() {
        let mut params = GpuConfig::small().noc;
        params.topology = rcc_common::config::NocTopology::Mesh;
        // 16 sources + 8 destinations → 5-wide grid.
        let mut near: Network<u8> = Network::new(&params, 16, 8, 2);
        let mut far: Network<u8> = Network::new(&params, 16, 8, 2);
        // Source 16-1=15 sits right before destination tile 16 → near;
        // source 0 to destination 7 (tile 23) is far.
        near.inject(Cycle(0), 15, 0, 0, 4, 1);
        far.inject(Cycle(0), 0, 7, 0, 4, 1);
        let t_near = near.next_event().unwrap();
        let t_far = far.next_event().unwrap();
        assert!(
            t_far > t_near,
            "more hops, more latency: {t_far:?} vs {t_near:?}"
        );
        assert!(far.flit_hops() > near.flit_hops());
    }

    #[test]
    fn crossbar_hops_equal_flits() {
        let mut n = net();
        n.inject(Cycle(0), 0, 1, 0, 7, 1);
        assert_eq!(n.flit_hops(), n.flits_injected());
    }

    #[test]
    fn mesh_keeps_per_pair_fifo() {
        let mut params = GpuConfig::small().noc;
        params.topology = rcc_common::config::NocTopology::Mesh;
        let mut n: Network<u32> = Network::new(&params, 4, 4, 2);
        for i in 0..10 {
            n.inject(Cycle(i), 1, 3, 0, 3, i as u32);
        }
        let got: Vec<u32> = delivered(&mut n, Cycle(1_000_000))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn chaos_jitter_delays_but_keeps_fifo() {
        use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
        let mut always = ChaosProfile::heavy();
        always.noc_jitter_p = 1.0;
        let spec = ChaosSpec::new(3, always);
        let mut jittered = net();
        jittered.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
        let mut clean = net();
        for i in 0..10 {
            jittered.inject(Cycle(i), 2, 1, 0, 3, i as u32);
            clean.inject(Cycle(i), 2, 1, 0, 3, i as u32);
        }
        // Jitter only delays: first delivery is no earlier than clean.
        assert!(jittered.next_event().unwrap() >= clean.next_event().unwrap());
        // Per-(src,dst) FIFO still holds under jitter.
        let vals: Vec<u32> = delivered(&mut jittered, Cycle(100_000))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(vals, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn injection_after_idle_uses_current_time() {
        let mut n = net();
        n.inject(Cycle(1000), 0, 0, 0, 1, 1);
        let t = 1000 + 2 + 12 + 2;
        assert!(delivered(&mut n, Cycle(t - 1)).is_empty());
        assert_eq!(delivered(&mut n, Cycle(t)).len(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Conservation and FIFO: every injected packet is delivered
            /// exactly once, to the right port, and packets sharing a
            /// (src, dst) pair arrive in injection order.
            #[test]
            fn delivers_everything_in_fifo_order(
                pkts in proptest::collection::vec(
                    (0usize..4, 0usize..2, 1u64..40, 0u64..50),
                    1..40,
                ),
            ) {
                let mut n: Network<(usize, usize, usize)> =
                    Network::new(&GpuConfig::small().noc, 4, 2, 2);
                let mut now = 0u64;
                for (i, &(src, dst, flits, gap)) in pkts.iter().enumerate() {
                    now += gap;
                    n.inject(Cycle(now), src, dst, 0, flits, (src, dst, i));
                }
                let got = delivered(&mut n, Cycle(u64::MAX / 2));
                prop_assert!(n.is_empty());
                prop_assert_eq!(got.len(), pkts.len());
                prop_assert_eq!(n.packets_injected(), pkts.len() as u64);
                let total_flits: u64 = pkts.iter().map(|p| p.2).sum();
                prop_assert_eq!(n.flits_injected(), total_flits);
                // FIFO per (src, dst): sequence numbers increase.
                for s in 0..4 {
                    for d in 0..2 {
                        let seqs: Vec<usize> = got
                            .iter()
                            .filter(|(port, (ps, pd, _))| *port == d && *ps == s && *pd == d)
                            .map(|(_, (_, _, i))| *i)
                            .collect();
                        prop_assert!(
                            seqs.windows(2).all(|w| w[0] < w[1]),
                            "out-of-order delivery on ({}, {}): {:?}", s, d, seqs
                        );
                    }
                }
            }

            /// A lone packet's latency is at least its serialization time
            /// plus the traversal latency; delivering early yields nothing.
            #[test]
            fn latency_lower_bound(flits in 1u64..64, start in 0u64..1000) {
                let cfg = GpuConfig::small();
                let mut n: Network<u8> = Network::new(&cfg.noc, 2, 2, 2);
                n.inject(Cycle(start), 0, 1, 0, flits, 9);
                let earliest = n.next_event().expect("one packet in flight");
                // Serialization happens twice (injection + ejection port).
                prop_assert!(earliest.raw() >= start + 2 * flits);
                prop_assert!(delivered(&mut n, Cycle(earliest.raw() - 1)).is_empty());
                let got = delivered(&mut n, earliest);
                prop_assert_eq!(got, vec![(1usize, 9u8)]);
            }

            /// Mesh topology: delivered count and flit-hop accounting are
            /// consistent (hops ≥ 1 per flit, ≤ diameter per flit).
            #[test]
            fn mesh_flit_hops_are_bounded(
                pkts in proptest::collection::vec((0usize..16, 0usize..8, 1u64..35), 1..30),
            ) {
                let mut params = GpuConfig::gtx480().noc;
                params.topology = rcc_common::config::NocTopology::Mesh;
                let mut n: Network<usize> = Network::new(&params, 16, 8, 2);
                for (i, &(src, dst, flits)) in pkts.iter().enumerate() {
                    n.inject(Cycle(0), src, dst, 0, flits, i);
                }
                let got = delivered(&mut n, Cycle(u64::MAX / 2));
                prop_assert_eq!(got.len(), pkts.len());
                let total_flits: u64 = pkts.iter().map(|p| p.2).sum();
                // A 16+8-node mesh has a small diameter; hops per flit lie
                // within [1, 16].
                prop_assert!(n.flit_hops() >= total_flits);
                prop_assert!(n.flit_hops() <= 16 * total_flits);
            }
        }
    }
}
