//! Property-based tests for the DRAM channel.

use proptest::prelude::*;
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_dram::DramChannel;

proptest! {
    /// Every read completes exactly once, no earlier than the minimum
    /// CAS + transfer time after enqueue, and the channel drains.
    #[test]
    fn reads_complete_exactly_once(
        reqs in prop::collection::vec((0u64..256, any::<bool>()), 1..60),
    ) {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        let mut expected = std::collections::HashMap::new();
        for (i, (line, is_write)) in reqs.iter().enumerate() {
            ch.enqueue(Cycle(i as u64), LineAddr(*line), *is_write);
            if !*is_write {
                *expected.entry(LineAddr(*line)).or_insert(0u32) += 1;
            }
        }
        let mut got = std::collections::HashMap::new();
        let mut t = 0u64;
        while ch.pending() > 0 {
            t += 1;
            prop_assert!(t < 1_000_000, "channel failed to drain");
            for line in ch.tick(Cycle(t)) {
                *got.entry(line).or_insert(0u32) += 1;
            }
        }
        prop_assert_eq!(got, expected);
        let min_service = cfg.dram.t_cl + 128 / cfg.dram.bytes_per_cycle as u64;
        if ch.reads() > 0 {
            prop_assert!(ch.mean_read_latency() >= min_service as f64);
        }
    }
}

proptest! {
    /// `next_event` is exact: stepping the channel one cycle at a time,
    /// a tick services a command or reports a completion exactly at the
    /// cycle `max(now, next_event())`, never before it.
    #[test]
    fn next_event_is_the_first_cycle_the_channel_acts(
        reqs in prop::collection::vec((0u64..4096, any::<bool>(), 0u64..60), 1..40),
    ) {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        let mut arrivals = reqs.iter().scan(0u64, |at, &(line, is_write, gap)| {
            *at += gap;
            Some((*at, LineAddr(line), is_write))
        }).peekable();
        let mut now = 0u64;
        while arrivals.peek().is_some() || ch.pending() > 0 {
            prop_assert!(now < 1_000_000, "channel failed to drain");
            while let Some(&(at, line, is_write)) = arrivals.peek() {
                if at > now {
                    break;
                }
                ch.enqueue(Cycle(now), line, is_write);
                arrivals.next();
            }
            let due = ch.next_event().map(|c| c.raw().max(now));
            let serviced_before = ch.row_hits() + ch.row_misses();
            let reported = !ch.tick(Cycle(now)).is_empty();
            let serviced = ch.row_hits() + ch.row_misses() > serviced_before;
            prop_assert_eq!(
                serviced || reported,
                due == Some(now),
                "cycle {}: hint {:?}, serviced {}, reported {}",
                now, due, serviced, reported
            );
            now += 1;
        }
    }
}
