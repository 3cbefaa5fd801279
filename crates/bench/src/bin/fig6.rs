//! Figure 6: RCC lease-expiration behaviour.
//!
//! Left: fraction of loads that find their block valid-but-expired in the
//! L1. Right: fraction of those expirations that were premature (the L2
//! copy had not changed, so a RENEW revalidated the stale data).

use rcc_bench::{banner, pct, Harness};
use rcc_core::ProtocolKind;
use rcc_workloads::Benchmark;

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "Figure 6",
            "expired loads and renewable fraction under RCC",
            h,
        );
        println!(
            "{:6} {:>10} {:>14} {:>12} {:>12}",
            "bench", "loads", "expired", "expired%", "renewable%"
        );
        let pairs: Vec<_> = Benchmark::ALL
            .into_iter()
            .map(|b| (ProtocolKind::RccSc, b))
            .collect();
        let runs = h.run_pairs(&pairs);
        for (bench, m) in Benchmark::ALL.into_iter().zip(&runs) {
            println!(
                "{:6} {:>10} {:>14} {:>12} {:>12}",
                bench.name(),
                m.l1.loads,
                m.l1.expired_loads,
                pct(m.expired_load_fraction()),
                pct(m.renewable_fraction()),
            );
        }
        println!("----------------------------------------------------------------");
        println!("paper: inter-workgroup expiration 25-75%, mostly premature;");
        println!("       intra-workgroup expiration negligible.");
    })
}
