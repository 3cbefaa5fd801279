//! Figure 8: SC stall rates (top) and stall resolve latency (bottom) for
//! the three SC-capable protocols, normalized to MESI.

use rcc_bench::{banner, gmean_or_one, Harness};
use rcc_core::ProtocolKind;
use rcc_workloads::Benchmark;

const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::Mesi,
    ProtocolKind::TcStrong,
    ProtocolKind::RccSc,
];

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "Figure 8",
            "SC stall cycles per mem op and stall resolve latency, vs MESI",
            h,
        );
        println!(
            "{:6} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            "bench", "MESI", "TCS", "RCC", "MESI-lat", "TCS-lat", "RCC-lat"
        );
        let pairs: Vec<_> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| KINDS.map(|k| (k, b)))
            .collect();
        let runs = h.run_pairs(&pairs);
        let mut rate_tcs = Vec::new();
        let mut rate_rcc = Vec::new();
        let mut lat_tcs = Vec::new();
        let mut lat_rcc = Vec::new();
        for (bench, row) in Benchmark::ALL
            .into_iter()
            .zip(runs.chunks_exact(KINDS.len()))
        {
            let (mesi, tcs, rcc) = (&row[0], &row[1], &row[2]);
            let base_rate = mesi.sc_stalls_per_mem_op().max(1e-9);
            let base_lat = mesi.core.stall_resolve.mean().max(1e-9);
            println!(
                "{:6} | {:>9.3} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} {:>9.3}",
                bench.name(),
                1.0,
                tcs.sc_stalls_per_mem_op() / base_rate,
                rcc.sc_stalls_per_mem_op() / base_rate,
                1.0,
                tcs.core.stall_resolve.mean() / base_lat,
                rcc.core.stall_resolve.mean() / base_lat,
            );
            if bench.category().is_inter_workgroup() {
                rate_tcs.push(tcs.sc_stalls_per_mem_op() / base_rate);
                rate_rcc.push(rcc.sc_stalls_per_mem_op() / base_rate);
                lat_tcs.push(tcs.core.stall_resolve.mean() / base_lat);
                lat_rcc.push(rcc.core.stall_resolve.mean() / base_lat);
            }
        }
        println!("----------------------------------------------------------------");
        println!(
        "inter gmean stall rate: TCS {:.2}, RCC {:.2} vs MESI=1  (paper: RCC -52% vs MESI, -25% vs TCS)",
        gmean_or_one(&rate_tcs),
        gmean_or_one(&rate_rcc),
    );
        println!(
        "inter gmean resolve latency: TCS {:.2}, RCC {:.2} vs MESI=1  (paper: RCC -35% vs MESI, -11% vs TCS)",
        gmean_or_one(&lat_tcs),
        gmean_or_one(&lat_rcc),
    );
    })
}
