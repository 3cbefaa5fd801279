//! Figure 10: weak-ordering implementations (TC-Weak and RCC-WO) vs the
//! sequentially consistent RCC-SC.

use rcc_bench::{banner, gmean_or_one, Harness};
use rcc_core::ProtocolKind;
use rcc_workloads::Benchmark;

const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::RccSc,
    ProtocolKind::RccWo,
    ProtocolKind::TcWeak,
];

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner("Figure 10", "speedup of weak ordering vs RCC-SC", h);
        println!("{:6} {:>9} {:>9} {:>9}", "bench", "RCC-SC", "RCC-WO", "TCW");
        let pairs: Vec<_> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| KINDS.map(|k| (k, b)))
            .collect();
        let runs = h.run_pairs(&pairs);
        let mut wo = Vec::new();
        let mut tcw = Vec::new();
        for (bench, row) in Benchmark::ALL
            .into_iter()
            .zip(runs.chunks_exact(KINDS.len()))
        {
            let (sc, rcc_wo, tc_w) = (&row[0], &row[1], &row[2]);
            let s_wo = rcc_wo.speedup_over(sc);
            let s_tcw = tc_w.speedup_over(sc);
            println!(
                "{:6} {:>9.3} {:>9.3} {:>9.3}",
                bench.name(),
                1.0,
                s_wo,
                s_tcw
            );
            if bench.category().is_inter_workgroup() {
                wo.push(s_wo);
                tcw.push(s_tcw);
            }
        }
        println!("----------------------------------------------------------------");
        println!(
            "inter gmean: RCC-WO {:.3}, TCW {:.3} vs RCC-SC=1  (paper: both ~1.07, neck-and-neck)",
            gmean_or_one(&wo),
            gmean_or_one(&tcw),
        );
    })
}
