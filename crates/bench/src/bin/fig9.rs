//! Figure 9: the headline comparison, normalized to the MESI baseline.
//!
//! (a) speedup; (b) interconnect energy broken down by component;
//! (c) interconnect traffic broken down by message type.

use rcc_bench::{banner, gmean_or_one, Harness};
use rcc_common::stats::MsgClass;
use rcc_core::ProtocolKind;
use rcc_sim::RunMetrics;
use rcc_workloads::Benchmark;

const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Mesi,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
];

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "Figure 9",
            "speedup, interconnect energy, and traffic vs MESI",
            h,
        );

        let pairs: Vec<_> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| KINDS.map(|k| (k, b)))
            .collect();
        let mut rows = h.run_pairs(&pairs).into_iter();
        let results: Vec<(Benchmark, Vec<RunMetrics>)> = Benchmark::ALL
            .into_iter()
            .map(|b| (b, rows.by_ref().take(KINDS.len()).collect()))
            .collect();

        // (a) speedup
        println!("\n(a) speedup over MESI");
        println!(
            "{:6} {:>8} {:>8} {:>8} {:>8}",
            "bench", "MESI", "TCS", "TCW", "RCC"
        );
        let mut sp: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        for (bench, runs) in &results {
            let base = &runs[0];
            print!("{:6}", bench.name());
            for (i, m) in runs.iter().enumerate() {
                let s = m.speedup_over(base);
                print!(" {:>8.3}", s);
                if bench.category().is_inter_workgroup() {
                    sp[i].push(s);
                }
            }
            println!();
        }
        println!(
            "inter gmean:  TCS {:.3}  TCW {:.3}  RCC {:.3}   (paper: 1.36, 1.88, 1.76)",
            gmean_or_one(&sp[1]),
            gmean_or_one(&sp[2]),
            gmean_or_one(&sp[3]),
        );

        // (b) energy breakdown
        println!("\n(b) interconnect energy (nJ), router/link/static");
        println!(
            "{:6} {:>26} {:>26} {:>26} {:>26}",
            "bench", "MESI", "TCS", "TCW", "RCC"
        );
        let mut energy_ratio: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        for (bench, runs) in &results {
            print!("{:6}", bench.name());
            for (i, m) in runs.iter().enumerate() {
                print!(
                    " {:>8.0}/{:>7.0}/{:>8.0}",
                    m.energy.router_pj / 1000.0,
                    m.energy.link_pj / 1000.0,
                    m.energy.static_pj / 1000.0
                );
                if bench.category().is_inter_workgroup() {
                    energy_ratio[i].push(m.energy.total_pj() / runs[0].energy.total_pj());
                }
            }
            println!();
        }
        println!(
        "inter gmean energy vs MESI:  TCS {:.2}  TCW {:.2}  RCC {:.2}   (paper: RCC -45% vs MESI, -25% vs TCS)",
        gmean_or_one(&energy_ratio[1]),
        gmean_or_one(&energy_ratio[2]),
        gmean_or_one(&energy_ratio[3]),
    );

        // (c) traffic breakdown
        println!("\n(c) interconnect traffic (kflits) by message type");
        let classes = [
            MsgClass::LoadReq,
            MsgClass::LoadData,
            MsgClass::StoreReq,
            MsgClass::StoreAck,
            MsgClass::AtomicReq,
            MsgClass::AtomicResp,
            MsgClass::Inv,
            MsgClass::InvAck,
            MsgClass::Renew,
        ];
        print!("{:10}", "bench/prot");
        for c in classes {
            print!(" {:>8}", c.label());
        }
        println!(" {:>9}", "total");
        for (bench, runs) in &results {
            for (i, m) in runs.iter().enumerate() {
                print!("{:4}/{:5}", bench.name(), KINDS[i].label());
                for c in classes {
                    print!(" {:>8.1}", m.traffic.flits(c) as f64 / 1000.0);
                }
                println!(" {:>9.1}", m.traffic.total_flits() as f64 / 1000.0);
            }
        }
    })
}
