//! Write-through vs write-back L1 baseline comparison.
//!
//! Section I of the paper motivates GPU-specific coherence partly by
//! arguing that CPU-style *write-back* L1 coherence is a poor fit for
//! GPU sharing patterns: "a write-back policy brings infrequently
//! written data into the L1 only to write it back soon afterwards",
//! and ownership recalls serialize producer/consumer communication.
//! This binary makes that claim measurable: it runs the directory MESI
//! baseline with write-through L1s (the paper's configuration) and with
//! write-back L1s (MESI-WB) over all twelve benchmarks and reports
//! cycles, NoC flits, dirty writebacks, and invalidation/recall counts.

use rcc_bench::{banner, gmean_or_one, inter, intra, Harness};
use rcc_common::stats::MsgClass;
use rcc_core::ProtocolKind;

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "WT-vs-WB",
            "directory MESI with write-through vs write-back L1s",
            h,
        );

        println!(
            "\n{:>6} | {:>10} {:>10} {:>7} | {:>6} {:>9} | {:>8} {:>8}",
            "bench", "WT cyc", "WB cyc", "WT/WB", "flit×", "WB wrbks", "WT invs", "WB invs"
        );
        println!("{}", "-".repeat(84));

        let categories = [("inter-workgroup", inter()), ("intra-workgroup", intra())];
        let pairs: Vec<_> = categories
            .iter()
            .flat_map(|(_, benches)| benches.iter())
            .flat_map(|&b| [(ProtocolKind::Mesi, b), (ProtocolKind::MesiWb, b)])
            .collect();
        let mut runs = h.run_pairs(&pairs).into_iter();

        let mut speedups = Vec::new();
        let mut flit_ratios = Vec::new();
        for (cat, benches) in &categories {
            let mut cat_speedups = Vec::new();
            for b in benches {
                let wt = runs.next().expect("one WT run per benchmark");
                let wb = runs.next().expect("one WB run per benchmark");
                let speedup = wb.cycles as f64 / wt.cycles as f64;
                let flit_ratio =
                    wb.traffic.total_flits() as f64 / wt.traffic.total_flits().max(1) as f64;
                println!(
                    "{:>6} | {:>10} {:>10} {:>7.3} | {:>6.3} {:>9} | {:>8} {:>8}",
                    b.name(),
                    wt.cycles,
                    wb.cycles,
                    speedup,
                    flit_ratio,
                    wb.traffic.msgs(MsgClass::Writeback),
                    wt.l2.invs_sent,
                    wb.l2.invs_sent,
                );
                cat_speedups.push(speedup);
                speedups.push(speedup);
                flit_ratios.push(flit_ratio);
            }
            println!(
                "{cat}: gmean WT speedup over WB {:.3}\n",
                gmean_or_one(&cat_speedups)
            );
        }
        println!(
            "overall: gmean WT speedup over WB {:.3}, gmean WB/WT flits {:.3}",
            gmean_or_one(&speedups),
            gmean_or_one(&flit_ratios)
        );
    })
}
