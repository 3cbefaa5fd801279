//! Figure 1: motivating study on the SC-MESI baseline.
//!
//! (a) fraction of memory operations that ever stalled for SC;
//! (b) fraction of SC stall cycles spent waiting on a prior store/atomic;
//! (c) average load vs store latency (inter-workgroup benchmarks);
//! (d) speedup of SC-IDEAL (instant read/write permissions) over SC-MESI.

use rcc_bench::{banner, gmean_or_one, pct, Harness};
use rcc_core::ProtocolKind;
use rcc_workloads::Benchmark;

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "Figure 1",
            "SC stalls on the MESI baseline and the SC-IDEAL limit",
            h,
        );
        println!(
            "{:6} {:>12} {:>14} {:>10} {:>10} {:>8} {:>14}",
            "bench",
            "(a) stalled",
            "(b) prev-store",
            "(c) ld-lat",
            "st-lat",
            "st/ld",
            "(d) ideal-spd"
        );
        let pairs: Vec<_> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| [(ProtocolKind::Mesi, b), (ProtocolKind::IdealSc, b)])
            .collect();
        let runs = h.run_pairs(&pairs);
        let mut ratios = Vec::new();
        let mut speedups_inter = Vec::new();
        for (bench, row) in Benchmark::ALL.into_iter().zip(runs.chunks_exact(2)) {
            let (mesi, ideal) = (&row[0], &row[1]);
            let ld = mesi.load_latency().mean();
            let st = mesi.store_latency().mean();
            let ratio = if ld > 0.0 { st / ld } else { 0.0 };
            let speedup = ideal.speedup_over(mesi);
            println!(
                "{:6} {:>12} {:>14} {:>10.0} {:>10.0} {:>7.2}x {:>13.2}x",
                bench.name(),
                pct(mesi.core.stalled_op_fraction()),
                pct(mesi.core.stall_fraction_prev_write()),
                ld,
                st,
                ratio,
                speedup,
            );
            if bench.category().is_inter_workgroup() {
                ratios.push(ratio);
                speedups_inter.push(speedup);
            }
        }
        println!("----------------------------------------------------------------");
        println!(
        "inter-workgroup gmean: store/load latency {:.2}x (paper: 2.4x), SC-IDEAL speedup {:.2}x (paper: 1.6x)",
        gmean_or_one(&ratios),
        gmean_or_one(&speedups_inter),
    );
    })
}
