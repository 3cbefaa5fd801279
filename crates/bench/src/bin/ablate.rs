//! Ablation studies for RCC's design choices (DESIGN.md calls these
//! out): the fixed-lease sweep the paper reports as performance-neutral
//! (Section III-E), renewal on/off, predictor on/off, and the livelock
//! bump interval.

use rcc_bench::{banner, gmean_or_one, pool, Harness};
use rcc_core::ProtocolKind;
use rcc_sim::runner::simulate;
use rcc_workloads::Benchmark;

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner("Ablations", "RCC design-choice sweeps", h);
        let benches: Vec<Benchmark> = Benchmark::inter_workgroup();
        let workloads: Vec<_> = benches.iter().map(|b| (b.name(), h.workload(*b))).collect();

        let run_with = |mutate: &dyn Fn(&mut rcc_common::GpuConfig)| -> Vec<f64> {
            let mut cfg = h.cfg.clone();
            mutate(&mut cfg);
            pool::run_indexed(workloads.iter().collect(), h.flags.jobs, |(_, wl)| {
                simulate(ProtocolKind::RccSc, &cfg, wl, &h.flags.opts).cycles as f64
            })
        };

        let base = run_with(&|_| {});

        // 1. Fixed-lease sweep (paper: "the performance spread among them
        //    was negligible").
        println!("\nfixed-lease sweep (cycles relative to the adaptive predictor):");
        for lease in [8u64, 32, 128, 512, 2048] {
            let cycles = run_with(&|c| c.rcc.fixed_lease = Some(lease));
            let rel: Vec<f64> = cycles.iter().zip(&base).map(|(c, b)| c / b).collect();
            println!("  lease {:>5}: gmean {:.3}", lease, gmean_or_one(&rel));
        }

        // 2. Renewal off.
        let no_renew = run_with(&|c| c.rcc.renew_enabled = false);
        let rel: Vec<f64> = no_renew.iter().zip(&base).map(|(c, b)| c / b).collect();
        println!("\nrenew disabled: gmean slowdown {:.3}", gmean_or_one(&rel));

        // 3. Predictor off (all leases at max).
        let no_pred = run_with(&|c| c.rcc.predictor_enabled = false);
        let rel: Vec<f64> = no_pred.iter().zip(&base).map(|(c, b)| c / b).collect();
        println!(
            "predictor disabled: gmean slowdown {:.3}",
            gmean_or_one(&rel)
        );

        // 4. Livelock bump interval.
        println!("\nlivelock bump interval (cycles relative to 10k):");
        for interval in [1_000u64, 100_000] {
            let cycles = run_with(&|c| c.rcc.livelock_bump_interval = interval);
            let rel: Vec<f64> = cycles.iter().zip(&base).map(|(c, b)| c / b).collect();
            println!("  every {:>6}: gmean {:.3}", interval, gmean_or_one(&rel));
        }
    })
}
