//! Sensitivity sweep: thread-level parallelism (resident warps per core)
//! vs protocol speedup.
//!
//! The paper's central TLP argument (Section II-B) is that fine-grained
//! multithreading covers most SC stalls; this sweep shows how the
//! protocol gaps shrink as warps are added — and why the headline
//! factors in EXPERIMENTS.md are sensitive to the chosen occupancy.

use rcc_bench::{banner, pool, Harness, PER_RUN_OUTPUTS, SEED};
use rcc_core::ProtocolKind;
use rcc_sim::runner::simulate;
use rcc_workloads::{Benchmark, Scale};

const KINDS: [ProtocolKind; 5] = [
    ProtocolKind::Mesi,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
    ProtocolKind::IdealSc,
];

fn main() -> std::process::ExitCode {
    // Each run generates its own workload at its occupancy, so there are
    // no per-run files to name and no benchmark a trace could stand in for.
    Harness::main_except(&[PER_RUN_OUTPUTS, &["--replay-trace"]].concat(), |h| {
        banner("Sweep", "speedup vs resident warps per core (bh + dlb)", h);

        // Flatten the whole grid into one job list; the pool returns results
        // in submission order, so the printed rows are identical to a
        // sequential run regardless of --jobs.
        let warp_points = [4usize, 8, 16, 32, 48];
        let mut grid = Vec::new();
        for bench in [Benchmark::Bh, Benchmark::Dlb] {
            for warps in warp_points {
                for kind in KINDS {
                    grid.push((bench, warps, kind));
                }
            }
        }
        let results = pool::run_indexed(grid, h.flags.jobs(), |(bench, warps, kind)| {
            let scale = Scale {
                warps_per_core: warps,
                warps_per_workgroup: 4.min(warps),
                iters: h.scale.iters,
            };
            let wl = bench.generate(&h.cfg, &scale, SEED);
            simulate(kind, &h.cfg, &wl, &h.flags.opts)
        });

        let mut rows = results.chunks_exact(KINDS.len());
        for bench in [Benchmark::Bh, Benchmark::Dlb] {
            println!("\n{}:", bench.name());
            println!(
                "{:>6} {:>10} {:>8} {:>8} {:>8} {:>8}",
                "warps", "MESI-cyc", "TCS", "TCW", "RCC", "IDEAL"
            );
            for warps in warp_points {
                let row = rows.next().expect("one row per (bench, warps)");
                let base = &row[0];
                print!("{:>6} {:>10}", warps, base.cycles);
                for m in &row[1..] {
                    print!(" {:>8.3}", m.speedup_over(base));
                }
                println!();
            }
        }
    })
}
