//! Figure 7: the RENEW mechanism and the lease predictor.
//!
//! Left: interconnect traffic with (+R) and without (-R) lease renewal.
//! Right: expired-read reduction with (+P) and without (-P) the per-block
//! lease predictor.

use rcc_bench::{banner, pct, pool, Harness};
use rcc_core::ProtocolKind;
use rcc_sim::runner::simulate;
use rcc_workloads::Benchmark;

fn main() -> std::process::ExitCode {
    Harness::main(|h| {
        banner(
            "Figure 7",
            "renewal traffic savings and predictor effect (RCC)",
            h,
        );
        println!(
            "{:6} {:>12} {:>12} {:>8} | {:>10} {:>10} {:>8}",
            "bench", "flits +R", "flits -R", "saved", "expired +P", "expired -P", "saved"
        );
        // Three machine variants: baseline, renewal off, predictor off. Each
        // (benchmark, variant) cell is an independent simulation, so the
        // whole grid goes through the job pool; workloads regenerate from
        // the shared seed inside each job.
        let mut no_renew = h.cfg.clone();
        no_renew.rcc.renew_enabled = false;
        let mut no_pred = h.cfg.clone();
        no_pred.rcc.predictor_enabled = false;
        let cfgs = [&h.cfg, &no_renew, &no_pred];
        let grid: Vec<_> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| (0..cfgs.len()).map(move |v| (b, v)))
            .collect();
        let runs = pool::run_indexed(grid, h.flags.jobs, |(bench, variant)| {
            let wl = h.workload(bench);
            simulate(ProtocolKind::RccSc, cfgs[variant], &wl, &h.flags.opts)
        });
        let (mut tr_on, mut tr_off, mut ex_on, mut ex_off) = (0u64, 0u64, 0u64, 0u64);
        for (bench, row) in Benchmark::ALL
            .into_iter()
            .zip(runs.chunks_exact(cfgs.len()))
        {
            let (base, mr, mp) = (&row[0], &row[1], &row[2]);
            let traffic_saved =
                1.0 - base.traffic.total_flits() as f64 / mr.traffic.total_flits().max(1) as f64;
            let expired_saved =
                1.0 - base.l1.expired_loads as f64 / mp.l1.expired_loads.max(1) as f64;
            println!(
                "{:6} {:>12} {:>12} {:>8} | {:>10} {:>10} {:>8}",
                bench.name(),
                base.traffic.total_flits(),
                mr.traffic.total_flits(),
                pct(traffic_saved),
                base.l1.expired_loads,
                mp.l1.expired_loads,
                pct(expired_saved),
            );
            if bench.category().is_inter_workgroup() {
                tr_on += base.traffic.total_flits();
                tr_off += mr.traffic.total_flits();
                ex_on += base.l1.expired_loads;
                ex_off += mp.l1.expired_loads;
            }
        }
        println!("----------------------------------------------------------------");
        println!(
        "inter-workgroup: renew saves {} traffic (paper: ~15%); predictor cuts expired reads by {} (paper: ~31%)",
        pct(1.0 - tr_on as f64 / tr_off.max(1) as f64),
        pct(1.0 - ex_on as f64 / ex_off.max(1) as f64),
    );
    })
}
