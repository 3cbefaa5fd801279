//! The paper's figure grid pinned as one number: every protocol on every
//! benchmark on the GTX 480 machine of Table III at standard scale, input
//! seed 7 (84 runs), folded into one results digest. A change that moves
//! any simulated result of the grid moves this digest.
//!
//! Release only: the grid takes a few seconds optimised and minutes in a
//! debug build. Run it with
//!
//! ```bash
//! cargo test -p rcc-sim --release --test fig_grid
//! ```
//!
//! and, if a change moves the results on purpose, regenerate the
//! snapshot and commit it with that change:
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -p rcc-sim --release --test fig_grid
//! ```

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_obs::DigestWriter;
use rcc_sim::{try_simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};

include!("snapshots/fig_grid.rs");

const SEED: u64 = 7;

/// `RunMetrics::digest(SEED)` of every run, benchmark-major in
/// `Benchmark::ALL` then `ProtocolKind::ALL` order, folded into one
/// `DigestWriter` seeded 0: the results digest `perfbench --workload
/// fig-grid` prints, over the seed-7 grid alone.
fn grid_digest() -> u64 {
    let cfg = GpuConfig::gtx480();
    let mut d = DigestWriter::new(0);
    for bench in Benchmark::ALL {
        let wl = bench.generate(&cfg, &Scale::standard(), SEED);
        for kind in ProtocolKind::ALL {
            let m = try_simulate(kind, &cfg, &wl, &SimOptions::fast())
                .unwrap_or_else(|e| panic!("{kind} on {}: {e}", wl.name));
            d.write_u64(m.digest(SEED));
        }
    }
    d.finish()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 84 standard-scale runs")]
fn seed_7_fig_grid_results_digest_is_pinned() {
    let got = grid_digest();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/fig_grid.rs");
        let text = format!(
            "// @generated by `UPDATE_GOLDEN=1 cargo test -p rcc-sim --release --test fig_grid`.\n\
             // Do not edit by hand; regenerate and commit this file together with\n\
             // the change that moved the numbers.\n\n\
             /// Results digest of the seed-7 GTX 480 standard grid.\n\
             const FIG_GRID_DIGEST: u64 = 0x{got:016x};\n"
        );
        std::fs::write(path, text).expect("write snapshot file");
        eprintln!("regenerated {path}");
        return;
    }
    assert_eq!(
        got, FIG_GRID_DIGEST,
        "the seed-7 figure grid's results moved (got {got:016x}) — if intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test -p rcc-sim --release --test fig_grid`"
    );
}
