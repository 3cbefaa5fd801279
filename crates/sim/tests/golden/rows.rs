//! The golden suite's rows, apart from its test functions: the two
//! matrices, the committed snapshot, the runs that reproduce it and the
//! checks against it. `tests/golden.rs` runs every row; the root
//! package's tier-1 `golden_digests` test runs the `GOLDEN_DIGESTS` rows
//! through this same file.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};
use std::fmt::Write as _;

const MATRIX: [(ProtocolKind, Benchmark); 6] = [
    (ProtocolKind::Mesi, Benchmark::Dlb),
    (ProtocolKind::TcStrong, Benchmark::Dlb),
    (ProtocolKind::TcWeak, Benchmark::Bh),
    (ProtocolKind::RccSc, Benchmark::Dlb),
    (ProtocolKind::RccSc, Benchmark::Hsp),
    (ProtocolKind::RccWo, Benchmark::Cl),
];

/// One small workload per protocol family, run with the sampler armed.
const DIGEST_MATRIX: [(ProtocolKind, Benchmark); 3] = [
    (ProtocolKind::RccSc, Benchmark::Dlb),
    (ProtocolKind::Mesi, Benchmark::Dlb),
    (ProtocolKind::TcWeak, Benchmark::Bh),
];

/// Digest seed — arbitrary but pinned; changing it regenerates everything.
const DIGEST_SEED: u64 = 0x52cc_0b5e;
const SAMPLE_EVERY: u64 = 64;

include!("../snapshots/golden.rs");

fn run(kind: ProtocolKind, bench: Benchmark) -> (u64, u64) {
    let cfg = GpuConfig::small();
    let wl = bench.generate(&cfg, &Scale::quick(), 5);
    let m = simulate(kind, &cfg, &wl, &SimOptions::fast());
    (m.cycles, m.traffic.total_flits())
}

fn run_digests(kind: ProtocolKind, bench: Benchmark) -> (u64, u64) {
    let cfg = GpuConfig::small();
    let wl = bench.generate(&cfg, &Scale::quick(), 5);
    let mut opts = SimOptions::fast();
    opts.sample_every = SAMPLE_EVERY;
    let m = simulate(kind, &cfg, &wl, &opts);
    let series = m
        .obs
        .as_ref()
        .expect("sampler was armed")
        .series
        .digest(DIGEST_SEED);
    (m.digest(DIGEST_SEED), series)
}

/// Renders `snapshots/golden.rs` from fresh runs of both matrices.
pub fn render_snapshot() -> String {
    let mut out = String::from(
        "// @generated by `UPDATE_GOLDEN=1 cargo test -p rcc-sim --test golden`.\n\
         // Do not edit by hand; regenerate and commit this file together with\n\
         // the change that moved the numbers.\n\n\
         /// (cycles, total flits) per `MATRIX` row.\n\
         const GOLDEN: [(u64, u64); 6] = [\n",
    );
    for (kind, bench) in MATRIX {
        let (cycles, flits) = run(kind, bench);
        let _ = writeln!(
            out,
            "    ({cycles}, {flits}), // {} / {}",
            kind.label(),
            bench.name()
        );
    }
    out.push_str(
        "];\n\n\
         /// (metrics digest, series digest) per `DIGEST_MATRIX` row, seeded\n\
         /// with `DIGEST_SEED`, sampled every `SAMPLE_EVERY` cycles.\n\
         const GOLDEN_DIGESTS: [(u64, u64); 3] = [\n",
    );
    for (kind, bench) in DIGEST_MATRIX {
        let (metrics, series) = run_digests(kind, bench);
        let _ = writeln!(
            out,
            "    (0x{metrics:016x}, 0x{series:016x}), // {} / {}",
            kind.label(),
            bench.name()
        );
    }
    out.push_str("];\n");
    out
}

/// Checks every `MATRIX` row against `GOLDEN`.
pub fn assert_matrix_rows() {
    for ((kind, bench), expected) in MATRIX.into_iter().zip(GOLDEN) {
        let got = run(kind, bench);
        assert_eq!(
            got,
            expected,
            "{kind} on {} diverged from the golden run — if intentional, \
             regenerate with `UPDATE_GOLDEN=1 cargo test -p rcc-sim --test golden`",
            bench.name()
        );
    }
}

/// Checks every `DIGEST_MATRIX` row against `GOLDEN_DIGESTS`.
pub fn assert_digest_rows() {
    for ((kind, bench), expected) in DIGEST_MATRIX.into_iter().zip(GOLDEN_DIGESTS) {
        let got = run_digests(kind, bench);
        assert_eq!(
            got,
            expected,
            "{kind} on {}: golden digests diverged (metrics moved: {}, series \
             moved: {}) — if intentional, regenerate with `UPDATE_GOLDEN=1 \
             cargo test -p rcc-sim --test golden`",
            bench.name(),
            got.0 != expected.0,
            got.1 != expected.1,
        );
    }
}
