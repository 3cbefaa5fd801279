//! Tier-1 slice of the rcc-sim golden suite: the `GOLDEN_DIGESTS` rows,
//! the seeded digests of the full simulated metrics and of the sampled
//! time series for one workload per protocol family. It runs the suite's
//! own rows file against its committed `snapshots/golden.rs`, so the
//! pins live in one place; `cargo test -p rcc-sim --test golden` runs
//! every row and regenerates the snapshot.

// The cycle/flit rows and the snapshot writer serve the full suite.
#[allow(dead_code)]
#[path = "../crates/sim/tests/golden/rows.rs"]
mod rows;

#[test]
fn golden_digests() {
    rows::assert_digest_rows();
}
