//! Golden-snapshot suite: the simulator's behaviour pinned as data.
//!
//! Two tables, both generated into `tests/snapshots/golden.rs`:
//!
//! * `GOLDEN` — exact (cycles, total flits) for a small protocol ×
//!   benchmark matrix. Any change to protocol logic, timing, or workload
//!   generation shows up here first.
//! * `GOLDEN_DIGESTS` — seeded digests of the full simulated
//!   [`RunMetrics`](rcc_sim::RunMetrics) *and* of the sampled
//!   time-series for one workload per protocol family, with the sampler
//!   armed. The metrics digest hashes exactly the field set
//!   `same_simulated_results` compares, so a digest move means the
//!   simulation itself changed; a series digest move with a stable
//!   metrics digest means the *observer* changed (new column, different
//!   sampling boundary, delta/gauge mixup).
//!
//! If a change is intentional, regenerate the snapshot and commit it with
//! the change that moved the numbers:
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -p rcc-sim --test golden
//! ```
//!
//! (`print_goldens` still prints both tables without touching the file:
//! `cargo test -p rcc-sim --test golden -- --ignored --nocapture`.)

#[path = "golden/rows.rs"]
mod rows;

#[test]
#[ignore]
fn print_goldens() {
    print!("{}", rows::render_snapshot());
}

#[test]
fn golden_snapshots() {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/golden.rs");
        std::fs::write(path, rows::render_snapshot()).expect("write snapshot file");
        eprintln!("regenerated {path}");
        return;
    }
    rows::assert_matrix_rows();
    rows::assert_digest_rows();
}
