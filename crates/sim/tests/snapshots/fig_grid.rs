// @generated by `UPDATE_GOLDEN=1 cargo test -p rcc-sim --release --test fig_grid`.
// Do not edit by hand; regenerate and commit this file together with
// the change that moved the numbers.

/// Results digest of the seed-7 GTX 480 standard grid.
const FIG_GRID_DIGEST: u64 = 0x4554e33564873422;
