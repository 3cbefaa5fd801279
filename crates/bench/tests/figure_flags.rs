//! A figure binary honours or rejects every run flag it accepts: a flag
//! that would cost the runs something and write nothing is a usage error
//! (exit 2) before any run starts.

use std::path::Path;
use std::process::Command;

#[test]
fn a_run_flag_a_figure_binary_cannot_honour_exits_2_before_any_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure-flags");
    std::fs::create_dir_all(&dir).expect("test dir");
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mp.trace");
    let trace = trace.to_str().expect("utf-8 path");
    for (bin, args, flag) in [
        // A grid has no single run whose observation to export.
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--quick", "--trace-out", "t.json"][..],
            "--trace-out",
        ),
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--quick", "--series-out", "s.csv"],
            "--series-out",
        ),
        // Only perfsmoke prints the self-profile.
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--quick", "--profile"],
            "--profile",
        ),
        (
            env!("CARGO_BIN_EXE_ablate"),
            &["--quick", "--profile"],
            "--profile",
        ),
        // These binaries build their own runs, outside `Harness::run`,
        // which is what names each run's files.
        (
            env!("CARGO_BIN_EXE_fig7"),
            &[
                "--quick",
                "--checkpoint",
                "ck7",
                "--checkpoint-every",
                "2000",
            ],
            "--checkpoint",
        ),
        (
            env!("CARGO_BIN_EXE_ablate"),
            &["--quick", "--record-trace", "tr"],
            "--record-trace",
        ),
        (
            env!("CARGO_BIN_EXE_perfsmoke"),
            &["--quick", "--checkpoint-every", "2000"],
            "--checkpoint-every",
        ),
        // Sweep generates a workload per occupancy point.
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--quick", "--replay-trace", trace],
            "--replay-trace",
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} must run nothing");
    }
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("test dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(left.is_empty(), "nothing written: {left:?}");
}
