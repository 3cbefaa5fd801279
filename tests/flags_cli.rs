//! `rcc-repro` reads its flags through the shared parser: the run flags
//! it documents take effect, and a command line it cannot act on fails
//! with exit 2 instead of running with defaults.

use std::process::{Command, Output};

fn rcc_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcc-repro"))
        .args(args)
        .output()
        .expect("rcc-repro runs")
}

/// The CSV data row of a successful quick `dlb` run with `extra` flags.
fn quick_row(extra: &[&str]) -> String {
    let mut args = vec!["--bench", "dlb", "--machine", "small", "--scale", "quick"];
    args.extend_from_slice(extra);
    args.push("--csv");
    let out = rcc_repro(&args);
    assert!(
        out.status.success(),
        "rcc-repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    stdout.lines().last().expect("a data row").to_string()
}

#[test]
fn chaos_perturbs_the_driver_run() {
    let chaos = quick_row(&["--chaos", "seed=7,profile=heavy"]);
    assert_ne!(quick_row(&[]), chaos, "--chaos must perturb the run");
    assert_eq!(
        quick_row(&["--sanitize", "--chaos", "seed=7,profile=heavy"]),
        chaos,
        "the sanitizer only watches: the same chaos seed replays the same row"
    );
}

#[test]
fn an_unknown_flag_or_malformed_value_exits_2_naming_the_flag() {
    for (args, flag) in [
        (&["--sanitise"][..], "--sanitise"),
        (&["--seed", "seven"], "--seed"),
        (&["--checkpoint-every", "5k"], "--checkpoint-every"),
        (&["--chaos", "seed=7,profile=nope"], "--chaos"),
        (&["--protocol", "msi"], "--protocol"),
    ] {
        let out = rcc_repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
}

#[test]
fn a_trace_with_too_many_warps_on_a_core_is_a_typed_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flags-cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("w64.trace");
    // Warp index 64 means 65 warps on core 0, one more than a core holds.
    std::fs::write(&trace, "warp 0 64 wg=0\n  ld 0x0\n").expect("write trace");
    let path = trace.to_str().expect("utf-8 path");
    let out = rcc_repro(&["--replay-trace", path, "--machine", "small"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("trace mismatch") && stderr.contains("65 warps"),
        "{stderr}"
    );
}
