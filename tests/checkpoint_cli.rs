//! `rcc-repro --all --checkpoint PATH` snapshots the `--protocol`
//! selection only, and `--resume PATH` finishes that run with the same
//! CSV row the `--all` run printed for it: a seconds-scale slice of the
//! rcc-sim checkpoint suite, driven through the binary.

use std::process::Command;

fn rcc_repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rcc-repro"))
        .args(args)
        .output()
        .expect("rcc-repro runs");
    assert!(
        out.status.success(),
        "rcc-repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn all_checkpoints_the_selected_protocol_and_resume_reprints_its_row() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("checkpoint-cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ck = dir.join("ck").to_str().expect("utf-8 path").to_string();

    // One worker, so the runs go in ProtocolKind::ALL order and the last
    // writer would be SC-IDEAL if every run shared the path.
    let all = rcc_repro(&[
        "--all",
        "--protocol",
        "rcc",
        "--jobs",
        "1",
        "--machine",
        "small",
        "--scale",
        "quick",
        "--checkpoint",
        &ck,
        "--checkpoint-every",
        "2000",
        "--csv",
    ]);
    let rcc_row = all
        .lines()
        .find(|l| l.starts_with("RCC-SC,"))
        .expect("--all prints an RCC-SC row");

    let manifest = std::fs::read_to_string(format!("{ck}.manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"protocol\": \"RCC-SC\""),
        "the checkpoint must be the --protocol selection's:\n{manifest}"
    );

    let resumed = rcc_repro(&["--resume", &ck, "--csv"]);
    assert_eq!(
        resumed.lines().last(),
        Some(rcc_row),
        "the resumed run must finish with the uninterrupted row"
    );
}
