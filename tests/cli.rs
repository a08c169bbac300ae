//! The `ssmdst` binary's contract: the `.scn` text `run` prints replays to
//! the digest it printed, `run` keeps the rounds and degree of the runs
//! its flags always gave, and the exit status is 0 when every judged phase
//! passed, 1 on a judged failure and 2 on a usage error.

use std::process::{Command, Output};

fn ssmdst(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssmdst"))
        .args(args)
        .output()
        .expect("the ssmdst binary starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

#[test]
fn run_keeps_its_rounds_and_its_scn_replays_to_its_digest() {
    let out = ssmdst(&[
        "run",
        "--family",
        "gnp-sparse",
        "--n",
        "24",
        "--seed",
        "9",
        "--scheduler",
        "adversarial",
        "--corrupt",
        "0.3",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let (scn, report) = text.split_at(text.find("scenario: ").expect("a report follows the .scn"));
    for line in [
        "phase initial                  rounds=329      ok (deg=3 components=1)",
        "phase fault(fraction=0.3,drop=0,seed=10) rounds=311      ok (deg=3 components=1)",
        "digest: 60e4ea2c76dfad21",
    ] {
        assert!(
            report.lines().any(|l| l == line),
            "missing {line:?} in\n{text}"
        );
    }

    let path = format!("{}/cli-run-seed-9.scn", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, scn).expect("write the printed .scn");
    let replay = ssmdst(&["replay", &path]);
    assert_eq!(replay.status.code(), Some(0));
    assert_eq!(stdout(&replay), report, "replay prints run's report");
}

#[test]
fn usage_errors_exit_2_before_running_anything() {
    for args in [
        &[][..],
        &["run", "--family", "bogus"],
        &["run", "--n"],
        &["run", "--corrupt", "-0.5"],
        &["replay", "--expect"],
        &["storm", "--execs"],
        &["storm", "--workers", "0"],
        &["storm", "--workers", "100000"],
    ] {
        let out = ssmdst(args);
        assert_eq!(out.status.code(), Some(2), "ssmdst {args:?}");
        assert!(out.stdout.is_empty(), "ssmdst {args:?} printed to stdout");
    }
}

#[test]
fn run_exits_1_when_a_phase_fails() {
    // A 5-round budget cannot confirm quiescence (the window is 96 rounds).
    let out = ssmdst(&["run", "--family", "grid", "--n", "16", "--max-rounds", "5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("NOT CONVERGED"));
}

#[test]
#[ignore = "about 10 s in a debug build; CI runs it in release with --include-ignored"]
fn replay_exits_1_on_the_known_livelock() {
    let out = ssmdst(&[
        "replay",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/known/livelock-fault-storm-7-1348.scn"
        ),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.lines()
            .any(|l| l.starts_with("phase fault(") && l.contains("NOT CONVERGED")),
        "{text}"
    );
    assert!(
        text.lines().any(|l| l == "digest: 8b3d22b9a0245e06"),
        "{text}"
    );
}
