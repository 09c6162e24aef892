//! The correctness oracle must notice: one flipped output bit or one
//! dropped reply makes the run report `failed > 0` and exit non-zero.

use std::process::Command;

use mlcnn_benchmark::json::{self, Value};

fn run_with(workload: &str, inject: Option<&str>) -> (bool, f64, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mlcnn-benchmark"));
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if let Some(fault) = inject {
        cmd.args(["--inject", fault]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().unwrap_or_default())
        .unwrap_or_else(|e| panic!("{workload} {inject:?}: no result line ({e})\n{stdout}"));
    (
        out.status.success(),
        result
            .get("failed")
            .and_then(Value::as_f64)
            .expect("failed"),
        result.get("correct") == Some(&Value::Bool(true)),
    )
}

#[test]
fn a_clean_run_passes_and_a_corrupted_one_fails() {
    for workload in ["offline-lenet5r-int8", "net-closed-vgg-nano-fp32"] {
        assert_eq!(
            run_with(workload, None),
            (true, 0.0, true),
            "{workload} clean"
        );
        for fault in ["flip-bit", "drop-reply"] {
            let (exit_ok, failed, correct) = run_with(workload, Some(fault));
            assert!(!exit_ok, "{workload} {fault}: exit code was 0");
            assert_eq!(failed, 1.0, "{workload} {fault}");
            assert!(!correct, "{workload} {fault}: still reported correct");
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let exe = env!("CARGO_BIN_EXE_mlcnn-benchmark");
    for args in [
        &["run", "--workload", "no-such-workload", "--seed", "1"][..],
        &["run", "--workload", "offline-lenet5r-int8"][..],
        &["run", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = Command::new(exe).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
