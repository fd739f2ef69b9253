//! A seed that no tuning used passes every correctness check on every
//! workload, untraced and traced.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve_ram", "serve_paged", "wire_ram", "fleet_outage"];

#[test]
fn held_out_seed_passes_every_check() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mar-perfbench"))
                .args(["--workload", workload, "--seed", "424242", "--seconds", "1"])
                .args(["--trace", trace])
                .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                out.status.success() && last.starts_with("{\"correct\": true, "),
                "{workload} --trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve_ram", "--seed", "x"][..],
        &["--workload"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mar-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
