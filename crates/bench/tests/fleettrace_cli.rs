//! `fleettrace`'s argument handling, through the built binary: `--help`
//! is an answer, not an error, and a bad flag still fails with one usage
//! line.

use std::process::Command;

const USAGE: &str = "usage: fleettrace --out PATH [--seed N] [--jobs N]";

fn fleettrace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fleettrace")).args(args).output().expect("fleettrace runs")
}

#[test]
fn help_prints_the_usage_once_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = fleettrace(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{USAGE}\n"), "{flag}");
        assert!(out.stderr.is_empty(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn an_unknown_flag_exits_2_with_the_error_and_one_usage_line() {
    let out = fleettrace(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), format!("fleettrace: unknown flag `--bogus`\n{USAGE}\n"));
}
