//! A closed stdout ends a binary quietly, as `fig6 --list-scenarios |
//! head -1` does: every binary prints through `arvi_bench::write_stdout`,
//! which exits with status 141 (128 + SIGPIPE) on a broken pipe instead
//! of panicking.

use std::process::{Command, Stdio};

/// Runs `bin` with `args`, its stdout the write end of a pipe whose
/// reader is already gone.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("the binary starts")
}

#[test]
fn closed_stdout_exits_141_without_a_panic() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig6"), &["--list-scenarios"][..]),
        (env!("CARGO_BIN_EXE_tables"), &[]),
    ] {
        let out = run_with_closed_stdout(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}
