//! `trace_dump` argument handling: a bad or extra argument exits 1 with
//! one `error:` line naming it, instead of running with a default.

use std::process::{Command, Output};

fn trace_dump(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn bad_or_extra_arguments_exit_one_naming_them() {
    for (args, needle) in [
        (&[][..], "missing workload"),
        (&["nosuch"], "unknown workload \"nosuch\""),
        (&["libq", "10k"], "bad records \"10k\""),
        (&["libq", "-5"], "bad records \"-5\""),
        (&["libq", "10", "seed"], "bad seed \"seed\""),
        (
            &["libq", "10", "7", "extra"],
            "unexpected argument \"extra\"",
        ),
    ] {
        let out = trace_dump(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?} must name {needle:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote a trace");
    }
}

#[test]
fn good_arguments_write_the_requested_records() {
    let out = trace_dump(&["libq", "25", "7"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 trace");
    assert_eq!(text.lines().count(), 25);
    // Defaults for the seed: the same records as an explicit 2015.
    let default_seed = trace_dump(&["libq", "25"]).stdout;
    assert_eq!(default_seed, trace_dump(&["libq", "25", "2015"]).stdout);
}
