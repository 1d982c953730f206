//! `paper` rejects a bad `--jobs` value or figure name before it runs
//! anything, and prints the analytic tables byte for byte as recorded.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("paper starts")
}

#[test]
fn bad_arguments_print_the_error_usage_and_names_and_fail() {
    let cases: [(&[&str], &str); 4] = [
        (&["fig8", "--jobs", "x"], "error: bad --jobs value \"x\""),
        (&["-j", "-1", "fig8"], "error: bad -j value \"-1\""),
        (&["table1", "fig13"], "error: unknown figure fig13"),
        (&["table1", "--jobs"], "error: --jobs needs a value"),
    ];
    for (args, error) in cases {
        let out = paper(args);
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(!out.status.success(), "paper {args:?} must fail");
        assert!(out.stdout.is_empty(), "paper {args:?} printed a figure");
        assert!(stderr.starts_with(error), "paper {args:?} printed: {stderr}");
        for name in ["usage: paper", "table1", "fig4_fig5", "ablation_virtual_inputs", "extension_wfvix"] {
            assert!(stderr.contains(name), "paper {args:?} does not list {name}: {stderr}");
        }
    }
}

#[test]
fn analytic_figures_match_the_recorded_output() {
    let out = paper(&["table1", "table3", "fig4_fig5"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(stdout, include_str!("paper_analytic.out"));
}
