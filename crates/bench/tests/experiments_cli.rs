//! `experiments` checks its whole command line before any figure runs: a
//! bad figure name or `--runs` value exits with code 2 and the usage line,
//! and prints no results.

#[test]
fn bad_arguments_exit_2_before_any_figure_runs() {
    let cases: [&[&str]; 6] = [
        &["nosuchfig"],
        &["fig8", "nosuchfig"],
        &["--runs", "x"],
        &["--runs"],
        &["--runs", "0"],
        &["--small", "--runs", "0", "fig8"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}
