//! The `gvex` binary rejects malformed numeric flags and flags its command
//! does not accept with a usage error — exit code 2, the flag (and its
//! value) named on stderr — before it builds a configuration or does any
//! other work, instead of panicking or running silently with a default.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    let scratch = std::env::temp_dir().join(format!("gvex-cli-{}", std::process::id()));
    let scratch = scratch.to_str().expect("temp path is UTF-8");
    let explain = ["explain", "--dataset", "MUT", "--scale", "small"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        ([&explain[..], &["--upper", "0"]].concat(), "--upper \"0\""),
        ([&explain[..], &["--upper", "abc"]].concat(), "--upper \"abc\""),
        ([&explain[..], &["--labels", "0,x"]].concat(), "--labels \"0,x\""),
        (
            vec!["db", "build", "--dataset", "MUT", "--scale", "small", "--upper", "0", "--out"]
                .into_iter()
                .chain([scratch])
                .collect(),
            "--upper \"0\"",
        ),
        (
            vec!["ingest", "replay", "--db", scratch, "--mutations", scratch, "--upper", "0"],
            "--upper \"0\"",
        ),
        (vec!["stats", "--dataset", "MUT", "--seed", "-1"], "--seed \"-1\""),
        // misspelled or foreign flags
        ([&explain[..], &["--uper", "4"]].concat(), "--uper"),
        (vec!["stats", "--dataset", "MUT", "--upper", "4"], "--upper"),
        (
            vec!["db", "build", "--dataset", "MUT", "--scale", "small", "--no-view", "--out"]
                .into_iter()
                .chain([scratch])
                .collect(),
            "--no-view",
        ),
        (vec!["ingest", "replay", "--db", scratch, "--mutations", scratch, "--verfy"], "--verfy"),
        (vec!["ingest", "gen", "--db", scratch, "--out", scratch, "--threads", "2"], "--threads"),
        (
            vec!["ingest", "replay", "--db", scratch, "--mutations", scratch, "--threads", "2"],
            "--threads",
        ),
        (vec!["serve", "--db", scratch, "--cache-shards", "2"], "--cache-shards"),
        (vec!["request", "--addr", "127.0.0.1:9", "--kind", "ping", "--comit"], "--comit"),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gvex")).args(&args).output().expect("gvex runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} exited {:?}: {stderr}", out.status);
        assert!(stderr.contains(named), "{args:?}: stderr does not name {named}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    assert!(!std::path::Path::new(scratch).exists(), "a rejected build wrote its output");
}
