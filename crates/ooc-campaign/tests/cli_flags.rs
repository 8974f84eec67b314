//! `ooc-campaign` on flag values it cannot use: each must exit 2 with a
//! message naming the flag, never panic (exit code 101) or run with the
//! flag's default in place of the value given.

use std::process::Command;

#[test]
fn unusable_flag_values_exit_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("ooc-cli-flags-{}", std::process::id()));
    let out = dir.to_str().expect("the temp dir is UTF-8");
    let cases: [(&[&str], &str); 11] = [
        (&["degradation", "--seeds", "0"], "--seeds"),
        (&["degradation", "--seeds", "1", "--artifacts"], "--artifacts"),
        (&["report", "--combos", "1", "--algorithm"], "--algorithm"),
        (&["shrink", "artifact.json", "--out"], "--out"),
        (&["degradation", "--reliability", "--seeds", "0"], "--seeds"),
        (&["degradation", "--seeds", "x"], "--seeds"),
        (&["report", "--combos", "abc"], "--combos"),
        (&["report", "--algorithm", "raft", "--combos"], "--combos"),
        (&["sweep", "--combos", "1", "--jobs", "x", "--out", out], "--jobs"),
        (&["sweep", "--combos", "-1", "--out", out], "--combos"),
        (&["replay", "--jobs", "x", "artifact.json"], "--jobs"),
    ];
    for (args, flag) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_ooc-campaign"))
            .args(args)
            .output()
            .expect("run ooc-campaign");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: expected {flag:?} in {stderr:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
