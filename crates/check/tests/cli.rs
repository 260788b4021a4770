//! `minos-torture` argument validation: sizes the runs cannot use are
//! rejected up front with a message, the usage text and exit status 2 —
//! never a panic mid-campaign.

use std::process::Command;

#[test]
fn bad_sizes_print_usage_instead_of_panicking() {
    let cases: [&[&str]; 4] = [
        &["--nodes", "0"],
        &["--keys", "0"],
        &["--shards", "2", "--nodes", "2", "--replicas", "3"],
        &["--shards", "3", "--replicas", "0"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_minos-torture"))
            .args(["--model", "synch", "--seeds", "1"])
            .args(args)
            .output()
            .expect("run minos-torture");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
