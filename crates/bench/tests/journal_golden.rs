//! Journal format across builds: `tests/golden/table1-k2.journal` was
//! written by an earlier build (`table1 2 --no-store --threads 1 --journal
//! …`), and `tests/golden/table1-k2-merge.txt` is the table that build's
//! `table1 merge` printed for it.  The current `table1 merge` must read the
//! journal and print the identical table, so a change to the journal
//! format, a descriptor, a payload encoding or the table rendering that
//! would orphan existing journals fails here.

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

#[test]
fn journal_written_by_an_earlier_build_merges_to_its_golden_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("merge")
        .arg(golden("table1-k2.journal"))
        .env_remove("CLFUZZ_STORE")
        .output()
        .expect("spawn table1 merge");
    assert!(
        out.status.success(),
        "table1 merge failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(golden("table1-k2-merge.txt")).expect("golden table");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
