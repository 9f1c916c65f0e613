//! End-to-end tests of `taintvp-run fleet`: report bytes pinned against
//! golden files, worker-count independence, torn-journal resume, the
//! injected failure rows, and resume refusing a journal from a different
//! sweep.

use std::path::PathBuf;
use std::process::Command;

const JOBS8: &str = include_str!("golden/fleet_jobs8.json");
const PROGRAM_LEAK: &str = include_str!("golden/fleet_program_leak.json");

fn fleet(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_taintvp-run"))
        .arg("fleet")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("CLI binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taintvp-fleet-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn immobilizer_sweep_matches_golden_for_any_worker_count() {
    for workers in ["1", "3"] {
        let (code, stdout, stderr) = fleet(&["--jobs", "8", "--workers", workers]);
        assert_eq!(code, 0, "stderr: {stderr}");
        assert_eq!(stdout, JOBS8, "{workers}-worker report");
    }
}

#[test]
fn program_sweep_matches_golden() {
    let (code, stdout, stderr) = fleet(&["--jobs", "6", "--program", "docs/examples/leak.s"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(stdout, PROGRAM_LEAK);
}

#[test]
fn journal_torn_mid_record_resumes_to_golden_bytes() {
    let path = temp_path("torn.jsonl");
    let journal = path.to_str().unwrap();
    let (code, stdout, stderr) = fleet(&["--jobs", "8", "--workers", "2", "--journal", journal]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(stdout, JOBS8);

    // Keep the header and three records, then half of the fourth: what a
    // writer killed mid-append leaves behind.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut torn: String = lines[..4].iter().map(|l| format!("{l}\n")).collect();
    torn.push_str(&lines[4][..lines[4].len() / 2]);
    std::fs::write(&path, torn).unwrap();

    let (code, stdout, stderr) =
        fleet(&["--jobs", "8", "--workers", "2", "--journal", journal, "--resume"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("resumed 3 completed job(s)"), "{stderr}");
    assert_eq!(stdout, JOBS8, "resumed sweep renders the uninterrupted bytes");
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_panic_and_hang_cost_exactly_their_rows() {
    let (code, stdout, stderr) = fleet(&[
        "--jobs",
        "8",
        "--workers",
        "2",
        "--deadline-ms",
        "2000",
        "--inject-panic",
        "2",
        "--inject-hang",
        "5",
    ]);
    assert_eq!(code, 0, "failed jobs are rows, not a failed sweep: {stderr}");
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("\"failed\"")).collect();
    assert_eq!(
        failed,
        ["    {\"job\":2,\"failed\":\"crashed\"},", "    {\"job\":5,\"failed\":\"hang\"},"]
    );
    // Every other row is the golden one.
    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("    {\"job\":") && !l.contains("\"failed\""))
            .filter(|l| !l.starts_with("    {\"job\":2,") && !l.starts_with("    {\"job\":5,"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(rows(&stdout), rows(JOBS8));
    assert_eq!(rows(&stdout).len(), 6);
    assert!(stdout.contains("\"crashed\": 1, \"hang\": 1, \"error\": 0}"), "{stdout}");
}

#[test]
fn resume_refuses_a_journal_of_a_different_program() {
    let other = temp_path("other.s");
    std::fs::write(&other, "        li   a0, 1\n        ebreak\n").unwrap();
    let path = temp_path("program.jsonl");
    let journal = path.to_str().unwrap();
    let (code, _, stderr) =
        fleet(&["--jobs", "6", "--program", "docs/examples/leak.s", "--journal", journal]);
    assert_eq!(code, 0, "stderr: {stderr}");

    let (code, stdout, stderr) = fleet(&[
        "--jobs",
        "6",
        "--program",
        other.to_str().unwrap(),
        "--journal",
        journal,
        "--resume",
    ]);
    assert_eq!(code, 1, "resuming another program's journal must fail: {stdout}");
    assert!(stderr.contains("different campaign"), "{stderr}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&other).ok();
}
