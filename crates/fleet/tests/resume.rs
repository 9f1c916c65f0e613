//! End-to-end crash-safe resume: a campaign journal truncated mid-write
//! (as SIGKILL leaves it) must resume to the exact bytes an
//! uninterrupted campaign produces, re-running only the missing jobs.

use std::fs;
use std::io::Write as _;

use vpdift_faults::CampaignConfig;
use vpdift_fleet::{run_campaign_fleet, FleetConfig};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-resume-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn truncated_journal_resumes_to_identical_bytes() {
    let config = CampaignConfig { seed: 0xACE, runs: 6, rate: 5e-5 };
    let fleet_config = FleetConfig { workers: 2, ..FleetConfig::default() };

    // The uninterrupted run: journal + aggregate.
    let full_path = temp_path("full.jsonl");
    let full = run_campaign_fleet(&config, &fleet_config, Some(&full_path), false).unwrap();
    assert!(full.failures.is_empty());
    assert_eq!(full.resumed, 0);

    // Simulate SIGKILL mid-campaign: keep the header and the first three
    // intact records, then a torn half-line where the writer died.
    let journal = fs::read_to_string(&full_path).unwrap();
    let keep: Vec<&str> = journal.lines().take(4).collect();
    let interrupted_path = temp_path("interrupted.jsonl");
    {
        let mut f = fs::File::create(&interrupted_path).unwrap();
        for line in &keep {
            writeln!(f, "{line}").unwrap();
        }
        write!(f, "{{\"job\":9,\"status\":\"ok\",\"attem").unwrap();
    }

    // Resume: the three journaled runs are skipped, the rest re-run.
    let resumed =
        run_campaign_fleet(&config, &fleet_config, Some(&interrupted_path), true).unwrap();
    assert_eq!(resumed.resumed, 3, "three intact records recovered");
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.json, full.json, "resumed campaign renders the uninterrupted bytes");

    // The resumed journal now holds every job exactly once.
    let final_journal = fs::read_to_string(&interrupted_path).unwrap();
    let mut jobs: Vec<u64> = final_journal
        .lines()
        .skip(1)
        .filter_map(vpdift_fleet::parse_record)
        .map(|r| r.job_id)
        .collect();
    jobs.sort_unstable();
    jobs.dedup();
    assert_eq!(jobs, (0..6).collect::<Vec<u64>>());

    fs::remove_file(&full_path).ok();
    fs::remove_file(&interrupted_path).ok();
}

#[test]
fn resume_refuses_a_journal_of_a_different_rate() {
    let journaled = CampaignConfig { seed: 1, runs: 2, rate: 5e-5 };
    let fleet_config = FleetConfig::default();
    let path = temp_path("rate.jsonl");
    run_campaign_fleet(&journaled, &fleet_config, Some(&path), false).unwrap();

    let denser = CampaignConfig { rate: 2e-3, ..journaled };
    let err = run_campaign_fleet(&denser, &fleet_config, Some(&path), true)
        .expect_err("a 5e-5 journal must not resume a 2e-3 campaign");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("different campaign"), "{err}");
    fs::remove_file(&path).ok();
}
