//! Parallel fault campaigns: the serial `run_campaign` fan-out.
//!
//! The campaign prelude (directed demonstrations, fault-free references)
//! runs once on the driver thread, exactly as the serial runner does;
//! every seeded run then becomes one fleet job whose payload is the
//! *rendered JSON fragment* the serial report emits for that run. The
//! aggregate reassembles fragments in run order, so the output is
//! byte-identical to [`vpdift_faults::render_json`] on a serial
//! [`vpdift_faults::run_campaign`] — regardless of worker count,
//! stealing, or interleaving.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use vpdift_faults::campaign::ReferenceInfo;
use vpdift_faults::{
    campaign_prelude, random_run, run_json, scenario_json, CampaignConfig, CampaignPrelude, Outcome,
};
use vpdift_obs::json::{self, Value};

use crate::executor::{Fleet, FleetConfig};
use crate::job::{Job, JobOutput, JobResult, JobStatus};
use crate::journal::{Journal, JournalHeader};

/// A finished parallel campaign.
#[derive(Debug)]
pub struct FleetCampaign {
    /// The deterministic report JSON (byte-identical to the serial
    /// renderer when every job completed).
    pub json: String,
    /// Jobs that did not complete (`crashed` / `hang` / `error`), by
    /// (job id, status label).
    pub failures: Vec<(u64, &'static str)>,
    /// Jobs resumed from the journal rather than re-run.
    pub resumed: usize,
    /// Fault-free reference facts (for bench trajectories).
    pub references: Vec<ReferenceInfo>,
    /// Outcome totals across directed + completed runs, indexed by
    /// [`Outcome::index`].
    pub summary: Vec<u64>,
}

impl FleetCampaign {
    /// Counts classifications of `outcome` for `scenario` in the
    /// rendered report (see [`count_scenario_outcome`]).
    pub fn scenario_outcome_count(&self, scenario: &str, outcome: &str) -> u64 {
        count_scenario_outcome(&self.json, scenario, outcome)
    }
}

/// Counts scenario objects in `json` (rendered by
/// [`vpdift_faults::scenario_json`]) naming `scenario` with `outcome`,
/// wherever they sit in the report; a report that does not parse counts
/// none.
pub fn count_scenario_outcome(json: &str, scenario: &str, outcome: &str) -> u64 {
    fn walk(v: &Value, scenario: &str, outcome: &str) -> u64 {
        let here = v.get("scenario").and_then(Value::as_str) == Some(scenario)
            && v.get("outcome").and_then(Value::as_str) == Some(outcome);
        let nested: u64 = match v {
            Value::Arr(items) => items.iter().map(|c| walk(c, scenario, outcome)).sum(),
            Value::Obj(fields) => fields.iter().map(|(_, c)| walk(c, scenario, outcome)).sum(),
            _ => 0,
        };
        u64::from(here) + nested
    }
    json::parse(json).map_or(0, |v| walk(&v, scenario, outcome))
}

/// Runs `config` as a parallel campaign on `fleet_config.workers`
/// workers. With `journal_path`, results stream into a crash-safe
/// journal; `resume` recovers previously completed jobs from it instead
/// of re-running them.
pub fn run_campaign_fleet(
    config: &CampaignConfig,
    fleet_config: &FleetConfig,
    journal_path: Option<&Path>,
    resume: bool,
) -> std::io::Result<FleetCampaign> {
    let prelude = campaign_prelude(config);
    let prelude = Arc::new(prelude);
    let campaign = *config;

    let jobs: Vec<Job> = (0..config.runs)
        .map(|i| {
            let prelude = Arc::clone(&prelude);
            Job::new(u64::from(i), move |_ctx| {
                let run = random_run(&prelude.refs, &campaign, i);
                let mut counts = vec![0u64; Outcome::COUNT];
                for s in &run.results {
                    counts[s.outcome.index()] += 1;
                }
                Ok(JobOutput { payload: run_json(&run), counts, insns: run.steps })
            })
        })
        .collect();

    let header = JournalHeader {
        suite: "faultcamp".into(),
        jobs: u64::from(config.runs),
        seed: config.seed,
    };
    let (mut journal, recovered) = match (journal_path, resume) {
        (Some(path), true) => {
            let (j, recovered) = Journal::open_resume(path, &header)?;
            (Some(j), recovered)
        }
        (Some(path), false) => (Some(Journal::create(path, &header)?), Vec::new()),
        (None, _) => (None, Vec::new()),
    };

    let skip: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
    let resumed = skip.len();
    if let Some(hub) = &fleet_config.telemetry {
        hub.add_resumed(resumed as u64);
    }
    let fresh = Fleet::new(fleet_config.clone()).run(jobs, journal.as_mut(), &skip);

    let mut results = recovered;
    results.extend(fresh);
    results.sort_by_key(|r| r.job_id);

    Ok(assemble(&prelude, config, &results, resumed))
}

/// Reassembles the deterministic report from the prelude and per-run
/// results. Failed runs are rendered as explicit `"failed"` rows (they
/// cost exactly one classified result each — never the campaign).
fn assemble(
    prelude: &CampaignPrelude,
    config: &CampaignConfig,
    results: &[JobResult],
    resumed: usize,
) -> FleetCampaign {
    let mut summary = vec![0u64; Outcome::COUNT];
    for s in &prelude.directed {
        summary[s.outcome.index()] += 1;
    }
    let mut failures = Vec::new();

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"campaign\": {{\"seed\": {}, \"runs\": {}, \"rate\": {}}},",
        config.seed, config.runs, config.rate
    );
    out.push_str("  \"references\": [\n");
    for (i, r) in prelude.references.iter().enumerate() {
        let comma = if i + 1 < prelude.references.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\":\"{}\",\"exit\":\"{}\",\"steps\":{}}}{comma}",
            r.scenario, r.exit, r.steps
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"directed\": [\n");
    for (i, s) in prelude.directed.iter().enumerate() {
        let comma = if i + 1 < prelude.directed.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", scenario_json(s));
    }
    out.push_str("  ],\n");

    out.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        match (&r.status, &r.payload) {
            (JobStatus::Ok, Some(payload)) => {
                for (slot, n) in r.counts.iter().enumerate() {
                    if let Some(cell) = summary.get_mut(slot) {
                        *cell += n;
                    }
                }
                let _ = writeln!(out, "    {payload}{comma}");
            }
            _ => {
                failures.push((r.job_id, r.status.label()));
                let _ = writeln!(
                    out,
                    "    {{\"run\":{},\"failed\":\"{}\"}}{comma}",
                    r.job_id,
                    r.status.label()
                );
            }
        }
    }
    out.push_str("  ],\n");

    let rendered: Vec<String> =
        Outcome::ALL.iter().map(|o| format!("\"{}\": {}", o.label(), summary[o.index()])).collect();
    let _ = writeln!(out, "  \"summary\": {{{}}}", rendered.join(", "));
    out.push_str("}\n");

    FleetCampaign { json: out, failures, resumed, references: prelude.references.clone(), summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_faults::{render_json, run_campaign};

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let config = CampaignConfig { seed: 0xFEED, runs: 6, rate: 5e-5 };
        let serial = render_json(&run_campaign(&config));
        for workers in [1, 4] {
            let fleet_config = FleetConfig { workers, ..FleetConfig::default() };
            let fleet = run_campaign_fleet(&config, &fleet_config, None, false).unwrap();
            assert!(fleet.failures.is_empty());
            assert_eq!(
                fleet.json, serial,
                "{workers}-worker campaign must render the serial bytes"
            );
            // Every classified scenario in the report is counted once.
            for o in Outcome::ALL {
                let counted: u64 = fleet
                    .references
                    .iter()
                    .map(|r| fleet.scenario_outcome_count(r.scenario, o.label()))
                    .sum();
                assert_eq!(counted, fleet.summary[o.index()], "outcome {}", o.label());
            }
        }
    }
}
