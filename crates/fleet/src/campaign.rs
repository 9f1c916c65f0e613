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

use std::path::Path;
use std::sync::Arc;

use vpdift_faults::campaign::ReferenceInfo;
use vpdift_faults::{
    campaign_prelude, random_run, render_report, run_json, CampaignConfig, Outcome,
};
use vpdift_obs::json::{self, Value};

use crate::executor::{Fleet, FleetConfig};
use crate::job::{Job, JobOutput, JobResult, JobStatus};
use crate::journal::JournalHeader;

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
    let prelude = Arc::new(campaign_prelude(config));
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
        rate: config.rate,
        image: None,
    };
    let (results, resumed) =
        Fleet::new(fleet_config.clone()).run_journaled(jobs, journal_path, resume, &header)?;

    // Failed runs are explicit `"failed"` rows: they cost exactly one
    // classified result each, never the campaign.
    let mut summary = vec![0u64; Outcome::COUNT];
    for s in &prelude.directed {
        summary[s.outcome.index()] += 1;
    }
    let (rows, failed) = runs_rows(&results, "run", &mut summary);
    Ok(FleetCampaign {
        json: render_report(config, &prelude.references, &prelude.directed, &rows, &summary),
        failures: failed.iter().map(|r| (r.job_id, r.status.label())).collect(),
        resumed,
        references: prelude.references.clone(),
        summary,
    })
}

/// The rows of a report's `"runs"` array, one per result in job-id
/// order: a completed job's payload verbatim, any other job as
/// `{"<id_key>":N,"failed":"<status>"}`. Completed jobs' outcome counts
/// are added into `summary`; the jobs that did not complete are returned
/// beside the rows.
pub fn runs_rows<'a>(
    results: &'a [JobResult],
    id_key: &str,
    summary: &mut [u64],
) -> (Vec<String>, Vec<&'a JobResult>) {
    let mut failed = Vec::new();
    let rows = results
        .iter()
        .map(|r| match (&r.status, &r.payload) {
            (JobStatus::Ok, Some(payload)) => {
                for (cell, n) in summary.iter_mut().zip(&r.counts) {
                    *cell += n;
                }
                payload.clone()
            }
            _ => {
                failed.push(r);
                format!("{{\"{id_key}\":{},\"failed\":\"{}\"}}", r.job_id, r.status.label())
            }
        })
        .collect();
    (rows, failed)
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
                    .map(|r| count_scenario_outcome(&fleet.json, r.scenario, o.label()))
                    .sum();
                assert_eq!(counted, fleet.summary[o.index()], "outcome {}", o.label());
            }
        }
    }
}
