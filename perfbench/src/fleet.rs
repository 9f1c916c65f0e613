//! The fleet companion: seeded fault campaigns on the work-stealing fleet
//! executor with a journal, repeated in a closed loop.

use std::path::PathBuf;
use std::time::Instant;

use vpdift_faults::{
    campaign_prelude, random_run, render_json, run_campaign, CampaignConfig, Outcome,
};
use vpdift_fleet::campaign::count_scenario_outcome;
use vpdift_fleet::{run_campaign_fleet, Fleet, FleetConfig};

use crate::stats::{median, mix, usage};
use crate::trace::timed;
use crate::Report;

pub const WORKERS: usize = 2;

pub struct Setup {
    pub config: CampaignConfig,
    pub fleet: FleetConfig,
    pub journal: PathBuf,
}

/// Derives the campaign from the seed, prepares the journal path, and
/// builds the first executor and the first tainted default-RAM `Soc`.
pub fn setup(seed: u64, runs: u32, out_dir: &std::path::Path) -> Setup {
    let config = CampaignConfig { seed: mix(seed, 8), runs, rate: 5e-5 };
    let fleet = FleetConfig { workers: WORKERS, ..FleetConfig::default() };
    drop(Fleet::new(fleet.clone()));
    crate::table2::warm_soc();
    let journal = out_dir.join(format!("fleet-{}.journal", std::process::id()));
    Setup { config, fleet, journal }
}

/// What the closed loop measured, accumulated over the run's slices.
pub struct Loop {
    runs_per_campaign: u32,
    /// Wall and CPU (user + sys) seconds of each campaign.
    pub walls_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub user_s: f64,
    pub sys_s: f64,
    pub json: String,
    pub summary: Vec<u64>,
}

impl Loop {
    pub fn new(setup: &Setup) -> Loop {
        Loop {
            runs_per_campaign: setup.config.runs,
            walls_s: Vec::new(),
            cpu_s: Vec::new(),
            user_s: 0.0,
            sys_s: 0.0,
            json: String::new(),
            summary: Vec::new(),
        }
    }

    /// Runs whole campaigns until `deadline` (at least one), checking
    /// that every one renders the same report with no failed job and no
    /// silent data corruption of the immobilizer.
    pub fn run_until(&mut self, setup: &Setup, deadline: Instant, report: &mut Report) {
        loop {
            self.run_one(setup, report);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    fn run_one(&mut self, setup: &Setup, report: &mut Report) {
        let runs = u64::from(setup.config.runs);
        report.attempted += runs;
        let before = usage();
        let (res, d) = timed("fleet.run_campaign_fleet", self.walls_s.len() as u64, || {
            run_campaign_fleet(&setup.config, &setup.fleet, Some(&setup.journal), false)
        });
        let after = usage();
        let _ = std::fs::remove_file(&setup.journal);
        let campaign = match res {
            Ok(c) => c,
            Err(e) => {
                report.failed += runs;
                report.fail(format!("campaign journal error: {e}"));
                return;
            }
        };
        self.walls_s.push(d.as_secs_f64());
        self.cpu_s.push(after.user_s + after.sys_s - before.user_s - before.sys_s);
        self.user_s += after.user_s - before.user_s;
        self.sys_s += after.sys_s - before.sys_s;
        report.failed += campaign.failures.len() as u64;
        if self.json.is_empty() {
            let sdc = count_scenario_outcome(&campaign.json, "immo-session", "sdc");
            report.check(sdc == 0, || {
                format!("{sdc} immobilizer run(s) ended in silent data corruption")
            });
            self.json = campaign.json;
            self.summary = campaign.summary;
        } else {
            report.check(campaign.json == self.json, || {
                "campaign reports differ between repetitions".into()
            });
        }
    }

    /// Jobs per second and CPU per job of the best campaign, prelude
    /// included: campaigns are sampled all over the run, so the best one
    /// sheds the host's slow phases (see `README.md`).
    pub fn put_e2e(&self, report: &mut Report) {
        let runs = f64::from(self.runs_per_campaign);
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        report.put("fleet_jobs_per_s", runs / best(&self.walls_s), "jobs/s");
        report.put("fleet_cpu_ms_per_job", best(&self.cpu_s) * 1e3 / runs, "ms");
    }

    pub fn put_layers(&self, report: &mut Report) {
        report.put("fleet.sys_share", self.sys_s / (self.user_s + self.sys_s), "ratio");
        for o in Outcome::ALL {
            let n = self.summary.get(o.index()).copied().unwrap_or(0);
            report.put(&format!("count.fleet_outcome.{}", o.label()), n as f64, "count");
        }
    }

    /// Median campaign wall time, for the tracing overhead comparison.
    pub fn unit_median(&self) -> f64 {
        median(&self.walls_s)
    }
}

/// The serial reference: `run_campaign` + `render_json` for the same
/// config must reproduce the fleet's report byte for byte.
pub fn check_serial(setup: &Setup, looped: &Loop, report: &mut Report) {
    let (serial, _) = timed("faults.run_campaign", 0, || render_json(&run_campaign(&setup.config)));
    report.check(serial == looped.json, || "fleet report differs from the serial campaign".into());
}

/// `faults.prelude_ms` and `faults.run_ms`, timed serially, and the
/// executor's parallel efficiency derived from them.
pub fn put_probes(setup: &Setup, looped: &Loop, report: &mut Report) {
    let (prelude, d) = timed("faults.campaign_prelude", 0, || campaign_prelude(&setup.config));
    let prelude_ms = d.as_secs_f64() * 1e3;
    let sample = setup.config.runs.min(8);
    let runs_ms: Vec<f64> = (0..sample)
        .map(|i| {
            let (_, d) = timed("faults.random_run", u64::from(i), || {
                random_run(&prelude.refs, &setup.config, i)
            });
            d.as_secs_f64() * 1e3
        })
        .collect();
    report.put("faults.prelude_ms", prelude_ms, "ms");
    report.put("faults.run_ms", median(&runs_ms), "ms");
    let mean_run_ms = runs_ms.iter().sum::<f64>() / runs_ms.len() as f64;
    let busy_ms = mean_run_ms * f64::from(setup.config.runs);
    let wall_ms = looped.unit_median() * 1e3;
    report.put("fleet.parallel_efficiency", busy_ms / (WORKERS as f64 * wall_ms), "ratio");
}
