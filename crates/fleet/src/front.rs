//! The front end both campaign binaries (`faultcamp` and `taintvp-run
//! fleet`) share: the flags that configure a fleet run — workers,
//! journal, telemetry — with their cross-checks, and the telemetry
//! lifecycle around the run.
//!
//! The lifecycle is ordered for scrapers: the hub, the `/metrics`
//! endpoint and the sampler start before the first job;
//! [`Telemetry::run_finished`] makes the sampler write its final
//! snapshot; and [`Telemetry::close`] lingers and shuts the endpoint down
//! only once the caller has written its report, so a scrape that sees the
//! report file also sees the final counters.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use vpdift_obs::MetricsServer;

use crate::telemetry::{render_prom, spawn_sampler, SamplerConfig, SamplerHandle, TelemetryHub};

/// The flags every campaign front end takes.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// `--workers n`: executor threads (at least 1).
    pub workers: usize,
    /// `--journal file`: crash-safe results journal.
    pub journal: Option<PathBuf>,
    /// `--resume`: recover completed jobs from the journal.
    pub resume: bool,
    /// `--progress`: live progress line on stderr.
    pub progress: bool,
    /// `--telemetry-interval-ms n`: sampler cadence.
    pub telemetry_interval_ms: u64,
    /// `--telemetry-out file`: `taintvp-telem/v1` stream.
    pub telemetry_out: Option<PathBuf>,
    /// `--metrics-addr host:port`: Prometheus `/metrics` endpoint.
    pub metrics_addr: Option<String>,
    /// `--metrics-linger-ms n`: keep `/metrics` up after the run.
    pub metrics_linger_ms: u64,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            workers: 1,
            journal: None,
            resume: false,
            progress: false,
            telemetry_interval_ms: 500,
            telemetry_out: None,
            metrics_addr: None,
            metrics_linger_ms: 0,
        }
    }
}

fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} `{v}`"))
}

impl RunFlags {
    /// Takes `flag` if it is one of the shared flags, reading its value
    /// (when it takes one) from `value`. Returns whether it was taken.
    pub fn take(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Option<String>,
    ) -> Result<bool, String> {
        let value = || value().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workers" => {
                self.workers = number(flag, &value()?)?;
                if self.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--journal" => self.journal = Some(value()?.into()),
            "--resume" => self.resume = true,
            "--progress" => self.progress = true,
            "--telemetry-interval-ms" => {
                self.telemetry_interval_ms = number(flag, &value()?)?;
                if self.telemetry_interval_ms == 0 {
                    return Err("--telemetry-interval-ms must be at least 1".into());
                }
            }
            "--telemetry-out" => self.telemetry_out = Some(value()?.into()),
            "--metrics-addr" => self.metrics_addr = Some(value()?),
            "--metrics-linger-ms" => self.metrics_linger_ms = number(flag, &value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the flags against each other once all are parsed.
    pub fn check(&self) -> Result<(), String> {
        if self.resume && self.journal.is_none() {
            return Err("--resume needs --journal".into());
        }
        if self.metrics_linger_ms > 0 && self.metrics_addr.is_none() {
            return Err("--metrics-linger-ms needs --metrics-addr".into());
        }
        Ok(())
    }

    /// Starts telemetry if any consumer asked for it: one of the shared
    /// flags, or `also` for a consumer of the front end's own. `label`
    /// prefixes the stderr lines.
    pub fn start(&self, label: &'static str, also: bool) -> Result<Telemetry, String> {
        let linger = Duration::from_millis(self.metrics_linger_ms);
        let mut telemetry = Telemetry { linger, label, ..Telemetry::default() };
        if !(also || self.progress || self.telemetry_out.is_some() || self.metrics_addr.is_some()) {
            return Ok(telemetry);
        }
        let hub = TelemetryHub::new(self.workers);
        if let Some(addr) = &self.metrics_addr {
            let render_hub = Arc::clone(&hub);
            let server = MetricsServer::bind(addr, Arc::new(move || render_prom(&render_hub)))
                .map_err(|e| e.to_string())?;
            eprintln!("{label}: metrics endpoint on http://{}/metrics", server.local_addr());
            telemetry.server = Some(server);
        }
        let config = SamplerConfig {
            interval: Duration::from_millis(self.telemetry_interval_ms),
            out: self.telemetry_out.clone(),
            progress: true,
        };
        telemetry.sampler = Some(
            spawn_sampler(Arc::clone(&hub), config)
                .map_err(|e| format!("cannot start telemetry sampler: {e}"))?,
        );
        telemetry.hub = Some(hub);
        Ok(telemetry)
    }
}

/// Running telemetry of one campaign; inert when no consumer asked for
/// it.
#[derive(Debug, Default)]
pub struct Telemetry {
    hub: Option<Arc<TelemetryHub>>,
    sampler: Option<SamplerHandle>,
    server: Option<MetricsServer>,
    linger: Duration,
    label: &'static str,
}

impl Telemetry {
    /// The hub to hand the executor (`FleetConfig::telemetry`).
    pub fn hub(&self) -> Option<&Arc<TelemetryHub>> {
        self.hub.as_ref()
    }

    /// Call once the run is over: the sampler writes its final snapshot
    /// and exits. A stream-write failure is a warning only.
    pub fn run_finished(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            if let Err(e) = sampler.finish() {
                eprintln!("{}: warning: telemetry stream write failed: {e}", self.label);
            }
        }
    }

    /// Call once the report is written: keeps `/metrics` up for the
    /// linger time so scrapers can take final samples, then shuts it
    /// down.
    pub fn close(self) {
        if let Some(server) = self.server {
            if !self.linger.is_zero() {
                eprintln!(
                    "{}: metrics endpoint lingering {}ms for final scrapes",
                    self.label,
                    self.linger.as_millis()
                );
                std::thread::sleep(self.linger);
            }
            server.shutdown();
        }
    }
}
