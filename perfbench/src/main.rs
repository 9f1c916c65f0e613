//! The taintvp benchmark: two workloads driving the library's public API
//! from one process, with end-to-end metrics (tracing off) or per-layer
//! metrics from an in-memory span trace (tracing on). See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-long|serve-debug \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod fleet;
mod serve;
mod stats;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::span;

/// The seed used when `--seed` is not given. Seed 7919 is held back:
/// nothing was tuned on it, and a claimed gain must also hold on it.
const DEFAULT_SEED: u64 = 1;

/// Guest size of `table2-long` (the Table II harness's scale factor).
const TABLE2_SCALE: u32 = 2;
/// Seeded runs per campaign of the fleet companion.
const FLEET_RUNS: u32 = 12;
/// RAM of the serve companion's sessions (the home workload uses the
/// default 8 MiB).
const SERVE_COMPANION_RAM: u32 = 64 * 1024;
/// Closed-loop serve clients (one per core of the 2-core reference host).
const SERVE_CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The share of `--seconds` each companion activity runs for. The batch
/// gets the most: its guest runs are the longest units, and its best-of
/// estimate needs several runs of each; the fleet's campaigns come next.
const BATCH_COMPANION_SHARE: f64 = 0.35;
const SERVE_COMPANION_SHARE: f64 = 0.2;
const FLEET_COMPANION_SHARE: f64 = 0.25;
/// Rounds per run: the workload's loop and its companions alternate, so
/// every activity samples the whole run. In a traced run the odd rounds
/// are traced and the even ones are the untraced baseline.
const SLICES: u32 = 6;

/// Operations attempted and failed, failed checks, and the metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not a finite number"));
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.errors.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: vpdift-perfbench --workload table2-long|serve-debug \
                     [--seed N (default 1; 7919 is held back)] [--seconds S (default 10)] \
                     [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["table2-long", "serve-debug"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs set-up `SETUP_REPS` times and returns the last result with the
/// median set-up time in seconds.
fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), stats::median(&times))
}

/// Median over keys of the traced / untraced unit-time ratio, in percent.
fn overhead_pct<K: Ord>(traced: &BTreeMap<K, f64>, untraced: &BTreeMap<K, f64>) -> f64 {
    let ratios: Vec<f64> =
        traced.iter().filter_map(|(k, t)| untraced.get(k).map(|u| t / u)).collect();
    (stats::median(&ratios) - 1.0) * 100.0
}

/// One activity of a run — a workload's own loop or a companion — with
/// its accumulated samples: `[untraced, traced]`, the second used only by
/// a traced run.
enum Activity {
    Batch([table2::Batch; 2]),
    Serve(serve::Setup, [serve::Loop; 2]),
    Fleet(fleet::Setup, [fleet::Loop; 2]),
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Batch,
    Serve,
    Fleet,
}

impl Activity {
    /// Set-up: the home workload at full size, a companion at its small
    /// fixed size (see `README.md`, "Companions"). The fleet is only ever
    /// a companion.
    fn new(kind: Kind, home: bool, args: &Args, out_dir: &Path) -> Activity {
        match kind {
            Kind::Batch => {
                let guests = || {
                    if home {
                        table2::guests(args.seed, TABLE2_SCALE)
                    } else {
                        table2::companion_guests(args.seed)
                    }
                };
                let batch = || table2::Batch::new(guests());
                table2::warm_soc();
                Activity::Batch([batch(), batch()])
            }
            Kind::Serve => {
                let ram = if home { None } else { Some(SERVE_COMPANION_RAM) };
                let setup = serve::setup(args.seed, ram);
                let loops = [
                    serve::Loop::new(&setup, SERVE_CLIENTS),
                    serve::Loop::new(&setup, SERVE_CLIENTS),
                ];
                Activity::Serve(setup, loops)
            }
            Kind::Fleet => {
                let setup = fleet::setup(args.seed, FLEET_RUNS, out_dir);
                let loops = [fleet::Loop::new(&setup), fleet::Loop::new(&setup)];
                Activity::Fleet(setup, loops)
            }
        }
    }

    /// Runs the activity until `deadline` under root span `root`.
    fn run_until(
        &mut self,
        deadline: Instant,
        traced: bool,
        root: &'static str,
        report: &mut Report,
    ) {
        let t = traced as usize;
        match self {
            Activity::Batch(b) => {
                let _root = span(root, 0);
                b[t].run_until(deadline, report);
            }
            // Client threads open their own root spans.
            Activity::Serve(setup, l) => l[t].run_until(setup, deadline, root, report),
            Activity::Fleet(setup, l) => {
                let _root = span(root, 0);
                l[t].run_until(setup, deadline, report);
            }
        }
    }

    /// Drops the untraced samples (after the warm-up round).
    fn reset(&mut self) {
        match self {
            Activity::Batch(b) => b[0].runs.clear(),
            Activity::Serve(setup, l) => l[0] = serve::Loop::new(setup, SERVE_CLIENTS),
            Activity::Fleet(setup, l) => l[0] = fleet::Loop::new(setup),
        }
    }

    /// Makes sure every guest of a batch was measured at least once.
    fn complete(&mut self, traced: bool, root: &'static str, report: &mut Report) {
        if let Activity::Batch(b) = self {
            let _root = span(root, 0);
            b[traced as usize].complete_pass(report);
        }
    }

    fn put_e2e(&self, report: &mut Report) {
        match self {
            Activity::Batch(b) => b[0].put_e2e(report),
            Activity::Serve(_, l) => l[0].put_e2e(report),
            Activity::Fleet(_, l) => l[0].put_e2e(report),
        }
    }

    /// Traced unit times over untraced ones, in percent.
    fn overhead_pct(&self) -> f64 {
        match self {
            Activity::Batch(b) => overhead_pct(&b[1].unit_medians(), &b[0].unit_medians()),
            Activity::Serve(_, l) => overhead_pct(&l[1].unit_medians(), &l[0].unit_medians()),
            Activity::Fleet(_, l) => (l[1].unit_median() / l[0].unit_median() - 1.0) * 100.0,
        }
    }

    fn put_layers(&self, args: &Args, layers: &mut Report) {
        match self {
            Activity::Batch(b) => {
                b[1].put_layers(layers);
                table2::put_flat_iss(args.seed, &b[1], layers);
            }
            Activity::Serve(setup, l) => {
                l[1].put_layers(layers);
                layers.put("obs.stream_items", setup.expect.stream_lines as f64, "count");
                serve::put_probes(&serve::Script::new(args.seed, None), layers);
            }
            Activity::Fleet(setup, l) => {
                l[1].put_layers(layers);
                fleet::put_probes(setup, &l[1], layers);
            }
        }
    }
}

/// Runs one workload: set-up (timed, repeated), then `SLICES` rounds of
/// the workload's own loop followed by its two companions, so that every
/// activity samples the whole run; then the end-to-end metrics, or, in a
/// traced run, the per-layer ones.
fn run(args: &Args, out_dir: &Path, report: &mut Report) {
    let home = match args.workload.as_str() {
        "table2-long" => Kind::Batch,
        _ => Kind::Serve,
    };
    let (home_activity, setup_s) = repeated_setup(|| Activity::new(home, true, args, out_dir));
    let companions: Vec<Kind> =
        [Kind::Batch, Kind::Serve, Kind::Fleet].into_iter().filter(|&k| k != home).collect();
    let mut activities = vec![home_activity];
    for &kind in &companions {
        activities.push(Activity::new(kind, false, args, out_dir));
    }
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share / f64::from(SLICES));
    // The home loop's spans sit under `bench.home` roots, so the layer
    // self times account for the workload itself.
    let role = |n: usize| match n.checked_sub(1).map(|c| companions[c]) {
        None => (1.0, "bench.home"),
        Some(Kind::Batch) => (BATCH_COMPANION_SHARE, "bench.companion"),
        Some(Kind::Serve) => (SERVE_COMPANION_SHARE, "bench.companion"),
        Some(Kind::Fleet) => (FLEET_COMPANION_SHARE, "bench.companion"),
    };
    // A discarded warm-up round: the host runs slower for the first
    // seconds of load, and caches and allocator arenas start cold. The
    // peak memory is read once the home loop has warmed up and before any
    // companion ran, so that it is the workload's own.
    let mut peak_rss_mb = 0.0;
    for (n, activity) in activities.iter_mut().enumerate() {
        let (share, root) = role(n);
        activity.run_until(Instant::now() + slice(share) / 2, false, root, report);
        activity.reset();
        if n == 0 {
            peak_rss_mb = stats::usage().max_rss_mb;
        }
    }
    for i in 0..SLICES {
        let traced = args.trace && i % 2 == 1;
        trace::set_enabled(traced);
        for (n, activity) in activities.iter_mut().enumerate() {
            let (share, root) = role(n);
            activity.run_until(Instant::now() + slice(share), traced, root, report);
        }
    }
    for traced in [false, args.trace] {
        trace::set_enabled(traced);
        for (n, activity) in activities.iter_mut().enumerate() {
            activity.complete(traced, role(n).1, report);
        }
    }
    trace::set_enabled(false);
    for activity in &activities {
        if let Activity::Fleet(setup, l) = activity {
            fleet::check_serial(setup, &l[0], report);
        }
    }
    if !args.trace {
        report.put("setup_s", setup_s, "s");
        report.put("peak_rss_mb", peak_rss_mb, "MiB");
        for activity in &activities {
            activity.put_e2e(report);
        }
        return;
    }
    let overhead = activities[0].overhead_pct();
    trace::set_enabled(true);
    let mut layers = Report::default();
    {
        let _root = span("bench.probes", 0);
        for activity in &activities {
            activity.put_layers(args, &mut layers);
        }
    }
    trace::set_enabled(false);
    let spans = trace::take();
    let home = trace::under_root(&spans, "bench.home");
    for (layer, ns) in trace::self_times(&home) {
        layers.put(&format!("self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
    layers.put("trace.e2e_ms", trace::root_ns(&home) as f64 / 1e6, "ms");
    layers.put("trace.overhead_pct", overhead, "%");
    layers.put("trace.spans", spans.len() as f64, "count");
    let path = out_path(&format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::write(&path, trace::render_jsonl(&spans)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
    }
    report.errors.append(&mut layers.errors);
    report.metrics = layers.metrics;
}

fn out_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = out_path("");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    trace::set_enabled(false);
    let mut report = Report::default();
    run(&args, &out_dir, &mut report);
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<36} {value:>14.4} {unit}");
    }
    println!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
