//! CI bench guard: reads a `taintvp-bench/v1` results file (as emitted by
//! `cargo bench -p vpdift-bench --bench iss -- --json BENCH_iss.json`) and
//! fails when the block-cache engine is not actually faster than the
//! reference interpreter on the plain VP — the regression the block cache
//! exists to prevent.
//!
//! Usage: `bench_guard [BENCH_iss.json]` (default path: `BENCH_iss.json`).
//!
//! Every passing run also appends one compact `taintvp-bench/v1` line to
//! the committed `BENCH_trajectory.jsonl` (override the path with
//! `BENCH_TRAJECTORY`), so the perf history accumulates across PRs
//! instead of living in a single overwritten snapshot.
//!
//! Entries are read one line at a time (one entry object per line, the
//! shape our criterion shim writes): each line, with its trailing `,`
//! stripped, goes through the workspace JSON reader
//! ([`vpdift_obs::json`]). Blank lines are ignored, and lines that do not
//! parse — the torn tail a killed bench run leaves in
//! `BENCH_trajectory.jsonl` or a half-written results file — are skipped
//! with a warning rather than tripping the guard.

use std::process::ExitCode;

use vpdift_bench::trajectory;
use vpdift_obs::json::{self, Value};

/// Collects the entry objects of a `taintvp-bench/v1` file, warning
/// (once per line) about truncated leftovers instead of erroring.
fn collect_entries(text: &str) -> Vec<Value> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if !t.starts_with('{') {
            continue;
        }
        match json::parse(t.strip_suffix(',').unwrap_or(t)) {
            Ok(entry) => entries.push(entry),
            Err(_) => eprintln!("bench_guard: warning: skipping truncated line `{:.60}…`", t),
        }
    }
    entries
}

fn median_of(entries: &[Value], name: &str) -> Option<f64> {
    let entry = entries.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(name))?;
    entry.get("median")?.as_f64()
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_iss.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !text.contains("\"schema\": \"taintvp-bench/v1\"") {
        eprintln!("bench_guard: {path} is not a taintvp-bench/v1 results file");
        return ExitCode::FAILURE;
    }
    let entries = collect_entries(&text);

    let mut fail = false;
    let ratio = |label: &str, num: &str, den: &str| -> Option<f64> {
        let (n, d) = (median_of(&entries, num)?, median_of(&entries, den)?);
        println!("{label}: {num} = {n:.0} ns, {den} = {d:.0} ns ({:.2}x)", d / n);
        Some(d / n)
    };

    match ratio("plain speedup", "vp_plain_cached", "vp_plain") {
        Some(speedup) if speedup > 1.0 => {}
        Some(speedup) => {
            eprintln!(
                "bench_guard: block-cache vp_plain is not faster than the interpreter \
                 ({speedup:.2}x)"
            );
            fail = true;
        }
        None => {
            eprintln!("bench_guard: missing vp_plain / vp_plain_cached entries in {path}");
            fail = true;
        }
    }
    // Informational: the VP+ engines and the overhead ratio they imply.
    if let (Some(ti), Some(tc), Some(pi), Some(pc)) = (
        median_of(&entries, "vp_plus_tainted"),
        median_of(&entries, "vp_plus_tainted_cached"),
        median_of(&entries, "vp_plain"),
        median_of(&entries, "vp_plain_cached"),
    ) {
        println!("VP+/VP overhead: interp {:.2}x, block-cache {:.2}x", ti / pi, tc / pc);
    }

    if fail {
        return ExitCode::FAILURE;
    }

    // Log this run to the append-only perf trajectory.
    let tracked = ["vp_plain", "vp_plain_cached", "vp_plus_tainted", "vp_plus_tainted_cached"];
    let logged: Vec<trajectory::Entry> = tracked
        .iter()
        .filter_map(|name| {
            median_of(&entries, name)
                .map(|m| trajectory::Entry::new("iss_step_rate", name, "ns/iter", m))
        })
        .collect();
    let line = trajectory::render_line("bench_guard", trajectory::now_unix(), &logged);
    let traj_path = trajectory::path();
    match trajectory::append(&traj_path, &line) {
        Ok(()) => println!("bench_guard: trajectory appended to {traj_path}"),
        Err(e) => eprintln!("bench_guard: warning: cannot append to {traj_path}: {e}"),
    }

    println!("bench_guard: ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_and_blank_lines_are_skipped() {
        let text = concat!(
            "{\n",
            "  \"schema\": \"taintvp-bench/v1\",\n",
            "  \"entries\": [\n",
            "    {\"group\": \"g\", \"name\": \"vp_plain\", \"unit\": \"ns/iter\", \"median\": 10.0},\n",
            "\n",
            "    {\"group\": \"g\", \"name\": \"vp_plain_cached\", \"unit\": \"ns/iter\", \"median\": 5.0}\n",
            "  ]\n",
            "}\n",
            "{\"group\": \"g\", \"name\": \"torn\", \"unit\": \"ns/iter\", \"med"
        );
        let entries = collect_entries(text);
        assert_eq!(entries.len(), 2, "blank + torn lines skipped, not parsed");
        assert_eq!(median_of(&entries, "vp_plain"), Some(10.0));
        assert_eq!(median_of(&entries, "vp_plain_cached"), Some(5.0));
        assert_eq!(median_of(&entries, "torn"), None);
    }
}
