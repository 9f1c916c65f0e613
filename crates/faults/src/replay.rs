//! The seeded-replay recipe: how a campaign turns its master seed and a
//! fault-free reference run into one faulted replay — the replay's seed,
//! its fault schedule, and the step budget and watchdog that bound it.
//!
//! Every campaign driver (the serial [`run_campaign`](crate::run_campaign),
//! the fleet campaign, `faultcamp`, and `taintvp-run`'s `fleet`,
//! `--campaign` and `--fault-seed` paths) takes these decisions from here,
//! so equal seeds draw equal schedules whichever driver runs them.

use vpdift_kernel::SimTime;

use crate::campaign::ScenarioRun;
use crate::config::{generate_plan, PlannedFault};

/// RAM window targeted by random RAM faults: covers every workload image
/// plus its working data (see [`generate_plan`]).
const RAM_FAULT_WINDOW: u32 = 0x4000;

/// Most faults one schedule carries, whatever the rate.
const MAX_PLANNED: u64 = 32;

/// Derives the schedule seed of replay `i` from the master seed.
pub fn run_seed(master: u64, i: u32) -> u64 {
    master.wrapping_add((u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded schedule over a run of `horizon` steps: `rate` faults per
/// step, at least one and at most 32, with RAM faults aimed at the
/// first 16 KiB.
pub fn seeded_plan(seed: u64, horizon: u64, rate: f64) -> Vec<PlannedFault> {
    let count = ((horizon as f64 * rate).ceil() as u64).clamp(1, MAX_PLANNED) as u32;
    generate_plan(seed, count, horizon, RAM_FAULT_WINDOW)
}

/// One faulted replay of a fault-free reference run.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The fault schedule, spread over the reference's step count.
    pub plan: Vec<PlannedFault>,
    /// Step budget: four times the reference plus slack.
    pub budget: u64,
    /// Host-side hang detector: four times the reference's simulated
    /// time plus slack.
    pub watchdog: SimTime,
}

impl Replay {
    /// The replay of `reference` under schedule seed `seed` at `rate`
    /// faults per step.
    pub fn new(reference: &ScenarioRun, seed: u64, rate: f64) -> Replay {
        Replay {
            plan: seeded_plan(seed, reference.steps, rate),
            budget: reference.steps.saturating_mul(4).saturating_add(10_000),
            watchdog: (reference.sim_time * 4).saturating_add(SimTime::from_ms(1)),
        }
    }
}

/// Parses a fault rate: a positive, finite number of faults per step.
pub fn parse_rate(s: &str) -> Option<f64> {
    s.parse().ok().filter(|r: &f64| *r > 0.0 && r.is_finite())
}

/// Parses a seed as decimal or `0x`-prefixed hex.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_hex_and_decimal() {
        assert_eq!(parse_seed("0xD1F7FA17"), Some(0xD1F7_FA17));
        assert_eq!(parse_seed("0X10"), Some(16));
        assert_eq!(parse_seed("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("12z"), None);
    }

    #[test]
    fn rates_are_positive_and_finite() {
        assert_eq!(parse_rate("5e-5"), Some(5e-5));
        for bad in ["0", "-1e-3", "inf", "NaN", "x"] {
            assert_eq!(parse_rate(bad), None, "{bad}");
        }
    }

    #[test]
    fn plan_size_is_clamped() {
        assert_eq!(seeded_plan(1, 0, 5e-5).len(), 1, "at least one fault");
        assert_eq!(seeded_plan(1, 100_000, 5e-5).len(), 5);
        assert_eq!(seeded_plan(1, u64::MAX, 1.0).len(), 32, "at most 32");
    }
}
