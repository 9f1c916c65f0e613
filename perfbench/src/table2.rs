//! `table2-long`: the nine Table II guests, each on VP and VP+ under both
//! execution engines, one fresh default-RAM `Soc` per run, in a closed
//! loop on one thread.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use vpdift_asm::{Asm, Program, Reg};
use vpdift_core::{ExecClearance, SecurityPolicy, Tag};
use vpdift_firmware::Workload;
use vpdift_immo::{firmware, protocol, ImmoFirmware, PolicyKind, Variant};
use vpdift_rv32::{BlockCache, Cpu, ExecMode, FlatMemory, Plain, RunExit, TaintMode, Tainted};
use vpdift_soc::{Soc, SocBuilder, SocExit};

use crate::stats::{median, mix};
use crate::trace::timed;
use crate::Report;

/// The four (mode, engine) configurations every guest runs under, in run
/// order.
pub const CONFIGS: [(bool, ExecMode); 4] = [
    (false, ExecMode::Interp),
    (false, ExecMode::BlockCache),
    (true, ExecMode::Interp),
    (true, ExecMode::BlockCache),
];

fn config_label(cfg: usize) -> &'static str {
    ["vp.interp", "vp.block", "vp_plus.interp", "vp_plus.block"][cfg]
}

enum Kind {
    Firmware(Workload),
    Immo { fw: ImmoFirmware, rounds: u32, challenge_seed: u64 },
}

/// Steps per timed slice of a guest run (a few host milliseconds). A
/// multiple of the `Soc`'s 1024-step quantum, so a sliced run keeps every
/// quantum boundary of a single `Soc::run` call and simulates the same
/// steps; each `Batch` checks that it does.
const SLICE_STEPS: u64 = 64 * 1024;

/// One guest program with its host-side check.
pub struct Guest {
    pub name: &'static str,
    kind: Kind,
    /// Whether its runs are timed in slices. Not the sensor guest: it
    /// sleeps in `wfi`, which ends a quantum early, so a slice boundary
    /// would move the quanta after it and change when interrupts are
    /// seen.
    sliced: bool,
}

/// The VP+ policy of the Table II harness: every check enabled, with an
/// all-permissive clearance so the DIFT engine does all its work without
/// stopping the guest.
fn bench_policy() -> SecurityPolicy {
    let all = Tag::from_bits(u32::MAX);
    SecurityPolicy::builder("bench")
        .source("terminal.rx", Tag::atom(0))
        .source("sensor.data", Tag::atom(1))
        .sink("uart.tx", all)
        .sink("can.tx", all)
        .exec_clearance(ExecClearance::uniform(all))
        .build()
}

/// The companion's guests: qsort, primes and crc32 at scale 1, short
/// enough that each is sampled many times in a companion's share of a run.
pub fn companion_guests(seed: u64) -> Vec<Guest> {
    guests(seed, 1).into_iter().filter(|g| ["qsort", "primes", "crc32"].contains(&g.name)).collect()
}

/// Assembles the nine guests at `scale`. The seed picks the qsort array
/// length and the crc32 buffer length (so the sorted and checksummed data
/// differ per seed) and the immobilizer's challenge stream.
pub fn guests(seed: u64, scale: u32) -> Vec<Guest> {
    use vpdift_firmware::{crc32, dhrystone, matmul, primes, qsort, rtos, sensor_app, sha512};
    let s = scale.max(1);
    let qsort_n = 4_000 * s + (mix(seed, 1) % 512) as u32;
    let crc_len = 8_192 * s + (mix(seed, 2) % 1024) as u32;
    let firmware = [
        qsort::build(qsort_n, 2),
        dhrystone::build(6_000 * s),
        primes::build(20_000 * s),
        sha512::build(40 * s),
        sensor_app::build(100 * s),
        rtos::build(400 * s, 250, 100),
        crc32::build(crc_len, 2),
        matmul::build(24 * s.min(8)),
    ];
    let mut out: Vec<Guest> = firmware
        .into_iter()
        .map(|w| Guest { name: w.name, sliced: !w.needs_sensor, kind: Kind::Firmware(w) })
        .collect();
    out.insert(
        6,
        Guest {
            name: "immo-fixed",
            kind: Kind::Immo {
                fw: firmware::build(Variant::Fixed),
                rounds: 300 * s,
                challenge_seed: mix(seed, 3),
            },
            sliced: true,
        },
    );
    out
}

/// Timings and facts of one guest run.
#[derive(Clone, Debug)]
pub struct RunRec {
    pub build: Duration,
    pub load: Option<Duration>,
    /// `Soc::run` time slice by slice (one slice if the run was not
    /// sliced).
    pub slices: Vec<Duration>,
    pub total: Duration,
    pub instret: u64,
    pub hits: u64,
    pub misses: u64,
    pub digest: Option<u64>,
}

fn run_guest<M: TaintMode>(
    guest: &Guest,
    engine: ExecMode,
    want_digest: bool,
    slice_steps: u64,
    ctx: u64,
) -> Result<RunRec, String> {
    let start = Instant::now();
    let (builder, sensor) = match &guest.kind {
        Kind::Firmware(w) => {
            let b = if M::TRACKING {
                SocBuilder::new().policy(bench_policy())
            } else {
                SocBuilder::new()
            };
            (b, w.needs_sensor)
        }
        Kind::Immo { fw, .. } => {
            let kind = if M::TRACKING { PolicyKind::Coarse } else { PolicyKind::Permissive };
            (SocBuilder::new().policy(protocol::policy_for(kind, fw)), false)
        }
    };
    let build_name = if M::TRACKING { "soc.build.vp_plus" } else { "soc.build.vp" };
    let (mut soc, build) = timed(build_name, ctx, || {
        Soc::<M>::new(builder.sensor_thread(sensor).engine(engine).build())
    });
    let (load, max_insns, session) = match &guest.kind {
        Kind::Firmware(w) => {
            let ((), load) = timed("soc.load_program", ctx, || soc.load_program(&w.program));
            (Some(load), w.max_insns, None)
        }
        Kind::Immo { fw, rounds, challenge_seed } => {
            let (session, _) = timed("immo.prepare_session", ctx, || {
                protocol::prepare_session(&mut soc, fw, *rounds, b"dq", *challenge_seed)
            });
            (None, u64::MAX / 2, Some(session))
        }
    };
    let mut slices = Vec::new();
    let mut left = max_insns;
    let exit = loop {
        let budget = left.min(slice_steps);
        let (exit, d) = timed("soc.run", ctx, || soc.run(budget));
        slices.push(d);
        left -= budget;
        if exit != SocExit::InstrLimit || left == 0 {
            break exit;
        }
    };
    let total = start.elapsed();
    if exit != SocExit::Break {
        return Err(format!("{}: ended with {exit:?}, not ebreak", guest.name));
    }
    match (&guest.kind, session) {
        (Kind::Firmware(w), _) => {
            let out = soc.uart().borrow().output().to_vec();
            if !w.verify(&out) {
                return Err(format!("{}: UART output failed verification", guest.name));
            }
        }
        (Kind::Immo { .. }, session) => {
            let (mut ecu, challenges) = session.expect("immobilizer runs prepare a session");
            for ch in &challenges {
                if !ecu.verify_response(soc.can_host(), ch) {
                    return Err(format!("{}: an authentication response was wrong", guest.name));
                }
            }
        }
    }
    let stats = soc.engine_stats().unwrap_or_default();
    let digest = want_digest.then(|| timed("soc.state_digest", ctx, || soc.state_digest()).0);
    Ok(RunRec {
        build,
        load,
        slices,
        total,
        instret: soc.instret(),
        hits: stats.hits,
        misses: stats.misses,
        digest,
    })
}

fn run_config(
    guest: &Guest,
    cfg: usize,
    want_digest: bool,
    slice_steps: u64,
    ctx: u64,
) -> Result<RunRec, String> {
    let (tainted, engine) = CONFIGS[cfg];
    if tainted {
        run_guest::<Tainted>(guest, engine, want_digest, slice_steps, ctx)
    } else {
        run_guest::<Plain>(guest, engine, want_digest, slice_steps, ctx)
    }
}

/// The batch loop's state: the guests, a cursor into them, each guest's
/// reference runs, and every timed run so far, keyed by (guest, config).
/// Runs resume where the last round stopped, so a run's samples spread
/// over its whole duration.
pub struct Batch {
    guests: Vec<Guest>,
    next: usize,
    ctx: u64,
    /// Each guest's first runs, one `Soc::run` call per config: the
    /// reference every timed run must reproduce. Not timing samples.
    refs: BTreeMap<usize, Vec<RunRec>>,
    /// Guests whose sliced runs were checked against the reference's
    /// state digests.
    digest_checked: BTreeSet<usize>,
    pub runs: BTreeMap<(usize, usize), Vec<RunRec>>,
}

impl Batch {
    pub fn new(guests: Vec<Guest>) -> Batch {
        Batch {
            guests,
            next: 0,
            ctx: 0,
            refs: BTreeMap::new(),
            digest_checked: BTreeSet::new(),
            runs: BTreeMap::new(),
        }
    }

    /// Runs guests in order, all four configs each, until `deadline`
    /// (at least one guest), checking every run. A guest's first runs are
    /// its reference: single `Soc::run` calls whose interpreter and block
    /// cache must end in equal state digests. Its later runs are timed in
    /// slices and must retire the same instructions with the same
    /// block-cache counters; the first of them also the same digests.
    pub fn run_until(&mut self, deadline: Instant, report: &mut Report) {
        loop {
            self.run_next(report);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Runs guests until every one has been measured at least once.
    pub fn complete_pass(&mut self, report: &mut Report) {
        while self.runs.len() < self.guests.len() * CONFIGS.len() && report.correct() {
            self.run_next(report);
        }
    }

    fn run_next(&mut self, report: &mut Report) {
        let g = self.next;
        self.next = (g + 1) % self.guests.len();
        let guest = &self.guests[g];
        let first = !self.refs.contains_key(&g);
        let want_digest = first || !self.digest_checked.contains(&g);
        let slice_steps = if guest.sliced && !first { SLICE_STEPS } else { u64::MAX };
        let mut recs = Vec::new();
        for cfg in 0..CONFIGS.len() {
            self.ctx += 1;
            report.attempted += 1;
            match run_config(guest, cfg, want_digest, slice_steps, self.ctx) {
                Ok(rec) => recs.push(rec),
                Err(e) => {
                    report.failed += 1;
                    report.fail(e);
                }
            }
        }
        if recs.len() < CONFIGS.len() {
            return;
        }
        let name = guest.name;
        report.check(recs.iter().all(|r| r.instret == recs[0].instret), || {
            format!("{name}: VP and VP+ (or the two engines) retired different instruction counts")
        });
        if first {
            report.check(recs[0].digest == recs[1].digest, || {
                format!("{name}: VP interp and block state digests differ")
            });
            report.check(recs[2].digest == recs[3].digest, || {
                format!("{name}: VP+ interp and block state digests differ")
            });
            self.refs.insert(g, recs);
            return;
        }
        for (rec, reference) in recs.iter().zip(&self.refs[&g]) {
            report.check(
                (rec.instret, rec.hits, rec.misses)
                    == (reference.instret, reference.hits, reference.misses),
                || format!("{name}: instret or block-cache counters differ from the reference"),
            );
            if want_digest {
                report.check(rec.digest == reference.digest, || {
                    format!("{name}: a timed run's state digest differs from the reference")
                });
            }
        }
        self.digest_checked.insert(g);
        for (cfg, rec) in recs.into_iter().enumerate() {
            self.runs.entry((g, cfg)).or_default().push(rec);
        }
    }

    fn median_of(&self, key: (usize, usize), f: impl Fn(&RunRec) -> f64) -> f64 {
        median(&self.runs[&key].iter().map(f).collect::<Vec<_>>())
    }

    /// The fastest of a key's runs: each key is sampled all over the run,
    /// so its minimum sheds the host's slow phases (see `README.md`).
    fn best_of(&self, key: (usize, usize), f: impl Fn(&RunRec) -> f64) -> f64 {
        self.runs[&key].iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// A key's best `Soc::run` time in seconds: slice by slice, the
    /// fastest over its runs. Slices last milliseconds, so each one finds
    /// moments when the host's other tenants leave the core alone, which
    /// a whole run of a tenth of a second seldom does.
    fn best_run_s(&self, key: (usize, usize)) -> f64 {
        let runs = &self.runs[&key];
        let n = runs.iter().map(|r| r.slices.len()).min().unwrap_or(0);
        (0..n)
            .map(|i| runs.iter().map(|r| r.slices[i].as_secs_f64()).fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// A key's best total time in seconds: the fastest build, load and,
    /// slice by slice, run.
    fn best_total_s(&self, key: (usize, usize)) -> f64 {
        let load = |r: &RunRec| r.load.map_or(0.0, |d| d.as_secs_f64());
        self.best_of(key, |r| r.build.as_secs_f64())
            + self.best_of(key, load)
            + self.best_run_s(key)
    }

    /// Sums `f` over the first run of every guest under the configs `cfgs`.
    fn pass_sum(&self, cfgs: &[usize], f: impl Fn(&RunRec) -> u64) -> u64 {
        self.runs.iter().filter(|((_, c), _)| cfgs.contains(c)).map(|(_, v)| f(&v[0])).sum()
    }

    /// Guest MIPS of one mode over both engines: a full pass's retired
    /// instructions over the sum of each guest configuration's best host
    /// time, build and load included.
    pub fn mips(&self, tainted: bool) -> f64 {
        let (mut insns, mut secs) = (0.0, 0.0);
        for (&key, runs) in &self.runs {
            if CONFIGS[key.1].0 == tainted {
                insns += runs[0].instret as f64;
                secs += self.best_total_s(key);
            }
        }
        insns / secs / 1e6
    }

    /// Host ns per guest instruction spent in `Soc::run` for one config
    /// (best slices of each guest).
    pub fn run_ns_per_insn(&self, cfg: usize) -> f64 {
        let (mut insns, mut ns) = (0.0, 0.0);
        for (&key, runs) in &self.runs {
            if key.1 == cfg {
                insns += runs[0].instret as f64;
                ns += self.best_run_s(key) * 1e9;
            }
        }
        ns / insns
    }

    /// Per-(guest, config) median total run time, for the tracing
    /// overhead comparison.
    pub fn unit_medians(&self) -> BTreeMap<(usize, usize), f64> {
        self.runs.keys().map(|&k| (k, self.median_of(k, |r| r.total.as_secs_f64()))).collect()
    }

    /// The end-to-end metrics.
    pub fn put_e2e(&self, report: &mut Report) {
        report.put("vp_mips", self.mips(false), "Minsn/s");
        report.put("vp_plus_mips", self.mips(true), "Minsn/s");
    }

    /// The per-layer metrics and the deterministic counts of one pass.
    pub fn put_layers(&self, report: &mut Report) {
        let samples = |pick: &dyn Fn(usize, &RunRec) -> Option<f64>| -> Vec<f64> {
            self.runs
                .iter()
                .flat_map(|(&(_, c), v)| v.iter().filter_map(move |r| pick(c, r)))
                .collect()
        };
        let build = |tainted: bool| {
            samples(&|c, r| (CONFIGS[c].0 == tainted).then_some(r.build.as_secs_f64() * 1e3))
        };
        report.put("soc.build_ms.vp", median(&build(false)), "ms");
        report.put("soc.build_ms.vp_plus", median(&build(true)), "ms");
        let loads = samples(&|_, r| r.load.map(|d| d.as_secs_f64() * 1e3));
        report.put("soc.load_ms", median(&loads), "ms");
        for cfg in 0..CONFIGS.len() {
            let name = format!("soc.run_ns_per_insn.{}", config_label(cfg));
            report.put(&name, self.run_ns_per_insn(cfg), "ns/insn");
        }
        let ratio = |plain: usize, tainted: usize| {
            self.run_ns_per_insn(tainted) / self.run_ns_per_insn(plain)
        };
        report.put("core.dift_overhead.interp", ratio(0, 2), "ratio");
        report.put("core.dift_overhead.block", ratio(1, 3), "ratio");
        let hits = self.pass_sum(&[1, 3], |r| r.hits) as f64;
        let misses = self.pass_sum(&[1, 3], |r| r.misses) as f64;
        report.put("rv32.block_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        report.put(
            "count.table2_pass_instret",
            self.pass_sum(&[0, 1, 2, 3], |r| r.instret) as f64,
            "count",
        );
        report.put("count.block_hits", hits, "count");
        report.put("count.block_misses", misses, "count");
    }
}

/// A tight ALU/memory kernel for the flat-memory ISS row; the seed picks
/// its trip count and constants.
fn flat_kernel(seed: u64) -> Program {
    use Reg::*;
    let mut a = Asm::new(0);
    a.li(T0, 20_000 + (mix(seed, 4) % 1_000) as i32);
    a.li(T1, (mix(seed, 5) % 4096) as i32);
    a.li(T2, 0x4000);
    a.label("loop");
    a.add(T1, T1, T0);
    a.xori(T1, T1, (mix(seed, 6) % 2048) as i32);
    a.slli(T3, T1, 3);
    a.srli(T3, T3, 2);
    a.sw(T3, 0, T2);
    a.lw(T4, 0, T2);
    a.mul(T1, T1, T4);
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");
    a.ebreak();
    a.assemble().expect("the flat-memory kernel assembles")
}

fn flat_once<M: TaintMode>(image: &[u8], engine: ExecMode) -> (u64, Duration) {
    let mut mem = FlatMemory::<M>::new(0, 64 * 1024);
    mem.load_image(0, image);
    let mut cpu = Cpu::<M>::new();
    let (exit, dur) = match engine {
        ExecMode::Interp => timed("rv32.cpu_run", 0, || cpu.run(&mut mem, 10_000_000)),
        ExecMode::BlockCache => {
            let mut cache = BlockCache::new();
            timed("rv32.block_cache_run", 0, || cache.run(&mut cpu, &mut mem, 10_000_000))
        }
    };
    assert_eq!(exit, RunExit::Break, "the flat-memory kernel ends in ebreak");
    (cpu.instret(), dur)
}

/// `rv32.flat_ns_per_insn.*`: the ISS alone on flat memory, and the bus
/// share of `Soc::run` derived from it.
pub fn put_flat_iss(seed: u64, batch: &Batch, report: &mut Report) {
    let image = flat_kernel(seed).image().to_vec();
    let mut flat = [0.0; 4];
    for (cfg, &(tainted, engine)) in CONFIGS.iter().enumerate() {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let (n, d) = if tainted {
                    flat_once::<Tainted>(&image, engine)
                } else {
                    flat_once::<Plain>(&image, engine)
                };
                d.as_secs_f64() * 1e9 / n as f64
            })
            .collect();
        flat[cfg] = median(&samples);
        report.put(&format!("rv32.flat_ns_per_insn.{}", config_label(cfg)), flat[cfg], "ns/insn");
    }
    for (cfg, label) in [(0, "vp"), (2, "vp_plus")] {
        let bus = batch.run_ns_per_insn(cfg) - flat[cfg];
        report.put(&format!("soc.bus_ns_per_insn.{label}.interp"), bus, "ns/insn");
    }
}

/// Builds and drops the first tainted default-RAM `Soc`, so the process's
/// first large allocation happens during set-up.
pub fn warm_soc() {
    drop(Soc::<Tainted>::new(SocBuilder::new().build()));
}
