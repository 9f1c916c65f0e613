//! `serve-debug`: closed-loop debugging clients, each with its own
//! `Connection` on one shared `Registry`, driven in-process through
//! `handle_line` (no TCP), repeating one scripted session on the
//! immobilizer leak demo.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use vpdift_obs::export::escape;
use vpdift_serve::json::{self, Value};
use vpdift_serve::{Connection, CreateOpts, Registry, Session};

use crate::stats::{median, mix, quantile};
use crate::trace::{span, timed};
use crate::Report;

const PROGRAM: &str = include_str!("../../docs/examples/immo_leak.s");
const POLICY: &str = include_str!("../../docs/examples/immobilizer.policy");

/// `step` requests per scripted session.
pub const STEPS: usize = 8;

/// The verbs whose latency is reported per verb.
pub const VERBS: [&str; 7] = ["create", "until", "step", "read", "explain", "info", "destroy"];

/// One client's script inputs: the breakpoint PC is chosen by the seed
/// among the five instructions of the guest's `leak_loop`.
#[derive(Clone)]
pub struct Script {
    create_tail: String,
    break_pc: u32,
}

/// What a scripted session must end with, recorded once during set-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    pub digest: String,
    pub violations: u64,
    pub stream_lines: u64,
}

/// Per-request latencies (by verb) and the checked outcome of one session.
struct SessionRun {
    latencies: Vec<(&'static str, f64)>,
    wall_s: f64,
    end: Expect,
    failed: u64,
}

impl Script {
    /// `ram_size` of `None` is the default 8 MiB RAM.
    pub fn new(seed: u64, ram_size: Option<u32>) -> Script {
        let program = vpdift_asm::parse_asm(PROGRAM, 0).expect("the demo program assembles");
        let leak_loop = program.symbol("leak_loop").expect("the demo program has `leak_loop`");
        let ram = ram_size.map(|n| format!(",\"ram_size\":{n}")).unwrap_or_default();
        Script {
            create_tail: format!(
                "\"program\":\"{}\",\"policy\":\"{}\",\"mode\":\"tainted\",\"enforce\":\"record\"{ram}}}",
                escape(PROGRAM),
                escape(POLICY)
            ),
            break_pc: leak_loop + 4 * (mix(seed, 7) % 5) as u32,
        }
    }

    /// The request lines of one session named `name`, with their verbs.
    fn lines(&self, name: &str) -> Vec<(&'static str, String)> {
        let s = format!("\"session\":\"{name}\"");
        let mut out = vec![
            ("create", format!("{{\"cmd\":\"create\",{s},{}", self.create_tail)),
            ("watch", format!("{{\"cmd\":\"watch\",{s},\"kind\":\"sink\",\"site\":\"uart.tx\"}}")),
            (
                "subscribe",
                format!(
                    "{{\"cmd\":\"subscribe\",{s},\"events\":[\"violation\",\"tag_set_change\"],\"flow\":true}}"
                ),
            ),
            ("break", format!("{{\"cmd\":\"break\",{s},\"pc\":{}}}", self.break_pc)),
            ("until", format!("{{\"cmd\":\"until\",{s}}}")),
        ];
        out.extend((0..STEPS).map(|_| ("step", format!("{{\"cmd\":\"step\",{s}}}"))));
        out.push(("read", format!("{{\"cmd\":\"read\",{s},\"what\":\"regs\"}}")));
        out.push((
            "read",
            format!("{{\"cmd\":\"read\",{s},\"what\":\"mem\",\"addr\":8192,\"len\":16}}"),
        ));
        out.push((
            "read",
            format!("{{\"cmd\":\"read\",{s},\"what\":\"tags\",\"addr\":8192,\"len\":16}}"),
        ));
        out.push(("explain", format!("{{\"cmd\":\"explain\",{s},\"atom\":\"secret\"}}")));
        out.push(("info", format!("{{\"cmd\":\"info\",{s}}}")));
        out.push(("destroy", format!("{{\"cmd\":\"destroy\",{s}}}")));
        out
    }

    /// Every request line of one session, for the JSON parse probe.
    pub fn request_lines(&self) -> Vec<String> {
        self.lines("probe").into_iter().map(|(_, l)| l).collect()
    }

    /// Builds the `CreateOpts` the `create` line asks for.
    pub fn create_opts(&self, tainted: bool) -> CreateOpts {
        let mut opts = CreateOpts { program: PROGRAM.to_owned(), ..CreateOpts::default() };
        opts.exec.tainted = tainted;
        opts.exec.policy = Some(POLICY.to_owned());
        opts.exec.set_enforce_str("record").expect("`record` is an enforce mode");
        opts
    }
}

fn span_name(verb: &str) -> &'static str {
    match verb {
        "create" => "serve.create",
        "watch" => "serve.watch",
        "subscribe" => "serve.subscribe",
        "break" => "serve.break",
        "until" => "serve.until",
        "step" => "serve.step",
        "read" => "serve.read",
        "explain" => "serve.explain",
        "info" => "serve.info",
        _ => "serve.destroy",
    }
}

/// Runs one scripted session through `conn`, checking every reply.
fn run_session(conn: &mut Connection, script: &Script, name: &str, ctx: u64) -> SessionRun {
    let start = Instant::now();
    let mut run = SessionRun {
        latencies: Vec::new(),
        wall_s: 0.0,
        end: Expect { digest: String::new(), violations: 0, stream_lines: 0 },
        failed: 0,
    };
    for (verb, line) in script.lines(name) {
        let mut reply = String::new();
        let mut stream_lines = 0;
        let mut emit = |s: &str| {
            if s.starts_with("{\"ev\"") {
                stream_lines += 1;
            } else {
                reply = s.to_owned();
            }
            Ok(())
        };
        let (res, dur) = timed(span_name(verb), ctx, || conn.handle_line(&line, &mut emit));
        run.end.stream_lines += stream_lines;
        run.latencies.push((verb, dur.as_secs_f64() * 1e3));
        if res.is_err() || !reply.starts_with("{\"ok\":true") {
            run.failed += 1;
            continue;
        }
        if verb == "info" {
            let v = json::parse(&reply).ok();
            let get = |k: &str| v.as_ref().and_then(|v| v.get(k).cloned());
            run.end.digest =
                get("digest").and_then(|d| d.as_str().map(str::to_owned)).unwrap_or_default();
            run.end.violations = get("violations").as_ref().and_then(Value::as_u64).unwrap_or(0);
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The set-up state: inputs, the shared registry and the reference.
pub struct Setup {
    pub script: Script,
    pub registry: Arc<Registry>,
    pub expect: Expect,
}

/// Builds the script, the shared registry, and the reference outcome by
/// running the script once on a registry of its own.
pub fn setup(seed: u64, ram_size: Option<u32>) -> Setup {
    let script = Script::new(seed, ram_size);
    let mut conn = Connection::new(Arc::new(Registry::new()));
    let reference = run_session(&mut conn, &script, "reference", 0);
    assert_eq!(reference.failed, 0, "the reference session must succeed");
    assert!(reference.end.violations > 0, "the leak demo must record a violation");
    Setup { script, registry: Arc::new(Registry::new()), expect: reference.end }
}

/// What the clients measured, accumulated over the run's slices.
pub struct Loop {
    /// Latency samples in ms, by verb.
    pub by_verb: BTreeMap<&'static str, Vec<f64>>,
    /// Wall seconds of each scripted session.
    pub session_walls: Vec<f64>,
    clients: usize,
    requests_per_session: usize,
    slices: u64,
}

impl Loop {
    pub fn new(setup: &Setup, clients: usize) -> Loop {
        Loop {
            by_verb: BTreeMap::new(),
            session_walls: Vec::new(),
            clients,
            requests_per_session: setup.script.lines("").len(),
            slices: 0,
        }
    }

    /// Runs the closed-loop clients, each repeating the script until
    /// `deadline` (at least one session each) under a root span `root`,
    /// checking every session.
    pub fn run_until(
        &mut self,
        setup: &Setup,
        deadline: Instant,
        root: &'static str,
        report: &mut Report,
    ) {
        let slice = self.slices;
        self.slices += 1;
        let results: Vec<Vec<SessionRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let registry = Arc::clone(&setup.registry);
                    let script = &setup.script;
                    scope.spawn(move || {
                        let _root = span(root, c as u64);
                        let mut conn = Connection::new(registry);
                        let mut runs = Vec::new();
                        for n in 0u64.. {
                            let name = format!("c{c}-s{slice}-{n}");
                            let ctx = (c as u64) << 48 | slice << 32 | n;
                            runs.push(run_session(&mut conn, script, &name, ctx));
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        runs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a serve client panicked")).collect()
        });
        for run in results.into_iter().flatten() {
            report.attempted += run.latencies.len() as u64;
            report.failed += run.failed;
            self.session_walls.push(run.wall_s);
            report.check(run.end == setup.expect, || {
                format!("serve session ended with {:?}, expected {:?}", run.end, setup.expect)
            });
            for (verb, ms) in run.latencies {
                self.by_verb.entry(verb).or_default().push(ms);
            }
        }
    }

    fn all(&self) -> Vec<f64> {
        self.by_verb.values().flatten().copied().collect()
    }

    pub fn put_e2e(&self, report: &mut Report) {
        report.put("serve_create_p50_ms", median(&self.by_verb["create"]), "ms");
        report.put("serve_step_p50_ms", median(&self.by_verb["step"]), "ms");
        report.put("serve_step_p90_ms", quantile(&self.by_verb["step"], 0.9), "ms");
        report.put("serve_p90_ms", quantile(&self.all(), 0.9), "ms");
        // Closed loop: each client completes one script per session time.
        let per_client = self.requests_per_session as f64 / median(&self.session_walls);
        report.put("serve_req_per_s", self.clients as f64 * per_client, "req/s");
    }

    pub fn put_layers(&self, report: &mut Report) {
        for verb in VERBS {
            report.put(&format!("serve.verb_ms.{verb}"), median(&self.by_verb[verb]), "ms");
        }
    }

    /// Median latency per verb, for the tracing overhead comparison.
    pub fn unit_medians(&self) -> BTreeMap<&'static str, f64> {
        self.by_verb.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// Layer probes timed from outside, one call at a time on one thread, on
/// default-RAM sessions: session creation, the state digest, a
/// one-instruction `Session::run`, a whole `step` request, JSON parsing
/// and the stream drain. `serve.dispatch_us` is the `step` request minus
/// the run and the digest it contains.
pub fn put_probes(script: &Script, report: &mut Report) {
    let mut create = Vec::new();
    let mut digest = [Vec::new(), Vec::new()];
    let mut step_run = Vec::new();
    let mut step_req = Vec::new();
    let mut conn = Connection::new(Arc::new(Registry::new()));
    for rep in 0..5 {
        for tainted in [false, true] {
            let opts = script.create_opts(tainted);
            let (sess, d) = timed("serve.session_create", rep, || Session::create(&opts));
            let mut sess = sess.expect("the probe session is created");
            if tainted {
                create.push(d.as_secs_f64() * 1e3);
            }
            let (_, d) = timed("soc.state_digest", rep, || sess.digest());
            digest[tainted as usize].push(d.as_secs_f64() * 1e3);
            if tainted {
                for _ in 0..STEPS {
                    let (_, d) = timed("serve.session_run", rep, || sess.run(1, &mut |_| {}));
                    step_run.push(d.as_secs_f64() * 1e6);
                }
            }
        }
        let name = format!("probe{rep}");
        let lines = script.lines(&name);
        let mut emit = |_: &str| Ok(());
        for (verb, line) in lines.iter().filter(|(v, _)| *v == "create" || *v == "step") {
            let (res, d) = timed(span_name(verb), rep, || conn.handle_line(line, &mut emit));
            assert!(res.is_ok(), "the probe connection never fails to emit");
            if *verb == "step" {
                step_req.push(d.as_secs_f64() * 1e6);
            }
        }
        let destroy = &lines.last().expect("the script ends with destroy").1;
        timed("serve.destroy", rep, || conn.handle_line(destroy, &mut emit))
            .0
            .expect("the probe connection never fails to emit");
    }
    report.put("serve.session_create_ms", median(&create), "ms");
    report.put("soc.digest_ms.vp", median(&digest[0]), "ms");
    report.put("soc.digest_ms.vp_plus", median(&digest[1]), "ms");
    let run_us = median(&step_run);
    report.put("serve.step_run_us", run_us, "us");
    let dispatch = median(&step_req) - run_us - median(&digest[1]) * 1e3;
    report.put("serve.dispatch_us", dispatch, "us");

    let lines = script.request_lines();
    let mut parse = Vec::new();
    for rep in 0..20 {
        for line in &lines {
            let (v, d) = timed("serve.json_parse", rep, || json::parse(line));
            assert!(v.is_ok(), "every request line parses");
            parse.push(d.as_secs_f64() * 1e6);
        }
    }
    report.put("serve.json_parse_us", median(&parse), "us");
    put_drain_probe(report);
}

/// `obs.drain_us`: a tainted `Soc` with a subscribed `StreamSink` runs the
/// demo to `ebreak` without draining; then one `StreamSink::drain` hands
/// over everything buffered.
fn put_drain_probe(report: &mut Report) {
    use vpdift_obs::{Recorder, StopFlag, StreamSink, SymbolMap};
    use vpdift_soc::{ExecConfig, Soc};
    let program = vpdift_asm::parse_asm(PROGRAM, 0).expect("the demo program assembles");
    let mut exec = ExecConfig { policy: Some(POLICY.to_owned()), ..ExecConfig::default() };
    exec.set_enforce_str("record").expect("`record` is an enforce mode");
    let mut drain = Vec::new();
    let mut items = 0;
    for rep in 0..5 {
        let (builder, _atoms) = exec.resolve().expect("the demo policy resolves");
        let stop = StopFlag::new();
        let recorder =
            Recorder::new(64).with_symbols(SymbolMap::from_program(&program)).with_flow_deltas();
        let sink = vpdift_sync::shared(StreamSink::new(recorder, stop.clone()));
        sink.borrow_mut().subscribe_events(Vec::new());
        sink.borrow_mut().subscribe_flow(true);
        let mut soc: Soc<vpdift_rv32::Tainted, StreamSink> =
            Soc::with_obs(builder.sensor_thread(false).stop_flag(stop).build(), sink.clone());
        soc.load_program(&program);
        soc.run(10_000);
        let (got, d) = timed("obs.stream_drain", rep, || sink.borrow_mut().drain());
        items = got.len();
        drain.push(d.as_secs_f64() * 1e6);
    }
    report.put("obs.drain_us", median(&drain), "us");
    report.put("obs.drain_items", items as f64, "count");
}
