//! End-to-end tests of the `faultcamp` binary: the report bytes pinned
//! against a golden file, worker-count independence, the exit code of a
//! campaign with an incomplete run, and the `/metrics` series.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const RUNS3: &str = include_str!("golden/faultcamp_runs3.json");

fn faultcamp(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_faultcamp")).args(args).output().expect("runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultcamp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn report_matches_golden_for_any_worker_count() {
    for workers in ["1", "3"] {
        let (code, stdout, stderr) =
            faultcamp(&["--seed", "0xD1F7FA17", "--runs", "3", "--workers", workers]);
        assert_eq!(code, 0, "stderr: {stderr}");
        assert_eq!(stdout, RUNS3, "{workers}-worker report");
    }
}

#[test]
fn an_incomplete_run_exits_3() {
    let path = temp_path("crashed.jsonl");
    let journal = path.to_str().unwrap();
    let (code, _, stderr) = faultcamp(&["--seed", "7", "--runs", "2", "--journal", journal]);
    assert_eq!(code, 0, "stderr: {stderr}");

    // Replace run 1's record with a crashed one, as a panicking session
    // leaves it.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> =
        text.lines().filter(|l| !l.starts_with("{\"job\":1,")).map(str::to_owned).collect();
    lines.push(
        "{\"job\":1,\"status\":\"crashed\",\"attempts\":1,\"elapsed_us\":5,\"counts\":[],\
         \"detail\":\"injected\",\"payload\":null}"
            .into(),
    );
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let (code, stdout, stderr) =
        faultcamp(&["--seed", "7", "--runs", "2", "--journal", journal, "--resume"]);
    assert!(stdout.contains("{\"run\":1,\"failed\":\"crashed\"}"), "{stdout}");
    assert!(stderr.contains("run 1 did not complete: crashed"), "{stderr}");
    assert_eq!(code, 3, "a campaign with an unclassified run is not a pass: {stderr}");
    std::fs::remove_file(&path).ok();
}

fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    response
}

fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn metrics_endpoint_serves_fleet_and_vp_series() {
    let out = temp_path("scrape.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_faultcamp"))
        .args(["--seed", "7", "--runs", "2", "--metrics-addr", "127.0.0.1:0"])
        .args(["--metrics-linger-ms", "20000", "--out", out.to_str().unwrap()])
        .stderr(Stdio::piped())
        .spawn()
        .expect("runs");
    let mut addr = None;
    let mut lingering = false;
    for line in BufReader::new(child.stderr.take().unwrap()).lines().map_while(Result::ok) {
        if let Some(rest) = line.split("http://").nth(1) {
            addr = rest.strip_suffix("/metrics").map(str::to_owned);
        }
        if line.contains("lingering") {
            lingering = true;
            break;
        }
    }
    assert!(lingering, "the endpoint lingers after the report");
    let body = scrape(&addr.expect("endpoint address on stderr"));
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_file(&out).ok();

    assert_eq!(prom_value(&body, "fleet_jobs_completed_total"), Some(2.0), "{body}");
    let insns = prom_value(&body, "vp_instructions_total").expect("vp_ registry series");
    assert!(insns > 0.0, "{body}");
}
