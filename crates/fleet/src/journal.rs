//! The crash-safe results journal: `taintvp-fleet/v2` JSONL.
//!
//! Line 1 is the header (format tag, suite name, job count, seed, fault
//! rate, program image hash); every following line is one terminal
//! [`JobResult`]. Appends are fsync'd per batch by the executor, so
//! after SIGKILL the file holds every result
//! reported before the last sync plus at most one torn line. Resume
//! ([`Journal::open_resume`]) tolerates that torn tail — it parses what
//! it can, verifies the header matches the campaign being resumed, and
//! hands back the completed results so the executor can skip them.
//!
//! Records are written here with hand-rolled `format!`s (so journal
//! bytes stay fixed) and read back through the workspace JSON reader,
//! [`vpdift_obs::json`]: a line that does not parse as one JSON value is
//! a torn tail. The payload is itself JSON and is kept as its raw text,
//! because resume must reproduce it byte for byte.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use vpdift_obs::json::{self, escape, Value};

use crate::job::{JobResult, JobStatus};

/// The format tag every journal opens with.
pub const FORMAT: &str = "taintvp-fleet/v2";

/// Campaign identity, pinned in the header line and re-verified on
/// resume so a journal can never splice results from a different sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Suite name (e.g. `faultcamp`, `immo-sweep`).
    pub suite: String,
    /// Total jobs in the campaign.
    pub jobs: u64,
    /// Master seed.
    pub seed: u64,
    /// Faults per step of every job's schedule.
    pub rate: f64,
    /// [`content_hash`] of the swept guest image, for sweeps of an
    /// external program; `None` for built-in scenarios.
    pub image: Option<u64>,
}

impl JournalHeader {
    fn render(&self) -> String {
        format!(
            "{{\"format\":\"{FORMAT}\",\"suite\":\"{}\",\"jobs\":{},\"seed\":{},\"rate\":{},\"image\":{}}}",
            escape(&self.suite),
            self.jobs,
            self.seed,
            self.rate,
            self.image.map_or("null".to_owned(), |h| h.to_string()),
        )
    }

    fn parse(line: &str) -> Option<JournalHeader> {
        let v = json::parse(line).ok()?;
        if v.get("format")?.as_str()? != FORMAT {
            return None;
        }
        Some(JournalHeader {
            suite: v.get("suite")?.as_str()?.to_owned(),
            jobs: v.get("jobs")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            rate: v.get("rate")?.as_f64()?,
            image: match v.get("image")? {
                Value::Null => None,
                h => Some(h.as_u64()?),
            },
        })
    }
}

/// FNV-1a hash of a guest image, pinned in [`JournalHeader::image`].
pub fn content_hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Renders one result as its journal line (no trailing newline).
pub fn render_record(r: &JobResult) -> String {
    format!("{}{}}}", record_head(r), r.payload.as_deref().unwrap_or("null"))
}

/// Everything of `r`'s journal line before the payload's raw text. The
/// payload goes last because it is itself JSON and runs to the record's
/// final brace.
fn record_head(r: &JobResult) -> String {
    let detail = match &r.detail {
        Some(d) => format!("\"{}\"", escape(d)),
        None => "null".to_string(),
    };
    let counts: Vec<String> = r.counts.iter().map(u64::to_string).collect();
    format!(
        "{{\"job\":{},\"status\":\"{}\",\"attempts\":{},\"elapsed_us\":{},\"counts\":[{}],\"detail\":{},\"payload\":",
        r.job_id,
        r.status.label(),
        r.attempts,
        r.elapsed_us,
        counts.join(","),
        detail,
    )
}

/// Parses one journal record line; `None` for torn or foreign lines.
///
/// Any proper prefix of a record leaves its outer brace open, so a torn
/// tail never parses — not even one cut right after a nested payload's
/// own closing brace. Beyond parsing, the line must be exactly what
/// [`render_record`] writes for the fields it carries, which pins the
/// payload's raw text and makes resume byte-faithful.
pub fn parse_record(line: &str) -> Option<JobResult> {
    let line = line.trim_end();
    let v = json::parse(line).ok()?;
    let detail = match v.get("detail")? {
        Value::Null => None,
        d => Some(d.as_str()?.to_owned()),
    };
    let mut r = JobResult {
        job_id: v.get("job")?.as_u64()?,
        status: JobStatus::parse(v.get("status")?.as_str()?)?,
        attempts: v.get("attempts")?.as_u32()?,
        payload: None,
        counts: v.get("counts")?.as_arr()?.iter().map(Value::as_u64).collect::<Option<_>>()?,
        detail,
        elapsed_us: v.get("elapsed_us")?.as_u64()?,
    };
    let payload = line.strip_prefix(record_head(&r).as_str())?.strip_suffix('}')?;
    r.payload = (payload != "null").then(|| payload.to_owned());
    Some(r)
}

/// An append handle on a journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating) a fresh journal with `header`, fsync'd
    /// before returning so the campaign identity survives any crash.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        writeln!(file, "{}", header.render())?;
        file.sync_data()?;
        Ok(Journal { file })
    }

    /// Opens an existing journal for resume: verifies the header matches
    /// `expect`, parses every intact record (tolerating a torn tail
    /// line, which is truncated away so appends restart on a clean
    /// record boundary), and returns the append handle plus the
    /// recovered results.
    pub fn open_resume(
        path: &Path,
        expect: &JournalHeader,
    ) -> io::Result<(Journal, Vec<JobResult>)> {
        let bytes = std::fs::read(path)?;
        // The writer ends every line with a newline, so an unterminated
        // last line — or one cut inside a multi-byte character — is the
        // torn tail of a killed writer: reading stops there.
        let mut lines = bytes
            .split_inclusive(|&b| b == b'\n')
            .map_while(|l| std::str::from_utf8(l.strip_suffix(b"\n")?).ok());
        let header_line = lines.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "journal has no complete header line")
        })?;
        let header = JournalHeader::parse(header_line).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("journal header is not {FORMAT}"))
        })?;
        if &header != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal belongs to a different campaign: found {}, expected {}",
                    header.render(),
                    expect.render()
                ),
            ));
        }

        // Byte offset past the last intact line — where appends resume.
        let mut intact_end = header_line.len() as u64 + 1;
        let mut results: Vec<JobResult> = Vec::new();
        for line in lines {
            match parse_record(line) {
                Some(r) => {
                    intact_end += line.len() as u64 + 1;
                    // Last write wins: a rerun after a torn record may
                    // journal the same job twice.
                    results.retain(|p| p.job_id != r.job_id);
                    results.push(r);
                }
                // Torn tail from the killed writer: recover what parsed,
                // drop the fragment.
                None => break,
            }
        }
        results.sort_by_key(|r| r.job_id);

        // Truncate the torn tail (if any) so the next append starts a
        // fresh line rather than gluing onto the fragment.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(intact_end)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((Journal { file }, results))
    }

    /// Appends one record (no sync — call [`Journal::sync`] per batch).
    pub fn append(&mut self, r: &JobResult) -> io::Result<()> {
        writeln!(self.file, "{}", render_record(r))
    }

    /// Flushes appended records to disk (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, status: JobStatus) -> JobResult {
        JobResult {
            job_id: id,
            status,
            attempts: 1 + (id % 3) as u32,
            payload: match status {
                JobStatus::Ok => Some(format!("{{\"run\":{id},\"results\":[1,2]}}")),
                _ => None,
            },
            counts: vec![id, 0, 7],
            detail: match status {
                JobStatus::Ok => None,
                _ => Some("thread panicked: \"index 3\"\nbacktrace".to_string()),
            },
            elapsed_us: 1234,
        }
    }

    #[test]
    fn record_round_trips() {
        for status in [JobStatus::Ok, JobStatus::Crashed, JobStatus::Hang, JobStatus::Error] {
            let r = sample(5, status);
            let line = render_record(&r);
            let back = parse_record(&line).expect("parses");
            assert_eq!(back.job_id, r.job_id);
            assert_eq!(back.status, r.status);
            assert_eq!(back.attempts, r.attempts);
            assert_eq!(back.payload, r.payload);
            assert_eq!(back.counts, r.counts);
            assert_eq!(back.detail, r.detail);
            assert_eq!(back.elapsed_us, r.elapsed_us);
        }
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let header = JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, image: None };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.append(&sample(1, JobStatus::Crashed)).unwrap();
            j.sync().unwrap();
        }
        // Simulate a SIGKILL mid-append: half a record, no newline.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":2,\"status\":\"ok\",\"atte").unwrap();
        }
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        let ids: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0, 1], "intact records recovered, torn tail dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_at_internal_brace_is_rejected() {
        // The adversarial tear: a record with a nested JSON payload cut
        // exactly after the payload's own closing brace. The line ends
        // in '}' but the record's outer brace is still open — it must
        // parse as torn, not as a completed job with a truncated payload.
        let full = render_record(&sample(2, JobStatus::Ok));
        let inner_end = full.rfind("]}").expect("payload array close") + "]}".len();
        let torn = &full[..inner_end];
        assert!(torn.ends_with('}'), "tear lands on an internal brace");
        assert!(parse_record(torn).is_none(), "torn-at-internal-brace accepted: {torn}");
        assert!(parse_record(&full).is_some(), "intact record still parses");

        // And end-to-end: resume over such a tail recovers only the
        // intact records.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-brace.jsonl");
        let header = JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, image: None };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.sync().unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{torn}").unwrap();
        }
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        let ids: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0], "truncated payload must not be spliced into the aggregate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detail_braces_inside_strings_do_not_confuse_completeness() {
        let mut r = sample(3, JobStatus::Crashed);
        r.detail = Some("panicked at {\"depth\": [1, {2}]} mid-line".to_string());
        let line = render_record(&r);
        let back = parse_record(&line).expect("braces inside strings are opaque");
        assert_eq!(back.detail, r.detail);
    }

    #[test]
    fn header_with_quotes_in_suite_round_trips() {
        let header = JournalHeader {
            suite: "camp \"alpha\" \\ beta".into(),
            jobs: 2,
            seed: 1,
            rate: 5e-5,
            image: None,
        };
        let parsed = JournalHeader::parse(&header.render()).expect("escaped header parses");
        assert_eq!(parsed, header);

        // And resume against the same header must succeed, not report a
        // foreign-format journal.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quoted-suite.jsonl");
        Journal::create(&path, &header).unwrap();
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        assert!(recovered.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_header_refuses_resume() {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        let header = JournalHeader {
            suite: "a".into(),
            jobs: 4,
            seed: 9,
            rate: 5e-5,
            image: Some(content_hash(b"one guest")),
        };
        Journal::create(&path, &header).unwrap();
        for other in [
            JournalHeader { seed: 10, ..header.clone() },
            JournalHeader { rate: 2e-3, ..header.clone() },
            JournalHeader { image: Some(content_hash(b"another guest")), ..header.clone() },
            JournalHeader { image: None, ..header.clone() },
        ] {
            let err = Journal::open_resume(&path, &other).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("different campaign"), "{err}");
        }

        // A journal of the previous format is refused, not misread.
        std::fs::write(
            &path,
            "{\"format\":\"taintvp-fleet/v1\",\"suite\":\"a\",\"jobs\":4,\"seed\":9}\n",
        )
        .unwrap();
        let err = Journal::open_resume(&path, &header).unwrap_err();
        assert!(err.to_string().contains("is not taintvp-fleet/v2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_utf8_tail_is_dropped_not_an_error() {
        // A writer killed one byte into a multi-byte character of a
        // non-ASCII panic message leaves invalid UTF-8 at the tail.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-utf8.jsonl");
        let header = JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, image: None };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.sync().unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        let mut r = sample(1, JobStatus::Crashed);
        r.detail = Some("panicked: clé".to_string());
        let line = render_record(&r);
        let cut = line.find('é').unwrap() + 1;
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&line.as_bytes()[..cut]).unwrap();
        }
        let (_j, recovered) = Journal::open_resume(&path, &header).expect("torn tail tolerated");
        let ids: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len, "torn bytes truncated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unterminated_last_record_is_rerun_not_padded() {
        // A complete record whose newline never reached the disk is
        // dropped (its job reruns), and the file is cut back to the last
        // line boundary instead of being extended past its end.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unterminated.jsonl");
        let header = JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, image: None };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.sync().unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{}", render_record(&sample(1, JobStatus::Ok))).unwrap();
        }
        let (mut j, recovered) = Journal::open_resume(&path, &header).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        j.append(&sample(1, JobStatus::Ok)).unwrap();
        j.sync().unwrap();
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        assert_eq!(recovered.len(), 2, "the rerun record lands on a clean line");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn full_range_seed_resumes() {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("max-seed.jsonl");
        let header =
            JournalHeader { suite: "t".into(), jobs: 1, seed: u64::MAX, rate: 5e-5, image: None };
        Journal::create(&path, &header).unwrap();
        let (_j, recovered) = Journal::open_resume(&path, &header).expect("u64::MAX seed matches");
        assert!(recovered.is_empty());
        let other = JournalHeader { seed: u64::MAX - 1, ..header };
        assert!(Journal::open_resume(&path, &other).is_err(), "seeds differing in bit 0");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_attempts_is_a_foreign_record() {
        let line = render_record(&sample(4, JobStatus::Ok));
        let foreign = line.replacen("\"attempts\":2,", "\"attempts\":4294967297,", 1);
        assert_ne!(line, foreign);
        assert!(parse_record(&line).is_some());
        assert!(parse_record(&foreign).is_none(), "attempts must not truncate to u32");
    }
}
