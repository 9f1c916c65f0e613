//! Property tests for the journal codec: every result the writer can
//! render reads back unchanged — full-range integers, arbitrary failure
//! detail, nested payloads — and no torn prefix of a record is ever
//! mistaken for a complete one.

use proptest::prelude::*;
use vpdift_fleet::{parse_record, render_record, JobResult, JobStatus};
use vpdift_obs::json::escape;

/// Arbitrary strings mixing JSON-significant characters, control
/// characters and multi-byte scalars.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..24).prop_map(|draws| {
        let special = ['"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\u{1}', 'é', '🦀'];
        draws
            .into_iter()
            .map(|d| match d % 3 {
                0 => special[(d / 3) as usize % special.len()],
                _ => char::from_u32(d / 3 % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

fn job_result() -> impl Strategy<Value = JobResult> {
    (
        (any::<u64>(), any::<u8>(), any::<u32>(), any::<u64>()),
        prop::collection::vec(any::<u64>(), 0..8),
        (any::<bool>(), text()),
        (any::<bool>(), any::<u64>(), text()),
    )
        .prop_map(|((job_id, status, attempts, elapsed_us), counts, detail, payload)| {
            let status = [JobStatus::Ok, JobStatus::Crashed, JobStatus::Hang, JobStatus::Error]
                [status as usize % 4];
            JobResult {
                job_id,
                status,
                attempts,
                payload: payload.0.then(|| {
                    format!(
                        "{{\"run\":{},\"note\":\"{}\",\"results\":[{{\"faults\":[]}},-1.5e3]}}",
                        payload.1,
                        escape(&payload.2)
                    )
                }),
                counts,
                detail: detail.0.then_some(detail.1),
                elapsed_us,
            }
        })
}

proptest! {
    #[test]
    fn records_round_trip(r in job_result()) {
        prop_assert_eq!(parse_record(&render_record(&r)), Some(r));
    }

    #[test]
    fn proper_prefixes_are_torn(r in job_result()) {
        let line = render_record(&r);
        for (cut, _) in line.char_indices() {
            prop_assert!(parse_record(&line[..cut]).is_none(), "prefix accepted: {}", &line[..cut]);
        }
    }
}
