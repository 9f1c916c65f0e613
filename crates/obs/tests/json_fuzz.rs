//! Property tests for the workspace JSON reader: it must *never* panic,
//! whatever bytes a client or a torn file throws at it — malformed UTF-8
//! fragments, truncated escapes, pathological nesting. A wedged or
//! malicious client gets a typed `ParseError`, not a dead server. And
//! every string the writers quote with `escape` reads back unchanged.

use proptest::prelude::*;
use vpdift_obs::json::{escape, parse, Value};

/// Bytes drawn from the JSON structural alphabet: much likelier to form
/// *almost*-valid documents (truncated strings, unbalanced brackets,
/// half-written escapes) than uniform bytes, which usually die at byte 0.
fn jsonish() -> impl Strategy<Value = Vec<u8>> {
    let alphabet: &[u8] = b"{}[]\",:0123456789.eE+-truefalsnl \\/\tu\n\x7f\xc3";
    prop::collection::vec(any::<u8>().prop_map(|b| b), 0..128)
        .prop_map(move |idx| idx.iter().map(|&b| alphabet[b as usize % alphabet.len()]).collect())
}

/// Arbitrary strings weighted towards what `escape` has to handle:
/// quotes, backslashes, control characters and multi-byte scalars.
fn arbitrary_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..48).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| {
                let special = ['"', '\\', '/', '\n', '\r', '\t', '\0', '\u{8}', '\u{1f}', '\u{7f}'];
                match d % 4 {
                    0 => special[(d / 4) as usize % special.len()],
                    1 => char::from(b' ' + (d / 4 % 95) as u8),
                    2 => char::from_u32(d / 4 % 0x1_0000).unwrap_or('é'),
                    _ => char::from_u32(d / 4 % 0x11_0000).unwrap_or('\u{10ffff}'),
                }
            })
            .collect()
    })
}

proptest! {
    /// `escape` and `parse` are inverse on every string.
    #[test]
    fn escaped_strings_parse_back_unchanged(s in arbitrary_string()) {
        prop_assert_eq!(parse(&format!("\"{}\"", escape(&s))), Ok(Value::Str(s)));
    }

    /// Uniform random bytes (lossily decoded): parse returns, never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
    }

    /// JSON-alphabet soup: exercises the tokenizer's deep paths (string
    /// escapes, number grammar, nested containers) without panicking.
    #[test]
    fn jsonish_bytes_never_panic(bytes in jsonish()) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
    }

    /// Valid documents re-parse after a random single-byte truncation —
    /// the torn-line case a killed writer leaves behind.
    #[test]
    fn truncations_never_panic(cut in any::<u16>()) {
        let doc = r#"{"cmd":"run","session":"s0","opts":{"deep":[1,[2,[3,"A"]]],"cap":18446744073709551615}}"#;
        let n = (cut as usize) % doc.len();
        let mut prefix = &doc[..n];
        // Back off to a char boundary (ASCII here, but keep it general).
        while !doc.is_char_boundary(prefix.len()) {
            prefix = &doc[..prefix.len() - 1];
        }
        let _ = parse(prefix);
    }
}

/// Nesting right at, below, and far beyond the depth cap: the recursive
/// parser must refuse with an error — stack overflow is a panic the
/// `catch_unwind`-free server cannot survive.
#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    // Well-formed nesting up to the cap parses...
    for depth in [1usize, 8, 31] {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&doc).is_ok(), "depth {depth} should parse");
    }
    // ...and anything deeper (balanced or truncated) errors cleanly,
    // including depths that would blow the stack if recursion were
    // unbounded.
    for depth in [33usize, 64, 1000, 100_000] {
        let open = "[".repeat(depth);
        assert!(parse(&open).is_err(), "unclosed depth {depth} must error");
        let doc = format!("{}1{}", open, "]".repeat(depth));
        assert!(parse(&doc).is_err(), "balanced depth {depth} must error");
        let objs = "{\"k\":".repeat(depth);
        assert!(parse(&objs).is_err(), "object depth {depth} must error");
    }
}
