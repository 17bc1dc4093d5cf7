//! Property tests of the request-line parser, the one decoder every byte
//! a client sends reaches: any line parses or draws a typed one-line
//! refusal without panicking, and an `obs` row carries its values
//! through bit for bit in either of Rust's float spellings, exactly as
//! `str::parse` reads them.

use netanom_serve::protocol::{parse_line, Request};
use netanom_serve::ErrorCode;
use proptest::prelude::*;

/// Pieces of request lines: every verb, session ids, `key=value` and
/// bare tokens, numbers and non-numbers, empty CSV fields, comments, and
/// whitespace that `str::trim` and `split_whitespace` treat differently
/// from ASCII space if they disagree anywhere.
const FRAGMENTS: &[&str] = &[
    "open",
    "obs",
    "drain",
    "checkpoint",
    "restore",
    "stats",
    "close",
    "ping",
    "quit",
    "s",
    "sess-1",
    " ",
    "  ",
    "\t",
    "\u{a0}",
    "\u{85}",
    "\u{2003}",
    "\u{2028}",
    "\u{3000}",
    "\u{feff}",
    "\r",
    "=",
    "dim=3",
    "window=",
    "=7",
    "k=v=w",
    "key",
    ",",
    ",,",
    "1",
    "-2.5e3",
    "0x10",
    "1e309",
    "-0",
    "nan",
    "inf",
    "-",
    ".",
    "#",
    "é",
    "🦀",
    "\0",
    "/tmp/x.bin",
    "99999999999999999999",
];

/// A line of up to `len` fragments drawn by index.
fn line(len: usize) -> impl Strategy<Value = String> {
    collection::vec(0usize..FRAGMENTS.len(), 0..=len)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// A finite `f64` drawn from the whole bit space: subnormals, both
/// zeros, and magnitudes near the overflow threshold come up alongside
/// everyday values.
fn finite() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            // Clear the exponent's top bit: a finite value, same sign.
            f64::from_bits(bits & !(1 << 62))
        }
    })
}

/// Hold one parse to the contract: a request, nothing, or a refusal
/// coded `parse` / `unknown-command` whose reply is a single line.
fn assert_parses_or_refuses(text: &str) {
    match parse_line(text) {
        Ok(_) => {}
        Err(e) => {
            assert!(
                matches!(e.code, ErrorCode::Parse | ErrorCode::UnknownCommand),
                "{text:?}: refused with {:?}",
                e.code
            );
            assert!(
                !e.to_line().contains(['\n', '\r']),
                "{text:?}: the refusal spans lines: {:?}",
                e.to_line()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_line_parses_or_draws_a_typed_refusal(text in line(24)) {
        assert_parses_or_refuses(&text);
    }

    #[test]
    fn any_request_with_a_long_tail_parses_or_draws_a_typed_refusal(
        verb in 0usize..9,
        tail in line(6),
        commas in 0usize..4000,
    ) {
        let text = format!("{} s 1{}{tail}", FRAGMENTS[verb], ",".repeat(commas));
        assert_parses_or_refuses(&text);
    }

    #[test]
    fn obs_values_round_trip_bit_for_bit(row in collection::vec(finite(), 1..40)) {
        let plain: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        let exponent: Vec<String> = row.iter().map(|v| format!("{v:e}")).collect();
        for fields in [plain, exponent] {
            let text = format!("obs s {}", fields.join(","));
            let Ok(Some(Request::Obs { sid, row: parsed })) = parse_line(&text) else {
                panic!("{text:?} did not parse as an obs row");
            };
            prop_assert_eq!(sid, "s");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&parsed), bits(&row), "{}", text);
            // The row converter reads each field as `str::parse` does.
            let std: Vec<f64> = fields.iter().map(|f| f.parse().unwrap()).collect();
            prop_assert_eq!(bits(&parsed), bits(&std), "{}", text);
        }
    }
}
