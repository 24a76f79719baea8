//! Environment-knob hardening: malformed `THERMAL_THREADS` values
//! must degrade to documented fallbacks with typed reasons — never
//! abort a run, never be silently trusted.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use thermal_par::{resolve_thread_count, ThreadsParseError, MAX_THREADS};

#[test]
fn thread_count_resolver_documented_fallbacks() {
    assert_eq!(resolve_thread_count(Some("4")), (4, None));
    let (n, err) = resolve_thread_count(Some("0"));
    assert!(n >= 1);
    assert_eq!(err, Some(ThreadsParseError::Zero));
    let (n, err) = resolve_thread_count(Some("4x"));
    assert!(n >= 1);
    assert!(matches!(err, Some(ThreadsParseError::NotANumber { .. })));
    assert_eq!(
        resolve_thread_count(Some("99999999")),
        (
            MAX_THREADS,
            Some(ThreadsParseError::TooLarge { parsed: 99_999_999 })
        )
    );
}
