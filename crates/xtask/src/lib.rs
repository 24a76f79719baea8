//! Workspace automation library backing the `cargo xtask` commands.
//!
//! The checker lives in a library crate (rather than inline in the
//! binary) so the self-tests can exercise every rule against
//! synthetic sources and a seeded on-disk fixture — the acceptance
//! gate requires `cargo xtask lint` to fail on a seeded violation.

pub mod allowlist;
pub mod baseline;
pub mod checks;
pub mod harness;
pub mod json;
pub mod lexer;
pub mod model;

/// Tests of the chaos kill sweep's helpers, under the module path of
/// the `chaos` driver that [`harness`] replaced.
#[cfg(test)]
mod chaos {
    mod tests {
        use crate::harness::{parse_durable_writes, select_kill_points};

        #[test]
        fn kill_point_selection_covers_boundaries() {
            assert_eq!(select_kill_points(20, false).len(), 20);
            assert_eq!(select_kill_points(20, true), vec![1, 2, 10, 19, 20]);
            // Tiny write counts dedup instead of repeating points.
            assert_eq!(select_kill_points(4, true), vec![1, 2, 3, 4]);
        }

        #[test]
        fn durable_write_count_is_parsed_from_report_line() {
            let out = "fleet: durable writes = 20\nfleet: ok\n";
            assert_eq!(parse_durable_writes(out), Ok(20));
            assert!(parse_durable_writes("no report").is_err());
            assert!(parse_durable_writes("soak: durable writes = x").is_err());
        }
    }
}

/// Tests of the harness table and its stdout markers, under the module
/// path of the `soak` driver that [`harness`] replaced.
#[cfg(test)]
mod soak {
    mod tests {
        use std::collections::BTreeSet;
        use std::path::Path;

        use crate::harness::{arg_value, parse_marker, Row, TABLE};

        /// Size of a sweep argument: the number itself, else the entry
        /// count of a list.
        fn size(value: &str) -> usize {
            value.parse().unwrap_or_else(|_| value.split(',').count())
        }

        /// Arguments of a row's reference run.
        fn args(row: &Row, smoke: bool) -> Vec<String> {
            row.args(Path::new("/o"), "r", &row.runs[0], smoke)
        }

        #[test]
        fn marker_parsing_finds_values_and_tolerates_noise() {
            let out = "fleet: durable writes = 20\nfleet: quarantined = 2,5\nfleet: ok\n";
            let quarantined = parse_marker(out, "fleet: quarantined = ");
            assert_eq!(quarantined.as_deref(), Some("2,5"));
            assert_eq!(parse_marker(out, "fleet: missing = "), None);
        }

        #[test]
        fn scenario_registry_is_unique_and_describes_every_entry() {
            let names: BTreeSet<(&str, &str)> = TABLE.iter().map(|r| (r.command, r.name)).collect();
            let dirs: BTreeSet<&str> = TABLE.iter().map(|r| r.out_dir).collect();
            assert_eq!(names.len(), TABLE.len(), "duplicate row name");
            assert_eq!(dirs.len(), TABLE.len(), "duplicate output directory");
            for command in ["chaos", "soak", "determinism"] {
                assert!(
                    TABLE.iter().any(|r| r.command == command),
                    "no {command} row"
                );
            }
            for row in TABLE {
                let labels: BTreeSet<&str> = row.runs.iter().map(|r| r.label).collect();
                assert_eq!(labels.len(), row.runs.len(), "{}: duplicate run", row.name);
                assert_eq!(row.victim.is_some(), row.command == "chaos", "{}", row.name);
                for smoke in [false, true] {
                    assert!(args(row, smoke).iter().all(|a| !a.contains('{')));
                    for run in row.runs {
                        let with = row.args(Path::new("/o"), run.label, run, smoke);
                        for &(flag, value) in run.overrides {
                            assert_eq!(arg_value(&with, flag), Some(value), "{}", row.name);
                        }
                    }
                }
            }
        }

        #[test]
        fn sweep_parameters_differ_between_smoke_and_full() {
            for row in TABLE {
                let (full, smoke): (Vec<&str>, Vec<&str>) = (
                    row.full.split_whitespace().collect(),
                    row.smoke.split_whitespace().collect(),
                );
                if smoke == full {
                    // A chaos row's smoke run trims the kill points; the
                    // determinism row has one size and runs only in ci.
                    assert!(row.victim.is_some() || row.command == "determinism");
                    continue;
                }
                // Every smoke run does strictly less work than its full
                // run: same flags, and every differing value smaller.
                assert_eq!(smoke.len(), full.len(), "{}", row.name);
                for (s, f) in smoke.iter().zip(&full) {
                    if s != f {
                        assert!(size(s) < size(f), "{}: {s} vs {f}", row.name);
                    }
                }
            }
        }

        #[test]
        fn fleet_sweep_parameters_shrink_under_smoke() {
            // The quarantine marker is compared as a string with the
            // fleet's sorted, deduplicated targets, so the table must list
            // them sorted and unique, and every target must exist or the
            // workload's "targeted building never left healthy" assertion
            // is vacuous.
            for (row, smoke) in TABLE.iter().flat_map(|r| [(r, false), (r, true)]) {
                let args = args(row, smoke);
                let Some(targets) = arg_value(&args, "--targets") else {
                    continue;
                };
                let ids: Vec<u32> = targets.split(',').map(|t| t.parse().unwrap()).collect();
                let buildings: u32 = arg_value(&args, "--buildings").unwrap().parse().unwrap();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{targets} unsorted");
                assert!(
                    ids.iter().all(|&id| id < buildings),
                    "{targets} of {buildings}"
                );
            }
            let fleet = TABLE.iter().find(|r| r.out_dir == "fleet-soak").unwrap();
            assert!(
                size(arg_value(&args(fleet, true), "--buildings").unwrap())
                    < size(arg_value(&args(fleet, false), "--buildings").unwrap())
            );
        }
    }
}
