//! Bench binaries reject arguments they do not read: a surplus
//! positional argument prints usage and exits 2 instead of running with
//! the argument ignored.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code.
fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("bench binary runs")
        .status
        .code()
}

#[test]
fn fleet_bins_reject_surplus_positional_arguments() {
    for bin in [
        env!("CARGO_BIN_EXE_fleet_elastic"),
        env!("CARGO_BIN_EXE_fleet_faults"),
    ] {
        assert_eq!(
            exit_code(bin, &["10", "40", "60", "8", "extra"]),
            Some(2),
            "{bin}"
        );
    }
}

#[test]
fn scale_bins_reject_surplus_positional_arguments() {
    let bin = env!("CARGO_BIN_EXE_fig4_operating_cost");
    assert_eq!(exit_code(bin, &["10", "2000", "extra"]), Some(2), "{bin}");
}
