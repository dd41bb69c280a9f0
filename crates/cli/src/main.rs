//! `slope-pmc` — the command-line front end of SLOPE-PMC-RS.
//!
//! ```text
//! slope-pmc specs
//! slope-pmc audit    --platform skylake --compounds 8 EVENT [EVENT...]
//! slope-pmc schedule --platform haswell [EVENT...]
//! slope-pmc measure  --platform skylake APP_SPEC [APP_SPEC...]
//! slope-pmc collect  --platform skylake --app dgemm:12000 EVENT [EVENT...]
//! slope-pmc serve    --addr 127.0.0.1:7771
//! slope-pmc query    --addr 127.0.0.1:7771 ESTIMATE-APP skylake dgemm:12000
//! ```
//!
//! Application specs use `family:size` syntax (`dgemm:12000`,
//! `npb-cg:1.2`, `stress-vm:5`, compounds as `a;b`); see
//! `pmca_workloads::parse`.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            pmca_obs::log::error("cli", &message, &[]);
            eprintln!("\n{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
