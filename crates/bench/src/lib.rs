//! Shared helpers for the SLOPE-PMC-RS reproduction binaries.
//!
//! The `repro_*` binaries in `src/bin/` regenerate every table of the
//! paper's evaluation:
//!
//! | binary          | paper artefact                                  |
//! |-----------------|-------------------------------------------------|
//! | `repro_table1`  | Table 1 — platform specifications               |
//! | `repro_collection` | Sect. 5 — catalog sizes, filtering, runs-to-collect |
//! | `repro_class_a` | Tables 2–5 — Haswell additivity + model ladders |
//! | `repro_class_b` | Tables 6, 7a — Skylake application-specific sets|
//! | `repro_class_c` | Table 7b — four-PMC online models               |
//! | `repro_all`     | everything above, in order                      |
//!
//! Criterion benches in `benches/` cover the simulator, the counter
//! scheduler, the three model trainers, the additivity checker, and the
//! ablation sweeps called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Run a labelled reproduction step. The timing footer goes to stderr,
/// so stdout stays byte-identical from run to run and can be diffed
/// against the committed `results/*.txt`.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    println!("==> {label}");
    let start = Instant::now();
    let out = f();
    eprintln!("<== {label} done in {:.1}s", start.elapsed().as_secs_f64());
    println!();
    out
}

/// True when the caller asked for a quick (smoke-scale) reproduction via
/// `--quick` or the `PMCA_QUICK` environment variable.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("PMCA_QUICK").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_closure_value() {
        assert_eq!(timed("unit", || 41 + 1), 42);
    }

    #[test]
    fn quick_not_requested_by_default() {
        // Cargo test harness arguments don't include --quick.
        std::env::remove_var("PMCA_QUICK");
        assert!(!quick_requested());
    }
}
