//! `tmk-bench`: the harness that regenerates every table and figure of the
//! ISCA'94 case study. See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! All experiments live in the declarative registry of [`driver`] and run
//! through the unified CLI:
//!
//! ```text
//! cargo run -p tmk-bench --release --bin suite -- \
//!     [--experiment ID]... [--filter SUBSTR]... [--jobs N] [--quick] [--json]
//! ```
//!
//! which fans independent (platform, workload) runs across host cores,
//! memoizes repeated baselines, and can emit `results/*.json` plus
//! `BENCH_results.json`. `suite` is the only binary.

pub mod driver;

/// Formats seconds for tables (3 significant-ish digits).
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(1.234), "1.23");
    }
}
