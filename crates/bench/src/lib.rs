//! # cannikin-bench — experiment harness
//!
//! Shared plumbing for the `figures` binary (`src/bin/figures.rs`), which
//! regenerates every table and figure of the paper's evaluation section,
//! the scenario matrix and the `gate` binary. See `DESIGN.md`
//! ("Measurement") for the experiment index and `EXPERIMENTS.md` for
//! recorded outputs.

pub mod experiments;
pub mod gate;
pub mod runners;
pub mod scenarios;

/// Render a row of a fixed-width text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Format a float with 4 significant-ish digits for table output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns_right() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(0.012345), "0.0123");
    }
}
