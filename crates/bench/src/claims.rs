//! The paper's claims, one module per evaluation artefact.
//!
//! Each artefact runs its experiment at a [`Scale`] and seed and returns
//! a [`ClaimRun`]: the TSV of the series it plots and its paper-shape
//! checks as data. [`ALL`] is the one list of artefacts; the `claims`
//! binary, `scripts/ci.sh`, `scripts/update_golden.sh` and the tests
//! all read it.
//!
//! An artefact records the same ordered list of check ids at every seed
//! and scale. A check whose input is missing is recorded as failed, with
//! a detail naming what was missing.

use crate::Scale;

/// Declares one module per artefact and [`ALL`] over them, so each
/// artefact is named once.
macro_rules! artefacts {
    ($($name:ident)*) => {
        $(mod $name;)*

        /// Every artefact by the name it runs and is goldened under, in
        /// the order `claims --list` prints them.
        pub const ALL: &[(&str, Claim)] = &[$((stringify!($name), $name::run)),*];
    };
}

artefacts! {
    abl_cache abl_cubic abl_iw abl_split exp_bias exp_caching
    exp_classifiers exp_coords exp_failover exp_feload exp_instant exp_loss
    exp_metastable exp_overload exp_popularity exp_temapping exp_whatif fig3
    fig4 fig5 fig6 fig7 fig8 fig9
}

/// One artefact's experiment: runs it at a scale and seed.
pub type Claim = fn(Scale, u64) -> ClaimRun;

/// One paper-shape check.
#[derive(Debug)]
pub struct Check {
    /// The claim's stable name: unique within its artefact and free of
    /// measured numbers, so it is the same at every seed and scale.
    pub id: String,
    /// The measured numbers behind the verdict (for example `got -0.93`),
    /// or why the check could not be evaluated; empty when the claim has
    /// no number to show.
    pub detail: String,
    /// Whether the claim held.
    pub pass: bool,
}

/// One artefact run: the TSV it prints on stdout and its checks in
/// order.
#[derive(Debug, Default)]
pub struct ClaimRun {
    /// The plotted series as TSV, header line first.
    pub tsv: String,
    /// The paper-shape checks, in the artefact's fixed order.
    pub checks: Vec<Check>,
}

impl ClaimRun {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn check(&mut self, id: impl Into<String>, detail: impl Into<String>, pass: bool) {
        self.checks.push(Check {
            id: id.into(),
            detail: detail.into(),
            pass,
        });
    }

    /// Records `id` as failed because its input is missing.
    fn not_evaluated(&mut self, id: impl Into<String>, missing: &str) {
        self.check(id, format!("not evaluated: {missing}"), false);
    }

    fn with_tsv(mut self, tsv: Tsv) -> ClaimRun {
        self.tsv = tsv.text;
        self
    }
}

/// A TSV table built in memory: a header line, then rows of its width.
struct Tsv {
    text: String,
    cols: usize,
}

impl Tsv {
    fn new(header: &[&str]) -> Tsv {
        Tsv {
            text: header.join("\t") + "\n",
            cols: header.len(),
        }
    }

    /// Appends one row; panics if its width differs from the header's.
    fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.cols, "TSV row width mismatch");
        self.text += &cells.join("\t");
        self.text.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_writes_header_and_rows() {
        let mut t = Tsv::new(&["rtt_ms", "t_static_ms"]);
        t.row(&["10".into(), "25.5".into()]);
        assert_eq!(t.text, "rtt_ms\tt_static_ms\n10\t25.5\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn tsv_row_width_checked() {
        Tsv::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn a_missing_input_fails_its_check() {
        let mut run = ClaimRun::default();
        run.check("holds", "got 1", true);
        assert!(run.passed());
        run.not_evaluated("needs samples", "no samples");
        assert!(!run.passed());
        assert_eq!(run.checks[1].detail, "not evaluated: no samples");
    }

    #[test]
    fn artefact_names_are_unique_and_sorted() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    }
}
