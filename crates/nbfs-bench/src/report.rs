//! Tabular figure output, printable and machine-readable, plus the typed
//! paper-vs-measured claims each figure makes.

use serde::Serialize;

/// How a claim's value is written, in the figure text and in
/// EXPERIMENTS' "Measured here" column alike.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Unit {
    /// A factor, written `3.61×`.
    Ratio,
    /// A share of a whole, held as a fraction and written `42%`.
    Share,
    /// A relative change, held as a fraction and written `+7.1%`.
    Change,
}

impl Unit {
    /// Formats `x` the way the docs quote it.
    pub fn format(self, x: f64) -> String {
        match self {
            Unit::Ratio => format!("{x:.2}×"),
            Unit::Share => format!("{:.0}%", 100.0 * x),
            Unit::Change => format!("{:+.1}%", 100.0 * x),
        }
    }
}

/// One quantity a figure reproduces: what the paper reports next to what
/// this run measured, built from the very values the figure's cells show.
#[derive(Clone, Debug, Serialize)]
pub struct Claim {
    /// What is compared, in words.
    pub quantity: String,
    /// The paper's value, when it states one (orderings may not).
    pub paper: Option<f64>,
    /// This run's value.
    pub ours: f64,
    /// How `paper` and `ours` are written.
    pub unit: Unit,
    /// Inclusive `(lo, hi)` band `tests/paper_claims.rs` pins `ours` to at
    /// its stated configuration; `None` when the value is only quoted. A
    /// strict bound is written with [`above`] or [`below`].
    pub band: Option<(f64, f64)>,
}

/// The least `f64` greater than `x` (positive and finite): the inclusive
/// form of the strict lower bound `ours > x`. An ordering row's band is
/// `(above(1.0), f64::INFINITY)`, so a rung that silently becomes a no-op
/// (a ratio of exactly 1 in the deterministic model) misses it.
pub fn above(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "above({x}): positive finite only");
    f64::from_bits(x.to_bits() + 1)
}

/// The greatest `f64` less than `x` (positive and finite): the inclusive
/// form of the strict upper bound `ours < x`.
pub fn below(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "below({x}): positive finite only");
    f64::from_bits(x.to_bits() - 1)
}

impl Claim {
    /// `Some(true)` when `ours` lies in the band, `None` when unbanded.
    pub fn verdict(&self) -> Option<bool> {
        self.band.map(|(lo, hi)| (lo..=hi).contains(&self.ours))
    }

    fn to_text(&self) -> String {
        let f = |x: f64| self.unit.format(x);
        let paper = self.paper.map_or_else(|| "-".into(), f);
        let band = match self.band {
            Some((lo, hi)) => {
                let hi = if hi.is_finite() { f(hi) } else { "∞".into() };
                let holds = self.verdict() == Some(true);
                let verdict = if holds { "holds" } else { "MISSED" };
                format!(" (band {} to {hi}: {verdict})", f(lo))
            }
            None => String::new(),
        };
        format!(
            "{}: paper {paper}, measured {}{band}",
            self.quantity,
            f(self.ours)
        )
    }
}

/// One regenerated table/figure.
#[derive(Clone, Debug, Serialize)]
pub struct FigureReport {
    /// Identifier ("fig9", "table1", ...).
    pub id: String,
    /// Human title, matching the paper's caption topic.
    pub title: String,
    /// What the paper reported for this figure (for eyeball comparison).
    pub paper_reference: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Paper-vs-measured quantities, in the order EXPERIMENTS quotes them.
    pub claims: Vec<Claim>,
    /// Free-form notes (parameters, substitutions, caveats).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, paper_reference: &str, columns: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            paper_reference: paper_reference.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            claims: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Appends a claim about this figure.
    pub fn claim(
        &mut self,
        quantity: impl Into<String>,
        paper: Option<f64>,
        ours: f64,
        unit: Unit,
        band: Option<(f64, f64)>,
    ) {
        self.claims.push(Claim {
            quantity: quantity.into(),
            paper,
            ours,
            unit,
            band,
        });
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("paper: {}\n", self.paper_reference));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for claim in &self.claims {
            out.push_str(&format!("claim: {}\n", claim.to_text()));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_aligns() {
        let mut r = FigureReport::new("figX", "demo", "n/a", &["a", "bbb"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_row(vec!["333".into(), "4".into()]);
        r.note("hello");
        let text = r.to_text();
        assert!(text.contains("figX"));
        assert!(text.contains("333"));
        assert!(text.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = FigureReport::new("f", "t", "p", &["a"]);
        r.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut r = FigureReport::new("f", "t", "p", &["a"]);
        r.push_row(vec!["1".into()]);
        r.claim("q", Some(0.54), 0.42, Unit::Share, Some((0.3, 1.0)));
        let j = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["id"], "f");
        assert_eq!(v["rows"][0][0], "1");
        assert_eq!(v["claims"][0]["quantity"], "q");
        assert_eq!(v["claims"][0]["ours"], 0.42);
        assert_eq!(v["claims"][0]["band"][0], 0.3);
    }

    #[test]
    fn claims_format_as_the_docs_quote_them_and_judge_their_band() {
        let mut r = FigureReport::new("f", "t", "p", &["a"]);
        r.claim("ratio", Some(2.0), 1.854, Unit::Ratio, Some((1.5, 4.5)));
        r.claim("share", Some(0.54), 0.2, Unit::Share, Some((0.3, 1.0)));
        r.claim("gain", None, 0.071, Unit::Change, None);
        let [ratio, share, gain] = &r.claims[..] else {
            panic!("three claims")
        };
        assert_eq!(ratio.unit.format(ratio.ours), "1.85×");
        assert_eq!(ratio.verdict(), Some(true));
        assert_eq!(share.unit.format(share.ours), "20%");
        assert_eq!(share.verdict(), Some(false));
        assert_eq!(gain.unit.format(gain.ours), "+7.1%");
        assert_eq!(gain.verdict(), None);
        let text = r.to_text();
        assert!(text.contains("claim: share: paper 54%, measured 20% (band 30% to 100%: MISSED)"));
        assert!(text.contains("claim: gain: paper -, measured +7.1%\n"));
    }

    #[test]
    fn strict_bounds_exclude_their_endpoint() {
        let mut r = FigureReport::new("f", "t", "p", &["a"]);
        let ordering = Some((above(1.0), f64::INFINITY));
        r.claim("no-op rung", None, 1.0, Unit::Ratio, ordering);
        r.claim("real cut", None, 1.0 + 1e-9, Unit::Ratio, ordering);
        r.claim("cap", None, 0.45, Unit::Share, Some((0.0, below(0.45))));
        r.claim("point", None, 1.0, Unit::Ratio, Some((1.0, 1.0)));
        let verdicts: Vec<_> = r.claims.iter().map(Claim::verdict).collect();
        assert_eq!(verdicts, [Some(false), Some(true), Some(false), Some(true)]);
        assert!(above(0.3) > 0.3 && above(0.3) - 0.3 < 1e-16);
        assert!(below(0.45) < 0.45 && 0.45 - below(0.45) < 1e-16);
    }
}
