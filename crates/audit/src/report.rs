//! Findings, per-crate panic-hygiene statistics, and the JSON report.
//!
//! The JSON report is the machine-readable contract: `scripts/check.sh`
//! gates on the process exit code and the snapshot tests pin the
//! serialized form. Everything here is deterministic — findings are
//! sorted, maps are `BTreeMap`, and no timestamps or absolute paths
//! appear in the output.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::rules::{RuleId, ALL_RULES};

/// One rule violation (or suppressed violation) at a source location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Kebab-case rule name (see [`RuleId::name`]).
    pub rule: String,
    /// File path relative to the audited root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// True when an `audit:allow` annotation covers the site.
    pub allowed: bool,
    /// The annotation's justification, when allowed.
    pub justification: Option<String>,
    /// True when the site is inside the panic-hygiene baseline budget
    /// (counted and ratcheted, but not a failure).
    pub baselined: bool,
}

impl Finding {
    /// Builds a finding from a 0-based line index and the raw source
    /// line.
    pub fn new(rule: RuleId, file: &str, line0: usize, raw_line: &str) -> Self {
        Self {
            rule: rule.name().to_string(),
            file: file.to_string(),
            line: (line0 + 1) as u32,
            snippet: raw_line.trim().to_string(),
            allowed: false,
            justification: None,
            baselined: false,
        }
    }

    /// True when the finding fails the audit (neither annotated nor
    /// inside the baseline budget).
    pub fn unsuppressed(&self) -> bool {
        !self.allowed && !self.baselined
    }
}

/// Panic-hygiene accounting for one crate: the ratchet's unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanicStats {
    /// Unannotated `unwrap()`/`expect()` sites in library non-test
    /// code. Must stay ≤ `baseline` for the audit to pass.
    pub sites: u32,
    /// Sites carrying an `audit:allow(panic-hygiene)` annotation.
    pub annotated: u32,
    /// The budget from `audit.baseline.json` (0 when absent): the
    /// ratchet — it only ever goes down.
    pub baseline: u32,
    /// Total library (non-generated) source lines of the crate, for
    /// the density denominator.
    pub lib_lines: u32,
    /// `(sites + annotated) / lib_lines * 1000`, rounded to 2 decimals.
    pub density_per_kloc: f64,
}

/// Per-rule rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleStat {
    /// All findings of the rule (allowed and baselined included).
    pub findings: u32,
    /// Findings that fail the audit.
    pub unsuppressed: u32,
}

/// The complete audit result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Bumped when the JSON shape changes.
    pub schema_version: u32,
    /// Number of `.rs` files scanned.
    pub files_scanned: u32,
    /// Every rule the auditor ran, in report order.
    pub rules: Vec<String>,
    /// All findings (including allowed and baselined ones), sorted by
    /// file, line, rule.
    pub findings: Vec<Finding>,
    /// Number of findings that fail the audit.
    pub unsuppressed: u32,
    /// Per-rule finding/unsuppressed counts, every rule present.
    pub rule_stats: BTreeMap<String, RuleStat>,
    /// Per-crate panic-hygiene accounting.
    pub panic_hygiene: BTreeMap<String, PanicStats>,
}

impl Report {
    /// Assembles a report: sorts findings, counts unsuppressed ones.
    pub fn assemble(
        files_scanned: u32,
        mut findings: Vec<Finding>,
        panic_hygiene: BTreeMap<String, PanicStats>,
    ) -> Self {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule.as_str(),
            ))
        });
        let unsuppressed = findings.iter().filter(|f| f.unsuppressed()).count() as u32;
        let mut rule_stats: BTreeMap<String, RuleStat> = ALL_RULES
            .iter()
            .map(|r| {
                (
                    r.name().to_string(),
                    RuleStat {
                        findings: 0,
                        unsuppressed: 0,
                    },
                )
            })
            .collect();
        for f in &findings {
            let stat = rule_stats.entry(f.rule.clone()).or_insert(RuleStat {
                findings: 0,
                unsuppressed: 0,
            });
            stat.findings += 1;
            if f.unsuppressed() {
                stat.unsuppressed += 1;
            }
        }
        Self {
            schema_version: 3,
            files_scanned,
            rules: ALL_RULES.iter().map(|r| r.name().to_string()).collect(),
            findings,
            unsuppressed,
            rule_stats,
            panic_hygiene,
        }
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        // The vendored serde_json never fails on this shape (no
        // non-string map keys, no NaN densities).
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Renders the human report: unsuppressed findings in full, then
    /// the per-rule summary and the panic-hygiene ratchet table.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in self.findings.iter().filter(|f| f.unsuppressed()) {
            out.push_str(&format!(
                "error[{}]: {}:{}: {}\n",
                f.rule, f.file, f.line, f.snippet
            ));
        }
        out.push_str(&format!(
            "qcpa-audit: {} files, {} findings ({} unsuppressed, {} allowed, {} baselined)\n",
            self.files_scanned,
            self.findings.len(),
            self.unsuppressed,
            self.findings.iter().filter(|f| f.allowed).count(),
            self.findings.iter().filter(|f| f.baselined).count(),
        ));
        for rule in ALL_RULES {
            let total = self
                .findings
                .iter()
                .filter(|f| f.rule == rule.name())
                .count();
            let bad = self
                .findings
                .iter()
                .filter(|f| f.rule == rule.name() && f.unsuppressed())
                .count();
            out.push_str(&format!(
                "  {:<18} {:>4} finding(s), {:>3} unsuppressed — {}\n",
                rule.name(),
                total,
                bad,
                rule.describe()
            ));
        }
        out.push_str("panic-hygiene ratchet (unannotated sites / baseline, density per kLoC):\n");
        for (krate, s) in &self.panic_hygiene {
            let status = if s.sites > s.baseline {
                "OVER BUDGET"
            } else if s.sites < s.baseline {
                "slack — lower the baseline"
            } else {
                "at budget"
            };
            out.push_str(&format!(
                "  {:<16} {:>3}/{:<3} ({} annotated, {:.2}/kLoC) {}\n",
                krate, s.sites, s.baseline, s.annotated, s.density_per_kloc, status
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_sorts_and_counts() {
        let f1 = Finding::new(RuleId::Spawn, "b.rs", 4, "x");
        let mut f2 = Finding::new(RuleId::HashIter, "a.rs", 9, "y");
        f2.allowed = true;
        let r = Report::assemble(2, vec![f1, f2], BTreeMap::new());
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.unsuppressed, 1);
    }

    #[test]
    fn json_round_trips() {
        let mut stats = BTreeMap::new();
        stats.insert(
            "qcpa-core".to_string(),
            PanicStats {
                sites: 3,
                annotated: 1,
                baseline: 5,
                lib_lines: 1000,
                density_per_kloc: 4.0,
            },
        );
        let r = Report::assemble(
            1,
            vec![Finding::new(
                RuleId::EnvAccess,
                "x.rs",
                0,
                "std::env::var(\"HOME\")",
            )],
            stats,
        );
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn human_report_mentions_over_budget() {
        let mut stats = BTreeMap::new();
        stats.insert(
            "qcpa-sim".to_string(),
            PanicStats {
                sites: 9,
                annotated: 0,
                baseline: 2,
                lib_lines: 100,
                density_per_kloc: 90.0,
            },
        );
        let r = Report::assemble(1, Vec::new(), stats);
        assert!(r.human().contains("OVER BUDGET"));
    }
}
