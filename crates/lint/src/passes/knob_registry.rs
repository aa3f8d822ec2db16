//! `knob-registry`: every `NOFTL_*` environment knob is read in exactly one
//! place and documented everywhere it must be.
//!
//! The registry is derived from the central knob module
//! (`crates/storage-engine/src/backend.rs`): every `NOFTL_*` string literal
//! in its non-test code is a registered knob.  The pass then enforces:
//!
//! 1. **Single read point** — the environment is read only inside
//!    `Knobs::from_env` in the central module.  Any other environment access
//!    there, and any `env::var*`, `set_var`, `remove_var` or `env!` on a line
//!    naming a `NOFTL_` string anywhere else, is a violation — in test code
//!    too: tests build `Knobs` values instead of mutating the process
//!    environment.
//! 2. **CI coverage** — every registered knob must appear in
//!    `.github/workflows/ci.yml`; a knob no CI leg exercises is dead config.
//! 3. **Docs coverage** — every registered knob must appear in `ROADMAP.md`'s
//!    knob table.
//! 4. **No drift** — a `NOFTL_*` token appearing in any workspace string
//!    literal, in CI, or in the ROADMAP that is *not* in the registry fails
//!    the build (a renamed or removed knob must disappear everywhere).
//!
//! `noftl-lint --emit-knobs` prints the registry as a markdown table.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pass name used in diagnostics.
pub const PASS: &str = "knob-registry";

/// Root-relative path of the central knob module.
pub const CENTRAL: &str = "crates/storage-engine/src/backend.rs";

/// The derived knob registry.
#[derive(Debug, Clone, Default)]
pub struct KnobRegistry {
    /// Knob name → 1-based line in the central module where it is parsed.
    pub knobs: BTreeMap<String, usize>,
    /// Whether each knob appears in the CI config / ROADMAP.
    pub in_ci: BTreeMap<String, bool>,
    /// Whether each knob appears in the ROADMAP.
    pub in_roadmap: BTreeMap<String, bool>,
    /// 1-based lines of the central module's environment reads inside
    /// [`FROM_ENV`].
    pub env_reads: Vec<usize>,
}

/// The one function allowed to read the environment.
pub const FROM_ENV: &str = "from_env";

/// Whether a code line touches the process environment.
fn accesses_env(code: &str) -> bool {
    code.contains("env::var")
        || code.contains("set_var(")
        || code.contains("remove_var(")
        || code.contains("env!(")
}

/// Name of the function whose signature most recently precedes line `idx`
/// (0-based) of `file`.
fn enclosing_fn(file: &SourceFile, idx: usize) -> Option<&str> {
    file.lines[..=idx].iter().rev().find_map(|l| {
        let at = l.code.find("fn ")?;
        let left_ok = at == 0 || {
            let c = l.code.as_bytes()[at - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        let rest = l.code[at + 3..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (left_ok && end > 0).then(|| &rest[..end])
    })
}

impl KnobRegistry {
    /// Render the registry as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("| Knob | Parsed at | In CI | In ROADMAP |\n|---|---|---|---|\n");
        for (k, line) in &self.knobs {
            s.push_str(&format!(
                "| `{k}` | `{CENTRAL}:{line}` | {} | {} |\n",
                if self.in_ci.get(k).copied().unwrap_or(false) { "yes" } else { "no" },
                if self.in_roadmap.get(k).copied().unwrap_or(false) { "yes" } else { "no" },
            ));
        }
        s
    }
}

/// Extract `NOFTL_[A-Z0-9_]+` tokens from a string, requiring at least one
/// character after the prefix (a bare `NOFTL_` is not a knob name).
fn knob_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(p) = text[i..].find("NOFTL_") {
        let start = i + p;
        // Left identifier boundary.
        let left_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let mut end = start + "NOFTL_".len();
        while end < text.len() {
            let c = bytes[end] as char;
            if c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' {
                end += 1;
            } else {
                break;
            }
        }
        if left_ok && end > start + "NOFTL_".len() {
            out.push(text[start..end].trim_end_matches('_').to_string());
        }
        i = end.max(start + 1);
    }
    out
}

/// Run the pass.  `ci` and `roadmap` are the CI config and ROADMAP texts
/// (when present in the linted tree).
pub fn run(
    sources: &[SourceFile],
    ci: Option<&str>,
    roadmap: Option<&str>,
) -> (Vec<Diagnostic>, KnobRegistry) {
    let mut out = Vec::new();
    let mut reg = KnobRegistry::default();

    // 0. Build the registry from the central module's non-test strings.
    let central = sources.iter().find(|f| f.rel == CENTRAL);
    match central {
        None => {
            out.push(Diagnostic::new(
                CENTRAL,
                1,
                PASS,
                "central knob module not found; every NOFTL_* knob must be parsed there".into(),
            ));
            return (out, reg);
        }
        Some(f) => {
            for (no, line) in f.numbered() {
                if line.in_test {
                    continue;
                }
                for s in &line.strings {
                    for k in knob_tokens(s) {
                        reg.knobs.entry(k).or_insert(no);
                    }
                }
            }
        }
    }
    if reg.knobs.is_empty() {
        out.push(Diagnostic::new(
            CENTRAL,
            1,
            PASS,
            "knob registry is empty; expected NOFTL_* parsers in the central module".into(),
        ));
    }

    // 1. Environment access outside `Knobs::from_env` (test code included).
    for f in sources {
        for (no, line) in f.numbered() {
            if !accesses_env(&line.code) {
                continue;
            }
            if f.rel == CENTRAL {
                if enclosing_fn(f, no - 1) == Some(FROM_ENV) {
                    reg.env_reads.push(no);
                    continue;
                }
            } else if !line.strings.iter().any(|s| s.contains("NOFTL_")) {
                continue;
            }
            out.push(Diagnostic::new(
                &f.rel,
                no,
                PASS,
                format!(
                    "environment access to NOFTL_* knobs outside Knobs::{FROM_ENV} \
                     ({CENTRAL}); pass a Knobs value instead"
                ),
            ));
        }
    }

    // 2./3. Registry knobs must appear in CI and ROADMAP.
    for (k, line) in &reg.knobs {
        let ci_has = ci.map(|t| t.contains(k.as_str())).unwrap_or(false);
        let rm_has = roadmap.map(|t| t.contains(k.as_str())).unwrap_or(false);
        reg.in_ci.insert(k.clone(), ci_has);
        reg.in_roadmap.insert(k.clone(), rm_has);
        if !ci_has {
            out.push(Diagnostic::new(
                CENTRAL,
                *line,
                PASS,
                format!("knob `{k}` is registered but no CI leg exercises it (.github/workflows/ci.yml)"),
            ));
        }
        if !rm_has {
            out.push(Diagnostic::new(
                CENTRAL,
                *line,
                PASS,
                format!("knob `{k}` is registered but missing from the ROADMAP knob table"),
            ));
        }
    }

    // 4. Drift: NOFTL_* tokens outside the registry.
    for f in sources {
        for (no, line) in f.numbered() {
            for s in &line.strings {
                for k in knob_tokens(s) {
                    if !reg.knobs.contains_key(&k) {
                        out.push(Diagnostic::new(
                            &f.rel,
                            no,
                            PASS,
                            format!("unknown knob `{k}`: not parsed in the central knob module"),
                        ));
                    }
                }
            }
        }
    }
    for (name, text) in [("ci.yml", ci), ("ROADMAP.md", roadmap)] {
        if let Some(t) = text {
            for (i, l) in t.lines().enumerate() {
                for k in knob_tokens(l) {
                    if !reg.knobs.contains_key(&k) {
                        out.push(Diagnostic::new(
                            name,
                            i + 1,
                            PASS,
                            format!("unknown knob `{k}`: not parsed in the central knob module"),
                        ));
                    }
                }
            }
        }
    }

    (out, reg)
}
