//! Errors for config parsing, schema checking, and campaign building.
//!
//! Every error names *where* it happened: syntax errors carry a file,
//! line, and column; schema and build errors carry the file or scenario
//! tag; wrapped lower-level failures (I/O, scenario validation, trace
//! import) stay reachable through [`std::error::Error::source`], so a
//! CLI can print the whole `caused by:` chain.

use pal_sim::SimError;
use pal_trace::TraceIoError;
use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong between a config file and a runnable
/// [`Campaign`](pal_sim::Campaign).
#[derive(Debug)]
pub enum ConfigError {
    /// The file could not be read at all.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// The underlying I/O failure (reachable via `source()`).
        source: std::io::Error,
    },
    /// The text is not well-formed TOML/JSON.
    Syntax {
        /// File the error is in (may be a synthetic name for in-memory
        /// input).
        file: String,
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// What went wrong.
        message: String,
    },
    /// The text parsed, but does not match the campaign schema (wrong
    /// types, unknown fields, missing sections).
    Schema {
        /// File the error is in.
        file: String,
        /// Field-path-qualified description from the deserializer.
        message: String,
    },
    /// A `kind = "..."` string named a generator or policy no one
    /// registered.
    UnknownKind {
        /// Registry category ("trace", "profile", "scheduler",
        /// "admission", "policy").
        category: &'static str,
        /// The unmatched kind string.
        kind: String,
        /// Every kind the category accepts, sorted, for the suggestion line.
        known: Vec<String>,
    },
    /// A registered builder rejected its `params` table.
    BadParam {
        /// What was being built ("trace `synergy`", "policy `pal`", …).
        context: String,
        /// The builder's complaint.
        message: String,
    },
    /// A fully-built scenario failed [`pal_sim::Scenario::validate`]
    /// (source-chained to the underlying [`SimError`]).
    Scenario {
        /// Tag of the failing scenario cell.
        tag: String,
        /// The validation failure (reachable via `source()`).
        source: SimError,
    },
    /// A trace file referenced by the config failed to import
    /// (source-chained to the underlying [`TraceIoError`]).
    Trace {
        /// What was being imported ("trace `csv` from jobs.csv", …).
        context: String,
        /// The import failure (reachable via `source()`).
        source: TraceIoError,
    },
    /// A spill directory's contents are inconsistent with the campaign
    /// being run or resumed (manifest cell not in the grid, seed or
    /// digest mismatch, malformed result line, …).
    Spill {
        /// Path of the offending spill file.
        path: PathBuf,
        /// What is inconsistent.
        message: String,
    },
    /// The simulation itself failed while running a spilled campaign
    /// (source-chained to the underlying [`SimError`]).
    Sim {
        /// The simulation failure (reachable via `source()`).
        source: SimError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io { path, .. } => {
                write!(f, "cannot read {}", path.display())
            }
            ConfigError::Syntax {
                file,
                line,
                col,
                message,
            } => write!(f, "{file}:{line}:{col}: {message}"),
            ConfigError::Schema { file, message } => write!(f, "{file}: {message}"),
            ConfigError::UnknownKind {
                category,
                kind,
                known,
            } => write!(
                f,
                "unknown {category} kind `{kind}` (registered: {})",
                known.join(", ")
            ),
            ConfigError::BadParam { context, message } => write!(f, "{context}: {message}"),
            ConfigError::Scenario { tag, .. } => {
                write!(f, "scenario `{tag}` failed validation")
            }
            ConfigError::Trace { context, .. } => write!(f, "{context} failed"),
            ConfigError::Spill { path, message } => {
                write!(f, "spill file {}: {message}", path.display())
            }
            ConfigError::Sim { .. } => write!(f, "campaign run failed"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io { source, .. } => Some(source),
            ConfigError::Scenario { source, .. } => Some(source),
            ConfigError::Trace { source, .. } => Some(source),
            ConfigError::Sim { source } => Some(source),
            ConfigError::Syntax { .. }
            | ConfigError::Schema { .. }
            | ConfigError::UnknownKind { .. }
            | ConfigError::BadParam { .. }
            | ConfigError::Spill { .. } => None,
        }
    }
}

/// Render `err` and its whole [`source`](std::error::Error::source)
/// chain as a multi-line diagnostic:
///
/// ```text
/// scenario `philly-1@x1.5` failed validation
///   caused by: job 3 demands 64 GPUs but the cluster has 4 ...
/// ```
pub fn render_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cause = err.source();
    while let Some(c) = cause {
        out.push_str("\n  caused by: ");
        out.push_str(&c.to_string());
        cause = c.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_trace::JobId;

    #[test]
    fn syntax_errors_point_at_file_line_col() {
        let e = ConfigError::Syntax {
            file: "campaign.toml".into(),
            line: 12,
            col: 7,
            message: "expected `=` after key".into(),
        };
        assert_eq!(e.to_string(), "campaign.toml:12:7: expected `=` after key");
    }

    #[test]
    fn scenario_errors_chain_to_sim_error() {
        let e = ConfigError::Scenario {
            tag: "sweep@x1.5".into(),
            source: SimError::OversizedJob {
                job: JobId(3),
                demand: 64,
                total_gpus: 4,
            },
        };
        let chain = render_chain(&e);
        assert!(chain.contains("sweep@x1.5"), "{chain}");
        assert!(chain.contains("caused by: job3 demands 64"), "{chain}");
    }

    #[test]
    fn trace_errors_chain_to_io_error() {
        let inner = TraceIoError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no such file",
        ));
        let e = ConfigError::Trace {
            context: "trace `csv` from jobs.csv".into(),
            source: inner,
        };
        let chain = render_chain(&e);
        assert!(chain.contains("caused by: trace I/O error"), "{chain}");
        // TraceIoError::Io itself chains to the io::Error.
        assert!(chain.matches("caused by:").count() >= 2, "{chain}");
    }

    #[test]
    fn unknown_kind_lists_what_is_registered() {
        let e = ConfigError::UnknownKind {
            category: "trace",
            kind: "philly2".into(),
            known: vec!["csv".into(), "sia-philly".into(), "synergy".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("`philly2`"), "{msg}");
        assert!(msg.contains("csv, sia-philly, synergy"), "{msg}");
    }
}
