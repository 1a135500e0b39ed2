//! Trace persistence: a simple CSV format so generated traces can be
//! archived, diffed, and replayed (artifact-evaluation style), with no
//! dependencies beyond std.
//!
//! Format: one header line, then one row per job:
//!
//! ```csv
//! id,model,class,arrival,gpu_demand,iterations,base_iter_time
//! 0,resnet50,0,12.5,4,1000,0.0405
//! ```

use crate::job::{JobId, JobSpec, Trace};
use pal_cluster::JobClass;
use pal_gpumodel::Workload;
use std::io::{BufRead, Write};

/// Header line of the trace CSV format.
pub const TRACE_CSV_HEADER: &str = "id,model,class,arrival,gpu_demand,iterations,base_iter_time";

/// Errors from trace (de)serialization.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse(usize, String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "trace parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(..) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialize a trace as CSV.
pub fn write_trace_csv<W: Write>(trace: &Trace, mut out: W) -> Result<(), TraceIoError> {
    writeln!(out, "{TRACE_CSV_HEADER}")?;
    for j in &trace.jobs {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            j.id.0,
            j.model.name(),
            j.class.0,
            j.arrival,
            j.gpu_demand,
            j.iterations,
            j.base_iter_time
        )?;
    }
    Ok(())
}

/// Parse a trace from CSV produced by [`write_trace_csv`].
pub fn read_trace_csv<R: BufRead>(name: &str, input: R) -> Result<Trace, TraceIoError> {
    let mut jobs = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line == TRACE_CSV_HEADER) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(TraceIoError::Parse(
                lineno + 1,
                format!("expected 7 fields, got {}", fields.len()),
            ));
        }
        let parse_err = |what: &str| TraceIoError::Parse(lineno + 1, format!("bad {what}"));
        let job = JobSpec {
            id: JobId(fields[0].parse().map_err(|_| parse_err("id"))?),
            model: Workload::from_name(fields[1])
                .ok_or_else(|| parse_err(&format!("model `{}`", fields[1])))?,
            class: JobClass(fields[2].parse().map_err(|_| parse_err("class"))?),
            arrival: fields[3].parse().map_err(|_| parse_err("arrival"))?,
            gpu_demand: fields[4].parse().map_err(|_| parse_err("gpu_demand"))?,
            iterations: fields[5].parse().map_err(|_| parse_err("iterations"))?,
            base_iter_time: fields[6].parse().map_err(|_| parse_err("base_iter_time"))?,
        };
        job.validate()
            .map_err(|e| TraceIoError::Parse(lineno + 1, e))?;
        jobs.push(job);
    }
    Ok(Trace::new(name, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelCatalog;
    use crate::philly::SiaPhillyConfig;
    use pal_gpumodel::GpuSpec;
    use std::io::BufReader;

    fn sample_trace() -> Trace {
        let catalog = ModelCatalog::table2(&GpuSpec::v100());
        SiaPhillyConfig {
            num_jobs: 25,
            ..Default::default()
        }
        .generate(1, &catalog)
    }

    #[test]
    fn round_trip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace_csv(&trace, &mut buf).unwrap();
        let parsed = read_trace_csv(&trace.name, BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn header_only_is_empty_trace() {
        let input = format!("{TRACE_CSV_HEADER}\n");
        let t = read_trace_csv("empty", BufReader::new(input.as_bytes())).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn rejects_wrong_field_count() {
        let input = format!("{TRACE_CSV_HEADER}\n1,resnet50,0,0.0,4\n");
        let err = read_trace_csv("bad", BufReader::new(input.as_bytes())).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_unknown_model() {
        let input = format!("{TRACE_CSV_HEADER}\n0,alexnet,0,0.0,1,100,0.1\n");
        let err = read_trace_csv("bad", BufReader::new(input.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("alexnet"), "{err}");
    }

    #[test]
    fn rejects_invalid_job() {
        // gpu_demand = 0 parses but fails validation.
        let input = format!("{TRACE_CSV_HEADER}\n0,resnet50,0,0.0,0,100,0.1\n");
        let err = read_trace_csv("bad", BufReader::new(input.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("zero GPU demand"), "{err}");
    }

    #[test]
    fn rejects_non_finite_arrival() {
        for arrival in ["inf", "NaN"] {
            let input = format!("{TRACE_CSV_HEADER}\n0,resnet50,0,{arrival},1,100,0.1\n");
            let err = read_trace_csv("bad", BufReader::new(input.as_bytes())).unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Parse(2, m) if m.contains("non-finite arrival")),
                "{arrival}: {err}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_iteration_time() {
        let input = format!("{TRACE_CSV_HEADER}\n0,resnet50,0,0.0,1,100,inf\n");
        let err = read_trace_csv("bad", BufReader::new(input.as_bytes())).unwrap_err();
        assert!(
            matches!(&err, TraceIoError::Parse(2, m) if m.contains("non-finite iteration time")),
            "{err}"
        );
    }

    #[test]
    fn blank_lines_ignored() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace_csv(&trace, &mut buf).unwrap();
        let with_blanks = String::from_utf8(buf).unwrap().replace('\n', "\n\n");
        let parsed = read_trace_csv(&trace.name, BufReader::new(with_blanks.as_bytes())).unwrap();
        assert_eq!(parsed.len(), trace.len());
    }
}
