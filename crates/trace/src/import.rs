//! External cluster-trace importers ([`import_csv_trace`]).

use crate::io::TraceIoError;
use crate::job::{JobId, JobSpec, Trace};
use pal_cluster::JobClass;
use pal_gpumodel::Workload;
use std::io::BufRead;

/// Column layout and unit conversions for one external trace family.
///
/// The presets ([`philly`](ExternalCsvFormat::philly),
/// [`alibaba`](ExternalCsvFormat::alibaba),
/// [`google`](ExternalCsvFormat::google)) encode the common published
/// shapes; all fields are public so a config can adjust a column name
/// without a new format.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalCsvFormat {
    /// Header name of the submission-time column.
    pub submit_col: String,
    /// Header name of the GPU-request column.
    pub gpus_col: String,
    /// Header name of the duration column, if the trace records one.
    /// Exactly one of `duration_col` / `end_col` must be set.
    pub duration_col: Option<String>,
    /// Header name of the end-time column; duration is then
    /// `end - submit`. Exactly one of `duration_col` / `end_col` must be
    /// set.
    pub end_col: Option<String>,
    /// Multiplier converting the trace's time unit into seconds (e.g.
    /// `1e-6` for microsecond timestamps).
    pub time_scale: f64,
    /// Divisor converting the GPU column into whole GPUs, rounded up
    /// (Alibaba's `plan_gpu` is in percent: 50 ⇒ 1 GPU, 600 ⇒ 6).
    pub gpu_divisor: f64,
}

impl ExternalCsvFormat {
    /// Philly-style rows: `submit_time,num_gpus,duration` in seconds.
    pub fn philly() -> Self {
        ExternalCsvFormat {
            submit_col: "submit_time".into(),
            gpus_col: "num_gpus".into(),
            duration_col: Some("duration".into()),
            end_col: None,
            time_scale: 1.0,
            gpu_divisor: 1.0,
        }
    }

    /// Alibaba-PAI-style rows: `start_time,end_time` in seconds,
    /// `plan_gpu` in GPU-percent.
    pub fn alibaba() -> Self {
        ExternalCsvFormat {
            submit_col: "start_time".into(),
            gpus_col: "plan_gpu".into(),
            duration_col: None,
            end_col: Some("end_time".into()),
            time_scale: 1.0,
            gpu_divisor: 100.0,
        }
    }

    /// Google-Borg-style rows: microsecond `submit_time` and `runtime`,
    /// whole-GPU `gpus`.
    pub fn google() -> Self {
        ExternalCsvFormat {
            submit_col: "submit_time".into(),
            gpus_col: "gpus".into(),
            duration_col: Some("runtime".into()),
            end_col: None,
            time_scale: 1e-6,
            gpu_divisor: 1.0,
        }
    }

    fn validate(&self) -> Result<(), TraceIoError> {
        match (&self.duration_col, &self.end_col) {
            (Some(_), Some(_)) | (None, None) => Err(TraceIoError::Parse(
                0,
                "format must set exactly one of duration_col / end_col".into(),
            )),
            _ => {
                if !(self.time_scale > 0.0 && self.time_scale.is_finite()) {
                    return Err(TraceIoError::Parse(0, "non-positive time_scale".into()));
                }
                if !(self.gpu_divisor > 0.0 && self.gpu_divisor.is_finite()) {
                    return Err(TraceIoError::Parse(0, "non-positive gpu_divisor".into()));
                }
                Ok(())
            }
        }
    }
}

/// What the external trace does *not* record: the simulator-side identity
/// synthesized onto every imported job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportOptions {
    /// Model assigned to every imported job (drives locality lookups).
    pub model: Workload,
    /// Variability class assigned to every imported job.
    pub class: JobClass,
    /// Iteration time used to discretize durations into iterations,
    /// seconds.
    pub base_iter_time: f64,
    /// Keep at most this many (valid) rows; `None` imports everything.
    pub max_jobs: Option<usize>,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions {
            model: Workload::ResNet50,
            class: JobClass::A,
            base_iter_time: 1.0,
            max_jobs: None,
        }
    }
}

/// Import an external cluster trace from CSV, streaming.
///
/// Production traces (Microsoft Philly, Alibaba PAI, Google Borg) publish
/// per-job rows with a submission time, a GPU request, and a duration —
/// but no model identity or iteration structure, which this simulator
/// needs. This importer bridges the gap: it streams rows out of a
/// header-named CSV (columns located by name, not position, so column
/// order and extra columns don't matter), converts times and GPU counts
/// into simulator units via a per-family [`ExternalCsvFormat`], and
/// synthesizes the missing iteration structure from an
/// [`ImportOptions`]-supplied model (`iterations = ceil(duration /
/// base_iter_time)`, so the imported ideal runtime matches the recorded
/// duration).
///
/// Parsing is streaming: each row is read, converted, and appended
/// directly into the output job list — no intermediate row
/// materialization — matching the streaming contract of the synthetic
/// generators ([`crate::SynergyConfig::stream`]).
///
/// Rows that describe work the simulator can't schedule (zero GPUs after
/// scaling, non-positive duration — e.g. failed or cancelled jobs) are
/// *skipped*, not errors: production traces contain them by the thousand.
///
/// Times are re-based so the earliest submission lands at `t = 0`
/// (published traces start at arbitrary epoch offsets), and jobs are
/// sorted by arrival (production logs are usually, but not always,
/// ordered).
pub fn import_csv_trace<R: BufRead>(
    name: &str,
    format: &ExternalCsvFormat,
    opts: &ImportOptions,
    input: R,
) -> Result<Trace, TraceIoError> {
    format.validate()?;
    if !(opts.base_iter_time > 0.0 && opts.base_iter_time.is_finite()) {
        return Err(TraceIoError::Parse(0, "non-positive base_iter_time".into()));
    }
    let mut lines = input.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Err(TraceIoError::Parse(0, "empty file: no header row".into())),
    };
    let columns: Vec<&str> = header.split(',').map(str::trim).collect();
    let col = |name: &str| -> Result<usize, TraceIoError> {
        columns.iter().position(|c| *c == name).ok_or_else(|| {
            TraceIoError::Parse(
                1,
                format!("missing column `{name}` (header: {})", header.trim()),
            )
        })
    };
    let submit_idx = col(&format.submit_col)?;
    let gpus_idx = col(&format.gpus_col)?;
    // validate() guarantees exactly one of the two is set.
    let (dur_idx, dur_is_end) = match (&format.duration_col, &format.end_col) {
        (Some(c), None) => (col(c)?, false),
        (None, Some(c)) => (col(c)?, true),
        _ => unreachable!("validated above"),
    };

    let mut jobs: Vec<JobSpec> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 2; // 1-based, after the header
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cap) = opts.max_jobs {
            if jobs.len() >= cap {
                break;
            }
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let field = |idx: usize, what: &str| -> Result<f64, TraceIoError> {
            let raw = fields.get(idx).copied().unwrap_or("");
            raw.parse::<f64>()
                .map_err(|_| TraceIoError::Parse(lineno, format!("bad {what} `{raw}`")))
        };
        let submit = field(submit_idx, &format.submit_col)? * format.time_scale;
        let gpus_raw = field(gpus_idx, &format.gpus_col)?;
        let duration = if dur_is_end {
            (field(dur_idx, format.end_col.as_deref().unwrap_or(""))? - submit / format.time_scale)
                * format.time_scale
        } else {
            field(dur_idx, format.duration_col.as_deref().unwrap_or(""))? * format.time_scale
        };
        if !submit.is_finite() || submit < 0.0 {
            return Err(TraceIoError::Parse(
                lineno,
                format!("negative or non-finite submit time {submit}"),
            ));
        }
        if !gpus_raw.is_finite() || !duration.is_finite() {
            return Err(TraceIoError::Parse(
                lineno,
                format!("non-finite GPU count {gpus_raw} or duration {duration}"),
            ));
        }
        let gpu_demand = (gpus_raw / format.gpu_divisor).ceil();
        // Failed/cancelled/CPU-only rows: skip, don't error.
        if gpu_demand < 1.0 || duration <= 0.0 {
            continue;
        }
        let iterations = (duration / opts.base_iter_time).ceil().max(1.0) as u64;
        jobs.push(JobSpec {
            id: JobId(jobs.len() as u32),
            model: opts.model,
            class: opts.class,
            arrival: submit,
            gpu_demand: gpu_demand as usize,
            iterations,
            base_iter_time: opts.base_iter_time,
        });
    }
    // Re-base to t = 0 (Trace::new re-sorts and re-numbers).
    let t0 = jobs.iter().map(|j| j.arrival).fold(f64::INFINITY, f64::min);
    if t0.is_finite() && t0 > 0.0 {
        for j in &mut jobs {
            j.arrival -= t0;
        }
    }
    Ok(Trace::new(name, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn import(
        format: &ExternalCsvFormat,
        opts: &ImportOptions,
        csv: &str,
    ) -> Result<Trace, TraceIoError> {
        import_csv_trace("ext", format, opts, BufReader::new(csv.as_bytes()))
    }

    #[test]
    fn philly_style_import() {
        let csv = "jobid,submit_time,num_gpus,duration,status\n\
                   a,100,2,600,Pass\n\
                   b,160,1,30,Pass\n\
                   c,220,0,600,Failed\n\
                   d,400,8,86400,Pass\n";
        let t = import(&ExternalCsvFormat::philly(), &ImportOptions::default(), csv).unwrap();
        // Row c has zero GPUs: skipped.
        assert_eq!(t.len(), 3);
        // Re-based to t = 0.
        assert_eq!(t.jobs[0].arrival, 0.0);
        assert_eq!(t.jobs[1].arrival, 60.0);
        assert_eq!(t.jobs[2].arrival, 300.0);
        assert_eq!(t.jobs[2].gpu_demand, 8);
        // Duration is preserved through the iteration discretization.
        assert!((t.jobs[2].ideal_runtime() - 86400.0).abs() < 1.0);
    }

    #[test]
    fn alibaba_style_gpu_percent_and_end_times() {
        let csv = "job_name,start_time,end_time,plan_gpu\n\
                   x,1000,1600,600\n\
                   y,1100,1160,50\n\
                   z,1200,1100,100\n";
        let t = import(
            &ExternalCsvFormat::alibaba(),
            &ImportOptions::default(),
            csv,
        )
        .unwrap();
        // Row z has negative duration: skipped.
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs[0].gpu_demand, 6); // 600 percent ⇒ 6 GPUs
        assert_eq!(t.jobs[1].gpu_demand, 1); // 50 percent ⇒ 1 GPU
        assert!((t.jobs[0].ideal_runtime() - 600.0).abs() < 1.0);
    }

    #[test]
    fn google_style_microseconds() {
        let csv = "submit_time,gpus,runtime\n\
                   1000000000,4,600000000\n\
                   2000000000,1,60000000\n";
        let t = import(&ExternalCsvFormat::google(), &ImportOptions::default(), csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs[1].arrival - t.jobs[0].arrival, 1000.0);
        assert!((t.jobs[0].ideal_runtime() - 600.0).abs() < 1.0);
    }

    #[test]
    fn out_of_order_rows_are_sorted() {
        let csv = "submit_time,num_gpus,duration\n200,1,60\n100,2,60\n";
        let t = import(&ExternalCsvFormat::philly(), &ImportOptions::default(), csv).unwrap();
        assert_eq!(t.jobs[0].gpu_demand, 2);
        assert_eq!(t.jobs[0].arrival, 0.0);
        assert_eq!(t.jobs[1].arrival, 100.0);
    }

    #[test]
    fn missing_column_is_line_1_error() {
        let csv = "submit_time,duration\n100,60\n";
        let err = import(&ExternalCsvFormat::philly(), &ImportOptions::default(), csv).unwrap_err();
        assert!(
            matches!(&err, TraceIoError::Parse(1, m) if m.contains("num_gpus")),
            "{err}"
        );
    }

    #[test]
    fn bad_cell_reports_its_line() {
        let csv = "submit_time,num_gpus,duration\n100,2,600\nnope,1,60\n";
        let err = import(&ExternalCsvFormat::philly(), &ImportOptions::default(), csv).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(3, _)), "{err}");
    }

    #[test]
    fn non_finite_duration_or_gpu_count_is_a_line_error() {
        // An infinite duration would become u64::MAX iterations and an
        // infinite GPU count usize::MAX GPUs; NaN is refused alongside.
        for row in ["50,1,inf", "50,inf,600", "50,NaN,600", "50,1,-inf"] {
            let csv = format!("submit_time,num_gpus,duration\n0,1,60\n{row}\n");
            let err = import(
                &ExternalCsvFormat::philly(),
                &ImportOptions::default(),
                &csv,
            )
            .unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Parse(3, m) if m.contains("non-finite")),
                "{row}: {err}"
            );
        }
    }

    #[test]
    fn max_jobs_caps_import() {
        let csv = "submit_time,num_gpus,duration\n0,1,60\n10,1,60\n20,1,60\n";
        let opts = ImportOptions {
            max_jobs: Some(2),
            ..Default::default()
        };
        let t = import(&ExternalCsvFormat::philly(), &opts, csv).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn options_assign_identity() {
        let csv = "submit_time,num_gpus,duration\n0,1,100\n";
        let opts = ImportOptions {
            model: Workload::Bert,
            class: JobClass::C,
            base_iter_time: 0.5,
            max_jobs: None,
        };
        let t = import(&ExternalCsvFormat::philly(), &opts, csv).unwrap();
        assert_eq!(t.jobs[0].model, Workload::Bert);
        assert_eq!(t.jobs[0].class, JobClass::C);
        assert_eq!(t.jobs[0].iterations, 200);
    }

    #[test]
    fn format_must_pick_one_duration_source() {
        let mut f = ExternalCsvFormat::philly();
        f.end_col = Some("end".into());
        let err = import(&f, &ImportOptions::default(), "a,b\n").unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }

    #[test]
    fn empty_file_errors() {
        let err = import(&ExternalCsvFormat::philly(), &ImportOptions::default(), "").unwrap_err();
        assert!(err.to_string().contains("no header"), "{err}");
    }
}
