//! The CSV form of campaign results that `palsim run --csv` prints and
//! `tests/data/paper/*.csv` pins.

use pal_sim::CampaignResult;
use std::io::{self, Write};

/// Write `results` as CSV: a header, then one row per cell — one per
/// (cell, serving deployment) for cells that serve. Cells without
/// training records leave the JCT columns empty; cells without serving
/// deployments leave the serving columns empty. Neither invents a
/// number.
pub fn write_csv(out: &mut impl Write, results: &[CampaignResult]) -> io::Result<()> {
    writeln!(
        out,
        "scenario,policy,seed,jobs,avg_jct_s,p99_jct_s,makespan_s,\
         utilization,occupancy,migrations,rounds,\
         deployment,goodput_rps,slo_attainment,latency_p99_s"
    )?;
    for r in results {
        let jct = if r.result.records.is_empty() {
            ",".into()
        } else {
            format!("{:.3},{:.3}", r.result.avg_jct(), r.result.p99_jct())
        };
        let cell = format!(
            "{},{},{},{},{},{:.3},{:.5},{:.5},{},{}",
            r.scenario,
            r.policy,
            r.seed,
            r.result.records.len(),
            jct,
            r.result.makespan(),
            r.result.utilization(),
            r.result.occupancy(),
            r.result.total_migrations(),
            r.result.rounds,
        );
        if r.result.serving.is_empty() {
            writeln!(out, "{cell},,,,")?;
        }
        for s in &r.result.serving {
            writeln!(
                out,
                "{cell},{},{:.3},{:.4},{:.4}",
                s.workload,
                s.goodput(),
                s.slo_attainment(),
                s.latency_p99,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_config::{campaign_from_path, Registry};
    use std::path::Path;

    #[test]
    fn serving_cells_report_one_row_per_deployment() {
        // Serving-only rows (`chat`) and mixed rows (`mixed`: a training
        // trace beside one deployment) under two policies.
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/serving_load_grid.toml");
        let results = campaign_from_path(path, &Registry::with_builtins())
            .unwrap()
            .run()
            .unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &results).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(
            rows.len(),
            results.len(),
            "one deployment per cell:\n{text}"
        );
        for (row, cell) in rows.iter().zip(&results) {
            assert_eq!(row.len(), header.len(), "{row:?}");
            let [s] = &cell.result.serving[..] else {
                panic!("{} serves one deployment", cell.scenario);
            };
            let num = |name: &str| row[col(name)].parse::<f64>().unwrap();
            assert_eq!(row[col("deployment")], s.workload);
            assert!(num("goodput_rps") > 0.0, "{row:?}");
            assert!((num("goodput_rps") - s.goodput()).abs() < 1e-3);
            assert!((num("slo_attainment") - s.slo_attainment()).abs() < 1e-4);
            assert!((num("latency_p99_s") - s.latency_p99).abs() < 1e-4);
            // Only the mixed rows have training JCTs.
            let trains = cell.scenario.starts_with("mixed");
            assert_eq!(row[col("avg_jct_s")].is_empty(), !trains, "{row:?}");
        }
    }
}
