//! Statistical validation of the trace generators against the published
//! trace characteristics (Section IV-B), aggregated over many seeds to
//! keep sampling noise out of the assertions.

use pal_gpumodel::GpuSpec;
use pal_trace::{read_trace_csv, write_trace_csv, ModelCatalog, SiaPhillyConfig, SynergyConfig};
use std::io::BufReader;

fn catalog() -> ModelCatalog {
    ModelCatalog::table2(&GpuSpec::v100())
}

#[test]
fn sia_demand_distribution_matches_published_stats() {
    let c = catalog();
    let traces: Vec<_> = (1..=8)
        .map(|w| SiaPhillyConfig::default().generate(w, &c))
        .collect();
    let all_jobs: Vec<_> = traces.iter().flat_map(|t| t.jobs.iter()).collect();
    let n = all_jobs.len() as f64;

    // ~40% single GPU.
    let singles = all_jobs.iter().filter(|j| j.gpu_demand == 1).count() as f64;
    assert!(
        (singles / n - 0.40).abs() < 0.05,
        "single fraction {}",
        singles / n
    );

    // Nothing above 48; power-of-two demands dominate the multi-GPU mass.
    assert!(all_jobs.iter().all(|j| j.gpu_demand <= 48));
    let pow2 = all_jobs
        .iter()
        .filter(|j| j.gpu_demand > 1 && j.gpu_demand.is_power_of_two())
        .count() as f64;
    let multi = all_jobs.iter().filter(|j| j.gpu_demand > 1).count() as f64;
    assert!(pow2 / multi > 0.8, "power-of-two share {}", pow2 / multi);
}

#[test]
fn sia_arrival_rate_close_to_twenty_per_hour() {
    let c = catalog();
    let mut rates = Vec::new();
    for w in 1..=8 {
        let t = SiaPhillyConfig::default().generate(w, &c);
        let span_h = t.jobs.last().unwrap().arrival / 3600.0;
        rates.push(t.len() as f64 / span_h);
    }
    let mean_rate = pal_stats::mean(&rates).unwrap();
    assert!((mean_rate - 20.0).abs() < 2.5, "mean rate {mean_rate}");
}

#[test]
fn synergy_mostly_single_gpu_and_poisson_like() {
    let c = catalog();
    let t = SynergyConfig {
        num_jobs: 3000,
        ..Default::default()
    }
    .generate(&c);
    assert!(t.single_gpu_fraction() > 0.78);

    // Poisson arrivals: inter-arrival CV ~ 1.
    let gaps: Vec<f64> = t
        .jobs
        .windows(2)
        .map(|w| w[1].arrival - w[0].arrival)
        .collect();
    let mean = pal_stats::mean(&gaps).unwrap();
    // Sample standard deviation (Bessel-corrected), two-pass.
    let ss: f64 = gaps.iter().map(|&x| (x - mean) * (x - mean)).sum();
    let sd = (ss / (gaps.len() - 1) as f64).sqrt();
    let cv = sd / mean;
    assert!((cv - 1.0).abs() < 0.1, "inter-arrival CV {cv}");
}

#[test]
fn load_sweep_scales_arrivals_only() {
    let c = catalog();
    let base = SynergyConfig::default();
    let t_slow = base.at_load(5.0).generate(&c);
    let t_fast = base.at_load(20.0).generate(&c);
    // Same jobs, 4x compressed arrivals (same seed, same demand stream).
    assert_eq!(t_slow.len(), t_fast.len());
    for (a, b) in t_slow.jobs.iter().zip(&t_fast.jobs) {
        assert_eq!(a.gpu_demand, b.gpu_demand);
        assert_eq!(a.iterations, b.iterations);
        assert!((a.arrival / b.arrival - 4.0).abs() < 1e-6 || a.arrival == 0.0);
    }
}

#[test]
fn every_generated_trace_round_trips_through_csv() {
    let c = catalog();
    for w in [1u32, 5, 8] {
        let t = SiaPhillyConfig::default().generate(w, &c);
        let mut buf = Vec::new();
        write_trace_csv(&t, &mut buf).unwrap();
        let parsed = read_trace_csv(&t.name, BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, t, "workload {w} did not round trip");
    }
    let t = SynergyConfig::default().generate(&c);
    let mut buf = Vec::new();
    write_trace_csv(&t, &mut buf).unwrap();
    let parsed = read_trace_csv(&t.name, BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(parsed, t);
}

#[test]
fn duration_cap_is_respected() {
    let c = catalog();
    let cfg = SiaPhillyConfig {
        num_jobs: 500,
        max_duration_s: 10_000.0,
        ..Default::default()
    };
    let t = cfg.generate_seeded(1, 99, &c);
    for j in &t.jobs {
        // iterations = ceil(capped_duration / iter_time), so runtime can
        // exceed the cap by at most one iteration.
        assert!(
            j.ideal_runtime() <= 10_000.0 + j.base_iter_time,
            "{} runs {}s",
            j.id,
            j.ideal_runtime()
        );
    }
}

#[test]
fn classes_in_traces_match_catalog_ground_truth() {
    let c = catalog();
    let t = SiaPhillyConfig::default().generate(2, &c);
    for j in &t.jobs {
        let entry = c.get(j.model).expect("model in catalog");
        assert_eq!(j.class, entry.class, "{} class mismatch", j.id);
        assert!((j.base_iter_time - entry.base_iter_time).abs() < 1e-12);
    }
}

/// FNV-1a 64 over the trace name and every field of every job, floats by
/// their IEEE bit pattern — any change to a draw, its order or its
/// arithmetic changes the digest.
fn trace_digest(t: &pal_trace::Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    absorb(t.name.as_bytes());
    for j in &t.jobs {
        absorb(&j.id.0.to_le_bytes());
        absorb(format!("{:?}", j.model).as_bytes());
        absorb(&(j.class.0 as u64).to_le_bytes());
        absorb(&j.arrival.to_bits().to_le_bytes());
        absorb(&(j.gpu_demand as u64).to_le_bytes());
        absorb(&j.iterations.to_le_bytes());
        absorb(&j.base_iter_time.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn generated_traces_are_pinned() {
    use pal_trace::HeavyTailConfig;
    let c = catalog();
    let mut traces: Vec<_> = (1..=8)
        .map(|w| SiaPhillyConfig::default().generate(w, &c))
        .collect();
    traces.push(SiaPhillyConfig::default().generate_seeded(
        1,
        0x117C31,
        &ModelCatalog::table2(&GpuSpec::quadro_rtx5000()),
    ));
    let synergy = SynergyConfig::default();
    traces.push(synergy.generate(&c));
    traces.push(synergy.at_load(20.0).generate(&c));
    traces.push(
        SynergyConfig {
            num_jobs: 3000,
            single_gpu_fraction: 0.9,
            seed: 7,
            ..synergy
        }
        .generate(&c),
    );
    traces.push(HeavyTailConfig::default().generate(&c));
    traces.push(
        HeavyTailConfig {
            num_jobs: 30_000,
            jobs_per_hour: 1500.0,
            alpha: 0.8,
            ..Default::default()
        }
        .generate(&c),
    );
    let got: Vec<(&str, u64)> = traces
        .iter()
        .map(|t| (t.name.as_str(), trace_digest(t)))
        .collect();
    let want = [
        ("sia-philly-1", 0x39a668c3d9caa182),
        ("sia-philly-2", 0xdf07ee0968ade18f),
        ("sia-philly-3", 0x4ceea0cd861acd58),
        ("sia-philly-4", 0x48d96d770ad9a9d9),
        ("sia-philly-5", 0x5da4f8f789eaddde),
        ("sia-philly-6", 0xd45d67fae8e8943f),
        ("sia-philly-7", 0x848a17d16a9f7dad),
        ("sia-philly-8", 0xcfd64a1b093aa961),
        ("sia-philly-1", 0xccbf4b48fcb3b49f),
        ("synergy-10jph", 0xf75470b7286b1294),
        ("synergy-20jph", 0x06e169516fea4ee0),
        ("synergy-10jph", 0x43b5c107ff3dad7e),
        ("heavy-tail-10jph", 0x330b94d55b851243),
        ("heavy-tail-1500jph", 0x81e4d31412d00201),
    ];
    assert_eq!(got, want);
}
