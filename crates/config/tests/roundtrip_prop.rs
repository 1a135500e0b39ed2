//! Property tests: a [`CampaignFile`] serialized to canonical TOML and
//! parsed back is exactly the file we started from, for randomized
//! campaigns covering every section of the schema — the guarantee that
//! lets a generated sweep be written out, checked in, and reloaded
//! without drift.

use pal_cluster::{ClusterTopology, JobClass, LocalityModel};
use pal_config::{
    parse_campaign_str, write_toml, CampaignFile, CampaignSection, GeneratorRef, PolicyRef,
    ScenarioSpec, ServingSpec, SimSection,
};
use pal_gpumodel::Workload;
use pal_sim::serving::BatcherConfig;
use pal_trace::{ArrivalProcess, ServingWorkload};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;

/// `Some(value)` roughly half the time.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..2, s).prop_map(|(coin, v)| if coin == 1 { Some(v) } else { None })
}

/// Short identifier-ish strings, safe as TOML keys and values alike.
fn ident(prefix: &'static str) -> impl Strategy<Value = String> {
    (0u32..1000).prop_map(move |n| format!("{prefix}{n}"))
}

/// Finite floats; Rust's shortest-roundtrip `Display` guarantees the
/// text form reparses to the identical bits.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.001f64..10_000.0,
        (-50i64..50).prop_map(|n| n as f64 / 4.0),
    ]
}

/// A parameter table with distinct keys (duplicates are a parse error).
fn params() -> impl Strategy<Value = Value> {
    let entry = prop_oneof![
        (0i64..100_000).prop_map(|n| Value::Int(n as i128)),
        float().prop_map(Value::Float),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        ident("v").prop_map(Value::Str),
    ];
    (vec(entry, 0..3), 0u32..1000).prop_map(|(values, base)| {
        Value::Map(
            values
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("p{}_{i}", base), v))
                .collect(),
        )
    })
}

fn generator_ref() -> impl Strategy<Value = GeneratorRef> {
    (ident("kind"), params()).prop_map(|(kind, params)| GeneratorRef { kind, params })
}

fn policy_ref() -> impl Strategy<Value = PolicyRef> {
    (ident("pol"), opt(ident("Name-")), opt(0u8..2), params()).prop_map(
        |(kind, name, sticky, params)| PolicyRef {
            kind,
            name,
            sticky: sticky.map(|b| b == 1),
            params,
        },
    )
}

fn locality() -> impl Strategy<Value = LocalityModel> {
    (float(), float(), opt((ident("model"), float()))).prop_map(
        |(l_within, l_across, per_model)| LocalityModel {
            l_within,
            l_across,
            per_model: per_model.into_iter().collect::<HashMap<_, _>>(),
        },
    )
}

fn sim_section() -> impl Strategy<Value = SimSection> {
    (
        opt(float()),
        opt(0u8..2),
        opt(float()),
        opt(1usize..100_000),
        opt(0u8..2),
    )
        .prop_map(
            |(round_duration, sticky, migration_overhead, max_rounds, event_driven)| SimSection {
                round_duration,
                sticky: sticky.map(|b| b == 1),
                migration_overhead,
                max_rounds,
                event_driven: event_driven.map(|b| b == 1),
            },
        )
}

fn arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        float().prop_map(|rate_per_s| ArrivalProcess::Poisson { rate_per_s }),
        (float(), float(), float()).prop_map(
            |(base_rate_per_s, burst_rate_per_s, mean_dwell_s)| {
                ArrivalProcess::Bursty {
                    base_rate_per_s,
                    burst_rate_per_s,
                    mean_dwell_s,
                }
            }
        ),
    ]
}

fn serving_spec() -> impl Strategy<Value = ServingSpec> {
    (
        (ident("stream"), arrivals(), 1u64..10_000, float(), 0u64..99),
        (1usize..4, 1usize..4),
        opt(prop_oneof![
            Just(Workload::Bert),
            Just(Workload::Gpt2),
            Just(Workload::ResNet50)
        ]),
        opt(0usize..3),
        opt((1usize..64, float())),
    )
        .prop_map(
            |(
                (name, arrivals, num_requests, work, seed),
                (replicas, gpus),
                model,
                class,
                batcher,
            )| {
                ServingSpec {
                    workload: ServingWorkload {
                        name,
                        arrivals,
                        num_requests,
                        work_median_s: work,
                        work_sigma: 0.3,
                        slo_s: work * 4.0,
                        seed,
                    },
                    replicas,
                    gpus_per_replica: gpus,
                    model,
                    class: class.map(JobClass),
                    batcher: batcher.map(|(max_batch_size, batch_overhead_s)| BatcherConfig {
                        max_batch_size,
                        batch_overhead_s,
                    }),
                }
            },
        )
}

fn scenario_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (ident("row"), opt(generator_ref()), vec(float(), 0..3)),
        vec(serving_spec(), 0..2),
        (opt(generator_ref()), opt(generator_ref())),
        (opt(generator_ref()), opt(generator_ref())),
        opt(locality()),
        opt(sim_section()),
    )
        .prop_map(
            |(
                (tag, trace, loads),
                serving,
                (scheduler, admission),
                (profile, truth),
                locality,
                sim,
            )| {
                ScenarioSpec {
                    tag,
                    trace,
                    loads,
                    serving,
                    scheduler,
                    admission,
                    profile,
                    truth,
                    locality,
                    sim,
                }
            },
        )
}

fn campaign_file() -> impl Strategy<Value = CampaignFile> {
    (
        (
            opt((opt(ident("camp")), opt(0u64..1_000_000), opt(1usize..64))),
            (1usize..32, 1usize..16),
        ),
        (opt(locality()), opt(generator_ref()), opt(generator_ref())),
        (
            opt(generator_ref()),
            opt(generator_ref()),
            opt(generator_ref()),
        ),
        opt(sim_section()),
        vec(scenario_spec(), 0..3),
        vec(policy_ref(), 0..3),
    )
        .prop_map(
            |(
                (campaign, (nodes, gpus_per_node)),
                (locality, profile, truth),
                (scheduler, admission, trace),
                sim,
                scenario,
                policy,
            )| {
                CampaignFile {
                    campaign: campaign.map(|(name, seed, max_parallelism)| CampaignSection {
                        name,
                        seed,
                        max_parallelism,
                    }),
                    cluster: ClusterTopology {
                        nodes,
                        gpus_per_node,
                    },
                    locality,
                    profile,
                    truth,
                    scheduler,
                    admission,
                    trace,
                    sim,
                    scenario,
                    policy,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn toml_roundtrip_is_exact(file in campaign_file()) {
        let value = file.to_value();
        let text = write_toml(&value)
            .unwrap_or_else(|e| panic!("unwritable campaign: {e}\n{value:?}"));
        let back = parse_campaign_str(&text, "prop.toml")
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- text ---\n{text}"));
        prop_assert_eq!(back, file);
    }

    /// The raw `Value` tree round-trips through the derive layer alone —
    /// isolates schema bugs from TOML-writer bugs when the test above
    /// fails.
    #[test]
    fn value_roundtrip_is_exact(file in campaign_file()) {
        let back = CampaignFile::from_value(&file.to_value())
            .unwrap_or_else(|e| panic!("from_value failed: {e}"));
        prop_assert_eq!(back, file);
    }
}
