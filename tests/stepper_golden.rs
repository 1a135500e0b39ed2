//! Golden equivalence for the engine decomposition (PR 2): the refactored
//! allocation-free round stepper must be *bit-identical* to the seed
//! engine across a scheduler × placement × sticky grid.
//!
//! The `GOLDEN` digests below were captured by running the pre-refactor
//! engine (commit `1b6afe1`) over exactly this grid and FNV-hashing every
//! deterministic field of each `SimResult` (records, rejections, the
//! GPUs-in-use series, busy/ideal GPU-seconds, round count — everything
//! except wall-clock placement timings). Both `Scenario::run` and the
//! stepped `Scenario::start()` → `Simulation` path must reproduce them.

use pal::{AdaptivePal, PalPlacement, PmFirstPlacement};
use pal_cluster::{ClusterTopology, GpuId, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::GpuSpec;
use pal_sim::admission::{DemandBackpressure, MaxActiveJobs};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedulingPolicy, Srsf, Srtf};
use pal_sim::{PlacementPolicy, Scenario, SimResult, StepOutcome};
use pal_trace::{ModelCatalog, SynergyConfig, Trace};

/// FNV-1a over every deterministic field of a result (identical to the
/// capture harness that produced [`GOLDEN`]).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.byte(b);
        }
        self.byte(0);
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.trace);
    h.str(&r.scheduler);
    h.str(&r.placement);
    h.u64(r.records.len() as u64);
    for rec in &r.records {
        h.u64(rec.id.index() as u64);
        h.str(&rec.model);
        h.u64(rec.class.0 as u64);
        h.u64(rec.gpu_demand as u64);
        h.f64(rec.arrival);
        h.f64(rec.first_start);
        h.f64(rec.finish);
        h.u64(rec.migrations as u64);
        h.u64(rec.preemptions as u64);
    }
    h.u64(r.rejected.len() as u64);
    for id in &r.rejected {
        h.u64(id.index() as u64);
    }
    for &(t, v) in r.gpus_in_use.points() {
        h.f64(t);
        h.f64(v);
    }
    h.f64(r.busy_gpu_seconds);
    h.f64(r.ideal_gpu_seconds);
    h.u64(r.total_gpus as u64);
    h.u64(r.rounds as u64);
    h.0
}

/// 3 classes × 32 GPUs of synthetic but non-flat variability.
fn golden_profile() -> VariabilityProfile {
    VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..32)
                    .map(|g| 1.0 + ((g * 7 + c * 13) % 10) as f64 * 0.05)
                    .collect()
            })
            .collect(),
    )
}

/// 60 Synergy jobs at a rate that oversubscribes the 32-GPU cluster, so
/// the grid exercises queueing, preemption, and migration paths.
fn golden_trace() -> Trace {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    SynergyConfig {
        num_jobs: 60,
        jobs_per_hour: 40.0,
        median_duration_s: 7200.0,
        ..Default::default()
    }
    .generate(&catalog)
}

fn scheduler(pick: usize) -> Box<dyn SchedulingPolicy + Send + Sync> {
    match pick {
        0 => Box::new(Fifo),
        1 => Box::new(Las::default()),
        2 => Box::new(Srtf),
        _ => Box::new(Srsf),
    }
}

fn placement(pick: usize, profile: &VariabilityProfile) -> Box<dyn PlacementPolicy + Send> {
    match pick {
        0 => Box::new(PackedPlacement::deterministic()),
        1 => Box::new(PackedPlacement::randomized(11)),
        2 => Box::new(RandomPlacement::new(7)),
        3 => Box::new(PmFirstPlacement::new(profile)),
        _ => Box::new(PalPlacement::new(profile)),
    }
}

fn golden_scenario(sched_pick: usize, place_pick: usize, sticky: bool) -> Scenario {
    let profile = golden_profile();
    Scenario::new(golden_trace(), ClusterTopology::new(8, 4))
        .profile(profile.clone())
        .locality(LocalityModel::uniform(1.5))
        .scheduler_boxed(scheduler(sched_pick))
        .placement_boxed(placement(place_pick, &profile))
        .sticky(sticky)
}

/// `(scheduler, placement, sticky) -> seed-engine digest`, captured from
/// commit `1b6afe1` (pre-refactor).
const GOLDEN: [((usize, usize, bool), u64); 40] = [
    ((0, 0, false), 0xBAF5C21BDCD961E5),
    ((0, 0, true), 0xDEAA24DC024A8ABC),
    ((0, 1, false), 0x72D381DCE7E3CEE5),
    ((0, 1, true), 0xA55B94E1C51A03F4),
    ((0, 2, false), 0x71D283B3D146D150),
    ((0, 2, true), 0xEC914B187E93DCFE),
    ((0, 3, false), 0x4421E2D6CD89E100),
    ((0, 3, true), 0x92152125BCDA354A),
    ((0, 4, false), 0x87561CD2D91BD218),
    ((0, 4, true), 0x5B5B7934FE248D6B),
    ((1, 0, false), 0x4C9283AE8DB540DD),
    ((1, 0, true), 0xEC5747AF3F9B5A69),
    ((1, 1, false), 0xD3D918F518670690),
    ((1, 1, true), 0x63738B6904B82E45),
    ((1, 2, false), 0x11BE9D08BD089405),
    ((1, 2, true), 0x0F9DD4A49636D5D4),
    ((1, 3, false), 0x2F1268950D3C698C),
    ((1, 3, true), 0xF6DCC82EC49775CC),
    ((1, 4, false), 0xBB691F106E9B54BE),
    ((1, 4, true), 0xDEE7C78326479F27),
    ((2, 0, false), 0x4B9CB1873824F8D0),
    ((2, 0, true), 0xE7E98A8891570E9A),
    ((2, 1, false), 0x9AE2C15F63694919),
    ((2, 1, true), 0xECF7A69E8877B4F5),
    ((2, 2, false), 0x1818DC0FEF4F62D2),
    ((2, 2, true), 0xEA803659922024F0),
    ((2, 3, false), 0xC939EFEDA43206EB),
    ((2, 3, true), 0x44A0D9149568E1A4),
    ((2, 4, false), 0x6EC665CF28FB1EDB),
    ((2, 4, true), 0x4FE0E16DF42A3785),
    ((3, 0, false), 0xE7CF4367894D1DCE),
    ((3, 0, true), 0x21C03477934B8CA9),
    ((3, 1, false), 0x672176F2991179CD),
    ((3, 1, true), 0x6E000C7CB5E2AEB7),
    ((3, 2, false), 0xFB9776E87415367E),
    ((3, 2, true), 0x034B9F8FB2FB551D),
    ((3, 3, false), 0xC1E68729204394A6),
    ((3, 3, true), 0x05EC4C09D1A33856),
    ((3, 4, false), 0x12748F16912F8F24),
    ((3, 4, true), 0xDCAEBB71C499853B),
];

#[test]
fn refactored_engine_matches_seed_engine_across_policy_grid() {
    for &((sp, pp, sticky), want) in &GOLDEN {
        let r = golden_scenario(sp, pp, sticky).run().expect("cell runs");
        assert_eq!(
            digest(&r),
            want,
            "Scenario::run diverged from the seed engine on cell \
             (scheduler {sp}, placement {pp}, sticky {sticky}): {} {}",
            r.scheduler,
            r.placement,
        );
    }
}

#[test]
fn adaptive_pal_matches_pal_goldens_when_truth_equals_profile() {
    // With truth == profile, every `RoundObservation` reports exactly the
    // raw scores Adaptive-PAL already estimates: the EWMA sits at its
    // fixpoint, no re-bin ever fires, and the policy must reproduce the
    // PAL golden digests bit-for-bit — driving the full
    // observe → placement_order_into → place_into delegation path (and,
    // run twice per cell below, both the `run()` and the stepped
    // `start()` drivers) through the seed-engine goldens.
    for &((sp, pp, sticky), want) in &GOLDEN {
        if pp != 4 || sp >= 2 {
            continue; // the PAL column, FIFO + LAS schedulers
        }
        let profile = golden_profile();
        let scenario = || {
            Scenario::new(golden_trace(), ClusterTopology::new(8, 4))
                .profile(profile.clone())
                .locality(LocalityModel::uniform(1.5))
                .scheduler_boxed(scheduler(sp))
                .placement(AdaptivePal::new(&profile))
                .sticky(sticky)
        };
        let relabel = |mut r: SimResult| {
            // The digest hashes the policy label; map "Adaptive-PAL" onto
            // the golden column's "PAL" so only behavior can differ.
            r.placement = r.placement.replace("Adaptive-PAL", "PAL");
            r
        };
        let run = relabel(scenario().run().expect("adaptive cell runs"));
        assert_eq!(
            digest(&run),
            want,
            "Adaptive-PAL diverged from the PAL golden on cell \
             (scheduler {sp}, sticky {sticky})"
        );
        let stepped = relabel(
            scenario()
                .start()
                .expect("starts")
                .run_to_completion()
                .expect("adaptive cell steps"),
        );
        assert_eq!(
            digest(&stepped),
            want,
            "stepped Adaptive-PAL diverged on cell (scheduler {sp}, sticky {sticky})"
        );
    }
}

#[test]
fn stepper_matches_seed_engine_on_grid_corners() {
    // Stepping round-by-round (instead of run()) over a representative
    // subset of the grid — every scheduler, every placement, both sticky
    // modes appear at least once.
    for &((sp, pp, sticky), want) in &GOLDEN {
        if (sp + pp) % 3 != 0 {
            continue;
        }
        let sim = golden_scenario(sp, pp, sticky).start().expect("starts");
        let r = sim.run_to_completion().expect("cell runs");
        assert_eq!(
            digest(&r),
            want,
            "Simulation::run_to_completion diverged on cell \
             (scheduler {sp}, placement {pp}, sticky {sticky})"
        );
    }
}

#[test]
fn admission_and_truth_cells_match_seed_engine() {
    let profile = golden_profile();
    let trace = golden_trace();
    let topo = ClusterTopology::new(8, 4);

    let adm1 = Scenario::new(trace.clone(), topo)
        .profile(profile.clone())
        .locality(LocalityModel::uniform(1.5))
        .admission(MaxActiveJobs { limit: 8 })
        .run()
        .expect("admission cell runs");
    assert_eq!(digest(&adm1), 0xA529DD0FCB7D2895, "MaxActiveJobs diverged");

    let adm2 = Scenario::new(trace.clone(), topo)
        .profile(profile.clone())
        .locality(LocalityModel::uniform(1.5))
        .admission(DemandBackpressure {
            capacity_multiple: 1.5,
        })
        .run()
        .expect("backpressure cell runs");
    assert_eq!(
        digest(&adm2),
        0xB2A9EA8D398F989A,
        "DemandBackpressure diverged"
    );

    let truth = profile.perturbed(JobClass::A, &[GpuId(0), GpuId(5), GpuId(17)], 1.8);
    let tr = Scenario::new(trace, topo)
        .profile(profile)
        .truth(truth)
        .locality(LocalityModel::uniform(1.5))
        .scheduler(Srtf)
        .run()
        .expect("truth cell runs");
    assert_eq!(digest(&tr), 0xD9EBEFD52DE854E3, "perturbed truth diverged");
}

#[test]
fn mid_run_snapshots_do_not_perturb_the_run() {
    // Drive one cell to completion twice: once straight through, once
    // pausing to export the state after every single round. Outcomes
    // must be bit-identical, and the exports internally consistent.
    let straight = golden_scenario(2, 4, false).run().unwrap();

    let mut sim = golden_scenario(2, 4, false).start().unwrap();
    let mut last_rounds = 0;
    let mut last_finished = 0;
    loop {
        let state = sim.export_state();
        assert_eq!(state.rounds, sim.rounds());
        assert_eq!(state.time, sim.time());
        assert!(state.rounds >= last_rounds, "rounds went backwards");
        assert!(state.finished >= last_finished, "finished went backwards");
        last_rounds = state.rounds;
        last_finished = state.finished;
        if sim.step().unwrap() == StepOutcome::Complete {
            break;
        }
    }
    let stepped = sim.result().expect("complete");
    assert!(
        straight.same_outcome(&stepped),
        "export-per-round run diverged from straight run"
    );
    assert_eq!(digest(&straight), digest(&stepped));
}

#[test]
fn resume_after_pause_is_deterministic() {
    // Pause one stepper halfway (by wall of rounds), then resume; compare
    // against an uninterrupted twin, round count by round count.
    let mut paused = golden_scenario(1, 3, true).start().unwrap();
    let straight = golden_scenario(1, 3, true).start().unwrap();

    // Advance the paused twin 100 rounds, hold an export across the
    // pause, then continue.
    for _ in 0..100 {
        if paused.step().unwrap() == StepOutcome::Complete {
            break;
        }
    }
    let mid = paused.export_state();
    assert_eq!(mid.rounds, paused.rounds());

    let a = paused.run_to_completion().unwrap();
    let b = straight.run_to_completion().unwrap();
    assert!(a.same_outcome(&b), "paused/resumed run diverged");
}
