//! Absolute pins on the scalar random-access samplers.
//!
//! The determinism and scratch suites compare one sampler path against
//! another; a change that moves every path the same way slips past
//! them. These tests FNV-1a-digest the exact `f64` bits that
//! [`TelemetryProvider::sample`] (all 48 racks) and
//! [`mira_core::TelemetryEngine::observe_all`] return for the default
//! world (seed 2014) at six fixed instants, so any change to a sampled
//! value fails here.

use std::sync::OnceLock;

use mira_core::{
    CoolantMonitorSample, Date, Duration, RackId, SimConfig, SimTime, Simulation, SystemSnapshot,
    TelemetryProvider,
};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::new(SimConfig::with_seed(2014)))
}

fn at(y: i32, m: u8, d: u8, h: i64, min: i64) -> SimTime {
    SimTime::from_date(Date::new(y, m, d)) + Duration::from_hours(h) + Duration::from_minutes(min)
}

/// Index into [`instants`] of the instant 2 h 43 min before the
/// 2016-03-05 14:42:53 CMF on rack (0, 7): inside its precursor window.
const PRECURSOR: usize = 2;
/// Index into [`instants`] of the instant two hours into the
/// 2016-03-14 cascade, with 14 racks down.
const RACKS_DOWN: usize = 3;

/// The pinned instants: span start, a summer afternoon, a precursor
/// window, a cascade outage, the July 2016 Theta boundary, span end.
fn instants() -> [SimTime; 6] {
    [
        at(2014, 1, 1, 0, 0),
        at(2015, 7, 20, 14, 0),
        at(2016, 3, 5, 12, 0),
        at(2016, 3, 14, 22, 30),
        at(2016, 7, 1, 0, 0),
        at(2019, 12, 31, 23, 55),
    ]
}

/// FNV-1a over the little-endian bytes of a stream of `u64`s.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn sample_bits(samples: &[CoolantMonitorSample]) -> impl Iterator<Item = u64> + '_ {
    samples
        .iter()
        .flat_map(|s| s.channels().into_iter().map(f64::to_bits))
}

fn snapshot_bits(snap: &SystemSnapshot) -> impl Iterator<Item = u64> + '_ {
    [
        snap.supply_temperature.value(),
        snap.free_cooling_fraction,
        snap.chiller_power.value(),
        snap.avoided_power.value(),
    ]
    .into_iter()
    .chain(snap.flows.iter().map(|f| f.value()))
    .map(f64::to_bits)
    .chain(snap.rack_up.iter().map(|&up| u64::from(up)))
}

#[test]
fn provider_samples_are_pinned() {
    let engine = sim().telemetry();
    let digests: Vec<u64> = instants()
        .iter()
        .map(|&t| {
            let samples: Vec<CoolantMonitorSample> =
                RackId::all().map(|rack| engine.sample(rack, t)).collect();
            fnv1a(sample_bits(&samples))
        })
        .collect();
    assert_eq!(digests, SAMPLE_PINS, "got {digests:#018x?}");
}

#[test]
fn observe_all_is_pinned() {
    let engine = sim().telemetry();
    let digests: Vec<u64> = instants()
        .iter()
        .map(|&t| {
            let (snap, samples) = engine.observe_all(t);
            fnv1a(snapshot_bits(&snap).chain(sample_bits(&samples)))
        })
        .collect();
    assert_eq!(digests, OBSERVE_ALL_PINS, "got {digests:#018x?}");
}

#[test]
fn pinned_instants_cover_a_precursor_window_and_an_outage() {
    let instants = instants();
    let t = instants[PRECURSOR];
    let horizon = Duration::from_hours(6);
    assert!(
        sim()
            .cmf_ground_truth()
            .iter()
            .any(|&(cmf, _)| cmf > t && cmf - t <= horizon),
        "{t} should sit inside a CMF precursor window"
    );
    let (snap, _) = sim().telemetry().observe_all(instants[RACKS_DOWN]);
    assert!(snap.rack_up.iter().any(|up| !up), "a rack should be down");
}

/// Digests of [`TelemetryProvider::sample`] over all racks, per instant.
const SAMPLE_PINS: [u64; 6] = [
    0xf14f_7e8a_d501_83d3,
    0x860d_82fc_7b6f_5691,
    0xf95e_19af_7ef4_9111,
    0xfa3a_023d_08b4_c59c,
    0x7d26_551f_0ec2_bb52,
    0xc771_4082_6f80_b68a,
];

/// Digests of the snapshot and samples from `observe_all`, per instant.
const OBSERVE_ALL_PINS: [u64; 6] = [
    0x93f3_f207_b026_65e0,
    0x1586_f22c_ba42_03f7,
    0x7ec1_6e54_8528_2247,
    0xac86_d905_2200_abea,
    0xbcf6_6cce_ac74_fb91,
    0x5c96_0267_c2a0_a1e7,
];
