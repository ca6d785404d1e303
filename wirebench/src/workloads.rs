//! The three fleet workloads, why each exists, and how its input stream
//! is generated from a seed.
//!
//! Every workload streams `<epoch> <sentence>` lines into one NMEA-in
//! connection of `surveil serve` on an open-loop schedule at a fixed
//! rate. The rate is part of the workload definition and never changes
//! with the program under test: it was set once so that the server's
//! driver thread is roughly half busy on the reference host (2 vCPU,
//! see `README.md`), leaving headroom for the reader, the hub and the
//! benchmark's own generator and subscriber threads.
//!
//! A workload is sized from `--seconds`: enough simulated hours are
//! generated for `rate × seconds` lines, and the stream is cut at exactly
//! that many lines. With the default 10 s every workload answers at
//! least 100 recognition queries, so the p90 latency has at least 10
//! samples beyond it.
//!
//! The layer shares quoted below are self time as a share of the traced
//! run's wall time (`--trace 1`, seed 1, 10 s) on the reference host;
//! `README.md` keeps the full table.

use maritime_ais::nmea::encode_report;
use maritime_ais::voyage::{encode_static_voyage, StaticVoyageData};
use maritime_ais::{FleetConfig, FleetSimulator, Mmsi};
use maritime_cer::VesselInfo;
use maritime_chaos::{demo_sentences, ChaosOp, ChaosPlan, StreamLine};
use maritime_stream::Duration;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of every tuning run, so a later performance claim can
/// be re-checked on a fleet nobody looked at while making it.
pub const HELD_OUT_SEED: u64 = 0x00C0_FFEE;

/// Average position lines one demo vessel emits per simulated hour; used
/// only to size the simulation before the stream is cut to length.
const LINES_PER_VESSEL_HOUR: f64 = 86.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload` and listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Vessels in the simulated fleet.
    pub vessels: usize,
    /// Open-loop send rate, lines per second.
    pub rate: u32,
    /// Tracking window `(range, slide)`, minutes.
    pub track_window_mins: (i64, i64),
    /// Recognition window `(range, slide)`, minutes.
    pub recog_window_mins: (i64, i64),
    /// Recognition bands (`--bands`).
    pub bands: usize,
    /// Reissue every vessel's MMSI every [`REISSUE_SECS`] and perturb the
    /// stream (reorder, duplicates, corrupt and truncated sentences).
    pub hostile: bool,
    /// Run the server with `--checkpoint-dir` and checkpoint every query.
    pub checkpoint: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    // steady_fleet — bound by line handling. 200 clean vessels on one
    // in-order source with a 120/15 min recognition window: recognition
    // is a small share of pipeline time and the per-line work (framing,
    // the per-line channel send and lock, mux, scan, batcher, tracker)
    // dominates. Measured: scan 24%, admission 20%, tracker 16%, mux 14%,
    // cer 10%; server driver thread 0.45 busy. Batched ingest (ROADMAP
    // item 6) should move `cpu_us_per_line` and `replay.lines_per_s`
    // here; recognizer work should barely move it.
    Workload {
        name: "steady_fleet",
        vessels: 200,
        rate: 150_000,
        track_window_mins: (60, 5),
        recog_window_mins: (120, 15),
        bands: 1,
        hostile: false,
        checkpoint: false,
    },
    // dense_fleet — bound by recognition and band coordination. 1000
    // vessels, ω = 6 h (the paper's Fig 11 range), β = 5 min, two bands:
    // the RTEC engines and the coordinator's handoff dominate, so
    // `alert_latency_*` tracks recognizer and coordinator work (ROADMAP
    // items 3 and 6) and ingest work moves it little. Measured: cer 33%
    // (the largest layer), scan 18%, admission 17%, tracker 13%.
    Workload {
        name: "dense_fleet",
        vessels: 1000,
        rate: 100_000,
        track_window_mins: (60, 5),
        recog_window_mins: (360, 5),
        bands: 2,
        hostile: false,
        checkpoint: false,
    },
    // churn_hostile — the only workload whose state grows. 300 vessels
    // whose MMSIs are reissued every hour (facts are known only for the
    // original MMSIs), reordered within the 120 s admission skew, with
    // duplicates and damaged sentences, checkpointing every query. The
    // admission buffer really reorders, the scanner really rejects, and
    // the checkpoint path writes beside the recognition reads. Bounded
    // state (ROADMAP item 4) should show in `peak_rss_mb` here and
    // nowhere else; a fast path that assumes clean in-order input would
    // show its cost here. Measured: cer 29%, admission 15%, tracker 15%,
    // modstore 12%, scan 12%; ~9.8k vessels tracked; 51 MB peak RSS
    // against 17 and 32 MB on the other workloads. Reissues are
    // staggered: reissuing the whole fleet at one instant makes every
    // fourth query a latency spike.
    Workload {
        name: "churn_hostile",
        vessels: 300,
        rate: 90_000,
        track_window_mins: (60, 5),
        recog_window_mins: (120, 15),
        bands: 1,
        hostile: true,
        checkpoint: true,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated input of one run: the lines in send order and the
/// knowledge base the server is given as its `--fleet` file.
pub struct Stream {
    /// `(event seconds, sentence)` in the order they are sent.
    pub lines: Vec<StreamLine>,
    /// Static facts of the original fleet.
    pub vessels: Vec<VesselInfo>,
}

impl Workload {
    /// Lines one run sends: `rate × seconds`.
    #[must_use]
    pub fn line_count(&self, seconds: u64) -> usize {
        (u64::from(self.rate) * seconds) as usize
    }

    /// The `surveil serve` flags that define this workload's pipeline;
    /// the benchmark parses the same flags in process, so the batch
    /// reference and the traced run see exactly the server's
    /// configuration.
    #[must_use]
    pub fn pipeline_flags(&self) -> Vec<String> {
        let (tr, ts) = self.track_window_mins;
        let (rr, rs) = self.recog_window_mins;
        vec![
            "--track-window".into(),
            format!("{tr},{ts}"),
            "--recog-window".into(),
            format!("{rr},{rs}"),
            "--bands".into(),
            self.bands.to_string(),
        ]
    }

    /// Generates the run's input from `seed`: the same seed and length
    /// always give the same lines.
    #[must_use]
    pub fn generate(&self, seed: u64, seconds: u64) -> Stream {
        let want = self.line_count(seconds);
        // 5% headroom over the estimate, then cut to exactly `want`;
        // simulate longer if the estimate fell short.
        let mut hours = ((want as f64 * 1.05) / (self.vessels as f64 * LINES_PER_VESSEL_HOUR))
            .ceil()
            .max(1.0) as i64;
        loop {
            let (mut lines, vessels) = if self.hostile {
                hostile_sentences(seed, self.vessels, hours)
            } else {
                demo_sentences(seed, self.vessels, hours)
            };
            if lines.len() >= want {
                lines.truncate(want);
                return Stream { lines, vessels };
            }
            hours += (hours + 1) / 2;
        }
    }
}

/// How long a churning vessel keeps an MMSI. Every reissue is a vessel
/// the server has never heard of, so distinct MMSIs grow by the fleet
/// size every period (about 11k over a 10 s run).
pub const REISSUE_SECS: i64 = 3_600;

/// The reissue period vessel `index` of `vessels` is in at `t` seconds.
/// Reissues are staggered across the fleet, one vessel at a time, as
/// independent operators would renumber — never the whole fleet at once.
#[must_use]
pub fn reissue_period(t: i64, index: usize, vessels: usize) -> i64 {
    let offset = REISSUE_SECS * index as i64 / vessels.max(1) as i64;
    (t + offset).div_euclid(REISSUE_SECS)
}

/// The MMSI a vessel transmits under during reissue period `period`:
/// its own in period 0, then a fresh number each period. Reissued
/// numbers lie in 240xxxxxx, clear of the demo fleet's 237xxxxxx.
#[must_use]
pub fn reissued_mmsi(original: Mmsi, vessel_index: usize, period: i64) -> Mmsi {
    if period == 0 {
        original
    } else {
        Mmsi(240_000_000 + (period as u32) * 1_000 + vessel_index as u32)
    }
}

/// The churn world: the demo fleet (every vessel badly behaved, half of
/// it fishing), each vessel's MMSI reissued every [`REISSUE_SECS`], then a seeded
/// chaos plan. Only the original MMSIs declare themselves (type 5) and
/// appear in the knowledge base.
fn hostile_sentences(seed: u64, vessels: usize, hours: i64) -> (Vec<StreamLine>, Vec<VesselInfo>) {
    let sim = FleetSimulator::new(FleetConfig {
        vessels,
        duration: Duration::hours(hours),
        seed,
        rogue_fraction: 1.0,
        fishing_fraction: 0.5,
        ..FleetConfig::default()
    });
    let index: std::collections::HashMap<u32, usize> = sim
        .profiles()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.mmsi.0, i))
        .collect();
    let mut lines: Vec<StreamLine> = Vec::new();
    for (i, profile) in sim.profiles().iter().enumerate() {
        let data = StaticVoyageData {
            mmsi: profile.mmsi,
            imo: 9_000_000 + i as u32,
            callsign: format!("SV{i:04}"),
            name: format!("CHURN VESSEL {i}"),
            ship_type: if profile.is_fishing { 30 } else { 70 },
            draught_m: profile.draft_m,
            destination: String::new(),
        };
        let [s1, s2] = encode_static_voyage(&data, (i % 10) as u8);
        lines.push((i as i64, s1));
        lines.push((i as i64, s2));
    }
    for mut report in sim.generate() {
        let i = index[&report.mmsi.0];
        let period = reissue_period(report.timestamp.as_secs(), i, vessels);
        report.mmsi = reissued_mmsi(report.mmsi, i, period);
        lines.push((report.timestamp.as_secs(), encode_report(&report)));
    }
    lines.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let plan = ChaosPlan::new(
        seed,
        vec![
            // Arrival reorder within the server's 120 s admission skew:
            // the buffer must restore the canonical order.
            ChaosOp::Reorder { skew_secs: 120 },
            ChaosOp::Duplicate { per_mille: 20 },
            ChaosOp::Corrupt { per_mille: 5 },
            ChaosOp::Truncate { per_mille: 5 },
        ],
    );
    let (perturbed, _) = plan.apply(&lines);
    let infos = sim.profiles().iter().map(VesselInfo::from).collect();
    (perturbed, infos)
}

/// Renders the knowledge base as the JSON array `surveil serve --fleet`
/// reads.
#[must_use]
pub fn fleet_json(vessels: &[VesselInfo]) -> String {
    let rows: Vec<String> = vessels
        .iter()
        .map(|v| {
            format!(
                "{{\"mmsi\":{},\"draft_m\":{:?},\"is_fishing\":{}}}",
                v.mmsi.0, v.draft_m, v.is_fishing
            )
        })
        .collect();
    format!("[{}]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn fleet_json_round_trips_through_the_server_parser() {
        let (_, vessels) = demo_sentences(3, 5, 1);
        let parsed = maritime::serve::cli::parse_fleet_json(&fleet_json(&vessels)).unwrap();
        assert_eq!(parsed, vessels);
    }

    #[test]
    fn reissued_mmsis_are_distinct_per_vessel_and_period() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..400 {
            for h in 0..60 {
                assert!(seen.insert(reissued_mmsi(Mmsi(237_000_000 + i as u32), i, h)));
            }
        }
    }

    #[test]
    fn reissues_are_staggered_one_period_apart() {
        assert_eq!(reissue_period(0, 0, 4), 0);
        assert_eq!(reissue_period(REISSUE_SECS - 1, 0, 4), 0);
        assert_eq!(reissue_period(REISSUE_SECS, 0, 4), 1);
        // Vessel 2 of 4 is half a period ahead.
        assert_eq!(reissue_period(REISSUE_SECS / 2 - 1, 2, 4), 0);
        assert_eq!(reissue_period(REISSUE_SECS / 2, 2, 4), 1);
        assert_eq!(reissue_period(REISSUE_SECS * 3 / 2, 2, 4), 2);
    }

    #[test]
    fn generation_is_seed_deterministic_and_cut_to_length() {
        let w = Workload {
            vessels: 6,
            rate: 50,
            ..*find("churn_hostile").unwrap()
        };
        let a = w.generate(9, 4);
        let b = w.generate(9, 4);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.lines.len(), 200);
        assert_eq!(a.vessels.len(), 6);
    }
}
