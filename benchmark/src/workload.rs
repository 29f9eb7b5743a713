//! What a workload is: generated inputs plus two ways of running them —
//! the call a user makes (untraced) and the same work assembled from the
//! layers' public API with timing shims around it (traced).

use crate::trace::Trace;

/// Everything one repetition produced that must repeat exactly: across
/// repetitions, between the untraced and the traced pass, and (default
/// seed) against `golden.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepOutput {
    /// Trace hash (sim), commit digest (cluster) or a fold of the
    /// per-task digests (sweep, attack).
    pub hash: u64,
    /// Units of work done, in the workload's throughput unit.
    pub work: u64,
    /// Latest honest decision round — the paper's own latency.
    pub rounds_to_commit: u64,
    /// Operations attempted (runs, tasks, cells).
    pub ops: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Exact counts pinned in `golden.json` (deliveries, ticks, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// A workload with its inputs generated.
pub trait Workload {
    /// The untraced timed region: the call a user makes, nothing else.
    fn run(&self) -> RepOutput;

    /// The same work, layer by layer, recording spans and counts into
    /// `trace`. Must reproduce [`Workload::run`]'s output.
    fn run_traced(&self, trace: &mut Trace) -> RepOutput;

    /// Layer kernels that are timed once, outside the repetitions
    /// (wire encode/decode, packer, journal appends, …).
    fn kernels(&self, _trace: &mut Trace) {}
}

/// A workload's static description.
pub struct Spec {
    pub name: &'static str,
    /// The throughput unit's numerator (`nodes`, `runs`, …).
    pub unit: &'static str,
    pub why: &'static str,
    /// Whether `--seed` changes the inputs. Where it does not, the
    /// golden pins hold for every seed.
    pub seeded: bool,
    /// Generates the inputs from the seed. `toy` shrinks every size so
    /// `--check` runs all seven in seconds.
    pub build: fn(seed: u64, toy: bool) -> Box<dyn Workload>,
}

pub const SPECS: [Spec; 7] = [
    crate::wl_sim::WAVE_FLOOD_1M,
    crate::wl_sim::WAVE_INDIRECT_100K,
    crate::wl_sim::BYZ_FULL_R2,
    crate::wl_sweep::SWEEP_SMALL,
    crate::wl_cluster::CLUSTER_CLEAN,
    crate::wl_cluster::CLUSTER_CHAOS_KILL,
    crate::wl_attack::ATTACK_SEARCH,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The seed `run.sh` uses when none is given; `golden.json` pins this
/// seed's outputs.
pub const DEFAULT_SEED: u64 = 10_976_964;

/// One pseudo-random word, pure in `(seed, stream, index)` — how every
/// placement, chaos and attack seed derives from `--seed`. The
/// benchmark's own mixer, so the inputs do not move when the program's
/// mixers do.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive FNV-1a fold of words into one digest.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Total of one of the program's own `obs` counters (0 before its
/// first use).
pub fn obs_counter(name: &str) -> u64 {
    rbcast_core::obs::metrics_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Total seconds the program has spent inside its own `obs` span `name`.
pub fn obs_span_seconds(name: &str) -> f64 {
    rbcast_core::obs::timings_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, s)| s.total_ns as f64 * 1e-9)
}
