//! The metric names, units, directions and bounds the benchmark
//! declares. `BENCHMARK.json` carries the same lists; `--check` fails if
//! the two drift apart.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
    /// Absolute differences below this are ignored (`setup_s` only: a
    /// 25 % swing of a few milliseconds is not a finding).
    pub floor: f64,
}

/// `failed_frac` is the sixth end-to-end figure; it travels as the
/// contract's `failed` / `attempted` pair because a declared metric may
/// never read 0 and this one must.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        floor: 0.0,
    },
    EndToEnd {
        name: "rounds_to_commit",
        unit: "rounds",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in ledger order (layers are the crates).
/// Every workload emits every one; a layer the workload does not touch
/// reads 0.
pub const PER_LAYER: [PerLayer; 91] = [
    // proc — explains cpu_s / peak_rss_mb everywhere
    lo("proc.cpu_user_s", "s"),
    lo("proc.cpu_sys_s", "s"),
    lo("proc.minor_faults", "count"),
    lo("proc.invol_ctx_switches", "count"),
    lo("proc.first_rep_s", "s"),
    // grid
    lo("grid.arena.build_s", "s"),
    lo("grid.arena.nodes", "count"),
    // adversary
    lo("adversary.place_s", "s"),
    lo("adversary.audit_bound_s", "s"),
    lo("adversary.greedy_cut_seed_s", "s"),
    // sim
    lo("sim.network.construct_s", "s"),
    lo("sim.network.run_s", "s"),
    lo("sim.self_s", "s"),
    lo("sim.self_ns_per_delivery", "ns"),
    lo("sim.rounds", "count"),
    lo("sim.messages", "count"),
    lo("sim.deliveries", "count"),
    lo("sim.round.p50_us", "us"),
    lo("sim.round.max_us", "us"),
    // protocols
    lo("protocols.on_start.s", "s"),
    lo("protocols.on_message.calls", "count"),
    lo("protocols.on_message.s", "s"),
    lo("protocols.on_message.ns_per_call", "ns"),
    lo("protocols.on_message.SOURCE.calls", "count"),
    lo("protocols.on_message.SOURCE.s", "s"),
    lo("protocols.on_message.COMMITTED.calls", "count"),
    lo("protocols.on_message.COMMITTED.s", "s"),
    lo("protocols.on_message.HEARD.calls", "count"),
    lo("protocols.on_message.HEARD.s", "s"),
    lo("protocols.on_round_end.calls", "count"),
    lo("protocols.on_round_end.s", "s"),
    hi("protocols.decisions", "count"),
    // flow
    lo("flow.augmentations", "count"),
    lo("flow.min_cuts", "count"),
    lo("flow.packer.kernel_ns", "ns"),
    lo("flow.dinic.kernel_ns", "ns"),
    // core
    lo("core.experiment.run_s", "s"),
    lo("core.outcome.collect_s", "s"),
    lo("core.engine.bare_s", "s"),
    lo("core.supervisor.run_s", "s"),
    lo("core.supervisor.overhead_frac", "fraction"),
    lo("core.supervisor.journal_overhead_frac", "fraction"),
    lo("core.journal.record_us", "us"),
    lo("core.supervisor.tasks", "count"),
    lo("core.supervisor.retries", "count"),
    lo("core.supervisor.quarantined", "count"),
    hi("core.arena_cache.hits", "count"),
    lo("core.arena_cache.misses", "count"),
    lo("core.sweep.run_p50_ms", "ms"),
    lo("core.sweep.run_max_ms", "ms"),
    lo("core.attack.evaluations", "count"),
    lo("core.attack.accepted", "count"),
    lo("core.attack.anneal_s", "s"),
    lo("core.attack.seed_s", "s"),
    lo("core.attack.ms_per_evaluation", "ms"),
    // net — fast path
    lo("net.cluster.boot_s", "s"),
    lo("net.cluster.ticks", "ticks"),
    lo("net.oracle.sim_s", "s"),
    lo("net.overhead_vs_sim", "ratio"),
    lo("net.runtime.pump.calls", "count"),
    lo("net.runtime.pump.s", "s"),
    lo("net.runtime.frames_ingested", "count"),
    lo("net.runtime.stale_frames", "count"),
    lo("net.runtime.forced_rounds", "count"),
    lo("net.runtime.wire_errors", "count"),
    lo("net.transport.datagrams_tx", "count"),
    lo("net.transport.bytes_tx", "count"),
    lo("net.transport.datagrams_per_commit", "ratio"),
    lo("net.transport.bytes_per_commit", "ratio"),
    lo("net.wire.encode_ns", "ns"),
    lo("net.wire.decode_ns", "ns"),
    lo("net.journal.appends", "count"),
    lo("net.journal.append_s", "s"),
    lo("net.journal.appends_per_commit", "ratio"),
    lo("net.cluster.commit_round_p50", "rounds"),
    lo("net.cluster.commit_round_p99", "rounds"),
    lo("net.cluster.commit_latency_ms_p50", "ms"),
    lo("net.cluster.commit_latency_ms_p99", "ms"),
    // net — recovery path
    lo("net.link.sent", "count"),
    lo("net.link.retransmits", "count"),
    lo("net.link.dup_rx", "count"),
    lo("net.link.stale_rx", "count"),
    lo("net.link.acks_rx", "count"),
    lo("net.link.retransmit_frac", "fraction"),
    lo("net.chaos.loss_frac", "fraction"),
    lo("net.recovery.restart_s", "s"),
    lo("net.recovery.catchup_ticks", "ticks"),
    lo("net.journal.file_append_us_p50", "us"),
    lo("net.journal.file_append_us_p99", "us"),
    // the tracing itself
    lo("trace.overhead_frac", "fraction"),
    hi("trace.span_coverage_frac", "fraction"),
];

/// `BENCHMARK.json`, generated from the lists above (`run.sh manifest`
/// prints it; `--check` compares the checked-in file against it).
pub fn manifest() -> Json {
    let row = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), Json::str(name)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::report::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                crate::workload::SPECS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = row(m.name, m.unit, m.better);
                        fields.push(("bound".to_string(), Json::Num(m.bound)));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::Obj(row(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// A valid metric or workload name: starts with a letter or digit, then
/// letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workload::SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        // the contract's limits on the other strings
        assert!(crate::workload::SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
            .all(|u| u.len() <= 16));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
