//! CLI surface of the networked runtime: `rbcast serve` (one UDP node)
//! and `rbcast cluster` (an N-node torus as local processes, or
//! in-process over loopback).
//!
//! `cluster --transport udp` spawns one `rbcast serve` child per node
//! via `std::process::Command` (no threads — the supervisor taxonomy's
//! quarantine semantics extend naturally to whole processes), waits for
//! their JSON reports, aggregates decisions, and checks the commit
//! digest against the sim oracle. `--kill I` injects a crash: child `I`
//! is killed mid-run and respawned with the same journal, exercising
//! the epoch-bump recovery path end to end over real sockets.

use crate::cli::Flags;
use rbcast_core::jsonl::decode_exact;
use rbcast_core::ProtocolKind;
use rbcast_grid::plumbing::json_field_u64;
use rbcast_grid::Metric;
use rbcast_net::cluster::summarize;
use rbcast_net::link::LinkStats;
use rbcast_net::runtime::RuntimeStats;
use rbcast_net::{
    ChaosConfig, ClusterReport, ClusterSpec, Datagram, FileJournal, LoopbackCluster, MemJournal,
    NetJournal, NodeReport, NodeRuntime, RuntimeConfig, UdpTransport,
};
use rbcast_sim::driver::InstanceId;
use std::path::PathBuf;
use std::sync::Arc;

/// One node's serve invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// This node's id.
    pub node: u32,
    /// The shared run configuration.
    pub net: NetSpec,
    /// Journal path (enables crash recovery). `None` = in-memory.
    pub journal: Option<PathBuf>,
    /// Where to write the final JSON report (`None` = stdout).
    pub out: Option<PathBuf>,
}

/// The flags shared by `serve` and `cluster` — everything a node needs
/// to agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// The static run configuration (topology, protocol, instances,
    /// rounds) every node and the sim oracle share.
    pub cluster: ClusterSpec,
    /// UDP base port (node `i` binds `base_port + i`).
    pub base_port: u16,
    /// Chaos seed (`None` = no chaos shim).
    pub chaos_seed: Option<u64>,
    /// Barrier patience in ticks before suspecting a silent peer.
    pub patience: u64,
    /// Pump-loop budget in ticks.
    pub max_ticks: u64,
}

impl NetSpec {
    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            rounds: self.cluster.rounds,
            patience: self.patience,
        }
    }

    fn chaos(&self) -> Option<ChaosConfig> {
        // The smoke profile's loss is bursty but recoverable; the seed
        // is the only knob the CLI exposes.
        self.chaos_seed.map(ChaosConfig::smoke)
    }
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            cluster: ClusterSpec {
                width: 3,
                height: 3,
                radius: 1,
                metric: Metric::Linf,
                protocol: ProtocolKind::Cpa,
                t: 1,
                instances: 4,
                rounds: 16,
            },
            base_port: 47_000,
            chaos_seed: None,
            patience: 200_000,
            max_ticks: 20_000_000,
        }
    }
}

/// `cluster`-only options.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOpts {
    /// `udp` (child processes over sockets) or `loopback` (in-process).
    pub udp: bool,
    /// Node to kill and restart mid-run, if any.
    pub kill: Option<u32>,
    /// Scratch directory for journals and reports (udp mode).
    pub dir: Option<PathBuf>,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts {
            udp: true,
            kill: None,
            dir: None,
        }
    }
}

/// Parses the shared flags; unrecognized flags are delegated to `extra`
/// which returns true when it consumed the flag.
fn parse_net_flags(
    args: &[String],
    spec: &mut NetSpec,
    mut extra: impl FnMut(&str, &mut Flags<'_>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--width" => spec.cluster.width = f.at_least(1)?,
            "--height" => spec.cluster.height = f.at_least(1)?,
            "--r" => spec.cluster.radius = f.radius()?,
            "--metric" => spec.cluster.metric = f.metric()?,
            "--protocol" => spec.cluster.protocol = f.protocol()?,
            "--t" => spec.cluster.t = f.value()?,
            "--instances" => spec.cluster.instances = f.at_least(1)?,
            "--rounds" => spec.cluster.rounds = f.value()?,
            "--base-port" => spec.base_port = f.value()?,
            "--chaos-seed" => spec.chaos_seed = Some(f.value()?),
            "--patience" => spec.patience = f.value()?,
            "--max-ticks" => spec.max_ticks = f.value()?,
            other => {
                if !extra(other, &mut f)? {
                    return Err(format!("unknown flag: {other}"));
                }
            }
        }
    }
    let ClusterSpec { width, height, .. } = spec.cluster;
    crate::cli::arena_fits("--width/--height", u64::from(width) * u64::from(height))
}

/// Parses `rbcast serve` flags.
pub(crate) fn parse_serve(args: &[String]) -> Result<ServeSpec, String> {
    let mut net = NetSpec::default();
    let mut node: Option<u32> = None;
    let mut journal: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    parse_net_flags(args, &mut net, |flag, f| {
        match flag {
            "--node" => node = Some(f.value()?),
            "--journal" => journal = Some(f.path()?),
            "--out" => out = Some(f.path()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(ServeSpec {
        node: node.ok_or("serve requires --node")?,
        net,
        journal,
        out,
    })
}

/// Parses `rbcast cluster` flags.
pub(crate) fn parse_cluster(args: &[String]) -> Result<(NetSpec, ClusterOpts), String> {
    let mut spec = NetSpec::default();
    let mut opts = ClusterOpts::default();
    parse_net_flags(args, &mut spec, |flag, f| {
        match flag {
            "--transport" => {
                opts.udp = match f.raw()? {
                    "udp" => true,
                    "loopback" => false,
                    other => return Err(format!("unknown transport: {other}")),
                };
            }
            "--kill" => opts.kill = Some(f.value()?),
            "--dir" => opts.dir = Some(f.path()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // checked after the loop so `--width`/`--height` order is irrelevant
    let nodes = u64::from(spec.cluster.width) * u64::from(spec.cluster.height);
    if let Some(victim) = opts.kill.filter(|&v| u64::from(v) >= nodes) {
        return Err(format!(
            "--kill must name one of the {nodes} nodes (0..{nodes}): {victim}"
        ));
    }
    Ok((spec, opts))
}

// ---------------------------------------------------------------------
// Report serialization (strict machine JSON, hand-rolled like the
// journal's — the parent parses exactly what the child writes)
// ---------------------------------------------------------------------

/// Every counter of a report under the name its line carries it by —
/// one table, so the writer and the reader cannot disagree on a name.
fn counters(report: &mut NodeReport) -> [(&'static str, &mut u64); 13] {
    let (stats, link) = (&mut report.stats, &mut report.link_totals);
    [
        ("wire_errors", &mut stats.wire_errors),
        ("unknown_src", &mut stats.unknown_src),
        ("frames_ingested", &mut stats.frames_ingested),
        ("stale_frames", &mut stats.stale_frames),
        ("unknown_instance", &mut stats.unknown_instance),
        ("forced_rounds", &mut stats.forced_rounds),
        ("journal_records", &mut stats.journal_records),
        ("sent", &mut link.sent),
        ("retransmits", &mut link.retransmits),
        ("dup_rx", &mut link.dup_rx),
        ("stale_rx", &mut link.stale_rx),
        ("acks_rx", &mut link.acks_rx),
        ("window_drops", &mut link.window_drops),
    ]
}

/// One node's whole report as one line.
fn encode_report(report: &NodeReport) -> String {
    let suspects: Vec<String> = report.suspects.iter().map(ToString::to_string).collect();
    let mut line = format!(
        "{{\"node\":{},\"epoch\":{},\"rounds\":{},\"suspects\":[{}]",
        report.node.0,
        report.epoch,
        report.rounds_closed,
        suspects.join(","),
    );
    for (name, count) in counters(&mut report.clone()) {
        line.push_str(&format!(",\"{name}\":{count}"));
    }
    let decisions: Vec<String> = report
        .decisions
        .iter()
        .map(|(inst, value, round)| {
            format!(
                "{{\"o\":{},\"s\":{},\"v\":{},\"r\":{round}}}",
                inst.origin.0,
                inst.seq,
                u8::from(*value),
            )
        })
        .collect();
    line.push_str(&format!(",\"decisions\":[{}]}}", decisions.join(",")));
    line
}

/// The report a child wrote with [`encode_report`]: a line that writer
/// gives back byte for byte ([`decode_exact`]); `None` for anything else.
fn decode_report(line: &str) -> Option<NodeReport> {
    let decode = |line: &str| read_report(line).ok_or_else(String::new);
    let spell = |buf: &mut Vec<u8>, report: &NodeReport| buf.extend(encode_report(report).bytes());
    decode_exact(line, &mut Vec::new(), decode, spell).ok()
}

/// The report whose fields `line` holds.
fn read_report(line: &str) -> Option<NodeReport> {
    let u32_of = |text: &str, key: &str| u32::try_from(json_field_u64(text, key)?).ok();
    // The inside of `"key":[…]`, split at `sep`; an empty list has no items.
    let items = |key: &str, sep: &'static str| {
        let tag = format!("\"{key}\":[");
        let start = line.find(&tag)? + tag.len();
        let body = &line[start..start + line[start..].find(']')?];
        Some(body.split(sep).filter(|item| !item.is_empty()))
    };
    let mut report = NodeReport {
        node: rbcast_grid::NodeId(u32_of(line, "node")?),
        epoch: u32_of(line, "epoch")?,
        rounds_closed: u32_of(line, "rounds")?,
        decisions: Vec::new(),
        suspects: Vec::new(),
        stats: RuntimeStats::default(),
        link_totals: LinkStats::default(),
    };
    for (name, count) in counters(&mut report) {
        *count = json_field_u64(line, name)?;
    }
    for suspect in items("suspects", ",")? {
        report.suspects.push(suspect.parse().ok()?);
    }
    for entry in items("decisions", "},{")? {
        let inst = InstanceId {
            origin: rbcast_grid::NodeId(u32_of(entry, "o")?),
            seq: u32_of(entry, "s")?,
        };
        let value = json_field_u64(entry, "v")? == 1;
        report.decisions.push((inst, value, u32_of(entry, "r")?));
    }
    Some(report)
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Runs one UDP node to completion. Exit code 0 on a finished run.
#[must_use]
pub(crate) fn execute_serve(spec: &ServeSpec) -> i32 {
    let cluster = spec.net.cluster;
    let arena = match cluster.try_arena() {
        Ok(arena) => arena,
        Err(e) => {
            eprintln!("error: cannot build the network: {e}");
            return 2;
        }
    };
    if u64::from(spec.node) >= arena.len() as u64 {
        eprintln!(
            "error: node {} outside a {} node torus",
            spec.node,
            arena.len()
        );
        return 2;
    }
    let transport = match UdpTransport::bind(spec.node, spec.net.base_port) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: bind failed for node {}: {e}", spec.node);
            return 2;
        }
    };
    let transport: Box<dyn Datagram> = match spec.net.chaos() {
        Some(mut cfg) => {
            cfg.seed ^= u64::from(spec.node) << 17;
            Box::new(rbcast_net::ChaosTransport::new(spec.node, transport, cfg))
        }
        None => Box::new(transport),
    };
    let journal: Box<dyn NetJournal> = match &spec.journal {
        Some(path) => match FileJournal::open(path) {
            Ok(j) => Box::new(j),
            Err(e) => {
                eprintln!("error: journal open failed: {e}");
                return 2;
            }
        },
        None => Box::new(MemJournal::new()),
    };
    let mut rt = match NodeRuntime::open(
        Arc::clone(&arena),
        rbcast_grid::NodeId(spec.node),
        &cluster.instance_ids(),
        &mut |inst| cluster.process_for(inst),
        transport,
        journal,
        spec.net.runtime_config(),
    ) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("error: journal replay failed: {e}");
            return 2;
        }
    };
    let mut finished_at: Option<u64> = None;
    let mut ticks: u64 = 0;
    while ticks < spec.net.max_ticks {
        ticks += 1;
        let finished = rt.pump();
        if finished && finished_at.is_none() {
            finished_at = Some(ticks);
        }
        // Keep serving retransmissions after finishing so slower peers
        // are not stranded; leave once drained (plus a grace window for
        // straggling duplicate traffic). The linger is bounded: a peer
        // that exited before acking our last frames would otherwise
        // keep `quiesced()` false forever — our own decisions are final
        // at this point, so a hard cap is safe.
        if let Some(done) = finished_at {
            let idle = ticks.saturating_sub(done);
            if (rt.quiesced() && idle > 2_000) || idle > 30_000 {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let report = rt.report();
    let line = encode_report(&report);
    match &spec.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                eprintln!("error: writing report: {e}");
                return 2;
            }
        }
        None => println!("{line}"),
    }
    i32::from(finished_at.is_none())
}

/// Runs a whole cluster (UDP child processes or in-process loopback),
/// checks the digest against the sim oracle, prints the summary.
#[must_use]
pub(crate) fn execute_cluster(spec: &NetSpec, opts: &ClusterOpts) -> i32 {
    let cluster = spec.cluster;
    // The loopback cluster keeps a runtime per node: reserved beside the
    // arena first, a cluster the host cannot hold is an `error:` line.
    let guard = cluster.try_arena().and_then(|arena| {
        let per_node = std::mem::size_of::<Option<NodeRuntime>>();
        rbcast_core::reserve_node_table(arena.len() as u64, per_node).map(|_| arena)
    });
    let n = match guard {
        Ok(arena) => arena.len(),
        Err(e) => {
            eprintln!("error: cannot build the network: {e}");
            return 2;
        }
    };
    let oracle = cluster.sim_oracle();
    let watch = rbcast_core::obs::Stopwatch::start();
    let outcome = if opts.udp {
        run_udp_cluster(spec, opts, n)
    } else {
        run_loopback_cluster(spec, opts)
    };
    let elapsed_ms = watch.elapsed_ms();
    let report = match outcome {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    for (node, why) in &report.quarantined {
        eprintln!("quarantined node {node}: {why}");
    }
    let degraded = report.nodes.iter().any(|nr| !nr.healthy()) || !report.quarantined.is_empty();
    let (digest, rate) = (report.digest, report.commit_rate);
    let pairs = (n as u64) * u64::from(cluster.instances);
    let oracle_rate = oracle.decisions.len() as f64 / pairs as f64;
    let secs = elapsed_ms / 1_000.0;
    let bps = if secs > 0.0 {
        f64::from(cluster.instances) / secs
    } else {
        0.0
    };
    println!(
        "cluster: {}x{} r={} {} | {} instances x {} rounds | transport={}{}",
        cluster.width,
        cluster.height,
        cluster.radius,
        cluster.protocol.name(),
        cluster.instances,
        cluster.rounds,
        if opts.udp { "udp" } else { "loopback" },
        match opts.kill {
            Some(v) => format!(" | kill+restart node {v}"),
            None => String::new(),
        },
    );
    println!(
        "commit rate: {rate:.4} (oracle {oracle_rate:.4}) | digest {digest:#018x} (oracle {:#018x})",
        oracle.digest
    );
    println!(
        "throughput: {bps:.1} broadcasts/sec ({} commits in {elapsed_ms:.0} ms){}",
        report.decisions.len(),
        if degraded { " | DEGRADED" } else { "" },
    );
    // No process of a UDP cluster knows a shared tick: left out, not
    // zeroed.
    let ticks = if opts.udp {
        String::new()
    } else {
        format!("{} ticks | ", report.ticks)
    };
    println!("net: {ticks}{}", net_counts(&report));
    if digest == oracle.digest {
        println!("parity: MATCH");
        0
    } else {
        println!("parity: MISMATCH");
        1
    }
}

/// What follows `net: ` in the summary (after the loopback cluster's
/// tick count): what the links and runtimes did, in exact counts summed
/// over the nodes' reports — no wall-clock value, so over loopback the
/// line repeats byte for byte.
fn net_counts(report: &ClusterReport) -> String {
    let sum = |of: fn(&NodeReport) -> u64| report.nodes.iter().map(of).sum::<u64>();
    let records = sum(|n| n.stats.journal_records);
    format!(
        "{} frames sent, {} retransmitted | rx {} duplicate, {} stale-epoch, \
         {} acks, {} window drops | {} stale frames, {} forced rounds, {} wire errors | \
         journal {records} records ({:.2}/commit)",
        sum(|n| n.link_totals.sent),
        sum(|n| n.link_totals.retransmits),
        sum(|n| n.link_totals.dup_rx),
        sum(|n| n.link_totals.stale_rx),
        sum(|n| n.link_totals.acks_rx),
        sum(|n| n.link_totals.window_drops),
        sum(|n| n.stats.stale_frames),
        sum(|n| n.stats.forced_rounds),
        sum(|n| n.stats.wire_errors),
        records as f64 / report.decisions.len().max(1) as f64,
    )
}

fn run_loopback_cluster(spec: &NetSpec, opts: &ClusterOpts) -> Result<ClusterReport, String> {
    let mut cluster = LoopbackCluster::new(spec.cluster, spec.runtime_config(), spec.chaos());
    if let Some(victim) = opts.kill {
        for _ in 0..20 {
            if cluster.step() {
                break;
            }
        }
        cluster.kill(victim);
        for _ in 0..50 {
            cluster.step();
        }
        if !cluster.restart(victim) {
            eprintln!("node {victim}: journal replay failed; node stays quarantined");
        }
    }
    if !cluster.run(spec.max_ticks) {
        return Err("loopback cluster did not finish within --max-ticks".into());
    }
    Ok(cluster.report())
}

fn run_udp_cluster(spec: &NetSpec, opts: &ClusterOpts, n: usize) -> Result<ClusterReport, String> {
    let dir = match &opts.dir {
        Some(d) => d.clone(),
        None => std::env::temp_dir().join(format!("rbcast-cluster-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating rbcast binary: {e}"))?;

    let spawn = |node: u32| -> Result<std::process::Child, String> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve")
            .arg("--node")
            .arg(node.to_string())
            .arg("--journal")
            .arg(dir.join(format!("node{node}.jsonl")))
            .arg("--out")
            .arg(dir.join(format!("node{node}.out.json")));
        push_shared_flags(&mut cmd, spec);
        cmd.stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit());
        cmd.spawn()
            .map_err(|e| format!("spawning node {node}: {e}"))
    };

    let mut children: Vec<std::process::Child> = Vec::with_capacity(n);
    for node in 0..n as u32 {
        children.push(spawn(node)?);
    }

    if let Some(victim) = opts.kill {
        let v = victim as usize;
        // Let the run get under way, then crash the victim and bring it
        // back: the journal (and only the journal) survives.
        std::thread::sleep(std::time::Duration::from_millis(300));
        children[v]
            .kill()
            .map_err(|e| format!("killing node {victim}: {e}"))?;
        let _ = children[v].wait();
        std::thread::sleep(std::time::Duration::from_millis(150));
        children[v] = spawn(victim)?;
    }

    let mut failures = 0;
    for (node, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("node {node} exited with {status}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("waiting for node {node}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} node(s) failed"));
    }

    let mut nodes = Vec::with_capacity(n);
    for node in 0..n as u32 {
        let path = dir.join(format!("node{node}.out.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let line = text.strip_suffix('\n').unwrap_or(&text);
        nodes.push(
            decode_report(line)
                .ok_or_else(|| format!("unparseable report from node {node}: {line}"))?,
        );
    }
    Ok(summarize(&spec.cluster, nodes, 0, Vec::new()))
}

fn push_shared_flags(cmd: &mut std::process::Command, spec: &NetSpec) {
    let cluster = &spec.cluster;
    cmd.arg("--width")
        .arg(cluster.width.to_string())
        .arg("--height")
        .arg(cluster.height.to_string())
        .arg("--r")
        .arg(cluster.radius.to_string())
        .arg("--metric")
        .arg(cluster.metric.name())
        .arg("--protocol")
        .arg(cluster.protocol.name())
        .arg("--t")
        .arg(cluster.t.to_string())
        .arg("--instances")
        .arg(cluster.instances.to_string())
        .arg("--rounds")
        .arg(cluster.rounds.to_string())
        .arg("--base-port")
        .arg(spec.base_port.to_string())
        .arg("--patience")
        .arg(spec.patience.to_string())
        .arg("--max-ticks")
        .arg(spec.max_ticks.to_string());
    if let Some(seed) = spec.chaos_seed {
        cmd.arg("--chaos-seed").arg(seed.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn serve_parses_full_flag_set() {
        let spec = parse_serve(&argv(
            "--node 4 --width 3 --height 3 --r 1 --protocol cpa --t 1 \
             --instances 8 --rounds 20 --base-port 48000 --chaos-seed 7 \
             --journal /tmp/j.jsonl --out /tmp/o.json --patience 9000 --max-ticks 100",
        ))
        .expect("parses");
        assert_eq!(spec.node, 4);
        assert_eq!(spec.net.cluster.instances, 8);
        assert_eq!(spec.net.base_port, 48_000);
        assert_eq!(spec.net.chaos_seed, Some(7));
        assert_eq!(spec.journal.as_deref(), Some(Path::new("/tmp/j.jsonl")));
        assert_eq!(spec.net.patience, 9_000);
    }

    #[test]
    fn serve_requires_node() {
        assert!(parse_serve(&argv("--width 3")).is_err());
    }

    #[test]
    fn cluster_parses_transport_and_kill() {
        let (spec, opts) =
            parse_cluster(&argv("--transport loopback --kill 2 --instances 6")).expect("parses");
        assert!(!opts.udp);
        assert_eq!(opts.kill, Some(2));
        assert_eq!(spec.cluster.instances, 6);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_cluster(&argv("--bogus 1")).is_err());
        assert!(parse_serve(&argv("--node 0 --bogus")).is_err());
    }

    #[test]
    fn report_lines_round_trip() {
        let inst = |origin, seq| InstanceId {
            origin: rbcast_grid::NodeId(origin),
            seq,
        };
        // No `..Default::default()`: a counter added to either struct
        // must be given a value here, and so a name in `counters`.
        let report = NodeReport {
            node: rbcast_grid::NodeId(3),
            epoch: 2,
            rounds_closed: 17,
            decisions: vec![(inst(0, 0), true, 4), (inst(1, 1), false, 5)],
            suspects: vec![7, 11],
            stats: RuntimeStats {
                wire_errors: 1,
                unknown_src: 2,
                frames_ingested: 3,
                stale_frames: 4,
                unknown_instance: 5,
                forced_rounds: 6,
                journal_records: 7,
            },
            link_totals: LinkStats {
                sent: 8,
                retransmits: 9,
                dup_rx: 10,
                stale_rx: 11,
                acks_rx: 12,
                window_drops: 13,
            },
        };
        assert_eq!(decode_report(&encode_report(&report)), Some(report.clone()));
        assert!(!report.healthy(), "suspects mean degraded");

        let quiet = NodeReport {
            decisions: Vec::new(),
            suspects: Vec::new(),
            ..report
        };
        let line = encode_report(&quiet);
        assert_eq!(decode_report(&line), Some(quiet));
        // The decisions close the line: cut anywhere before that, it is
        // refused, not half-read.
        for cut in 0..line.len() - 1 {
            assert_eq!(decode_report(&line[..cut]), None, "{}", &line[..cut]);
        }
    }

    /// A child's report is the line its writer writes or nothing: a
    /// decision value other than 0 or 1, or junk around the line, is
    /// refused, not read as a `false` commit or as the line inside it.
    #[test]
    fn a_report_its_writer_never_writes_is_refused() {
        let report = NodeReport {
            node: rbcast_grid::NodeId(3),
            epoch: 1,
            rounds_closed: 4,
            decisions: vec![(
                InstanceId {
                    origin: rbcast_grid::NodeId(0),
                    seq: 0,
                },
                true,
                2,
            )],
            suspects: Vec::new(),
            stats: RuntimeStats::default(),
            link_totals: LinkStats::default(),
        };
        let line = encode_report(&report);
        assert_eq!(decode_report(&line), Some(report));
        let near = [
            line.replacen("\"v\":1", "\"v\":7", 1),
            format!("junk{line}junk"),
            format!(" {line} "),
            format!("{line}\r"),
            line.replacen("\"epoch\":1", "\"epoch\":01", 1),
        ];
        for bad in near {
            assert_eq!(decode_report(&bad), None, "{bad}");
        }
    }

    #[test]
    fn net_line_repeats_byte_for_byte_under_chaos_and_a_kill() {
        let (mut spec, opts) =
            parse_cluster(&argv("--transport loopback --kill 4")).expect("parses");
        spec.chaos_seed = Some(7);
        let line = || {
            let report = run_loopback_cluster(&spec, &opts).expect("finishes");
            format!("{} ticks | {}", report.ticks, net_counts(&report))
        };
        let (first, again) = (line(), line());
        assert_eq!(first, again);
        assert!(first.contains(" retransmitted | rx "), "{first}");
        assert!(
            !first.contains(" 0 retransmitted"),
            "chaos must show: {first}"
        );
    }

    #[test]
    fn loopback_cluster_execution_matches_oracle_end_to_end() {
        let (mut spec, mut opts) = parse_cluster(&argv("--transport loopback")).expect("parses");
        spec.cluster.instances = 2;
        spec.cluster.rounds = 12;
        opts.kill = None;
        assert_eq!(execute_cluster(&spec, &opts), 0);
    }
}
