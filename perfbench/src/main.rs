//! The repository benchmark's measuring program: runs one workload for a
//! fixed host time in whole rounds and prints its metrics.
//!
//! ```text
//! c4_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fingerprints <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a readable table goes to standard
//! error. With `--trace 0` the metrics are the end-to-end ones measured
//! in-process (`setup_s`, `iters_per_s`, `sim_iter_ms`; `run.py` adds the
//! process's `peak_rss_mb`). With `--trace 1` they are the per-layer ones:
//! every round alternates between the timed selector and layer clocks
//! (traced) and the plain calls (untraced), and the two rates give the
//! tracing overhead. Everything runs on one thread.
//!
//! With `--fingerprints <dir>`, the first process at a seed records each
//! operation's fingerprint there, and every later process of the same
//! binary at that seed must reproduce it.

mod checks;
mod fleet;
mod moe;
mod rings;
mod round;
mod timed;

use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use c4_netsim::{mix64, DrainSolverStats};
use c4_simcore::JsonValue;

use round::{
    fingerprint, iters_per_s, judge, layer_per_op, median, setup_layer_ms, sim_mean, Op, Round,
};

/// Host milliseconds of a span.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records one operation's drain-solver counters as simulated values.
pub fn solver_counters(op: &mut Op, s: &DrainSolverStats) {
    for (name, v) in [
        ("netsim.events", s.events),
        ("netsim.full_solves", s.full_solves),
        ("netsim.component_solves", s.component_solves),
        ("netsim.batched_completions", s.batched_completions),
        ("netsim.sparse_solves", s.sparse_solves),
        ("netsim.spine_rounds", s.spine_rounds),
        ("netsim.spine_link_updates", s.spine_link_updates),
        ("netsim.fallback_solves", s.fallback_solves),
        ("netsim.arena_hwm_bytes", s.arena_hwm_bytes),
    ] {
        op.sim.insert(name, v as f64);
    }
}

/// A workload: its name, its round, and the operations one round makes.
struct Workload {
    name: &'static str,
    round: fn(u64, bool) -> Round,
    ops_per_round: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "moe-512-exact",
        round: moe::round,
        ops_per_round: moe::ITERS,
    },
    Workload {
        name: "rings-16k-twotier",
        round: rings::round,
        ops_per_round: rings::ITERS,
    },
    Workload {
        name: "fleet-soak-512",
        round: fleet::round,
        ops_per_round: fleet::SOAKS,
    },
];

/// Every run makes at least this many rounds, so determinism is checked
/// and a traced run has traced and untraced rounds.
const MIN_ROUNDS: usize = 2;

/// Where a per-layer metric's value comes from.
enum Source {
    /// Median over set-up repetitions of a set-up layer's milliseconds.
    Setup,
    /// Per-operation value of a traced layer entry.
    Traced,
    /// Per-operation mean of a simulated value or work counter.
    Sim,
    /// Derived below from other metrics.
    Derived,
}

/// The per-layer metrics: name, unit, source. Workloads that never touch a
/// layer report 0 for it.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("topology.build_ms", "ms", Source::Setup),
    ("c4p.catalog_ms", "ms", Source::Setup),
    ("c4p.select_ms", "ms", Source::Traced),
    ("c4p.select_keys", "count", Source::Traced),
    ("c4p.observe_ms", "ms", Source::Traced),
    ("collectives.plan_build_ms", "ms", Source::Traced),
    ("collectives.plan_hits", "count", Source::Sim),
    ("collectives.plan_misses", "count", Source::Sim),
    ("collectives.rebased_drops", "count", Source::Sim),
    ("trainsim.place_ms", "ms", Source::Setup),
    ("trainsim.iter_ms", "ms", Source::Traced),
    ("trainsim.ep_busbw_gbps", "Gbps", Source::Sim),
    ("trainsim.dp_busbw_gbps", "Gbps", Source::Sim),
    ("netsim.drain_ms", "ms", Source::Traced),
    ("netsim.events", "count", Source::Sim),
    ("netsim.us_per_event", "us", Source::Derived),
    ("netsim.full_solves", "count", Source::Sim),
    ("netsim.component_solves", "count", Source::Sim),
    ("netsim.batched_completions", "count", Source::Sim),
    ("netsim.sparse_solves", "count", Source::Sim),
    ("netsim.spine_rounds", "count", Source::Sim),
    ("netsim.spine_link_updates", "count", Source::Sim),
    ("netsim.fallback_solves", "count", Source::Sim),
    ("netsim.arena_hwm_bytes", "bytes", Source::Sim),
    ("netsim.congested_flows", "count", Source::Sim),
    ("fleet.soak_ms", "ms", Source::Traced),
    ("fleet.rounds", "count", Source::Sim),
    ("fleet.live_iterations", "count", Source::Sim),
    ("fleet.recoveries", "count", Source::Sim),
    ("fleet.replacements", "count", Source::Sim),
    ("fleet.dp_shrinks", "count", Source::Sim),
    ("fleet.goodput_h", "h", Source::Sim),
    ("fleet.recovery_s", "s", Source::Sim),
    ("fleet.overcharged_jobs", "count", Source::Sim),
    ("c4d.detections", "count", Source::Sim),
    ("c4d.isolations", "count", Source::Sim),
    ("faults.applied", "count", Source::Sim),
    ("faults.skipped", "count", Source::Sim),
    ("trace.traced_iters_per_s", "1/s", Source::Derived),
    ("trace.untraced_iters_per_s", "1/s", Source::Derived),
    ("trace.overhead_pct", "%", Source::Derived),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 35.0, false);
    let mut fingerprints = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--fingerprints" => fingerprints = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        fingerprints,
    })
}

/// Runs rounds until `seconds` of host time have passed (whole rounds, at
/// least [`MIN_ROUNDS`]). A panicking round counts all its operations as
/// failed.
fn run(w: &Workload, args: &Args) -> Vec<Round> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let traced = args.trace && rounds.len() % 2 == 0;
        let round =
            catch_unwind(AssertUnwindSafe(|| (w.round)(args.seed, traced))).unwrap_or_else(|_| {
                Round {
                    traced,
                    panicked: true,
                    ops: (0..w.ops_per_round)
                        .map(|_| Op {
                            failure: Some("panicked".into()),
                            ..Op::default()
                        })
                        .collect(),
                    ..Round::default()
                }
            });
        let ops: Vec<String> = round
            .ops
            .iter()
            .map(|o| format!("{:.1}", o.host_s * 1e3))
            .collect();
        eprintln!(
            "round {}{}: set-up {:.3} ms (median of {}), operations [{}] ms",
            rounds.len(),
            if traced { " (traced)" } else { "" },
            median(&round.setup_s) * 1e3,
            round.setup_s.len(),
            ops.join(", ")
        );
        rounds.push(round);
    }
    rounds
}

/// A digest of this program's executable, so recorded fingerprints are
/// only compared between processes of the same build. It is read in small
/// pieces, leaving the peak resident memory to the workload.
fn exe_digest() -> Option<u64> {
    let mut file = std::fs::File::open(std::env::current_exe().ok()?).ok()?;
    let (mut h, mut buf) = (0u64, [0u8; 4096]);
    loop {
        let n = file.read(&mut buf).ok()?;
        if n == 0 {
            return Some(h);
        }
        for c in buf[..n].chunks(8) {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            h = mix64(h ^ u64::from_le_bytes(word));
        }
    }
}

/// The file in `dir` holding the fingerprints of this build at this seed,
/// and the fingerprints an earlier process recorded there, if any.
fn recorded(dir: &Path, workload: &str, seed: u64) -> Option<(PathBuf, Option<Vec<u64>>)> {
    let file = dir.join(format!("{workload}-{seed}-{:016x}.txt", exe_digest()?));
    let earlier = std::fs::read_to_string(&file).ok().map(|text| {
        text.lines()
            .map(|l| u64::from_str_radix(l, 16).unwrap_or(0))
            .collect()
    });
    Some((file, earlier))
}

/// Records the first round's fingerprints, writing a temporary file and
/// renaming it so a reader never sees half a record.
fn record(file: &Path, round: &Round) -> std::io::Result<()> {
    let text: String = round
        .ops
        .iter()
        .map(|o| format!("{:016x}\n", fingerprint(o)))
        .collect();
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = file.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, file)
}

fn metric(metrics: &mut JsonValue, name: &str, unit: &str, value: f64) {
    let mut m = JsonValue::object();
    m.push("value", value).push("unit", unit);
    metrics.push(name, m);
    eprintln!("  {name:<30} {value:>16.6} {unit}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("c4_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "c4_perfbench: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };

    let mut rounds = run(w, &args);
    let record_file = args
        .fingerprints
        .as_deref()
        .and_then(|dir| recorded(dir, w.name, args.seed));
    let earlier = record_file.as_ref().and_then(|(_, e)| e.as_deref());
    let (attempted, failed) = judge(&mut rounds, earlier);
    if let Some((file, None)) = &record_file {
        if let Err(e) = record(file, &rounds[0]) {
            eprintln!("c4_perfbench: cannot record {}: {e}", file.display());
        }
    }
    let prints: Vec<String> = rounds[0]
        .ops
        .iter()
        .map(|o| format!("{:016x}", fingerprint(o)))
        .collect();
    eprintln!(
        "{}: seed {} · {} rounds · {attempted} operations, {failed} failed · fingerprints {}{}",
        w.name,
        args.seed,
        rounds.len(),
        prints.join(" "),
        if earlier.is_some() {
            " (compared with an earlier process)"
        } else {
            ""
        }
    );
    for (r, round) in rounds.iter().enumerate() {
        for (i, op) in round.ops.iter().enumerate() {
            if let Some(f) = &op.failure {
                eprintln!("  round {r} operation {i} failed: {f}");
            }
        }
    }

    // Host rates count every round that ran to its end: an operation that
    // fails its checks still did the operation's work.
    let good: Vec<&Round> = rounds.iter().filter(|r| !r.panicked).collect();
    let correct = rounds
        .iter()
        .flat_map(|r| &r.ops)
        .all(|o| o.failure.is_none() || o.known_fault);
    let mut metrics = JsonValue::object();
    if !args.trace {
        let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setup_s.clone()).collect();
        metric(&mut metrics, "setup_s", "s", median(&setups));
        metric(
            &mut metrics,
            "iters_per_s",
            "1/s",
            iters_per_s(good.iter().copied()),
        );
        let sim_iter_ms = rounds.first().map_or(0.0, |r| sim_mean(r, "sim_iter_ms"));
        metric(&mut metrics, "sim_iter_ms", "ms", sim_iter_ms);
    } else {
        let first = &rounds[0];
        let traced = iters_per_s(good.iter().copied().filter(|r| r.traced));
        let untraced = iters_per_s(good.iter().copied().filter(|r| !r.traced));
        let drain_ms = layer_per_op(&rounds, "netsim.drain_ms");
        let events = sim_mean(first, "netsim.events");
        for (name, unit, source) in PER_LAYER {
            let value = match (source, *name) {
                (Source::Setup, _) => setup_layer_ms(&rounds, name),
                (Source::Traced, _) => layer_per_op(&rounds, name),
                (Source::Sim, _) => sim_mean(first, name),
                (Source::Derived, "netsim.us_per_event") if events > 0.0 => drain_ms * 1e3 / events,
                (Source::Derived, "trace.traced_iters_per_s") => traced,
                (Source::Derived, "trace.untraced_iters_per_s") => untraced,
                (Source::Derived, "trace.overhead_pct") if traced > 0.0 => {
                    (untraced / traced - 1.0) * 100.0
                }
                (Source::Derived, _) => 0.0,
            };
            metric(&mut metrics, name, unit, value);
        }
    }

    let mut out = JsonValue::object();
    out.push("correct", correct)
        .push("attempted", attempted)
        .push("failed", failed)
        .push("metrics", metrics);
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the metrics this program prints, with the
    /// same units; `run.py` adds `peak_rss_mb`.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let mut end_to_end = listed("end_to_end");
        end_to_end.sort();
        let mut printed: Vec<(String, String)> = [
            ("iters_per_s", "1/s"),
            ("peak_rss_mb", "MiB"),
            ("setup_s", "s"),
            ("sim_iter_ms", "ms"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
        printed.sort();
        assert_eq!(end_to_end, printed);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
