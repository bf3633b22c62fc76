//! `mix2`: dual-core `MultiMachine` runs of workload pairs on the shared
//! bus and request buffer, under `stream` and `stream+ecdp+throttle`.

use std::sync::Arc;
use std::time::Instant;

use bench::{FaultPlan, Lab};
use ecdp::system::{core_setup, CompilerArtifacts, SystemKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_core::{MachineConfig, MultiMachine, MultiRunStats, Trace};
use workloads::InputSet;

use crate::common::{repeat_setup, run_fixed_ms, secs, Ctx, HostClock, Outcome, Timing};
use crate::spans::{mean_ms, Tracer};
use crate::stats::gmean;

/// Pairs from the dual-core mix table: pointer+pointer, pointer+mixed
/// and pointer+streaming.
pub const PAIRS: [[&str; 2]; 3] = [
    ["mst", "health"],
    ["perlbench", "pfast"],
    ["bisort", "bwaves"],
];
const SYSTEMS: [SystemKind; 2] = [SystemKind::StreamOnly, SystemKind::StreamEcdpThrottled];

struct Pair {
    names: [&'static str; 2],
    traces: Vec<Trace>,
    artifacts: Vec<Arc<CompilerArtifacts>>,
    ops: usize,
}

/// Generates each core's test trace and profiles its train input.
fn setup(tracer: &Tracer, rep: u64) -> Vec<Pair> {
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    PAIRS
        .iter()
        .map(|&names| {
            let mut traces = Vec::new();
            let mut artifacts = Vec::new();
            for name in names {
                let t = tracer.span("workloads.generate", rep, None, |_| {
                    lab.trace(name, InputSet::Test)
                });
                tracer.span("workloads.generate", rep, None, |_| {
                    lab.trace(name, InputSet::Train)
                });
                artifacts.push(tracer.span("ecdp.profile", rep, None, |_| lab.artifacts(name)));
                // The machine takes owned traces.
                traces.push(Trace {
                    initial_memory: t.initial_memory.clone(),
                    ops: t.ops.clone(),
                    instructions: t.instructions,
                });
            }
            let ops = traces.iter().map(|t| t.ops.len()).sum();
            Pair {
                names,
                traces,
                artifacts,
                ops,
            }
        })
        .collect()
}

fn run_mix(pair: &Pair, system: SystemKind) -> Result<MultiRunStats, String> {
    let setups = pair
        .artifacts
        .iter()
        .map(|a| core_setup(system, a))
        .collect();
    MultiMachine::new(MachineConfig::default(), setups)
        .run(&pair.traces)
        .map_err(|e| e.to_string())
}

/// Runs whole passes over every (pair, system) in seed-shuffled order for
/// `ctx.seconds` (at least one pass); the traced run repeats each mix
/// inside a span. A pass is the workload's job.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new(1);
    let (pairs, setup_s) = repeat_setup(&mut clock, |rep| setup(tracer, rep as u64));
    out.setup_s = setup_s;

    let runs: Vec<(usize, SystemKind)> = (0..pairs.len())
        .flat_map(|p| SYSTEMS.iter().map(move |&k| (p, k)))
        .collect();
    let mut first: Vec<Option<MultiRunStats>> = vec![None; runs.len()];
    // A round is a pass over every (pair, system), and the workload's job.
    out.jobs_per_round = 1;
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let started = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.shuffle(&mut rng);
        let pass = Instant::now();
        let mut pass_t = Timing::default();
        for &i in &order {
            let (p, system) = runs[i];
            let pair = &pairs[p];
            let (result, t) = clock.time(|| run_mix(pair, system));
            let mut results = vec![result];
            pass_t += t;
            plain_ms += t.raw_ms;
            if ctx.traced {
                let t0 = Instant::now();
                results
                    .push(tracer.span("multicore.run", i as u64, None, |_| run_mix(pair, system)));
                traced_ms += secs(t0) * 1e3;
            }
            for result in results {
                out.attempted += 1;
                let label = format!(
                    "{}+{}/test/{}",
                    pair.names[0],
                    pair.names[1],
                    system.label()
                );
                match result {
                    Ok(stats) => {
                        for (core, s) in stats.per_core.iter().enumerate() {
                            out.digest_stats(format!("{label}/core{core}"), &s.summary());
                        }
                        out.digest_text(
                            format!("{label}/bus"),
                            stats.total_bus_transfers.to_string(),
                        );
                        first[i].get_or_insert(stats);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.check(format!("mix {label}"), false, e);
                    }
                }
            }
        }
        out.rounds.push(pass_t);
        out.jobs_ms.push(pass_t.ms);
        if secs(started) + secs(pass) > ctx.seconds {
            break;
        }
    }
    out.calibration_ms = clock.samples;
    out.cells_per_round = first.iter().flatten().count() as u64;
    out.retired_per_round = first
        .iter()
        .flatten()
        .flat_map(|m| &m.per_core)
        .map(|s| s.retired_instructions)
        .sum();

    // Modelled: aggregate IPC and BPKI of each pair, ours over baseline.
    let mut ipc = Vec::new();
    let mut bus = Vec::new();
    for p in 0..pairs.len() {
        let get = |k: SystemKind| {
            runs.iter()
                .position(|&(q, s)| q == p && s == k)
                .and_then(|i| first[i].as_ref())
        };
        if let (Some(base), Some(ours)) = (
            get(SystemKind::StreamOnly),
            get(SystemKind::StreamEcdpThrottled),
        ) {
            let agg_ipc = |m: &MultiRunStats| m.per_core.iter().map(|s| s.ipc()).sum::<f64>();
            let bpki = |m: &MultiRunStats| {
                let retired: u64 = m.per_core.iter().map(|s| s.retired_instructions).sum();
                m.total_bus_transfers as f64 * 1e3 / retired.max(1) as f64
            };
            ipc.push(agg_ipc(ours) / agg_ipc(base));
            bus.push(bpki(ours) / bpki(base));
        }
    }
    out.ipc_gain = gmean(&ipc).unwrap_or(0.0);
    out.bus_ratio = gmean(&bus).unwrap_or(0.0);

    if ctx.traced {
        let spans = tracer.spans();
        let (mut ns, mut ops) = (0.0, 0.0);
        for s in spans.iter().filter(|s| s.name == "multicore.run") {
            ns += s.dur_ns() as f64;
            ops += pairs[runs[s.group as usize].0].ops as f64;
        }
        out.layer("multicore.ns_per_op", ns / ops.max(1.0));
        out.layer(
            "workloads.generate_ms",
            mean_ms(&spans, "workloads.generate"),
        );
        out.layer("ecdp.profile_ms", mean_ms(&spans, "ecdp.profile"));
        out.layer("trace.overhead_frac", traced_ms / plain_ms.max(1e-9) - 1.0);
        out.layer("sim_core.run_fixed_ms", run_fixed_ms(tracer));
    }
    out
}
