//! `ecdp-grid`: pointer-intensive and streaming workloads on the test
//! input under the seven default systems, one thread, with ECDP hints
//! profiled on the train input during set-up.
//!
//! The test input keeps a pass over the grid near three seconds, so a run
//! repeats the grid several times and reports the median pass; a pass on
//! the ref input takes about twenty seconds on a 2-vCPU host, which leaves
//! one pass per run.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::DEFAULT_SYSTEMS;
use ecdp::profile::profile_workload;
use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_core::{RunStats, Trace};
use workloads::{registry, InputSet};

use crate::common::{
    cell_key, metric_label, repeat_setup, run_fixed_ms, secs, Ctx, HostClock, Outcome, Timing,
};
use crate::spans::{mean_ms, Tracer};
use crate::stats::gmean;

/// mst, health and pfast are pointer-intensive; libquantum is the
/// streaming control with no linked data.
pub const WORKLOADS: [&str; 4] = ["mst", "health", "pfast", "libquantum"];

struct Input {
    name: &'static str,
    trace: Trace,
    artifacts: CompilerArtifacts,
    beneficial_pgs: usize,
}

/// Generates the test and train traces and profiles train: everything a
/// cell needs before it can run.
fn setup(tracer: &Tracer, rep: u64) -> Vec<Input> {
    WORKLOADS
        .iter()
        .map(|&name| {
            let handle = registry::lookup(name).expect("builtin workload");
            let train = tracer.span("workloads.generate", rep, None, |_| {
                handle.generate(InputSet::Train)
            });
            let profile = tracer.span("ecdp.profile", rep, None, |_| profile_workload(&train));
            let trace = tracer.span("workloads.generate", rep, None, |_| {
                handle.generate(InputSet::Test)
            });
            Input {
                name,
                trace,
                artifacts: CompilerArtifacts::from_profile(&profile),
                beneficial_pgs: profile.counts().0,
            }
        })
        .collect()
}

/// One untraced cell: the whole `SystemBuilder::run` call.
fn run_cell(input: &Input, system: SystemKind) -> Result<RunStats, String> {
    SystemBuilder::new(system)
        .artifacts(&input.artifacts)
        .run(&input.trace)
        .map(|r| r.stats)
        .map_err(|e| e.to_string())
}

/// The same cell with spans around machine construction and the run.
fn run_cell_traced(
    tracer: &Tracer,
    id: u64,
    input: &Input,
    system: SystemKind,
) -> (Result<RunStats, String>, f64) {
    let t0 = Instant::now();
    let run = tracer.span("grid.cell", id, None, |cell| {
        let mut machine = tracer.span("ecdp.system.build", id, cell, |_| {
            SystemBuilder::new(system)
                .artifacts(&input.artifacts)
                .build()
        });
        tracer.span("sim_core.machine.run", id, cell, |_| {
            machine.run(&input.trace)
        })
    });
    (run.map_err(|e| e.to_string()), secs(t0) * 1e3)
}

/// Runs whole passes over the grid, each in a seed-shuffled order, for
/// `ctx.seconds` (at least one pass). A pass is the workload's job.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new(1);
    let (inputs, setup_s) = repeat_setup(&mut clock, |rep| setup(tracer, rep as u64));
    out.setup_s = setup_s;

    let cells: Vec<(usize, SystemKind)> = (0..inputs.len())
        .flat_map(|w| DEFAULT_SYSTEMS.iter().map(move |&k| (w, k)))
        .collect();
    let mut stats: Vec<Option<RunStats>> = vec![None; cells.len()];
    // A round is a pass over the whole grid, and the workload's job.
    out.jobs_per_round = 1;
    // Untraced and traced milliseconds, for the tracing overhead.
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);

    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let started = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.shuffle(&mut rng);
        let pass = Instant::now();
        let mut pass_t = Timing::default();
        for &c in &order {
            let (w, system) = cells[c];
            let input = &inputs[w];
            let (result, t) = clock.time(|| run_cell(input, system));
            pass_t += t;
            plain_ms += t.raw_ms;
            let mut runs = vec![(result, t.raw_ms)];
            if ctx.traced {
                runs.push(run_cell_traced(tracer, c as u64, input, system));
                traced_ms += runs[1].1;
            }
            for (result, _) in runs {
                out.attempted += 1;
                match result {
                    Ok(s) => {
                        out.digest_stats(cell_key(input.name, "test", system), &s.summary());
                        stats[c].get_or_insert(s);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.check(format!("cell {}/{}", input.name, system.label()), false, e);
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
    out.cells_per_round = stats.iter().flatten().count() as u64;
    out.retired_per_round = stats.iter().flatten().map(|s| s.retired_instructions).sum();
    let by_cell: BTreeMap<(&str, &str), &RunStats> = cells
        .iter()
        .zip(&stats)
        .filter_map(|(&(w, k), s)| Some(((inputs[w].name, k.label()), s.as_ref()?)))
        .collect();
    model_checks(&mut out, &by_cell);
    if ctx.traced {
        layers(
            &mut out,
            tracer,
            &inputs,
            &cells,
            &stats,
            traced_ms / plain_ms.max(1e-9) - 1.0,
        );
    }
    out
}

/// Modelled metrics over the grid, and the check that ECDP ran with
/// real hints.
fn model_checks(out: &mut Outcome, by_cell: &BTreeMap<(&str, &str), &RunStats>) {
    let find = |name: &str, system: SystemKind| by_cell.get(&(name, system.label())).copied();
    let mut ipc = Vec::new();
    let mut bus = Vec::new();
    for name in WORKLOADS {
        if let (Some(base), Some(ours)) = (
            find(name, SystemKind::StreamOnly),
            find(name, SystemKind::StreamEcdpThrottled),
        ) {
            ipc.push(ours.ipc() / base.ipc());
            bus.push(ours.bpki() / base.bpki());
        }
    }
    out.ipc_gain = gmean(&ipc).unwrap_or(0.0);
    out.bus_ratio = gmean(&bus).unwrap_or(0.0);
    let (stream, ecdp) = (
        find("mst", SystemKind::StreamOnly).map(|s| s.cycles),
        find("mst", SystemKind::StreamEcdp).map(|s| s.cycles),
    );
    out.check(
        "mst stream+ecdp differs from stream (ECDP ran with profiled hints)",
        matches!((stream, ecdp), (Some(a), Some(b)) if a != b),
        format!("stream {stream:?} cycles, stream+ecdp {ecdp:?} cycles"),
    );
}

/// Per-layer metrics of the traced run.
fn layers(
    out: &mut Outcome,
    tracer: &Tracer,
    inputs: &[Input],
    cells: &[(usize, SystemKind)],
    stats: &[Option<RunStats>],
    overhead: f64,
) {
    let spans = tracer.spans();
    out.layer(
        "workloads.generate_ms",
        mean_ms(&spans, "workloads.generate"),
    );
    out.layer("ecdp.profile_ms", mean_ms(&spans, "ecdp.profile"));
    out.layer(
        "ecdp.beneficial_pgs",
        inputs.iter().map(|i| i.beneficial_pgs as f64).sum(),
    );

    // Host ns per trace op, per system, from the traced cells.
    let mut cell_ms = vec![0.0; cells.len()];
    let mut reps = vec![0usize; cells.len()];
    for s in spans.iter().filter(|s| s.name == "grid.cell") {
        let c = s.group as usize;
        cell_ms[c] += s.dur_ns() as f64 / 1e6;
        reps[c] += 1;
    }
    let ns_per_op = |system: SystemKind| -> f64 {
        let (mut ns, mut ops) = (0.0, 0.0);
        for (c, &(w, k)) in cells.iter().enumerate() {
            if k == system && reps[c] > 0 {
                ns += cell_ms[c] * 1e6 / reps[c] as f64;
                ops += inputs[w].trace.ops.len() as f64;
            }
        }
        ns / ops.max(1.0)
    };
    for system in DEFAULT_SYSTEMS {
        out.layer(
            format!("sim_core.ns_per_op.{}", metric_label(system)),
            ns_per_op(system),
        );
    }
    use SystemKind::*;
    let extra = |a: SystemKind, b: SystemKind| ns_per_op(a) - ns_per_op(b);
    out.layer(
        "prefetch.stream.extra_ns_per_op",
        extra(StreamOnly, NoPrefetch),
    );
    out.layer("prefetch.cdp.extra_ns_per_op", extra(StreamCdp, StreamOnly));
    out.layer(
        "prefetch.ecdp.extra_ns_per_op",
        extra(StreamEcdp, StreamOnly),
    );
    out.layer(
        "throttle.extra_ns_per_op",
        extra(StreamEcdpThrottled, StreamEcdp),
    );

    let (mut cycles, mut ms) = (0.0, 0.0);
    for (c, s) in stats.iter().enumerate() {
        if let (Some(s), true) = (s, reps[c] > 0) {
            cycles += s.cycles as f64;
            ms += cell_ms[c] / reps[c] as f64;
        }
    }
    out.layer("sim_core.sim_cycles_per_s", cycles / (ms / 1e3).max(1e-9));

    // Modelled CDP/ECDP prefetcher outcomes, summed over the grid.
    let cdp_totals = |system: SystemKind| -> (u64, u64) {
        cells
            .iter()
            .zip(stats)
            .filter(|((_, k), _)| *k == system)
            .filter_map(|(_, s)| s.as_ref()?.prefetchers.get(1).map(|p| (p.issued, p.used)))
            .fold((0, 0), |(i, u), (pi, pu)| (i + pi, u + pu))
    };
    let (cdp_issued, cdp_used) = cdp_totals(StreamCdp);
    let (ecdp_issued, ecdp_used) = cdp_totals(StreamEcdp);
    out.layer(
        "prefetch.cdp.accuracy",
        cdp_used as f64 / cdp_issued.max(1) as f64,
    );
    out.layer(
        "prefetch.ecdp.accuracy",
        ecdp_used as f64 / ecdp_issued.max(1) as f64,
    );
    out.layer("prefetch.ecdp.issued", ecdp_issued as f64);

    out.layer("trace.overhead_frac", overhead);
    out.layer("sim_core.run_fixed_ms", run_fixed_ms(tracer));
}
