//! `cold-sweep`: the CLI sweep path from a cold start. Every sweep gets a
//! fresh `Lab`, `ResultStore` and `ManifestWriter`, and runs the seven
//! default systems over builtin, generated-spec and streamed-trace
//! workloads on the test input with one worker per host thread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bench::{
    FaultPlan, Lab, ManifestWriter, ResultStore, RunOutcome, SweepOptions, SweepPlan,
    DEFAULT_SYSTEMS,
};
use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_core::{StatsSummary, Trace};
use workloads::{registry, InputSet, WorkloadHandle};

use crate::common::{cell_key, repeat_setup, run_fixed_ms, secs, Ctx, HostClock, Outcome, Timing};
use crate::spans::{durations_ms, mean_ms, self_ns, unattributed_frac, Tracer};
use crate::specgen::{spec_source, SPEC_WORKLOAD};
use crate::stats::{gmean, median};

/// Builtin workloads of the sweep: pointer-intensive ones and the
/// streaming control.
pub const BUILTINS: [&str; 4] = ["mst", "bisort", "perimeter", "libquantum"];
/// Builtin exported to an external trace in set-up.
pub const XTRC_SOURCE: &str = "treeadd";
/// Registry name of the exported trace (its file stem).
const XTRC_WORKLOAD: &str = "xtrc_treeadd";

struct Inputs {
    workloads: Vec<String>,
    /// The exported ops, kept resident for the streamed-vs-resident check.
    resident: Trace,
}

/// Writes and registers the seeded spec, and exports and registers the
/// external trace.
fn setup(ctx: &Ctx, tracer: &Tracer, rep: u64) -> Inputs {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir).expect("create the inputs directory");
    let spec = dir.join(format!("{SPEC_WORKLOAD}.wl"));
    std::fs::write(&spec, spec_source(ctx.seed)).expect("write the generated spec");
    register(tracer, rep, &spec);

    let handle = registry::lookup(XTRC_SOURCE).expect("builtin workload");
    let resident = tracer.span("workloads.generate", rep, None, |_| {
        handle.generate(InputSet::Test)
    });
    let xtrc = dir.join(format!("{XTRC_WORKLOAD}.xtrc"));
    let file = std::fs::File::create(&xtrc).expect("create the external trace");
    sim_core::stream::write_external(&resident, std::io::BufWriter::new(file))
        .expect("export the external trace");
    register(tracer, rep, &xtrc);

    let mut workloads: Vec<String> = BUILTINS.iter().map(ToString::to_string).collect();
    workloads.push(SPEC_WORKLOAD.to_string());
    workloads.push(XTRC_WORKLOAD.to_string());
    Inputs {
        workloads,
        resident,
    }
}

fn register(tracer: &Tracer, rep: u64, path: &Path) {
    tracer
        .span("workloads.loader", rep, None, |_| {
            registry::register_file(path)
        })
        .unwrap_or_else(|e| panic!("register {}: {e}", path.display()));
}

/// Paths of one sweep's store and manifest, removed before and after.
fn sweep_files(ctx: &Ctx, idx: u64) -> [PathBuf; 2] {
    [
        ctx.work.join(format!("cold-{idx}.store")),
        ctx.work.join("lab").join(format!("cold-{idx}.json")),
    ]
}

fn remove(files: &[PathBuf]) {
    for f in files {
        let _ = std::fs::remove_file(f);
    }
}

/// One untraced cold sweep through `SweepPlan::run_fault_tolerant`; the
/// caller times it.
fn sweep(ctx: &Ctx, plan: &SweepPlan, idx: u64) -> Vec<RunOutcome> {
    let files = sweep_files(ctx, idx);
    remove(&files);
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    let store = ResultStore::open(&files[0]);
    let writer = ManifestWriter::new(format!("cold-{idx}"));
    let opts = SweepOptions {
        writer: Some(&writer),
        store: Some(&store),
        ..SweepOptions::default()
    };
    let exec = plan.run_fault_tolerant(&lab, ctx.nproc, &opts);
    remove(&files);
    exec.outcomes
}

/// The same sweep split into its phases so that each gets a span: trace
/// generation and train profiling of the resident workload first, then
/// per cell, on one worker per host thread, the simulation, the store
/// append and the manifest flush.
fn sweep_traced(
    ctx: &Ctx,
    tracer: &Tracer,
    plan: &SweepPlan,
    resident: &[String],
    idx: u64,
) -> (Vec<RunOutcome>, f64) {
    let files = sweep_files(ctx, idx);
    remove(&files);
    let t0 = Instant::now();
    let outcomes = tracer.span("sweep", idx, None, |root| {
        let lab = Lab::with_checkpoints(FaultPlan::none(), None);
        let store = ResultStore::open(&files[0]);
        let writer = ManifestWriter::new(format!("cold-{idx}"));
        for w in resident {
            for input in [InputSet::Test, InputSet::Train] {
                tracer.span("workloads.generate", idx, root, |_| lab.trace(w, input));
            }
            tracer.span("ecdp.profile", idx, root, |_| lab.artifacts(w));
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<RunOutcome>> = plan.cells.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|s| {
            for _ in 0..ctx.nproc {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = plan.cells.get(i) else {
                        break;
                    };
                    let single = SweepPlan {
                        name: plan.name.clone(),
                        cells: vec![cell.clone()],
                    };
                    let outcome = tracer.span("sweep.sim", idx, root, |_| {
                        let mut exec = single.run_fault_tolerant(&lab, 1, &SweepOptions::default());
                        exec.outcomes.remove(0)
                    });
                    if let Some(record) = outcome.success() {
                        tracer.span("store.append", idx, root, |_| store.append(record, None));
                    }
                    tracer
                        .span("manifest.append", idx, root, |_| {
                            writer.append(i, outcome.clone())
                        })
                        .expect("manifest flush");
                    let _ = slots[i].set(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell ran"))
            .collect()
    });
    let s = secs(t0);
    remove(&files);
    (outcomes, s)
}

/// Runs rounds of cold sweeps, one sweep per workload in seed-shuffled
/// order, for `ctx.seconds` (at least one round); the traced run follows
/// each untraced sweep with a traced one. A sweep per workload keeps the
/// repeated unit short, so every unit repeats several times per run.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new(ctx.nproc);
    let (inputs, setup_s) = repeat_setup(&mut clock, |rep| setup(ctx, tracer, rep as u64));
    out.setup_s = setup_s;

    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let plans: Vec<SweepPlan> = inputs
        .workloads
        .iter()
        .map(|w| {
            let mut plan =
                SweepPlan::cross(format!("cold-{w}"), &[w], InputSet::Test, &DEFAULT_SYSTEMS);
            plan.cells.shuffle(&mut rng);
            plan
        })
        .collect();
    // A round is one cold sweep of every workload, and the workload's job.
    out.jobs_per_round = 1;

    let mut summaries: BTreeMap<(String, String), StatsSummary> = BTreeMap::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut idx = 0;
    let started = Instant::now();
    loop {
        let round = Instant::now();
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.shuffle(&mut rng);
        let mut round_t = Timing::default();
        for u in order {
            let plan = &plans[u];
            let workload = &inputs.workloads[u];
            let (outcomes, t) = clock.time(|| sweep(ctx, plan, idx));
            round_t += t;
            plain_ms += t.raw_ms;
            let mut sweeps = vec![outcomes];
            if ctx.traced {
                let resident = if *workload == XTRC_WORKLOAD {
                    &[][..]
                } else {
                    std::slice::from_ref(workload)
                };
                let (outcomes, s) = sweep_traced(ctx, tracer, plan, resident, idx + 1);
                traced_ms += s * 1e3;
                sweeps.push(outcomes);
            }
            idx += 2;
            for outcomes in sweeps {
                for o in outcomes {
                    out.attempted += 1;
                    match o {
                        RunOutcome::Success(r) => {
                            out.digest_stats(
                                format!("{}/{}/{}", r.workload, r.input, r.system),
                                &r.stats,
                            );
                            summaries.entry((r.workload, r.system)).or_insert(r.stats);
                        }
                        RunOutcome::Failed(f) => {
                            out.failed += 1;
                            out.check(format!("cell {}/{}", f.workload, f.system), false, f.error);
                        }
                    }
                }
            }
        }
        out.rounds.push(round_t);
        out.jobs_ms.push(round_t.ms);
        if secs(started) + secs(round) > ctx.seconds {
            break;
        }
    }
    out.calibration_ms = clock.samples;
    out.cells_per_round = summaries.len() as u64;
    out.retired_per_round = summaries.values().map(|s| s.retired_instructions).sum();

    let mut ipc = Vec::new();
    let mut bus = Vec::new();
    for w in &inputs.workloads {
        let get = |k: SystemKind| summaries.get(&(w.clone(), k.label().to_string()));
        if let (Some(base), Some(ours)) = (
            get(SystemKind::StreamOnly),
            get(SystemKind::StreamEcdpThrottled),
        ) {
            ipc.push(ours.ipc / base.ipc);
            bus.push(ours.bpki / base.bpki);
        }
    }
    out.ipc_gain = gmean(&ipc).unwrap_or(0.0);
    out.bus_ratio = gmean(&bus).unwrap_or(0.0);

    stream_check(&mut out, tracer, &inputs.resident, &summaries);
    if ctx.traced {
        layers(
            &mut out,
            tracer,
            &inputs.resident,
            plans.len(),
            traced_ms / plain_ms.max(1e-9) - 1.0,
        );
    }
    out
}

/// The streamed external trace must replay exactly like its resident ops,
/// both through `SystemBuilder` and through the sweep.
fn stream_check(
    out: &mut Outcome,
    tracer: &Tracer,
    resident: &Trace,
    summaries: &BTreeMap<(String, String), StatsSummary>,
) {
    let Some(WorkloadHandle::Streamed(source)) = registry::lookup(XTRC_WORKLOAD) else {
        panic!("{XTRC_WORKLOAD} is not a registered external trace");
    };
    let empty = CompilerArtifacts::empty();
    for system in DEFAULT_SYSTEMS {
        let build = || SystemBuilder::new(system).artifacts(&empty);
        let streamed = tracer.span("sim_core.run_streamed", 0, None, |_| {
            let mut trace = source.open().expect("open the external trace");
            build().run_streamed(&mut trace)
        });
        let replay = tracer.span("sim_core.run_resident", 0, None, |_| build().run(resident));
        let key = cell_key(XTRC_WORKLOAD, "test", system);
        let (ok, detail) = match (streamed, replay) {
            (Ok(s), Ok(r)) => {
                let swept = summaries.get(&(XTRC_WORKLOAD.to_string(), system.label().to_string()));
                (
                    s.stats == r.stats && swept == Some(&r.stats.summary()),
                    format!(
                        "{} cycles resident, {} streamed",
                        r.stats.cycles, s.stats.cycles
                    ),
                )
            }
            (s, r) => (
                false,
                format!("streamed {:?}, resident {:?}", s.err(), r.err()),
            ),
        };
        out.check(format!("streamed equals resident: {key}"), ok, detail);
    }
}

/// Per-layer metrics of the traced run.
fn layers(out: &mut Outcome, tracer: &Tracer, resident: &Trace, per_round: usize, overhead: f64) {
    let spans = tracer.spans();
    let own = self_ns(&spans);
    // Phase times are per round: one sweep of every workload.
    let rounds = spans.iter().filter(|s| s.name == "sweep").count() as f64 / per_round as f64;
    let phase_ms = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.parent.is_some_and(|p| spans[p].name == "sweep"))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum::<f64>()
            / rounds.max(1.0)
    };
    out.layer("sweep.phase.trace_gen_ms", phase_ms("workloads.generate"));
    out.layer("sweep.phase.profile_ms", phase_ms("ecdp.profile"));
    out.layer("sweep.phase.sim_ms", phase_ms("sweep.sim"));
    out.layer("sweep.phase.store_ms", phase_ms("store.append"));
    out.layer("sweep.phase.manifest_ms", phase_ms("manifest.append"));
    out.layer(
        "sweep.unattributed_frac",
        unattributed_frac(&spans, "sweep").unwrap_or(0.0),
    );
    let p50 = |name: &str| median(&durations_ms(&spans, name)).unwrap_or(0.0);
    out.layer("store.append_ms", p50("store.append"));
    out.layer("manifest.append_ms", p50("manifest.append"));
    out.layer("workloads.loader_ms", mean_ms(&spans, "workloads.loader"));
    out.layer(
        "workloads.generate_ms",
        mean_ms(&spans, "workloads.generate"),
    );
    out.layer("ecdp.profile_ms", mean_ms(&spans, "ecdp.profile"));
    let ops = resident.ops.len() as f64;
    let ns_per_op = |name: &str| mean_ms(&spans, name) * 1e6 / ops.max(1.0);
    out.layer(
        "sim_core.stream.ns_per_op",
        ns_per_op("sim_core.run_streamed"),
    );
    out.layer(
        "sim_core.stream.resident_ns_per_op",
        ns_per_op("sim_core.run_resident"),
    );
    out.layer("trace.overhead_frac", overhead);
    out.layer("sim_core.run_fixed_ms", run_fixed_ms(tracer));
}
