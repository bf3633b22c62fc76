//! `served-mix`: a lockstep closed loop of two clients against one
//! in-process `SweepService`. Every epoch starts the service on a copy of
//! the same pre-seeded result store; each round, both clients submit one
//! job each and wait for it, and the jobs are drawn so that every job
//! mixes store hits, a cell shared with the other client (queued by one,
//! coalesced by the other) and fresh cells.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bench::{
    config_hash, FaultPlan, JobStatus, Lab, ResultStore, RunOutcome, RunRecord, SweepOptions,
    SweepPlan, SweepRequest, SweepService,
};
use ecdp::system::{SystemBuilder, SystemKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_core::StatsSummary;
use workloads::InputSet;

use crate::common::{cell_key, repeat_setup, run_fixed_ms, secs, Ctx, HostClock, Outcome, Timing};
use crate::spans::{durations_ms, Tracer};
use crate::stats::{gmean, median};

/// Workloads the clients request, on the test input.
pub const POOL: [&str; 6] = ["health", "perimeter", "treeadd", "em3d", "bisort", "power"];
/// Systems whose cells the seeded store already holds.
const SEEDED: [SystemKind; 3] = [
    SystemKind::NoPrefetch,
    SystemKind::StreamOnly,
    SystemKind::OracleLds,
];
/// Systems whose cells each epoch simulates afresh.
const FRESH: [SystemKind; 4] = [
    SystemKind::StreamCdp,
    SystemKind::StreamEcdp,
    SystemKind::StreamCdpThrottled,
    SystemKind::StreamEcdpThrottled,
];
const CLIENTS: usize = 2;
/// Jobs a run must complete so that ten samples lie beyond p90.
pub const MIN_JOBS: usize = 100;
/// A job still running after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The two jobs of one round: one workload, one system list per client.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Workload both jobs request.
    pub workload: &'static str,
    /// Systems each client requests.
    pub systems: [Vec<SystemKind>; CLIENTS],
}

/// One epoch's rounds. Per workload, each fresh system is requested in
/// exactly one round: as the cell both clients share, or as one client's
/// private cell; each job adds two cells the store already holds.
pub fn epoch_rounds(rng: &mut StdRng) -> Vec<Round> {
    let mut pool = POOL.to_vec();
    pool.shuffle(rng);
    let mut rounds = Vec::new();
    for workload in pool {
        let mut fresh = FRESH.to_vec();
        fresh.shuffle(rng);
        let mut stored = SEEDED.to_vec();
        while let Some(shared) = fresh.pop() {
            let private = [fresh.pop(), fresh.pop()];
            let systems = private.map(|own| {
                let mut hits = stored.clone();
                hits.shuffle(rng);
                let mut s = vec![shared];
                s.extend(own);
                s.extend(hits.into_iter().take(2));
                s
            });
            stored.push(shared);
            stored.extend(private.into_iter().flatten());
            rounds.push(Round { workload, systems });
        }
    }
    rounds
}

/// Fills a store with the seeded cells; the lab is kept to verify
/// served records against fresh simulations.
fn setup(ctx: &Ctx, path: &Path) -> Lab {
    let _ = std::fs::remove_file(path);
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    let store = ResultStore::open(path);
    let plan = SweepPlan::cross("served-seed", &POOL, InputSet::Test, &SEEDED);
    let exec = plan.run_fault_tolerant(
        &lab,
        ctx.nproc,
        &SweepOptions {
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 0, "seeding the store failed");
    lab
}

/// What one job returned.
struct JobResult {
    ms: f64,
    status: Option<JobStatus>,
    records: Vec<RunRecord>,
    failures: Vec<String>,
}

struct Epoch {
    jobs: Vec<JobResult>,
    secs: f64,
    simulated: usize,
}

/// One epoch: a service on a fresh copy of the seeded store, both
/// clients running every round.
fn epoch(ctx: &Ctx, tracer: &Tracer, seed_store: &Path, rounds: &[Round], idx: u64) -> Epoch {
    let path = ctx.work.join("served-epoch.store");
    let _ = std::fs::remove_file(&path);
    std::fs::copy(seed_store, &path).expect("copy the seeded store");
    let store = tracer.span("store.open", idx, None, |_| ResultStore::open(&path));
    let service = SweepService::start(Some(Arc::new(store)), ctx.nproc);
    let barrier = Barrier::new(CLIENTS);
    let t0 = Instant::now();
    let per_client: Vec<Vec<JobResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, barrier) = (&service, &barrier);
                s.spawn(move || {
                    rounds
                        .iter()
                        .enumerate()
                        .map(|(r, round)| {
                            barrier.wait();
                            let group =
                                (idx * rounds.len() as u64 + r as u64) * CLIENTS as u64 + c as u64;
                            client_job(tracer, service, round.workload, &round.systems[c], group)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = secs(t0);
    let simulated = service.cells_simulated();
    service.shutdown();
    let _ = std::fs::remove_file(&path);
    Epoch {
        jobs: per_client.into_iter().flatten().collect(),
        secs,
        simulated,
    }
}

/// Submits one job and waits until it is done.
fn client_job(
    tracer: &Tracer,
    service: &SweepService,
    workload: &str,
    systems: &[SystemKind],
    group: u64,
) -> JobResult {
    let request = SweepRequest::default()
        .with_workloads(&[workload])
        .with_input(InputSet::Test)
        .with_systems(systems);
    let t0 = Instant::now();
    let job = tracer.span("service.job", group, None, |root| {
        let job = tracer.span("service.submit", group, root, |_| service.submit(request))?;
        tracer.span("service.wait", group, root, |_| {
            let mut seen = 0;
            loop {
                let (events, done) = job.wait_events(seen, Duration::from_millis(500));
                seen += events.len();
                if done || t0.elapsed() > JOB_TIMEOUT {
                    break;
                }
            }
        });
        Ok::<_, String>(job)
    });
    let ms = secs(t0) * 1e3;
    let job = match job {
        Ok(job) => job,
        Err(e) => {
            return JobResult {
                ms,
                status: None,
                records: Vec::new(),
                failures: vec![e],
            }
        }
    };
    let mut records = Vec::new();
    let mut failures = Vec::new();
    match job.manifest() {
        Some(m) => {
            for o in m.records {
                match o {
                    RunOutcome::Success(r) => records.push(r),
                    RunOutcome::Failed(f) => {
                        failures.push(format!("{}/{}: {}", f.workload, f.system, f.error))
                    }
                }
            }
        }
        None => failures.push(format!("job {} not done after {JOB_TIMEOUT:?}", job.id())),
    }
    // The traced run also times store reads of the cells just served.
    if let Some(store) = service.store().filter(|_| tracer.is_enabled()) {
        for r in &records {
            tracer.span("store.get", group, None, |_| {
                store.get(&r.workload, &r.input, &r.system, config_hash())
            });
        }
    }
    JobResult {
        ms,
        status: Some(job.status()),
        records,
        failures,
    }
}

/// Runs whole epochs for `ctx.seconds` and until at least [`MIN_JOBS`]
/// jobs are done; the traced run follows each untraced epoch with a
/// traced one.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed_store: PathBuf = ctx.work.join("served-seed.store");
    let mut clock = HostClock::new(ctx.nproc);
    let (lab, setup_s) = repeat_setup(&mut clock, |_| setup(ctx, &seed_store));
    out.setup_s = setup_s;

    let off = Tracer::off();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut served: BTreeMap<String, (String, SystemKind, StatsSummary)> = BTreeMap::new();
    let (mut requested, mut hits, mut coalesced, mut queued) = (0, 0, 0, 0);
    let mut traced_s = Vec::new();
    // Untraced epochs: the clock's timing and the job latencies.
    let mut untraced: Vec<(Timing, Vec<f64>)> = Vec::new();
    let started = Instant::now();
    for idx in 0.. {
        let round = Instant::now();
        let rounds = epoch_rounds(&mut rng);
        // The clock's scale for the epoch applies to its service time
        // and to its jobs.
        let (plain, t) = clock.time(|| epoch(ctx, &off, &seed_store, &rounds, idx));
        let scale = t.ms / t.raw_ms.max(1e-9);
        let mut epochs = vec![(plain, false)];
        if ctx.traced {
            epochs.push((epoch(ctx, tracer, &seed_store, &rounds, idx), true));
        }
        for (e, traced) in epochs {
            let fresh_cells = FRESH.len() * POOL.len();
            out.check(
                format!(
                    "epoch {idx}{}: each fresh cell simulated once",
                    if traced { " (traced)" } else { "" }
                ),
                e.simulated == fresh_cells,
                format!("{} cells simulated, {fresh_cells} expected", e.simulated),
            );
            let mut latencies = Vec::new();
            for job in e.jobs {
                out.attempted += 1;
                if !job.failures.is_empty() {
                    out.failed += 1;
                    out.check("served job", false, job.failures.join("; "));
                }
                if let Some(s) = job.status {
                    requested += s.total;
                    hits += s.hits;
                    coalesced += s.coalesced;
                    queued += s.queued;
                }
                latencies.push(job.ms);
                for r in job.records {
                    let Some(system) = SystemKind::from_label(&r.system) else {
                        out.check(
                            "served record",
                            false,
                            format!("unknown system {}", r.system),
                        );
                        continue;
                    };
                    let key = cell_key(&r.workload, &r.input, system);
                    out.digest_stats(key.clone(), &r.stats);
                    served.entry(key).or_insert((r.workload, system, r.stats));
                }
            }
            if traced {
                traced_s.push(e.secs);
            } else {
                let ms = e.secs * 1e3;
                let timing = Timing {
                    ms: ms * scale,
                    raw_ms: ms,
                };
                untraced.push((timing, latencies.iter().map(|l| l * scale).collect()));
            }
        }
        let jobs_done: usize = untraced.iter().map(|(_, l)| l.len()).sum();
        if secs(started) + secs(round) > ctx.seconds && jobs_done >= MIN_JOBS {
            break;
        }
    }
    // A round is an epoch: it simulates every fresh cell once and serves
    // the same number of cells and jobs.
    let epochs = untraced.len() + traced_s.len();
    out.cells_per_round = requested as u64 / epochs.max(1) as u64;
    out.jobs_per_round = (CLIENTS * 2 * POOL.len()) as u64;
    out.retired_per_round = served
        .values()
        .filter(|(_, k, _)| FRESH.contains(k))
        .map(|(_, _, s)| s.retired_instructions)
        .sum();
    let untraced_s: Vec<f64> = untraced.iter().map(|(t, _)| t.raw_ms / 1e3).collect();
    for (t, latencies) in untraced {
        out.rounds.push(t);
        out.jobs_ms.extend(latencies);
    }
    out.calibration_ms = clock.samples;

    verify(&mut out, &lab, &served);
    let mut ipc = Vec::new();
    let mut bus = Vec::new();
    for w in POOL {
        let get = |k| served.get(&cell_key(w, "test", k)).map(|(_, _, s)| s);
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

    if ctx.traced {
        let spans = tracer.spans();
        let p50 = |name: &str| median(&durations_ms(&spans, name)).unwrap_or(0.0);
        out.layer("store.open_ms", p50("store.open"));
        out.layer("store.get_us", p50("store.get") * 1e3);
        out.layer("service.submit_us", p50("service.submit") * 1e3);
        let share = |n: usize| n as f64 / requested.max(1) as f64;
        out.layer("service.hit_frac", share(hits));
        out.layer("service.coalesced_frac", share(coalesced));
        out.layer("service.fresh_frac", share(queued));
        out.layer(
            "trace.overhead_frac",
            median(&traced_s).unwrap_or(0.0) / median(&untraced_s).unwrap_or(0.0).max(1e-9) - 1.0,
        );
        out.layer("sim_core.run_fixed_ms", run_fixed_ms(tracer));
    }
    out.notes.push(format!(
        "{} epochs; cells requested {requested}: {hits} store hits, {coalesced} coalesced, {queued} queued",
        untraced_s.len() + traced_s.len()
    ));
    out
}

/// Every served record must equal a fresh simulation of its cell.
fn verify(
    out: &mut Outcome,
    lab: &Lab,
    served: &BTreeMap<String, (String, SystemKind, StatsSummary)>,
) {
    for (key, (workload, system, stats)) in served {
        let trace = lab.trace(workload, InputSet::Test);
        let artifacts = lab.artifacts(workload);
        let fresh = SystemBuilder::new(*system)
            .artifacts(&artifacts)
            .run(&trace);
        let (ok, detail) = match fresh {
            Ok(run) => (
                run.stats.summary() == *stats,
                format!("{} cycles served, {} fresh", stats.cycles, run.stats.cycles),
            ),
            Err(e) => (false, e.to_string()),
        };
        out.check(format!("served equals fresh: {key}"), ok, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_mixes_two_hits_with_a_shared_cell_and_fresh_cells_run_once() {
        let rounds = epoch_rounds(&mut StdRng::seed_from_u64(3));
        assert_eq!(rounds.len(), 2 * POOL.len());
        let by_label = |v: &mut Vec<SystemKind>| v.sort_by_key(|k| k.label());
        for w in POOL {
            let mut stored = SEEDED.to_vec();
            let mut requested_fresh = Vec::new();
            for r in rounds.iter().filter(|r| r.workload == w) {
                assert_eq!(r.systems[0][0], r.systems[1][0], "the first cell is shared");
                let mut new = Vec::new();
                for s in &r.systems {
                    assert_eq!(s.iter().filter(|k| stored.contains(k)).count(), 2);
                    let fresh: Vec<_> = s.iter().filter(|k| !stored.contains(k)).copied().collect();
                    assert!(fresh.len() <= 2 && fresh[0] == s[0], "{s:?}");
                    new.extend(fresh);
                }
                by_label(&mut new);
                new.dedup();
                requested_fresh.extend(&new);
                stored.extend(new);
            }
            by_label(&mut requested_fresh);
            let mut all = FRESH.to_vec();
            by_label(&mut all);
            assert_eq!(requested_fresh, all);
        }
    }

    #[test]
    fn rounds_follow_the_seed() {
        let draw = |seed| epoch_rounds(&mut StdRng::seed_from_u64(seed));
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
