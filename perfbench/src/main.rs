//! Host-local benchmark of the ECDP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ecdp-grid|cold-sweep|served-mix|mix2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark drives the program only
//! through its public functions and times the layers from outside, around
//! those calls. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the same work once untraced and once with spans, and prints the
//! per-layer metrics and the tracing overhead. The last line of standard
//! output is one JSON object. Every correctness check that fails makes
//! the run exit with status 1; bad arguments exit with status 2.

mod clock;
mod cold;
mod common;
mod grid;
mod mix2;
mod served;
mod spans;
mod specgen;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Ctx, Outcome};
use spans::Tracer;
use stats::{median, percentile};

/// Runs one workload and reports what it measured and checked.
type Workload = fn(&Ctx, &Tracer) -> Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("ecdp-grid", grid::run),
    ("cold-sweep", cold::run),
    ("served-mix", served::run),
    ("mix2", mix2::run),
];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
    ("ipc_gain_ecdp_thr", "ratio"),
    ("bus_ratio_ecdp_thr", "ratio"),
];

/// Per-layer metrics: name and unit. A workload that does not call a
/// layer reports 0 for it and says so.
const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.generate_ms", "ms"),
    ("workloads.loader_ms", "ms"),
    ("ecdp.profile_ms", "ms"),
    ("ecdp.beneficial_pgs", "count"),
    ("sim_core.run_fixed_ms", "ms"),
    ("sim_core.ns_per_op.no-pf", "ns/op"),
    ("sim_core.ns_per_op.stream", "ns/op"),
    ("sim_core.ns_per_op.stream-oracle", "ns/op"),
    ("sim_core.ns_per_op.stream-cdp", "ns/op"),
    ("sim_core.ns_per_op.stream-ecdp", "ns/op"),
    ("sim_core.ns_per_op.stream-cdp-throttle", "ns/op"),
    ("sim_core.ns_per_op.stream-ecdp-throttle", "ns/op"),
    ("sim_core.sim_cycles_per_s", "cycles/s"),
    ("sim_core.stream.ns_per_op", "ns/op"),
    ("sim_core.stream.resident_ns_per_op", "ns/op"),
    ("prefetch.stream.extra_ns_per_op", "ns/op"),
    ("prefetch.cdp.extra_ns_per_op", "ns/op"),
    ("prefetch.ecdp.extra_ns_per_op", "ns/op"),
    ("throttle.extra_ns_per_op", "ns/op"),
    ("prefetch.cdp.accuracy", "fraction"),
    ("prefetch.ecdp.accuracy", "fraction"),
    ("prefetch.ecdp.issued", "count"),
    ("multicore.ns_per_op", "ns/op"),
    ("sweep.phase.trace_gen_ms", "ms"),
    ("sweep.phase.profile_ms", "ms"),
    ("sweep.phase.sim_ms", "ms"),
    ("sweep.phase.store_ms", "ms"),
    ("sweep.phase.manifest_ms", "ms"),
    ("sweep.unattributed_frac", "fraction"),
    ("store.append_ms", "ms"),
    ("store.get_us", "us"),
    ("store.open_ms", "ms"),
    ("manifest.append_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.hit_frac", "fraction"),
    ("service.coalesced_frac", "fraction"),
    ("service.fresh_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

const USAGE: &str = "usage: perfbench --workload <ecdp-grid|cold-sweep|served-mix|mix2> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // Both `--flag value` and `--flag=value`.
        let (flag, value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, v),
            _ => (
                arg.as_str(),
                it.next()
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .as_str(),
            ),
        };
        match flag {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|(n, _)| *n == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(parse_seed(value)?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Any integer is a seed; a negative one keeps its two's-complement bits.
fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .or_else(|_| value.trim().parse::<i64>().map(|s| s as u64))
        .map_err(|_| format!("bad seed {value:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Legacy BENCH_* variables reconfigure the harness under test (fault
    // plans, checkpoint and trace caches); measuring with them set would
    // measure something else, so they are cleared before any harness call.
    let legacy: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BENCH_"))
        .collect();
    if !legacy.is_empty() {
        eprintln!("perfbench: ignoring {}", legacy.join(", "));
        for k in &legacy {
            std::env::remove_var(k);
        }
    }
    let (name, run) = WORKLOADS[args.workload];
    let out_root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: out_root.join(format!("{name}-{}", std::process::id())),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(ctx.work.join("lab")).expect("create the work directory");
    // Sweep manifests go under the work directory.
    bench::request::compat::install_overrides([(
        "BENCH_LAB_DIR".to_string(),
        ctx.work.join("lab").to_string_lossy().into_owned(),
    )])
    .expect("first install of the harness overrides");

    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    println!("provenance: {}", provenance(&ctx));
    let tracer = Tracer::new(ctx.traced);
    let outcome = run(&ctx, &tracer);
    let _ = std::fs::remove_dir_all(&ctx.work);

    if ctx.traced {
        let path = out_root
            .join("spans")
            .join(format!("{name}-seed{}.jsonl", ctx.seed));
        let spans = tracer.spans();
        match spans::write_jsonl(&spans, &path) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => println!("spans: write to {} failed: {e}", path.display()),
        }
    }
    report(name, &ctx, &tracer, outcome)
}

/// Prints the human-readable report and the final JSON line.
fn report(name: &str, ctx: &Ctx, tracer: &Tracer, mut out: Outcome) -> ExitCode {
    let e2e = end_to_end(&out);
    for (&(metric, unit), value) in END_TO_END.iter().zip(e2e) {
        let note = match metric {
            "setup_s" => format!(
                "  (median of {} set-ups: {})",
                out.setup_s.len(),
                join(&out.setup_s, 3)
            ),
            "job_p90_ms" => {
                let p = percentile(&out.jobs_ms, 0.9);
                let (n, beyond) = p.map_or((0, 0), |p| (p.n, p.beyond));
                let rule = if p.is_some_and(|p| p.meets_tail_rule()) {
                    ""
                } else {
                    "; fewer than 10 beyond p90, indicative only"
                };
                format!("  (n={n} jobs, {beyond} beyond p90{rule})")
            }
            "ipc_gain_ecdp_thr" => {
                "  (modelled; paper: +22.5% performance on its full suite)".to_string()
            }
            "bus_ratio_ecdp_thr" => {
                "  (modelled; paper: -25% bandwidth on its full suite)".to_string()
            }
            _ => String::new(),
        };
        println!("{metric} = {value} {unit}{note}");
    }
    println!(
        "note: the timing model is unvalidated against hardware; caches start empty; \
         ECDP hints are profiled on the train input and evaluated on the held-out test input"
    );
    let fail_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_rate = {fail_rate} fraction  ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    println!(
        "digest = {:016x}  (FNV-1a over {} simulated results)",
        out.digest_value(),
        out.digest.len()
    );
    let round_ms = |f: fn(&common::Timing) -> f64| {
        median(&out.rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    println!(
        "rounds: {} untraced, median {:.3} ms scaled, {:.3} ms unscaled",
        out.rounds.len(),
        round_ms(|t| t.ms),
        round_ms(|t| t.raw_ms),
    );
    println!(
        "host speed: calibration kernel median {:.4} ms over {} samples (reference {} ms)",
        median(&out.calibration_ms).unwrap_or(0.0),
        out.calibration_ms.len(),
        common::HostClock::REFERENCE_MS
    );
    for n in &out.notes {
        println!("note: {n}");
    }

    if ctx.traced {
        for (metric, unit) in PER_LAYER {
            match out.layers.get(metric) {
                Some(v) => println!("{metric} = {v} {unit}"),
                None => println!("{metric} = 0 {unit}  (not exercised by {name})"),
            }
        }
        let spans = tracer.spans();
        let mut roots: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            if let Some(u) = spans::unattributed_frac(&spans, root).filter(|&u| u < 1.0) {
                println!(
                    "span coverage {root}: {:.4} of its wall time lies in child spans",
                    1.0 - u
                );
            }
        }
        for (span, (own, count)) in spans::self_by_name(&spans) {
            println!(
                "self time {span}: {:.3} ms over {count} spans",
                own as f64 / 1e6
            );
        }
    }

    // Every value must be a finite number.
    let mut metrics: Vec<(&str, &str, f64)> = if ctx.traced {
        PER_LAYER
            .iter()
            .map(|&(m, u)| (m, u, out.layers.get(m).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(m, u), v)| (m, u, v))
            .collect()
    };
    for (m, _, v) in &mut metrics {
        if !v.is_finite() {
            out.check(format!("finite metric {m}"), false, format!("{v}"));
            *v = 0.0;
        }
    }
    let mut all_ok = out.failed == 0;
    for c in &out.checks {
        all_ok &= c.ok;
        if !c.ok {
            println!("FAIL {}: {}", c.name, c.detail);
        }
    }
    println!(
        "checks: {} passed, {} failed",
        out.checks.iter().filter(|c| c.ok).count(),
        out.checks.iter().filter(|c| !c.ok).count()
    );
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, u, v)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {all_ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1) + out.checks.len() as u64,
        out.failed + failed_checks,
        body.join(", ")
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end metrics of an outcome, in [`END_TO_END`] order.
/// Throughput is the work of one round over the median round.
fn end_to_end(out: &Outcome) -> [f64; END_TO_END.len()] {
    let rounds: Vec<f64> = out.rounds.iter().map(|t| t.ms).collect();
    let round_s = median(&rounds).unwrap_or(0.0).max(1e-9) / 1e3;
    [
        median(&out.setup_s).unwrap_or(0.0),
        out.cells_per_round as f64 / round_s,
        out.retired_per_round as f64 / 1e6 / round_s,
        median(&out.jobs_ms).unwrap_or(0.0),
        percentile(&out.jobs_ms, 0.9).map_or(0.0, |p| p.value),
        out.jobs_per_round as f64 / round_s,
        bench::hotpath::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0)),
        out.ipc_gain,
        out.bus_ratio,
    ]
}

fn join(xs: &[f64], digits: usize) -> String {
    xs.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Git revision (when the checkout is a repository), a fingerprint of the
/// sources, CPU model, thread count, toolchain, build profile and seed.
fn provenance(ctx: &Ctx) -> String {
    let command = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unavailable".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    format!(
        "git_rev={} source_fnv={:016x} cpu=\"{cpu}\" nproc={} rustc=\"{}\" profile={} seed={}",
        command("git", &["rev-parse", "--short=12", "HEAD"]),
        source_fingerprint(&[Path::new("crates"), Path::new("perfbench/src")]),
        ctx.nproc,
        command("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ctx.seed
    )
}

/// FNV-1a over the paths and contents of every file under `roots`, in
/// path order, so two checkouts of the same sources agree without git.
fn source_fingerprint(roots: &[&Path]) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for r in roots {
        walk(r, &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Json;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(j: &Json, key: &str, field: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect("string")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_prints() {
        let j = benchmark_json();
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units =
            |list: &[(&str, &str)]| list.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&j, "end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed(&j, "end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed(&j, "per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed(&j, "per_layer", "unit"), units(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed(&j, "workloads", "name"), workloads);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload mix2 --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (3, 7, 10.0, true)
        );
        let b = parse_args(&argv(
            "--workload=ecdp-grid --seed=-1 --seconds=2.5 --trace=0",
        ))
        .expect("valid");
        assert_eq!(
            (b.workload, b.seed, b.seconds, b.traced),
            (0, u64::MAX, 2.5, false)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mix2 --seed x --seconds 1 --trace 0",
            "--workload mix2 --seed 1 --seconds 0 --trace 0",
            "--workload mix2 --seed 1 --seconds 1 --trace 2",
            "--workload mix2 --seed 1 --seconds 1",
            "--workload mix2 --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
