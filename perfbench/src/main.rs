//! One benchmark for the KubeShare reproduction: three workloads, each
//! driving the system only through its public entry points, with host
//! end-to-end metrics from an untraced run and per-layer attribution
//! from a traced one.
//!
//! Usage: `ks-perfbench --workload <gateway_fleet|sched_burst|token_share>
//! --seed N --seconds S --trace <0|1> [--scale <full|smoke>] [--out-dir D]
//! [--rate N]`; `--rate` sets `gateway_fleet`'s fresh submissions per
//! simulated second, which sizes its cluster (167 → 472 GPUs).
//!
//! A run repeats trials of fixed work while the next one still fits in
//! `--seconds`. With `--trace 0` every trial is untraced and the
//! end-to-end metrics are printed; with `--trace 1` untraced and traced
//! trials alternate in ABBA order, the per-layer metrics come from the
//! traced ones, and the traced spans are written to `--out-dir`. Every
//! trial must pass its workload's correctness gate and produce the same
//! outcome digest, and a traced run must attribute at least
//! [`MIN_COVERAGE`] of its measured wall time to named layers; the last
//! line of standard output is the JSON result, and the exit code is
//! non-zero on any breach.

mod common;
mod gateway_fleet;
mod prof;
mod sched_burst;
mod token_share;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{quantile, Scale, Trial};
use prof::{Layer, LayerStat};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GatewayFleet,
    SchedBurst,
    TokenShare,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "gateway_fleet" => Some(Workload::GatewayFleet),
            "sched_burst" => Some(Workload::SchedBurst),
            "token_share" => Some(Workload::TokenShare),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GatewayFleet => "gateway_fleet",
            Workload::SchedBurst => "sched_burst",
            Workload::TokenShare => "token_share",
        }
    }

    fn trial(self, args: &Args, traced: bool) -> Trial {
        let (seed, scale) = (args.seed, args.scale);
        match self {
            Workload::GatewayFleet => gateway_fleet::run(seed, scale, traced, args.rate),
            Workload::SchedBurst => sched_burst::run(seed, scale, traced),
            Workload::TokenShare => token_share::run(seed, scale, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    rate: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut rate = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            "--scale" => {
                scale = match val.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale takes full or smoke, got {val}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(val),
            "--rate" => {
                let r = val.parse::<u64>().map_err(|e| format!("--rate: {e}"))?;
                if r == 0 {
                    return Err("--rate must be positive".to_string());
                }
                rate = Some(r);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out_dir,
        rate,
    })
}

/// Trials in a run, at least: enough set-ups for a median, and in a
/// traced run one of each lane. The workloads are sized so that this
/// many fit in `run_seconds` of `BENCHMARK.json`.
const MIN_TRIALS: usize = 3;
const MIN_TRACED_TRIALS: usize = 2;

/// Lane of each trial in a traced run, repeating: untraced, traced,
/// traced, untraced.
const ABBA: [bool; 4] = [false, true, true, false];

/// Share of a traced run's measured wall time the named layers must
/// account for; below it the attribution is a failure.
const MIN_COVERAGE: f64 = 0.95;

/// Percentiles tried for the scheduling-call tail, highest first. The
/// ladder stops at p99: above it, samples of microsecond-scale calls
/// (`token_share` decides in ~10 µs) measure the machine's scheduling
/// jitter, not the program.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile with at least ten samples above it.
fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Host latency of the workload's scheduling call over these trials:
/// (p50 ms, tail ms, tail percentile, samples).
fn sched_latency<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> (f64, f64, f64, usize) {
    let samples: Vec<f64> = trials
        .into_iter()
        .flat_map(|t| t.sched_ms.iter().copied())
        .collect();
    let p_tail = tail_percentile(samples.len());
    (
        quantile(&samples, 0.5),
        quantile(&samples, p_tail / 100.0),
        p_tail,
        samples.len(),
    )
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Units per host second sustained in nine of ten measured windows (the
/// 10th percentile over every window of these trials). On a shared
/// machine the window rates are bimodal: a contended floor that every
/// run reaches, and faster stretches whose share varies from run to run.
/// Over ten seeds the median moved 0.18–0.25 (IQR over median) on
/// `token_share` where the low percentile moved 0.06–0.09.
fn units_per_s<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> f64 {
    quantile(&window_rates(trials), 0.1)
}

fn window_rates<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> Vec<f64> {
    trials
        .into_iter()
        .flat_map(|t| t.windows.iter().map(|&(u, s)| u as f64 / s))
        .collect()
}

/// `peak_rss_mb` is the process's peak after its first trial: later
/// trials rebuild the same world, and how many fit depends on the
/// machine's speed, so the peak at exit would too.
fn end_to_end(trials: &[Trial], peak_rss_mb: f64) -> (Vec<Metric>, String) {
    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    let (p50, tail, p_tail, n) = sched_latency(trials);
    let sim = &trials[0].sim;
    let rates = window_rates(trials);
    let note = format!(
        "windows: {} (median {:.1} units/s); scheduling call: p50 {p50:.6} ms, \
         p{p_tail} {tail:.6} ms (n={n}); sim_startup_p99_s {:.6}; \
         failed_ratio {:.6} ({} refused or rejected of {} attempted)",
        rates.len(),
        median(&rates),
        sim.startup_p99_s,
        sim.refused as f64 / sim.attempted.max(1) as f64,
        sim.refused,
        sim.attempted
    );
    let metrics = vec![
        metric("setup_s", median(&setup), "s"),
        metric("units_per_s", units_per_s(trials), "units/s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("sim_startup_mean_s", sim.startup_mean_s, "s"),
        metric("sim_gpu_efficiency", sim.gpu_efficiency, "ratio"),
        metric("sim_jobs_per_min", sim.jobs_per_min, "jobs/min"),
    ];
    (metrics, note)
}

/// Mean over traced trials of one layer's stat.
fn layer_mean(traced: &[&Trial], layer: Layer) -> LayerStat {
    let n = traced.len() as u64;
    let sum = traced.iter().fold(LayerStat::default(), |acc, t| {
        let s = t.prof.stat(layer);
        LayerStat {
            calls: acc.calls + s.calls,
            busy_ns: acc.busy_ns + s.busy_ns,
        }
    });
    LayerStat {
        calls: sum.calls / n,
        busy_ns: sum.busy_ns / n as f64,
    }
}

fn count(t: &Trial, name: &str) -> f64 {
    t.counts
        .iter()
        .find(|(k, _)| *k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

fn per_layer(trials: &[Trial]) -> (Vec<Metric>, String) {
    let traced: Vec<&Trial> = trials.iter().filter(|t| t.prof.is_on()).collect();
    let untraced_ups = units_per_s(trials.iter().filter(|t| !t.prof.is_on()));
    let (call_p50, call_tail, _, _) = sched_latency(trials.iter().filter(|t| !t.prof.is_on()));
    let traced_ups = units_per_s(traced.iter().copied());
    let st = |l: Layer| layer_mean(&traced, l);
    let c = |name: &str| count(traced[0], name);
    let per = |busy: f64, n: f64| if n > 0.0 { busy / n } else { 0.0 };
    let measured_ns = traced.iter().map(|t| t.measured_s).sum::<f64>() / traced.len() as f64 * 1e9;
    let attributed =
        traced.iter().map(|t| t.prof.attributed_ns()).sum::<f64>() / traced.len() as f64;
    let sim_events = st(Layer::SimPop).calls as f64;
    let decide = st(Layer::SchedDecide);
    let drain = st(Layer::SchedDrain);
    let sched_decided = c("sched.decided");
    let bind = st(Layer::ClusterBind);
    let attempts = st(Layer::ClusterScheduleAttempt);
    let vgpu = st(Layer::VgpuHandle);
    let grants = c("vgpu.grants");

    let metrics = vec![
        metric(
            "gateway.submit_calls",
            st(Layer::GatewaySubmit).calls as f64,
            "count",
        ),
        metric(
            "gateway.submit_ns",
            st(Layer::GatewaySubmit).mean_ns(),
            "ns",
        ),
        metric("gateway.refused", c("gateway.refused"), "count"),
        metric(
            "gateway.pump_ns_per_decided",
            per(st(Layer::GatewayPump).busy_ns, c("gateway.decided")),
            "ns",
        ),
        metric("gateway.preempted", c("gateway.preempted"), "count"),
        metric("gateway.readmitted", c("gateway.readmitted"), "count"),
        metric("sched.call_ms_p50", call_p50, "ms"),
        metric("sched.call_ms_tail", call_tail, "ms"),
        metric("sched.decided", sched_decided, "count"),
        metric("sched.rejected", c("sched.rejected"), "count"),
        metric(
            "sched.ns_per_decision",
            per(
                decide.busy_ns + drain.busy_ns,
                c("sched.event_decided") + c("sched.drain_decided"),
            ),
            "ns",
        ),
        metric("sched.drain_busy_s", drain.busy_ns / 1e9, "s"),
        metric("sched.decide_event_ns", decide.mean_ns(), "ns"),
        metric("sched.new_vgpu", c("sched.new_vgpu"), "count"),
        metric(
            "devmgr.create_pod_ns",
            st(Layer::DevmgrCreatePod).mean_ns(),
            "ns",
        ),
        metric("devmgr.delete_ns", st(Layer::DevmgrDelete).mean_ns(), "ns"),
        metric("devmgr.vgpu_released", c("devmgr.vgpu_released"), "count"),
        metric("devmgr.faults", c("devmgr.faults"), "count"),
        metric(
            "partition.reconfigs",
            st(Layer::PartitionActivate).calls as f64,
            "count",
        ),
        metric(
            "partition.fragmentation",
            c("partition.fragmentation"),
            "ratio",
        ),
        metric("cluster.schedule_attempts", attempts.calls as f64, "count"),
        metric("cluster.schedule_attempt_ns", attempts.mean_ns(), "ns"),
        metric(
            "cluster.attempts_per_bind",
            if bind.calls > 0 {
                attempts.calls as f64 / bind.calls as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric("cluster.bind_ns", bind.mean_ns(), "ns"),
        metric(
            "cluster.started_ns",
            st(Layer::ClusterStarted).mean_ns(),
            "ns",
        ),
        metric(
            "cluster.stopped_ns",
            st(Layer::ClusterStopped).mean_ns(),
            "ns",
        ),
        metric("vgpu.handle_calls", vgpu.calls as f64, "count"),
        metric("vgpu.handle_ns", vgpu.mean_ns(), "ns"),
        metric("vgpu.grants", grants, "count"),
        metric("vgpu.ns_per_grant", per(vgpu.busy_ns, grants), "ns"),
        metric(
            "vgpu.submit_burst_ns",
            st(Layer::VgpuSubmitBurst).mean_ns(),
            "ns",
        ),
        metric(
            "workloads.step_ns",
            st(Layer::WorkloadsStep).mean_ns(),
            "ns",
        ),
        metric("sim.events", sim_events, "count"),
        metric("sim.pop_ns", st(Layer::SimPop).mean_ns(), "ns"),
        metric(
            "sim.push_ns",
            per(st(Layer::SimPush).busy_ns, sim_events),
            "ns",
        ),
        metric(
            "telemetry.scrape_ns",
            st(Layer::TelemetryScrape).mean_ns(),
            "ns",
        ),
        metric("telemetry.slo_ns", st(Layer::TelemetrySlo).mean_ns(), "ns"),
        metric("trace.coverage", attributed / measured_ns, "ratio"),
        metric("trace.overhead", 1.0 - traced_ups / untraced_ups, "ratio"),
    ];

    let mut table =
        String::from("layer                       calls      busy_ms   mean_ns  share\n");
    for l in Layer::ALL {
        let s = st(l);
        if s.calls == 0 {
            continue;
        }
        table.push_str(&format!(
            "{:<24} {:>10} {:>12.1} {:>9.0} {:>6.1}%\n",
            l.name(),
            s.calls,
            s.busy_ns / 1e6,
            s.mean_ns(),
            100.0 * s.busy_ns / measured_ns
        ));
    }
    table.push_str(&format!(
        "measured phase {:.1} ms per traced trial, {:.1}% attributed",
        measured_ns / 1e6,
        100.0 * attributed / measured_ns
    ));
    (metrics, table)
}

fn write_spans(args: &Args, trials: &[Trial]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut w = BufWriter::new(fs::File::create(&path)?);
    for (i, t) in trials.iter().enumerate().filter(|(_, t)| t.prof.is_on()) {
        t.prof.write_spans(&mut w, i)?;
    }
    w.flush()?;
    Ok(path)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut trials: Vec<Trial> = Vec::new();
    // The longest trial so far predicts the next one, traced or not.
    let mut longest_s: f64 = 0.0;
    let mut first_peak_rss_mb = 0.0;
    loop {
        let traced = args.trace && ABBA[trials.len() % ABBA.len()];
        let t0 = Instant::now();
        let trial = args.workload.trial(&args, traced);
        let trial_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "trial {} ({}): setup {:.3}s, measured {:.3}s, {} units",
            trials.len(),
            if traced { "traced" } else { "untraced" },
            trial.setup_s,
            trial.measured_s,
            trial.units
        );
        trials.push(trial);
        if trials.len() == 1 {
            first_peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
        }
        longest_s = longest_s.max(trial_s);
        let min = if args.trace {
            MIN_TRACED_TRIALS
        } else {
            MIN_TRIALS
        };
        let next_fits = start.elapsed().as_secs_f64() + longest_s <= args.seconds;
        if trials.len() >= min && !next_fits {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    for (i, t) in trials.iter().enumerate() {
        failures.extend(t.failures.iter().map(|f| format!("trial {i}: {f}")));
        if t.sim != trials[0].sim {
            failures.push(format!(
                "trial {i}: outcome differs from trial 0 ({:?} vs {:?})",
                t.sim, trials[0].sim
            ));
        }
    }

    let (metrics, report) = if args.trace {
        per_layer(&trials)
    } else {
        end_to_end(&trials, first_peak_rss_mb)
    };
    if args.trace {
        let coverage = metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .map_or(0.0, |m| m.value);
        if coverage < MIN_COVERAGE {
            failures.push(format!(
                "trace.coverage {coverage:.4} is below {MIN_COVERAGE}: \
                 the named layers miss too much of the measured time"
            ));
        } else if coverage > 1.0 {
            eprintln!(
                "note: trace.coverage {coverage:.4} is above 1, the sampling error \
                 of the hot layers' estimate"
            );
        }
    }
    println!(
        "{} seed {} ({:?} scale): {} trials, digest {:016x}",
        args.workload.name(),
        args.seed,
        args.scale,
        trials.len(),
        trials[0].sim.digest
    );
    println!("{report}");
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_spans(&args, &trials) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing spans: {e}")),
        }
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }

    let attempted: u64 = trials.iter().map(|t| t.units).sum();
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        body
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
