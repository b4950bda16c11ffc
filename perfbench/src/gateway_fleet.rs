//! `gateway_fleet`: the multi-tenant front door in the regime where wall
//! time per submission climbs with cluster size.
//!
//! An open loop in simulated time: every tick a slice of a fresh tenant
//! fleet (80/15/5 Free/Standard/Premium) submits one job each through
//! signed tokens, and once a second a set of hot tenants re-submits to
//! hammer the rate limiter and the quota queue. After the arrivals the
//! gateway pumps (re-admission → preemption → batch drain), the scraper
//! lands metrics in the TSDB and the SLO engine evaluates each landed
//! scrape. Telemetry, the flight recorder and the logger are on, as an
//! operator runs them. The cluster is sized for ~85% utilization at the
//! arrival rate, which at 500 submissions per simulated second is 1,412
//! GPUs. Warming the cluster to steady occupancy is set-up; the measured
//! phase is a fixed number of further arrival seconds.

use std::time::Instant;

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ResourceList, Uid};
use ks_gateway::{
    gateway_catalogue, DerivedTokenAuth, Gateway, GatewayConfig, SubmitOutcome, Tier,
};
use ks_sim_core::prelude::*;
use ks_telemetry::{FlightRecorder, Logger, Scraper, SloEngine, Telemetry};
use ks_vgpu::ShareSpec;
use kubeshare::sharepod::{SharePodPhase, SharePodSpec};
use kubeshare::system::{KsConfig, KsEvent, KsNotice, KubeShareSystem, PoolPolicy};

use crate::common::{
    cluster, ks_layer, mean, pool_efficiency, quantile, secs_since, sim_secs, Observer, Scale,
    SimOutcome, Trial,
};
use crate::prof::{Layer, Prof};

/// Size of one trial.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Fresh tenants arriving per simulated second.
    pub rate: u64,
    /// Arrival seconds of warm-up (set-up) and of the measured phase.
    pub warm_secs: u64,
    pub measure_secs: u64,
    /// Hot tenants per tier, each submitting with probability ½ a second.
    pub hot_per_tier: usize,
}

impl Params {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                rate: 500,
                warm_secs: 30,
                measure_secs: 3,
                hot_per_tier: 32,
            },
            Scale::Smoke => Params {
                rate: 100,
                warm_secs: 20,
                measure_secs: 5,
                hot_per_tier: 8,
            },
        }
    }

    /// Nodes (4 GPUs each) for ~85% steady-state utilization: a mean
    /// arrival asks for 0.12 GPU for 20 s.
    pub fn nodes(&self) -> usize {
        let demand = self.rate as f64 * 0.12 * 20.0;
        ((demand / 0.85 / 4.0).ceil() as usize).max(2)
    }
}

/// Gateway ticks per simulated second: the batch tick arrivals and pumps
/// run on.
const TICKS_PER_SEC: u64 = 5;

enum Ev {
    Ks(KsEvent),
    Tick(u64),
    Finish(Uid),
}

struct World {
    gw: Gateway<DerivedTokenAuth>,
    auth: DerivedTokenAuth,
    telemetry: Telemetry,
    scraper: Scraper,
    slo: SloEngine,
    rng: SimRng,
    p: Params,
    next_tenant: u64,
    obs: Observer,
    /// Requests the benchmark submitted (cross-checked with the gateway).
    submitted: u64,
    refused: u64,
    units: u64,
    completed: u64,
    alerts: u64,
    readmitted: u64,
    pump_decided: u64,
    event_decided: u64,
    efficiency: Vec<f64>,
    sched_ms: Vec<f64>,
}

fn tier_of(i: u64) -> Tier {
    match i % 100 {
        0..=79 => Tier::Free,
        80..=94 => Tier::Standard,
        _ => Tier::Premium,
    }
}

fn spec(request: f64, mem: f64) -> SharePodSpec {
    SharePodSpec::new(
        PodSpec::new("tf:2.1", ResourceList::cpu_mem(500, 1 << 30)),
        ShareSpec::new(request, 1.0, mem).expect("valid share"),
    )
}

impl World {
    fn submit(
        &mut self,
        now: SimTime,
        token: &str,
        name: String,
        spec: SharePodSpec,
        out: &mut Vec<(SimTime, KsEvent)>,
        prof: &mut Prof,
    ) {
        let outcome = prof.time(Layer::GatewaySubmit, || {
            self.gw.submit(now, token, name, spec, out)
        });
        self.submitted += 1;
        if self.obs.measuring {
            self.units += 1;
            if matches!(outcome, SubmitOutcome::Rejected { .. }) {
                self.refused += 1;
            }
        }
    }

    fn arrivals(
        &mut self,
        now: SimTime,
        tick: u64,
        out: &mut Vec<(SimTime, KsEvent)>,
        prof: &mut Prof,
    ) {
        let target = self.p.rate * (tick + 1) / TICKS_PER_SEC;
        while self.next_tenant < target {
            let i = self.next_tenant;
            self.next_tenant += 1;
            let tier = tier_of(i);
            // Premium demand is chunky: on a fragmented cluster it fits
            // only by evicting smaller low-tier tenants.
            let request = match tier {
                Tier::Premium => self.rng.uniform_range(0.3, 0.7),
                _ => self.rng.uniform_range(0.05, 0.15),
            };
            let mem = self.rng.uniform_range(0.02, 0.1);
            let token = self.auth.token_for(&format!("t{i}"), tier);
            self.submit(
                now,
                &token,
                format!("job-{i}"),
                spec(request, mem),
                out,
                prof,
            );
        }
        if !tick.is_multiple_of(TICKS_PER_SEC) {
            return;
        }
        for tier in Tier::ALL {
            for k in 0..self.p.hot_per_tier {
                if !self.rng.bernoulli(0.5) {
                    continue;
                }
                let tenant = format!("hot-{}-{k}", tier.label());
                let token = self.auth.token_for(&tenant, tier);
                let request = self.rng.uniform_range(0.05, 0.1);
                let name = format!("hot-job-{tenant}-{}", now.as_micros());
                self.submit(now, &token, name, spec(request, 0.05), out, prof);
            }
        }
    }

    fn fire(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>, prof: &mut Prof) {
        let mut out = Vec::new();
        let mut notices = Vec::new();
        match ev {
            Ev::Ks(ev) => {
                if let KsEvent::SchedDecide { sp } = ev {
                    let pending = self.gw.system().sharepod(sp).map(|s| s.status.phase)
                        == Some(SharePodPhase::Pending);
                    if pending && self.obs.measuring {
                        self.event_decided += 1;
                    }
                }
                prof.time(ks_layer(&ev), || {
                    self.gw.handle(now, ev, &mut out, &mut notices)
                });
            }
            Ev::Finish(sp) => {
                prof.time(Layer::DevmgrDelete, || {
                    self.gw.delete(now, sp, &mut out, &mut notices)
                });
                if self.obs.measuring {
                    self.completed += 1;
                }
            }
            Ev::Tick(tick) => {
                self.arrivals(now, tick, &mut out, prof);
                let t0 = Instant::now();
                let report = prof.time(Layer::GatewayPump, || {
                    self.gw.pump(now, &mut out, &mut notices)
                });
                if self.obs.measuring {
                    self.sched_ms.push(secs_since(t0) * 1e3);
                    self.readmitted += report.readmitted as u64;
                    self.pump_decided += report.decided as u64;
                    self.efficiency
                        .push(pool_efficiency(self.gw.system().pool()));
                }
                let landed = prof.time(Layer::TelemetryScrape, || {
                    self.scraper.tick(now, &self.telemetry)
                });
                if landed {
                    let statuses = prof.time(Layer::TelemetrySlo, || {
                        self.slo.evaluate(now, self.scraper.tsdb(), &self.telemetry)
                    });
                    self.alerts += statuses.iter().filter(|s| s.breaching).count() as u64;
                }
                let next = now + SimDuration::from_micros(1_000_000 / TICKS_PER_SEC);
                prof.time(Layer::SimPush, || q.schedule_at(next, Ev::Tick(tick + 1)));
            }
        }
        for n in &notices {
            self.obs.notice(now, n, self.gw.system());
            if let KsNotice::SharePodRunning { sp, .. } = n {
                let dur =
                    SimDuration::from_millis(self.rng.uniform_range(10_000.0, 30_000.0) as u64);
                prof.time(Layer::SimPush, || q.schedule_at(now + dur, Ev::Finish(*sp)));
            }
        }
        if !out.is_empty() {
            prof.time(Layer::SimPush, || {
                for (at, e) in out {
                    q.schedule_at(at, Ev::Ks(e));
                }
            });
        }
    }
}

/// Runs one trial; `rate` overrides the scale's arrival rate (and with
/// it the cluster size).
pub fn run(seed: u64, scale: Scale, traced: bool, rate: Option<u64>) -> Trial {
    let mut p = Params::for_scale(scale);
    if let Some(rate) = rate {
        p.rate = rate;
    }
    // Set-up runs untimed in every trial; the timers start with the
    // measured phase.
    let mut prof = Prof::new(false);
    let setup_start = Instant::now();
    let nodes = p.nodes();
    let ks_cfg = KsConfig {
        // Vacated and preempted capacity stays warm: eviction only helps
        // if the preemptor binds to the freed vGPU on the next drain.
        pool_policy: PoolPolicy::Reservation {
            max_idle: nodes * 4,
        },
        ..KsConfig::default()
    };
    let telemetry = Telemetry::enabled();
    let secret = seed ^ 0x6a7e_aa7e;
    let mut gw = Gateway::new(
        KubeShareSystem::new(cluster(nodes, 4, 64_000), ks_cfg),
        DerivedTokenAuth::new(secret),
        GatewayConfig::default(),
    );
    gw.set_telemetry(telemetry.clone());
    gw.set_recorder(FlightRecorder::enabled());
    gw.set_logger(Logger::enabled());
    let mut w = World {
        gw,
        auth: DerivedTokenAuth::new(secret),
        telemetry,
        scraper: Scraper::new(SimDuration::from_secs(15), 4096),
        slo: gateway_catalogue(),
        rng: SimRng::seed_from_u64(seed),
        p,
        next_tenant: 0,
        obs: Observer::new(),
        submitted: 0,
        refused: 0,
        units: 0,
        completed: 0,
        alerts: 0,
        readmitted: 0,
        pump_decided: 0,
        event_decided: 0,
        efficiency: Vec::new(),
        sched_ms: Vec::new(),
    };
    let mut q = EventQueue::new();
    q.schedule_at(SimTime::ZERO, Ev::Tick(0));

    let warm_tick = p.warm_secs * TICKS_PER_SEC;
    let end_tick = (p.warm_secs + p.measure_secs) * TICKS_PER_SEC;
    let mut setup_s = 0.0;
    let mut measure_start = Instant::now();
    let mut sim_start = SimTime::ZERO;
    let mut end = SimTime::ZERO;
    // One window per tick of the measured phase.
    let mut windows = Vec::new();
    let (mut win_start, mut win_units) = (Instant::now(), 0);
    while let Some((now, ev)) = prof.time(Layer::SimPop, || q.pop()) {
        if let Ev::Tick(t) = ev {
            if t > warm_tick {
                windows.push((w.units - win_units, secs_since(win_start)));
                (win_start, win_units) = (Instant::now(), w.units);
            }
            if t == warm_tick {
                setup_s = secs_since(setup_start);
                prof = Prof::new(traced);
                w.obs.start_measuring(now);
                sim_start = now;
                measure_start = Instant::now();
                win_start = measure_start;
            }
            if t == end_tick {
                end = now;
                break;
            }
        }
        w.fire(now, ev, &mut q, &mut prof);
    }
    let measured_s = secs_since(measure_start);

    // End of the metering period: close open intervals and land a final
    // scrape after the cutoff so the TSDB sees the closing accruals.
    w.gw.meter_mut().finalize(end);
    w.scraper.force(end, &w.telemetry);
    let mut failures = Vec::new();
    let stats = w.gw.stats();
    if !w.gw.conservation_holds() {
        failures.push(format!(
            "conservation: submitted {} != admitted {} + rejected {} + queued {}",
            stats.submitted,
            stats.admitted(),
            stats.rejected(),
            w.gw.queue_len()
        ));
    }
    if w.submitted != stats.submitted {
        failures.push(format!(
            "benchmark submitted {}, gateway counted {}",
            w.submitted, stats.submitted
        ));
    }
    for name in [
        "ks_gw_limit_violations_total",
        "ks_gw_quota_violations_total",
        "ks_gw_preempt_inversions_total",
    ] {
        let v = w.telemetry.counter(name, &[]).get();
        if v != 0 {
            failures.push(format!("tripwire {name} = {v}"));
        }
    }
    if let Err(e) = w.gw.meter().reconcile(w.scraper.tsdb(), end) {
        failures.push(format!("billing/TSDB reconciliation: {e}"));
    }
    if stats.admitted() == 0 {
        failures.push("nothing was admitted".to_string());
    }

    w.obs.report_faults();
    let mut digest = w.obs.digest;
    for v in [
        stats.submitted,
        stats.admitted(),
        stats.rejected(),
        stats.preemptions,
    ] {
        digest.add(v);
    }
    for tier in Tier::ALL {
        digest.add(w.gw.meter().tier_gpu_usec(tier));
    }
    let measured_sim = sim_secs(sim_start, end);
    let efficiency = w.efficiency.iter().sum::<f64>() / w.efficiency.len().max(1) as f64;
    let pool = w.gw.system().pool();
    let counts = vec![
        ("gateway.refused", w.refused as f64),
        ("gateway.preempted", w.obs.preempted as f64),
        ("gateway.readmitted", w.readmitted as f64),
        ("gateway.decided", w.pump_decided as f64),
        ("sched.decided", (w.pump_decided + w.event_decided) as f64),
        ("sched.event_decided", w.event_decided as f64),
        ("sched.rejected", w.obs.rejected as f64),
        ("sched.new_vgpu", w.obs.new_vgpu as f64),
        ("devmgr.vgpu_released", w.obs.vgpu_released as f64),
        ("devmgr.faults", w.obs.faults.len() as f64),
        ("partition.fragmentation", pool.fragmentation()),
        ("telemetry.alerts", w.alerts as f64),
    ];
    Trial {
        setup_s,
        measured_s,
        units: w.units,
        windows,
        sched_ms: std::mem::take(&mut w.sched_ms),
        sim: SimOutcome {
            startup_mean_s: mean(&w.obs.startups),
            startup_p99_s: quantile(&w.obs.startups, 0.99),
            gpu_efficiency: efficiency,
            jobs_per_min: w.completed as f64 / (measured_sim / 60.0),
            attempted: w.units,
            refused: w.refused + w.obs.rejected,
            digest: digest.value(),
        },
        failures,
        prof,
        counts,
    }
}
