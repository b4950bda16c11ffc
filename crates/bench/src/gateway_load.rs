//! Multi-tenant gateway load generator (DESIGN.md §12).
//!
//! Drives the full front-door stack — [`Gateway`] over
//! [`KubeShareSystem`] over the simulated cluster — with a fleet of
//! distinct tenants split 80/15/5 across the free/standard/premium tiers,
//! all on one deterministic DES clock. Each simulated second a fresh
//! slice of the fleet submits one job through signed tokens
//! ([`DerivedTokenAuth`], so the million-tenant credential set costs no
//! memory), a small set of *hot* tenants hammers the rate limiter and
//! quota queue, the gateway pumps (re-admission → preemption → batch
//! drain), the scraper lands metrics in the TSDB, and the SLO engine
//! evaluates the gateway catalogue each minute.
//!
//! The run self-verifies; [`GatewayLoadReport::failures`] is non-empty —
//! and `--bin gateway` exits non-zero — if any of these break:
//!
//! - **conservation**: submitted = admitted + rejected + still-queued;
//! - **tripwires**: zero rate-limit window violations, zero quota
//!   pre-check/reservation disagreements, zero priority inversions;
//! - **contention behavior**: preemptions happened and only downward;
//! - **fairness SLOs**: no gateway rule (per-tier p99 admission wait,
//!   tripwire rates) ever fired;
//! - **metering**: billing ledger reconciles with the TSDB-derived
//!   per-tier GPU-seconds within 0.1%;
//! - **fleet coverage**: at least the requested number of distinct
//!   tenants actually authenticated.

use std::collections::HashMap;

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{NodeConfig, ResourceList, Uid};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::ScorePolicy;
use ks_cluster::sim::{ClusterConfig, GpuPluginKind};
use ks_gateway::{
    gateway_catalogue, DerivedTokenAuth, Gateway, GatewayConfig, SubmitOutcome, Tier,
};
use ks_sim_core::prelude::*;
use ks_telemetry::{Scraper, SloEngine, Telemetry};
use ks_vgpu::ShareSpec;
use kubeshare::sharepod::SharePodSpec;
use kubeshare::system::{KsConfig, KsEvent, KsNotice, KubeShareSystem, PoolPolicy};
use serde::Serialize;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct GatewayLoadConfig {
    /// Distinct fresh tenants pushed through the gateway (80/15/5 split).
    pub tenants: u64,
    /// Arrival-phase length in simulated seconds (fleet / secs = rate).
    pub secs: u64,
    /// Cluster nodes; `0` auto-sizes to ~85% steady-state utilization.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Hot tenants per tier re-submitting every second (rate-limit and
    /// queue exercise).
    pub hot_per_tier: usize,
    /// RNG seed (requests, durations).
    pub seed: u64,
}

impl Default for GatewayLoadConfig {
    fn default() -> Self {
        GatewayLoadConfig {
            tenants: 1_000_000,
            secs: 2_000,
            nodes: 0,
            gpus_per_node: 4,
            hot_per_tier: 32,
            seed: 7,
        }
    }
}

/// Mean fractional GPU request × mean duration per arrival, by tier mix:
/// `0.80·0.1 + 0.15·0.1 + 0.05·0.5 = 0.12` GPU, ≈20 s each.
const MEAN_GPU_SECONDS_PER_ARRIVAL: f64 = 0.12 * 20.0;

impl GatewayLoadConfig {
    fn arrival_rate(&self) -> f64 {
        self.tenants as f64 / self.secs.max(1) as f64
    }

    /// Nodes for ~85% steady-state utilization when `nodes == 0`.
    fn sized_nodes(&self) -> usize {
        if self.nodes > 0 {
            return self.nodes;
        }
        let demand = self.arrival_rate() * MEAN_GPU_SECONDS_PER_ARRIVAL;
        ((demand / 0.85 / self.gpus_per_node as f64).ceil() as usize).max(2)
    }
}

/// Per-tier roll-up in the report.
#[derive(Debug, Clone, Serialize)]
pub struct TierReport {
    /// Tier label.
    pub tier: String,
    /// Requests admitted (direct + from queue).
    pub admitted: u64,
    /// Requests refused by the token bucket.
    pub rejected_rate_limited: u64,
    /// SharePods of this tier evicted by higher classes.
    pub preempted_as_victim: u64,
    /// Billing-ledger GPU-seconds for the tier.
    pub gpu_seconds: f64,
    /// TSDB-derived GPU-seconds (must reconcile within 0.1%).
    pub gpu_seconds_tsdb: f64,
    /// p99 admission wait over the whole run, seconds.
    pub admission_wait_p99: f64,
}

/// The run's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayLoadReport {
    /// Fleet size the run was asked for.
    pub tenants_requested: u64,
    /// Distinct tenants that actually authenticated.
    pub tenants_touched: u64,
    /// Cluster nodes (auto-sized unless pinned).
    pub nodes: usize,
    /// Physical GPUs.
    pub gpus: usize,
    /// Simulated time the run covered.
    pub sim_secs: f64,
    /// Requests entering the pipeline.
    pub submitted: u64,
    /// Requests admitted to Algorithm 1.
    pub admitted: u64,
    /// Refused: bad token.
    pub rejected_auth: u64,
    /// Refused: token bucket empty.
    pub rejected_rate: u64,
    /// Refused: over quota with a full queue.
    pub rejected_queue_full: u64,
    /// Parked requests later admitted by a pump.
    pub admitted_from_queue: u64,
    /// Deepest the admission queue ever got.
    pub queued_peak: usize,
    /// Evictions executed for higher-priority work.
    pub preemptions: u64,
    /// SLO rules that fired, with the minute they breached.
    pub slo_alerts: Vec<String>,
    /// Per-tier roll-ups.
    pub tiers: Vec<TierReport>,
    /// Tenants with non-empty bills.
    pub billing_tenants: usize,
    /// Invariant breaches; empty on a healthy run.
    pub failures: Vec<String>,
    /// Wall-clock cost of the run.
    pub wall_secs: f64,
    /// DES events fired.
    pub events: u64,
}

enum Ev {
    /// Control-plane event routed through the gateway.
    Ks(KsEvent),
    /// One simulated second: arrivals, pump, scrape, SLO evaluation.
    Tick(u64),
    /// A tenant's job finished; delete its sharePod.
    Finish(Uid),
}

struct World {
    gw: Gateway<DerivedTokenAuth>,
    auth: DerivedTokenAuth,
    telemetry: Telemetry,
    scraper: Scraper,
    slo: SloEngine,
    rng: SimRng,
    cfg: GatewayLoadConfig,
    next_tenant: u64,
    queued_peak: usize,
    alerts: Vec<String>,
    /// Pipeline-level counts the bench tracks independently of the
    /// gateway's own stats (cross-checked at the end).
    submitted: u64,
    admitted: u64,
    rejected: u64,
    queued: u64,
    events: u64,
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
    fn count(&mut self, outcome: &SubmitOutcome) {
        self.submitted += 1;
        match outcome {
            SubmitOutcome::Admitted { .. } => self.admitted += 1,
            SubmitOutcome::Queued { .. } => self.queued += 1,
            SubmitOutcome::Rejected { .. } => self.rejected += 1,
        }
    }

    /// Schedules completion for every sharePod that started running.
    fn absorb(&mut self, now: SimTime, notices: Vec<KsNotice>, q: &mut EventQueue<Ev>) {
        for n in notices {
            if let KsNotice::SharePodRunning { sp, .. } = n {
                let dur =
                    SimDuration::from_millis(self.rng.uniform_range(10_000.0, 30_000.0) as u64);
                q.schedule_at(now + dur, Ev::Finish(sp));
            }
        }
    }

    fn submit_fresh(&mut self, now: SimTime, out: &mut Vec<(SimTime, KsEvent)>) {
        let i = self.next_tenant;
        self.next_tenant += 1;
        let tier = tier_of(i);
        let request = match tier {
            // Premium demand is deliberately chunky: on a fragmented
            // cluster it cannot fit without evicting smaller low-tier
            // tenants, which is exactly the behavior under test.
            Tier::Premium => self.rng.uniform_range(0.3, 0.7),
            _ => self.rng.uniform_range(0.05, 0.15),
        };
        let mem = self.rng.uniform_range(0.02, 0.1);
        let token = self.auth.token_for(&format!("t{i}"), tier);
        let outcome = self
            .gw
            .submit(now, &token, format!("job-{i}"), spec(request, mem), out);
        self.count(&outcome);
    }

    fn submit_hot(&mut self, now: SimTime, out: &mut Vec<(SimTime, KsEvent)>) {
        for tier in Tier::ALL {
            for k in 0..self.cfg.hot_per_tier {
                if !self.rng.bernoulli(0.5) {
                    continue;
                }
                let tenant = format!("hot-{}-{k}", tier.label());
                let token = self.auth.token_for(&tenant, tier);
                let request = self.rng.uniform_range(0.05, 0.1);
                let name = format!("hot-job-{}-{}", tenant, now.as_micros());
                let outcome = self.gw.submit(now, &token, name, spec(request, 0.05), out);
                self.count(&outcome);
            }
        }
    }
}

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        w.events += 1;
        let mut out = Vec::new();
        let mut notices = Vec::new();
        match self {
            Ev::Ks(ev) => {
                w.gw.handle(now, ev, &mut out, &mut notices);
            }
            Ev::Finish(sp) => {
                w.gw.delete(now, sp, &mut out, &mut notices);
            }
            Ev::Tick(sec) => {
                if sec < w.cfg.secs {
                    // This second's slice of the fleet: integer share with
                    // the remainder spread evenly across the run.
                    let target = w.cfg.tenants * (sec + 1) / w.cfg.secs;
                    while w.next_tenant < target {
                        w.submit_fresh(now, &mut out);
                    }
                    w.submit_hot(now, &mut out);
                }
                let report = w.gw.pump(now, &mut out, &mut notices);
                let _ = report;
                w.queued_peak = w.queued_peak.max(w.gw.queue_len());
                w.scraper.tick(now, &w.telemetry);
                if sec > 0 && sec % 60 == 0 {
                    for s in w.slo.evaluate(now, w.scraper.tsdb(), &w.telemetry) {
                        if s.breaching {
                            w.alerts.push(format!("{} @ {sec}s", s.rule));
                        }
                    }
                }
                // Keep ticking through a drain window so in-flight work
                // finishes, then let the queue run dry.
                if sec < w.cfg.secs + 300 {
                    q.schedule_at(now + SimDuration::from_secs(1), Ev::Tick(sec + 1));
                }
            }
        }
        w.absorb(now, notices, q);
        for (at, e) in out {
            q.schedule_at(at, Ev::Ks(e));
        }
    }
}

/// Runs the load generator and returns the self-verified report.
pub fn run(cfg: &GatewayLoadConfig) -> GatewayLoadReport {
    let wall = std::time::Instant::now();
    let nodes = cfg.sized_nodes();
    let cluster_cfg = ClusterConfig {
        nodes: (0..nodes)
            .map(|i| NodeConfig {
                name: format!("node-{i}"),
                cpu_millis: 64_000,
                memory_bytes: 244 << 30,
                gpus: cfg.gpus_per_node,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    };
    let ks_cfg = KsConfig {
        // Preempted and vacated capacity stays warm: the whole point of
        // eviction is that the preemptor binds to it on the next drain.
        pool_policy: PoolPolicy::Reservation {
            max_idle: nodes * cfg.gpus_per_node as usize,
        },
        ..KsConfig::default()
    };
    let telemetry = Telemetry::enabled();
    let mut gw = Gateway::new(
        KubeShareSystem::new(cluster_cfg, ks_cfg),
        DerivedTokenAuth::new(cfg.seed ^ 0x6a7e_aa7e),
        GatewayConfig::default(),
    );
    gw.set_telemetry(telemetry.clone());

    let mut eng = Engine::new(World {
        gw,
        auth: DerivedTokenAuth::new(cfg.seed ^ 0x6a7e_aa7e),
        telemetry: telemetry.clone(),
        scraper: Scraper::new(SimDuration::from_secs(15), 4096),
        slo: gateway_catalogue(),
        rng: SimRng::seed_from_u64(cfg.seed),
        cfg: cfg.clone(),
        next_tenant: 0,
        queued_peak: 0,
        alerts: Vec::new(),
        submitted: 0,
        admitted: 0,
        rejected: 0,
        queued: 0,
        events: 0,
    });
    eng.queue.schedule_at(SimTime::ZERO, Ev::Tick(0));
    // Runaway ceiling, not a pacing device: the run ends when the event
    // queue drains (~300 s after the last arrival). Submission-driven
    // events scale with tenant count, but token-circulation events scale
    // with simulated span × device count, so both terms are needed — a
    // per-submission-only budget truncates million-tenant runs mid-flight.
    let gpus = (cfg.sized_nodes() * cfg.gpus_per_node as usize) as u64;
    let budget = (cfg.tenants + (cfg.hot_per_tier as u64 * 3 * cfg.secs)) * 40
        + (cfg.secs + 300) * gpus * 25
        + 1_000_000;
    eng.run_to_completion(budget);

    let end = eng.now();
    let w = &mut eng.world;

    // End of metering period: cut off open intervals, land a final scrape
    // strictly after the cutoff so the TSDB sees the closing accruals.
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
    // The bench's independent count must agree with the gateway's.
    if w.submitted != stats.submitted {
        failures.push(format!(
            "bench counted {} submissions, gateway {}",
            w.submitted, stats.submitted
        ));
    }
    for (name, label) in [
        ("ks_gw_limit_violations_total", "rate-limit window bound"),
        ("ks_gw_quota_violations_total", "quota admission"),
        (
            "ks_gw_preempt_inversions_total",
            "preemption priority order",
        ),
    ] {
        let v = w.telemetry.counter(name, &[]).get();
        if v != 0 {
            failures.push(format!("{label} violated {v} times ({name})"));
        }
    }
    if stats.preemptions == 0 {
        failures.push("no preemptions despite premium contention".to_string());
    }
    if w.telemetry
        .counter("ks_gw_preemptions_total", &[("victim_tier", "premium")])
        .get()
        != 0
    {
        failures.push("premium tenants were preempted (must be top class)".to_string());
    }
    if (w.gw.tenant_count() as u64) < cfg.tenants {
        failures.push(format!(
            "only {} distinct tenants touched the gateway (wanted ≥ {})",
            w.gw.tenant_count(),
            cfg.tenants
        ));
    }
    if !w.alerts.is_empty() {
        failures.push(format!("SLO alerts fired: {}", w.alerts.join(", ")));
    }

    let reconciled = match w.gw.meter().reconcile(w.scraper.tsdb(), end) {
        Ok(r) => r.into_iter().collect::<Vec<_>>(),
        Err(e) => {
            failures.push(format!("billing/TSDB reconciliation: {e}"));
            Vec::new()
        }
    };
    let tsdb_by_tier: HashMap<Tier, u64> =
        reconciled.iter().map(|&(t, _, tsdb)| (t, tsdb)).collect();

    let whole_run = SimDuration::from_secs(cfg.secs + 600);
    let tiers = Tier::ALL
        .map(|tier| {
            let l = [("tier", tier.label())];
            TierReport {
                tier: tier.label().to_string(),
                admitted: w.telemetry.counter("ks_gw_admitted_total", &l).get(),
                rejected_rate_limited: w
                    .telemetry
                    .counter(
                        "ks_gw_rejects_total",
                        &[("reason", "rate_limited"), ("tier", tier.label())],
                    )
                    .get(),
                preempted_as_victim: w
                    .telemetry
                    .counter("ks_gw_preemptions_total", &[("victim_tier", tier.label())])
                    .get(),
                gpu_seconds: w.gw.meter().tier_gpu_usec(tier) as f64 / 1e6,
                gpu_seconds_tsdb: tsdb_by_tier.get(&tier).copied().unwrap_or(0) as f64 / 1e6,
                admission_wait_p99: w
                    .scraper
                    .tsdb()
                    .quantile("ks_gw_admission_wait_seconds", &l, 0.99, whole_run, end)
                    .unwrap_or(0.0),
            }
        })
        .to_vec();

    if stats.admitted() == 0 {
        failures.push("nothing was admitted".to_string());
    }

    GatewayLoadReport {
        tenants_requested: cfg.tenants,
        tenants_touched: w.gw.tenant_count() as u64,
        nodes,
        gpus: nodes * cfg.gpus_per_node as usize,
        sim_secs: end.as_secs_f64(),
        submitted: stats.submitted,
        admitted: stats.admitted(),
        rejected_auth: stats.rejected_auth,
        rejected_rate: stats.rejected_rate,
        rejected_queue_full: stats.rejected_queue_full,
        admitted_from_queue: stats.admitted_from_queue,
        queued_peak: w.queued_peak,
        preemptions: stats.preemptions,
        slo_alerts: w.alerts.clone(),
        tiers,
        billing_tenants: w.gw.meter().billing_records().len(),
        failures,
        wall_secs: wall.elapsed().as_secs_f64(),
        events: w.events,
    }
}

/// Serializes the report as the `BENCH_gateway.json` payload.
pub fn to_json(report: &GatewayLoadReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_run_is_clean_and_deterministic() {
        let cfg = GatewayLoadConfig {
            tenants: 2_000,
            secs: 60,
            hot_per_tier: 8,
            ..GatewayLoadConfig::default()
        };
        let a = run(&cfg);
        assert!(a.failures.is_empty(), "failures: {:?}", a.failures);
        assert!(a.tenants_touched >= 2_000);
        assert!(a.preemptions > 0);
        let b = run(&cfg);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(
            a.tiers.iter().map(|t| t.gpu_seconds).collect::<Vec<_>>(),
            b.tiers.iter().map(|t| t.gpu_seconds).collect::<Vec<_>>(),
            "same seed, same bills"
        );
    }
}
