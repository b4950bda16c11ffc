//! `sched_burst`: Algorithm 1 and the vGPU pool's index upkeep on a
//! large warm pool.
//!
//! Closed batches: the pool covers a 5,000-GPU cluster (~4k vGPUs, so
//! the scheduler's index path serves it) pre-loaded with about four
//! sharePods per vGPU. Each burst deletes `k` random running sharePods
//! (pool writes) and submits `k` new ones (pool reads), decides all of
//! them in one `drain_pending`, then lets the simulation settle before
//! the next burst. Requests carry affinity, anti-affinity and exclusion
//! labels and some ask for the `Hybrid` substrate, so every capacity
//! index and the partitioned-device path are exercised. Telemetry and the
//! flight recorder are off. The pool's indexes are verified after every
//! burst, outside the measured time.

use std::time::Instant;

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ResourceList, Uid};
use ks_partition::Substrate;
use ks_sim_core::prelude::*;
use ks_vgpu::ShareSpec;
use kubeshare::locality::Locality;
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
    /// Cluster nodes, 4 GPUs each.
    pub nodes: usize,
    /// SharePods submitted to warm the pool.
    pub initial: usize,
    /// SharePods deleted and submitted per burst.
    pub k: usize,
    /// Bursts in the measured phase.
    pub bursts: usize,
}

impl Params {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                nodes: 1_250,
                initial: 16_000,
                k: 200,
                bursts: 40,
            },
            Scale::Smoke => Params {
                nodes: 50,
                initial: 640,
                k: 20,
                bursts: 10,
            },
        }
    }
}

/// Simulated time a burst may take to settle.
const SETTLE_HORIZON: SimDuration = SimDuration::from_secs(600);

struct World {
    ks: KubeShareSystem,
    rng: SimRng,
    obs: Observer,
    /// Running sharePods, the pool bursts delete from.
    running: Vec<Uid>,
    /// Label universes: affinity groups, anti-affinity classes, tenants.
    groups: usize,
    next_name: u64,
    event_decided: u64,
}

impl World {
    fn request(&mut self) -> SharePodSpec {
        let request = self.rng.uniform_range(0.1, 0.3);
        let mem = self.rng.uniform_range(0.05, 0.25);
        let mut locality = Locality::none();
        let roll = self.rng.uniform();
        if roll < 0.15 {
            locality = locality.with_affinity(format!("grp-{}", self.rng.index(self.groups)));
        } else if roll < 0.30 {
            locality = locality.with_anti_affinity(format!("class-{}", self.rng.index(8)));
        } else if roll < 0.40 {
            locality = locality.with_exclusion(format!("tenant-{}", self.rng.index(6)));
        }
        let substrate = if self.rng.bernoulli(0.1) {
            Substrate::Hybrid
        } else {
            Substrate::TimeSlice
        };
        SharePodSpec::new(
            PodSpec::new("svc:1", ResourceList::cpu_mem(250, 1 << 29)),
            ShareSpec::new(request, 1.0, mem).expect("valid share"),
        )
        .with_locality(locality)
        .with_substrate(substrate)
    }

    fn submit(&mut self, now: SimTime, out: &mut Vec<(SimTime, KsEvent)>, prof: &mut Prof) {
        let spec = self.request();
        let name = format!("sp-{}", self.next_name);
        self.next_name += 1;
        prof.time(Layer::SchedSubmit, || {
            self.ks.submit_sharepod(now, name, spec, out)
        });
    }

    /// Folds notices into the observer and the running set; terminal
    /// sharePods leave the API store, as an operator's GC would do.
    fn absorb(&mut self, now: SimTime, notices: Vec<KsNotice>, prof: &mut Prof) {
        for n in &notices {
            self.obs.notice(now, n, &self.ks);
            match n {
                KsNotice::SharePodRunning { sp, .. } => self.running.push(*sp),
                KsNotice::SharePodStopped { sp, .. } | KsNotice::SharePodRejected { sp, .. } => {
                    prof.time(Layer::DevmgrDelete, || self.ks.gc_sharepod(*sp));
                }
                _ => {}
            }
        }
    }

    fn push(q: &mut EventQueue<KsEvent>, out: Vec<(SimTime, KsEvent)>, prof: &mut Prof) {
        if !out.is_empty() {
            prof.time(Layer::SimPush, || {
                for (at, e) in out {
                    q.schedule_at(at, e);
                }
            });
        }
    }

    /// Runs the simulation until nothing is left to happen, or until
    /// [`SETTLE_HORIZON`] passes with events still queued (a failure).
    fn settle(&mut self, q: &mut EventQueue<KsEvent>, prof: &mut Prof) -> Result<SimTime, String> {
        let start = q.now();
        let mut last = start;
        while let Some((now, ev)) = prof.time(Layer::SimPop, || q.pop()) {
            if now.saturating_since(start) > SETTLE_HORIZON {
                return Err(format!(
                    "still busy {}s after the burst: {ev:?} and {} more queued",
                    SETTLE_HORIZON.as_secs_f64(),
                    q.len()
                ));
            }
            last = now;
            if let KsEvent::SchedDecide { sp } = ev {
                let pending =
                    self.ks.sharepod(sp).map(|s| s.status.phase) == Some(SharePodPhase::Pending);
                if pending && self.obs.measuring {
                    self.event_decided += 1;
                }
            }
            let mut out = Vec::new();
            let mut notices = Vec::new();
            prof.time(ks_layer(&ev), || {
                self.ks.handle(now, ev, &mut out, &mut notices)
            });
            Self::push(q, out, prof);
            self.absorb(now, notices, prof);
        }
        Ok(last)
    }

    /// Submits `n` sharePods at `now` and decides them in one batch;
    /// returns the batch length and its host latency.
    fn submit_and_drain(
        &mut self,
        now: SimTime,
        n: usize,
        q: &mut EventQueue<KsEvent>,
        prof: &mut Prof,
    ) -> (usize, f64) {
        let mut out = Vec::new();
        for _ in 0..n {
            self.submit(now, &mut out, prof);
        }
        let mut notices = Vec::new();
        let t0 = Instant::now();
        let decided = prof.time(Layer::SchedDrain, || {
            self.ks.drain_pending(now, &mut out, &mut notices)
        });
        let ms = secs_since(t0) * 1e3;
        Self::push(q, out, prof);
        self.absorb(now, notices, prof);
        (decided, ms)
    }
}

/// Runs one trial.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Trial {
    let p = Params::for_scale(scale);
    // Set-up runs untimed in every trial; the timers start with the
    // measured phase.
    let mut prof = Prof::new(false);
    let setup_start = Instant::now();
    let gpus = p.nodes * 4;
    let ks_cfg = KsConfig {
        // The pool stays warm between bursts: idle vGPUs are kept.
        pool_policy: PoolPolicy::Reservation { max_idle: gpus },
        ..KsConfig::default()
    };
    let mut w = World {
        ks: KubeShareSystem::new(cluster(p.nodes, 4, 64_000), ks_cfg),
        rng: SimRng::seed_from_u64(seed),
        obs: Observer::new(),
        running: Vec::new(),
        groups: p.initial / 3,
        next_name: 0,
        event_decided: 0,
    };
    let mut q: EventQueue<KsEvent> = EventQueue::new();
    w.submit_and_drain(SimTime::ZERO, p.initial, &mut q, &mut prof);
    let mut failures = Vec::new();
    let mut now = w.settle(&mut q, &mut prof).unwrap_or_else(|e| {
        failures.push(format!("warm-up: {e}"));
        q.now()
    });
    let setup_s = secs_since(setup_start);

    prof = Prof::new(traced);
    w.obs.start_measuring(now);
    let sim_start = now;
    let mut measured_s = 0.0;
    let mut units = 0u64;
    let mut windows = Vec::with_capacity(p.bursts);
    let mut sched_ms = Vec::with_capacity(p.bursts);
    let mut efficiency = Vec::with_capacity(p.bursts);
    for b in 0..p.bursts {
        let t0 = Instant::now();
        // Bursts start a second apart in simulated time, after the
        // previous one settled.
        now += SimDuration::from_secs(1);
        let mut out = Vec::new();
        let mut notices = Vec::new();
        for _ in 0..p.k.min(w.running.len()) {
            let i = w.rng.index(w.running.len());
            let sp = w.running.swap_remove(i);
            prof.time(Layer::DevmgrDelete, || {
                w.ks.delete_sharepod(now, sp, &mut out, &mut notices)
            });
        }
        World::push(&mut q, out, &mut prof);
        w.absorb(now, notices, &mut prof);
        let (decided, ms) = w.submit_and_drain(now, p.k, &mut q, &mut prof);
        units += decided as u64;
        sched_ms.push(ms);
        let settled = w.settle(&mut q, &mut prof);
        let burst_s = secs_since(t0);
        measured_s += burst_s;
        windows.push((decided as u64, burst_s));
        match settled {
            Ok(t) => now = t.max(now),
            Err(e) => {
                failures.push(format!("burst {b}: {e}"));
                break;
            }
        }

        if let Err(e) = w.ks.pool().verify_indexes() {
            failures.push(format!("burst {b}: pool indexes: {e}"));
        }
        efficiency.push(pool_efficiency(w.ks.pool()));
    }
    let pending =
        w.ks.sharepods()
            .iter()
            .filter(|(_, s)| s.status.phase == SharePodPhase::Pending)
            .count();
    if pending != 0 {
        failures.push(format!("{pending} sharePods still pending after settling"));
    }

    w.obs.report_faults();
    let mut digest = w.obs.digest;
    let pool = w.ks.pool();
    digest.add(pool.len() as u64);
    digest.add_secs(efficiency.iter().sum());
    let measured_sim = sim_secs(sim_start, now);
    let counts = vec![
        ("sched.decided", (units + w.event_decided) as f64),
        ("sched.drain_decided", units as f64),
        ("sched.event_decided", w.event_decided as f64),
        ("sched.rejected", w.obs.rejected as f64),
        ("sched.new_vgpu", w.obs.new_vgpu as f64),
        ("devmgr.vgpu_released", w.obs.vgpu_released as f64),
        ("devmgr.faults", w.obs.faults.len() as f64),
        ("partition.fragmentation", pool.fragmentation()),
    ];
    Trial {
        setup_s,
        measured_s,
        units,
        windows,
        sched_ms,
        sim: SimOutcome {
            startup_mean_s: mean(&w.obs.startups),
            startup_p99_s: quantile(&w.obs.startups, 0.99),
            gpu_efficiency: efficiency.iter().sum::<f64>() / efficiency.len().max(1) as f64,
            // Nothing in this closed loop completes on its own: the jobs
            // are the burst submissions that Algorithm 1 placed and that
            // started, so a rejection or a slower settle lowers the rate.
            jobs_per_min: w.obs.startups.len() as f64 / (measured_sim / 60.0),
            attempted: units,
            refused: w.obs.rejected,
            digest: digest.value(),
        },
        failures,
        prof,
        counts,
    }
}
