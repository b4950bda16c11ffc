//! What every workload shares: the trial record, the outcome digest, the
//! cluster shape and the clock helpers.

use std::collections::HashSet;
use std::time::Instant;

use ks_cluster::api::{NodeConfig, Uid};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::ScorePolicy;
use ks_cluster::sim::{ClusterConfig, ClusterEvent, GpuPluginKind};
use ks_sim_core::time::SimTime;
use kubeshare::pool::VgpuPool;
use kubeshare::system::{KsEvent, KsNotice, KubeShareSystem};

use crate::prof::{Layer, Prof};

/// Workload size: `Full` is what the benchmark measures, `Smoke` a
/// reduced version for checking that the benchmark still runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Simulated outcomes of a trial. They depend on the seed only, so they
/// repeat exactly across trials, lanes and machines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Submission → `SharePodRunning`, seconds: mean and 99th percentile.
    pub startup_mean_s: f64,
    pub startup_p99_s: f64,
    /// Attached utilization demand per pool device, averaged over samples.
    pub gpu_efficiency: f64,
    /// Jobs per simulated minute: run to completion (`gateway_fleet`,
    /// `token_share`), or placed and started (`sched_burst`, where
    /// nothing ends on its own).
    pub jobs_per_min: f64,
    /// Operations attempted in the measured phase (the workload's units).
    pub attempted: u64,
    /// Of those, refused (gateway) or rejected (Algorithm 1).
    pub refused: u64,
    /// Hash of every binding, rejection and GPU-second of the trial.
    pub digest: u64,
}

/// One trial: set-up, then a measured phase of fixed work.
pub struct Trial {
    pub setup_s: f64,
    pub measured_s: f64,
    /// Work completed in the measured phase.
    pub units: u64,
    /// The measured phase cut into windows of fixed work (units, host
    /// seconds): gateway ticks, bursts, or the whole phase.
    pub windows: Vec<(u64, f64)>,
    /// Host latency of each batch-scheduling call, milliseconds.
    pub sched_ms: Vec<f64>,
    pub sim: SimOutcome,
    /// Correctness breaches; empty on a clean trial.
    pub failures: Vec<String>,
    /// Layer timers of the measured phase (empty when untraced).
    pub prof: Prof,
    /// Per-layer counts only the workload can see (name, value).
    pub counts: Vec<(&'static str, f64)>,
}

/// FNV-1a over the outcome stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.add(s.len() as u64);
    }

    /// GPU-seconds enter at microsecond resolution.
    pub fn add_secs(&mut self, secs: f64) {
        self.add((secs * 1e6).round() as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// `nodes` × `gpus` V100-class nodes on the native whole-device plugin.
pub fn cluster(nodes: usize, gpus: u32, cpu_millis: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: (0..nodes)
            .map(|i| NodeConfig {
                name: format!("node-{i}"),
                cpu_millis,
                memory_bytes: 244 << 30,
                gpus,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    }
}

/// Attached utilization demand over pool devices (0 for an empty pool).
pub fn pool_efficiency(pool: &VgpuPool) -> f64 {
    let n = pool.len();
    if n == 0 {
        return 0.0;
    }
    let demand: f64 = pool
        .devices()
        .flat_map(|d| d.attached.values().map(|&(req, _)| req))
        .sum();
    demand / n as f64
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Simulated seconds between two instants.
pub fn sim_secs(from: SimTime, to: SimTime) -> f64 {
    to.as_secs_f64() - from.as_secs_f64()
}

/// The layer serving a control-plane event, by event kind.
pub fn ks_layer(ev: &KsEvent) -> Layer {
    match ev {
        KsEvent::Cluster(ClusterEvent::ScheduleAttempt { .. }) => Layer::ClusterScheduleAttempt,
        KsEvent::Cluster(ClusterEvent::BindArrived { .. }) => Layer::ClusterBind,
        KsEvent::Cluster(ClusterEvent::ContainerStarted { .. }) => Layer::ClusterStarted,
        KsEvent::Cluster(ClusterEvent::PodStopped { .. }) => Layer::ClusterStopped,
        KsEvent::SchedDecide { .. } => Layer::SchedDecide,
        KsEvent::CreatePod { .. } => Layer::DevmgrCreatePod,
        KsEvent::PartitionActivate { .. } => Layer::PartitionActivate,
        KsEvent::ReleaseIdleVgpu { .. } | KsEvent::RetryAnchor { .. } => Layer::DevmgrOther,
    }
}

/// What the control plane reported back, folded into the digest and the
/// simulated statistics.
#[derive(Debug)]
pub struct Observer {
    /// Only notices of the measured phase feed the statistics.
    pub measuring: bool,
    /// Start of the measured phase in simulated time.
    since: SimTime,
    /// Submission → first `SharePodRunning` of each sharePod submitted
    /// in the measured phase, seconds.
    pub startups: Vec<f64>,
    started: HashSet<Uid>,
    pub rejected: u64,
    pub preempted: u64,
    pub new_vgpu: u64,
    pub vgpu_released: u64,
    /// Internal inconsistencies the control plane contained (`Fault`
    /// notices), over the whole trial. Reported, not gated: each one
    /// degrades a single sharePod and the run carries on.
    pub faults: Vec<String>,
    pub digest: Digest,
}

impl Observer {
    pub fn new() -> Self {
        Observer {
            measuring: false,
            since: SimTime::ZERO,
            startups: Vec::new(),
            started: HashSet::new(),
            rejected: 0,
            preempted: 0,
            new_vgpu: 0,
            vgpu_released: 0,
            faults: Vec::new(),
            digest: Digest::new(),
        }
    }

    /// Switches the statistics on; the measured phase starts at `now`.
    pub fn start_measuring(&mut self, now: SimTime) {
        self.measuring = true;
        self.since = now;
    }

    /// Prints the contained faults, if any, to standard error.
    pub fn report_faults(&self) {
        if let Some(first) = self.faults.first() {
            eprintln!(
                "note: {} contained fault(s), first {first}",
                self.faults.len()
            );
        }
    }

    /// Records one notice; `sys` gives the sharePod's submission time.
    pub fn notice(&mut self, now: SimTime, n: &KsNotice, sys: &KubeShareSystem) {
        match n {
            KsNotice::SharePodRunning {
                sp, gpuid, node, ..
            } => {
                self.digest.add(1);
                self.digest.add(sp.0);
                self.digest.add_str(gpuid.as_str());
                self.digest.add_str(node);
                if let Some(s) = sys.sharepod(*sp) {
                    let created = s.meta.created_at;
                    if self.measuring && created >= self.since && self.started.insert(*sp) {
                        self.startups.push(sim_secs(created, now));
                    }
                }
            }
            KsNotice::SharePodRejected { sp, .. } => {
                self.digest.add(2);
                self.digest.add(sp.0);
                if self.measuring {
                    self.rejected += 1;
                }
            }
            KsNotice::SharePodPreempted { sp, .. } => {
                self.digest.add(3);
                self.digest.add(sp.0);
                if self.measuring {
                    self.preempted += 1;
                }
            }
            KsNotice::VgpuCreated { .. } if self.measuring => self.new_vgpu += 1,
            KsNotice::VgpuReleased { .. } if self.measuring => self.vgpu_released += 1,
            KsNotice::Fault { error } => {
                let msg = format!("{error}");
                self.digest.add(4);
                self.digest.add_str(&msg);
                self.faults
                    .push(format!("at {:.3}s: {msg}", now.as_secs_f64()));
            }
            _ => {}
        }
    }
}
