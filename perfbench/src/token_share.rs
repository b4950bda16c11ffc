//! `token_share`: the paper's §5.3 inference mix, where the device
//! library's token backend and the event queue carry the run.
//!
//! TF-Serving-style jobs arrive as a Poisson process at frequency factor
//! 12 (mean inter-arrival 0.3 s) with GPU demand N(0.3, 0.1); each serves
//! 40 s worth of requests as 20 ms kernels. KubeShare places them on a
//! 32-node × 4-GPU cluster, and one `SharedGpu` per physical GPU time-
//! shares the device between its containers with the default token
//! configuration. The driver follows the repository's KubeShare harness
//! world, with every call into the device library and the job drivers
//! timed. Telemetry is off. The first simulated minute is set-up; the
//! measured phase runs every remaining job to completion.

use std::collections::HashMap;
use std::time::Instant;

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ResourceList, Uid};
use ks_gpu::device::{GpuDevice, GpuSpec};
use ks_sim_core::prelude::*;
use ks_vgpu::{ClientId, IsolationMode, SharedGpu, VgpuConfig, VgpuEvent, VgpuNotice};
use ks_workloads::generator::{generate, JobSizing, WorkloadParams};
use ks_workloads::job::{JobCmd, JobDriver, JobInput};
use kubeshare::sharepod::{SharePodPhase, SharePodSpec};
use kubeshare::system::{KsConfig, KsEvent, KsNotice, KubeShareSystem};

use crate::common::{
    cluster, ks_layer, mean, pool_efficiency, quantile, secs_since, Observer, Scale, SimOutcome,
    Trial,
};
use crate::prof::{Layer, Prof};

/// Size of one trial.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub nodes: usize,
    pub gpus_per_node: u32,
    pub jobs: u32,
    /// Simulated seconds of set-up before the measured phase.
    pub warm_secs: u64,
}

impl Params {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                nodes: 32,
                gpus_per_node: 4,
                jobs: 1_000,
                warm_secs: 60,
            },
            Scale::Smoke => Params {
                nodes: 4,
                gpus_per_node: 2,
                jobs: 60,
                warm_secs: 10,
            },
        }
    }
}

/// Paper §5.3: base mean inter-arrival 3.6 s, frequency factor 12.
const INTERARRIVAL_S: f64 = 3.6 / 12.0;

/// Every simulated 5 s the pool's efficiency is sampled.
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(5);

enum Ev {
    Ks(KsEvent),
    Gpu(usize, VgpuEvent),
    Submit(usize),
    Wake(usize),
    Sample,
}

struct Job {
    driver: JobDriver,
    spec: SharePodSpec,
    sp: Option<Uid>,
    binding: Option<(usize, ClientId)>,
    finished: Option<SimTime>,
}

struct World {
    ks: KubeShareSystem,
    gpus: Vec<SharedGpu>,
    gpu_by_uuid: HashMap<String, usize>,
    jobs: Vec<Job>,
    sp_job: HashMap<Uid, usize>,
    /// Per GPU, the job behind each client id (ids count up from 0).
    client_job: Vec<Vec<usize>>,
    obs: Observer,
    unfinished: usize,
    bursts_done: u64,
    sched_ms: Vec<f64>,
    efficiency: Vec<f64>,
    event_decided: u64,
    /// Scratch buffers of the device-library calls, reused across events
    /// so the benchmark's own allocations stay out of the measured time.
    gpu_out: Vec<(SimTime, VgpuEvent)>,
    gpu_notes: Vec<VgpuNotice>,
}

/// Schedules and drains `evs`, keeping its buffer for reuse.
fn push<E>(
    q: &mut EventQueue<Ev>,
    evs: &mut Vec<(SimTime, E)>,
    wrap: impl Fn(E) -> Ev,
    prof: &mut Prof,
) {
    if evs.is_empty() {
        return;
    }
    prof.time(Layer::SimPush, || {
        for (at, e) in evs.drain(..) {
            q.schedule_at(at, wrap(e));
        }
    });
}

impl World {
    fn on_notice(&mut self, now: SimTime, n: KsNotice, q: &mut EventQueue<Ev>, prof: &mut Prof) {
        self.obs.notice(now, &n, &self.ks);
        match n {
            KsNotice::SharePodRunning {
                sp, uuid, share, ..
            } => {
                let Some(&j) = self.sp_job.get(&sp) else {
                    return;
                };
                let g = self.gpu_by_uuid[&uuid];
                let gpu = &mut self.gpus[g];
                let client = prof.time(Layer::VgpuAttach, || {
                    let client = gpu.attach(share);
                    // The job loads its model at start-up, within quota.
                    let quota = (share.mem * gpu.device().memory().capacity() as f64) as u64;
                    if quota > 0 {
                        gpu.mem_alloc(client, (quota as f64 * 0.8) as u64)
                            .expect("model fits its memory quota");
                    }
                    client
                });
                let slots = &mut self.client_job[g];
                let id = usize::try_from(client.0).expect("client ids fit in memory");
                if slots.len() <= id {
                    slots.resize(id + 1, usize::MAX);
                }
                slots[id] = j;
                self.jobs[j].binding = Some((g, client));
                let cmds = prof.time(Layer::WorkloadsStep, || {
                    self.jobs[j].driver.step(now, JobInput::Start)
                });
                self.exec(now, j, cmds, q, prof);
            }
            KsNotice::SharePodStopped { sp, .. } => {
                let Some(&j) = self.sp_job.get(&sp) else {
                    return;
                };
                if let Some((g, client)) = self.jobs[j].binding {
                    let mut out = Vec::new();
                    prof.time(Layer::VgpuDetach, || {
                        self.gpus[g].detach(now, client, &mut out)
                    });
                    push(q, &mut out, |e| Ev::Gpu(g, e), prof);
                }
            }
            _ => {}
        }
    }

    fn exec(
        &mut self,
        now: SimTime,
        j: usize,
        cmds: Vec<JobCmd>,
        q: &mut EventQueue<Ev>,
        prof: &mut Prof,
    ) {
        for cmd in cmds {
            match cmd {
                JobCmd::Submit { dur, tag } => {
                    let (g, client) = self.jobs[j].binding.expect("a running job is bound");
                    let mut out = std::mem::take(&mut self.gpu_out);
                    prof.time(Layer::VgpuSubmitBurst, || {
                        self.gpus[g].submit_burst(now, client, dur, tag, &mut out)
                    });
                    push(q, &mut out, |e| Ev::Gpu(g, e), prof);
                    self.gpu_out = out;
                }
                JobCmd::WakeAt(at) => {
                    prof.time(Layer::SimPush, || q.schedule_at(at, Ev::Wake(j)));
                }
                JobCmd::Finished => {
                    self.jobs[j].finished = Some(now);
                    self.unfinished -= 1;
                    let sp = self.jobs[j].sp.expect("a finished job was submitted");
                    let mut out = Vec::new();
                    let mut notices = Vec::new();
                    prof.time(Layer::DevmgrDelete, || {
                        self.ks.delete_sharepod(now, sp, &mut out, &mut notices)
                    });
                    push(q, &mut out, Ev::Ks, prof);
                    for n in notices {
                        self.on_notice(now, n, q, prof);
                    }
                }
            }
        }
    }

    fn fire(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>, prof: &mut Prof) {
        match ev {
            Ev::Submit(j) => {
                let spec = self.jobs[j].spec.clone();
                let mut out = Vec::new();
                let sp = prof.time(Layer::SchedSubmit, || {
                    self.ks
                        .submit_sharepod(now, format!("inf-{j}"), spec, &mut out)
                });
                self.jobs[j].sp = Some(sp);
                self.sp_job.insert(sp, j);
                push(q, &mut out, Ev::Ks, prof);
            }
            Ev::Ks(ev) => {
                let decides = match ev {
                    KsEvent::SchedDecide { sp } => {
                        self.ks.sharepod(sp).map(|s| s.status.phase) == Some(SharePodPhase::Pending)
                    }
                    _ => false,
                };
                let mut out = Vec::new();
                let mut notices = Vec::new();
                let t0 = Instant::now();
                prof.time(ks_layer(&ev), || {
                    self.ks.handle(now, ev, &mut out, &mut notices)
                });
                if decides && self.obs.measuring {
                    self.sched_ms.push(secs_since(t0) * 1e3);
                    self.event_decided += 1;
                }
                push(q, &mut out, Ev::Ks, prof);
                for n in notices {
                    self.on_notice(now, n, q, prof);
                }
            }
            Ev::Gpu(g, ev) => {
                let mut out = std::mem::take(&mut self.gpu_out);
                let mut notices = std::mem::take(&mut self.gpu_notes);
                prof.time(Layer::VgpuHandle, || {
                    self.gpus[g].handle(now, ev, &mut out, &mut notices)
                });
                push(q, &mut out, |e| Ev::Gpu(g, e), prof);
                self.gpu_out = out;
                for VgpuNotice::BurstDone { client, tag } in notices.drain(..) {
                    let Some(&j) = usize::try_from(client.0)
                        .ok()
                        .and_then(|id| self.client_job[g].get(id))
                    else {
                        continue;
                    };
                    if self.jobs[j].finished.is_some() {
                        continue;
                    }
                    if self.obs.measuring {
                        self.bursts_done += 1;
                    }
                    let cmds = prof.time(Layer::WorkloadsStep, || {
                        self.jobs[j].driver.step(now, JobInput::BurstDone { tag })
                    });
                    self.exec(now, j, cmds, q, prof);
                }
                self.gpu_notes = notices;
            }
            Ev::Wake(j) => {
                if self.jobs[j].finished.is_none() && self.jobs[j].binding.is_some() {
                    let cmds = prof.time(Layer::WorkloadsStep, || {
                        self.jobs[j].driver.step(now, JobInput::Wake)
                    });
                    self.exec(now, j, cmds, q, prof);
                }
            }
            Ev::Sample => {
                if self.obs.measuring {
                    self.efficiency.push(pool_efficiency(self.ks.pool()));
                }
                if self.unfinished > 0 {
                    prof.time(Layer::SimPush, || {
                        q.schedule_at(now + SAMPLE_PERIOD, Ev::Sample)
                    });
                }
            }
        }
    }
}

/// Runs one trial.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Trial {
    let p = Params::for_scale(scale);
    // Set-up runs untimed in every trial; the timers start with the
    // measured phase.
    let mut prof = Prof::new(false);
    let setup_start = Instant::now();
    let cluster_cfg = cluster(p.nodes, p.gpus_per_node, 36_000);
    let mut gpus = Vec::new();
    let mut gpu_by_uuid = HashMap::new();
    for node in &cluster_cfg.nodes {
        for i in 0..node.gpus {
            let device = GpuDevice::new(
                &node.name,
                i,
                GpuSpec {
                    name: "Tesla V100-SXM2-16GB".into(),
                    memory_bytes: node.gpu_memory_bytes,
                },
            );
            gpu_by_uuid.insert(device.uuid().to_string(), gpus.len());
            gpus.push(SharedGpu::new(
                device,
                VgpuConfig::default(),
                IsolationMode::FULL,
            ));
        }
    }
    let generated = generate(&WorkloadParams {
        jobs: p.jobs,
        mean_interarrival: SimDuration::from_secs_f64(INTERARRIVAL_S),
        demand_mean: 0.30,
        demand_std: 0.10,
        sizing: JobSizing::FixedDuration(SimDuration::from_secs(40)),
        kernel: SimDuration::from_millis(20),
        seed,
    });
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6b75_6265);
    let mut q = EventQueue::new();
    let jobs = generated
        .iter()
        .map(|g| {
            q.schedule_at(g.arrival, Ev::Submit(g.index as usize));
            Job {
                driver: JobDriver::new(g.kind.clone(), rng.fork()),
                spec: SharePodSpec::new(
                    PodSpec::new("workload:latest", ResourceList::cpu_mem(1000, 1 << 30)),
                    g.share,
                ),
                sp: None,
                binding: None,
                finished: None,
            }
        })
        .collect::<Vec<_>>();
    q.schedule_at(SimTime::ZERO + SAMPLE_PERIOD, Ev::Sample);
    let n_gpus = gpus.len();
    let mut w = World {
        ks: KubeShareSystem::new(cluster_cfg, KsConfig::default()),
        gpus,
        gpu_by_uuid,
        unfinished: jobs.len(),
        jobs,
        sp_job: HashMap::new(),
        client_job: vec![Vec::new(); n_gpus],
        obs: Observer::new(),
        bursts_done: 0,
        sched_ms: Vec::new(),
        efficiency: Vec::new(),
        event_decided: 0,
        gpu_out: Vec::new(),
        gpu_notes: Vec::new(),
    };

    let warm_end = SimTime::from_secs(p.warm_secs);
    let mut setup_s = None;
    let mut measure_start = Instant::now();
    let mut grants_before = 0;
    let mut end = SimTime::ZERO;
    while let Some((now, ev)) = prof.time(Layer::SimPop, || q.pop()) {
        if setup_s.is_none() && now >= warm_end {
            setup_s = Some(secs_since(setup_start));
            prof = Prof::new(traced);
            w.obs.start_measuring(now);
            grants_before = w.gpus.iter().map(SharedGpu::grant_count).sum::<u64>();
            measure_start = Instant::now();
        }
        end = now;
        w.fire(now, ev, &mut q, &mut prof);
    }
    let measured_s = secs_since(measure_start);

    let mut failures = Vec::new();
    if setup_s.is_none() {
        failures.push(format!("the run ended before the {}s warm-up", p.warm_secs));
    }
    if w.unfinished != 0 {
        failures.push(format!(
            "{} of {} jobs never completed",
            w.unfinished,
            w.jobs.len()
        ));
    }
    w.obs.report_faults();
    let mut digest = w.obs.digest;
    for job in &w.jobs {
        digest.add(job.finished.map_or(u64::MAX, SimTime::as_micros));
    }
    let grants = w.gpus.iter().map(SharedGpu::grant_count).sum::<u64>() - grants_before;
    digest.add(grants);
    let makespan_min = end.as_secs_f64() / 60.0;
    let counts = vec![
        ("sched.decided", w.event_decided as f64),
        ("sched.event_decided", w.event_decided as f64),
        ("sched.rejected", w.obs.rejected as f64),
        ("sched.new_vgpu", w.obs.new_vgpu as f64),
        ("devmgr.vgpu_released", w.obs.vgpu_released as f64),
        ("devmgr.faults", w.obs.faults.len() as f64),
        ("partition.fragmentation", w.ks.pool().fragmentation()),
        ("vgpu.grants", grants as f64),
    ];
    Trial {
        setup_s: setup_s.unwrap_or(0.0),
        measured_s,
        units: w.bursts_done,
        windows: vec![(w.bursts_done, measured_s)],
        sched_ms: std::mem::take(&mut w.sched_ms),
        sim: SimOutcome {
            startup_mean_s: mean(&w.obs.startups),
            startup_p99_s: quantile(&w.obs.startups, 0.99),
            gpu_efficiency: w.efficiency.iter().sum::<f64>() / w.efficiency.len().max(1) as f64,
            jobs_per_min: w.jobs.len() as f64 / makespan_min,
            attempted: w.bursts_done,
            refused: w.obs.rejected,
            digest: digest.value(),
        },
        failures,
        prof,
        counts,
    }
}
