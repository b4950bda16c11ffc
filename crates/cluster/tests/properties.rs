//! Property-based tests for the cluster control plane: resource accounting
//! must be conserved under arbitrary submit/delete interleavings, and the
//! indexed node pick must agree with the paper-literal kube-scheduler.

use ks_cluster::api::pod::{PodPhase, PodSpec};
use ks_cluster::api::{NodeConfig, ResourceList, Uid, NVIDIA_GPU};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::{KubeScheduler, ScorePolicy};
use ks_cluster::sim::{ClusterConfig, ClusterEvent, ClusterNotice, ClusterSim, GpuPluginKind};
use ks_sim_core::prelude::*;
use proptest::prelude::*;

struct World {
    cluster: ClusterSim,
    running: Vec<Uid>,
    deleted: usize,
}

struct Ev(ClusterEvent);

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.cluster.handle(now, self.0, &mut out, &mut notes);
        for n in notes {
            match n {
                ClusterNotice::PodRunning { pod } => w.running.push(pod),
                ClusterNotice::PodDeleted { .. } => w.deleted += 1,
                _ => {}
            }
        }
        for (at, e) in out {
            q.schedule_at(at, Ev(e));
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a pod with (cpu_millis, gpus).
    Submit(u64, u64),
    /// Delete the i-th currently running pod (modulo the live count).
    DeleteRunning(usize),
    /// Let the simulation advance this many seconds.
    Advance(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (100u64..4000, 0u64..3).prop_map(|(c, g)| Op::Submit(c, g)),
        (0usize..8).prop_map(Op::DeleteRunning),
        (1u64..20).prop_map(Op::Advance),
    ]
}

fn config() -> ClusterConfig {
    ClusterConfig {
        nodes: (0..2)
            .map(|i| NodeConfig {
                name: format!("n{i}"),
                cpu_millis: 16_000,
                memory_bytes: 64 << 30,
                gpus: 2,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving: free resources never exceed allocatable,
    /// never go negative (checked_sub would panic), and after deleting
    /// everything the cluster returns to full capacity.
    #[test]
    fn accounting_is_conserved(ops in proptest::collection::vec(op(), 1..60)) {
        let mut eng = Engine::new(World {
            cluster: ClusterSim::new(config()),
            running: Vec::new(),
            deleted: 0,
        });
        let mut submitted = Vec::new();
        let mut horizon = SimTime::ZERO;
        for o in &ops {
            let now = eng.now().max(horizon);
            match o {
                Op::Submit(cpu, gpus) => {
                    let mut requests = ResourceList::cpu_mem(*cpu, 1 << 30);
                    if *gpus > 0 {
                        requests = requests.with_extended(NVIDIA_GPU, *gpus);
                    }
                    let mut out = Vec::new();
                    let uid = eng.world.cluster.submit_pod(
                        now,
                        format!("p{}", submitted.len()),
                        PodSpec::new("img", requests),
                        &mut out,
                    );
                    submitted.push(uid);
                    for (at, e) in out {
                        eng.queue.schedule_at(at, Ev(e));
                    }
                }
                Op::DeleteRunning(i) => {
                    if !eng.world.running.is_empty() {
                        let idx = i % eng.world.running.len();
                        let uid = eng.world.running.remove(idx);
                        let mut out = Vec::new();
                        let mut notes = Vec::new();
                        eng.world.cluster.delete_pod(now, uid, &mut out, &mut notes);
                        for (at, e) in out {
                            eng.queue.schedule_at(at, Ev(e));
                        }
                    }
                }
                Op::Advance(secs) => {
                    horizon = now + SimDuration::from_secs(*secs);
                    eng.run_until(horizon);
                }
            }
            // Invariant: free fits inside allocatable on every node.
            for name in eng.world.cluster.node_names() {
                let free = eng.world.cluster.node_free(&name).unwrap();
                prop_assert!(free.cpu_millis <= 16_000);
                prop_assert!(free.extended_count(NVIDIA_GPU) <= 2);
            }
        }
        // Drain all pending control-plane work, then delete everything.
        eng.run_to_completion(1_000_000);
        let now = eng.now();
        for &uid in &submitted {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            eng.world.cluster.delete_pod(now, uid, &mut out, &mut notes);
            for (at, e) in out {
                eng.queue.schedule_at(at, Ev(e));
            }
        }
        eng.run_to_completion(1_000_000);
        for name in eng.world.cluster.node_names() {
            let free = eng.world.cluster.node_free(&name).unwrap();
            prop_assert_eq!(free.cpu_millis, 16_000, "cpu restored on {}", name);
            prop_assert_eq!(free.extended_count(NVIDIA_GPU), 2, "gpus restored on {}", name);
        }
    }

    /// GPU exclusivity: at no sampled instant do more pods run than there
    /// are GPUs, and no two running pods share a device UUID.
    #[test]
    fn whole_device_plugin_is_exclusive(n_pods in 1usize..12) {
        let mut eng = Engine::new(World {
            cluster: ClusterSim::new(config()),
            running: Vec::new(),
            deleted: 0,
        });
        let mut out = Vec::new();
        for i in 0..n_pods {
            eng.world.cluster.submit_pod(
                SimTime::ZERO,
                format!("p{i}"),
                PodSpec::new(
                    "img",
                    ResourceList::cpu_mem(100, 1 << 20).with_extended(NVIDIA_GPU, 1),
                ),
                &mut out,
            );
        }
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(1_000_000);
        let running = &eng.world.running;
        prop_assert!(running.len() <= 4, "only 4 GPUs exist");
        let mut uuids: Vec<String> = running
            .iter()
            .map(|&u| {
                eng.world
                    .cluster
                    .pod(u)
                    .unwrap()
                    .visible_devices()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let before = uuids.len();
        uuids.sort();
        uuids.dedup();
        prop_assert_eq!(uuids.len(), before, "two pods share a GPU");
    }
}

/// Differential world: before every [`ClusterEvent::ScheduleAttempt`]
/// the paper-literal [`KubeScheduler::pick_node`] over the cluster's
/// schedulable node views predicts the placement; after it, the pod must
/// sit exactly there (or stay pending when the oracle finds no node) and
/// the rank index must equal a from-scratch rebuild.
struct PickWorld {
    cluster: ClusterSim,
    oracle: KubeScheduler,
    attempts: usize,
    divergences: Vec<String>,
}

struct PickEv(ClusterEvent);

impl SimEvent<PickWorld> for PickEv {
    fn fire(self, now: SimTime, w: &mut PickWorld, q: &mut EventQueue<Self>) {
        let predicted = match self.0 {
            ClusterEvent::ScheduleAttempt { pod } => w
                .cluster
                .pod(pod)
                .filter(|p| p.status.phase == PodPhase::Pending)
                .map(|p| {
                    let views = w.cluster.node_views();
                    let requests = &p.spec.requests;
                    let node = match &p.spec.node_name {
                        Some(name) => views
                            .iter()
                            .find(|v| &v.name == name && requests.fits_in(&v.free())),
                        None => w.oracle.pick_node(requests, &views).map(|i| &views[i]),
                    };
                    (pod, node.map(|v| v.name.clone()))
                }),
            _ => None,
        };
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.cluster.handle(now, self.0, &mut out, &mut notes);
        if let Some((pod, want)) = predicted {
            w.attempts += 1;
            let p = w.cluster.pod(pod).expect("attempted pod exists");
            let got = (p.status.phase == PodPhase::Scheduled)
                .then(|| p.status.node_name.clone())
                .flatten();
            if got != want {
                w.divergences.push(format!(
                    "{pod:?} at {now:?}: placed {got:?}, oracle {want:?}"
                ));
            }
            if let Err(e) = w.cluster.verify_node_rank() {
                w.divergences.push(e);
            }
        }
        for (at, e) in out {
            q.schedule_at(at, PickEv(e));
        }
    }
}

#[derive(Debug, Clone)]
enum PickOp {
    /// Submit a pod requesting (cpu millis, memory GiB, GPUs), optionally
    /// pinned to a node index.
    Submit(u64, u64, u64, Option<usize>),
    /// Delete the i-th submitted pod (modulo the submitted count).
    Delete(usize),
    /// Crash the i-th submitted pod.
    Crash(usize),
    FailNode(usize),
    RecoverNode(usize),
    Cordon(usize),
    Uncordon(usize),
    /// Advertise (free, total) slice slots on a node; total 0 withdraws.
    Slices(usize, u64, u64),
    /// Let the simulation advance this many seconds.
    Advance(u64),
}

const PICK_NODES: usize = 6;

fn pick_op() -> impl Strategy<Value = PickOp> {
    let node = 0usize..PICK_NODES;
    prop_oneof![
        6 => (0u64..9_000, 0u64..24, 0u64..4, proptest::option::of(node.clone()))
            .prop_map(|(c, m, g, pin)| PickOp::Submit(c, m, g, pin)),
        2 => (0usize..64).prop_map(PickOp::Delete),
        1 => (0usize..64).prop_map(PickOp::Crash),
        1 => node.clone().prop_map(PickOp::FailNode),
        1 => node.clone().prop_map(PickOp::RecoverNode),
        1 => node.clone().prop_map(PickOp::Cordon),
        1 => node.clone().prop_map(PickOp::Uncordon),
        1 => (node, 0u64..8, 0u64..8).prop_map(|(n, f, t)| PickOp::Slices(n, f, t)),
        2 => (1u64..10).prop_map(PickOp::Advance),
    ]
}

/// Mixed node shapes, two of them identical so score ties are common.
fn pick_config(score: ScorePolicy) -> ClusterConfig {
    let shapes = [
        (8_000, 32, 2),
        (8_000, 32, 2),
        (16_000, 64, 4),
        (4_000, 16, 1),
        (12_000, 48, 0),
        (8_000, 64, 3),
    ];
    ClusterConfig {
        nodes: shapes
            .iter()
            .enumerate()
            .map(|(i, &(cpu, gib, gpus))| NodeConfig {
                name: format!("n{i}"),
                cpu_millis: cpu,
                memory_bytes: gib << 30,
                gpus,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the interleaving of pinned and unpinned submissions,
    /// deletes, crashes, node failures and recoveries, cordons and slice
    /// advertisements: every scheduling attempt places the pod where the
    /// paper-literal scheduler would, and the rank index stays exact.
    #[test]
    fn node_pick_matches_kube_scheduler(
        most_allocated in any::<bool>(),
        ops in proptest::collection::vec(pick_op(), 1..80),
    ) {
        let score = if most_allocated {
            ScorePolicy::MostAllocated
        } else {
            ScorePolicy::LeastAllocated
        };
        let mut eng = Engine::new(PickWorld {
            cluster: ClusterSim::new(pick_config(score)),
            oracle: KubeScheduler::new(score),
            attempts: 0,
            divergences: Vec::new(),
        });
        let name = |i: usize| format!("n{i}");
        let mut submitted: Vec<Uid> = Vec::new();
        let mut horizon = SimTime::ZERO;
        for o in &ops {
            let now = eng.now().max(horizon);
            let mut out = Vec::new();
            let mut notes = Vec::new();
            let cluster = &mut eng.world.cluster;
            match o {
                PickOp::Submit(cpu, gib, gpus, pin) => {
                    let mut requests = ResourceList::cpu_mem(*cpu, gib << 30);
                    if *gpus > 0 {
                        requests = requests.with_extended(NVIDIA_GPU, *gpus);
                    }
                    let mut spec = PodSpec::new("img", requests);
                    spec.node_name = pin.map(name);
                    let pod = format!("p{}", submitted.len());
                    submitted.push(cluster.submit_pod(now, pod, spec, &mut out));
                }
                PickOp::Delete(i) if !submitted.is_empty() => {
                    let uid = submitted[i % submitted.len()];
                    cluster.delete_pod(now, uid, &mut out, &mut notes);
                }
                PickOp::Crash(i) if !submitted.is_empty() => {
                    let uid = submitted[i % submitted.len()];
                    cluster.crash_pod(now, uid, "OOMKilled", &mut out, &mut notes);
                }
                PickOp::FailNode(n) => {
                    cluster.fail_node(now, &name(*n), &mut notes);
                }
                PickOp::RecoverNode(n) => {
                    cluster.recover_node(now, &name(*n), &mut out);
                }
                PickOp::Cordon(n) => {
                    cluster.cordon_node(&name(*n));
                }
                PickOp::Uncordon(n) => {
                    cluster.uncordon_node(now, &name(*n), &mut out);
                }
                PickOp::Slices(n, free, total) => {
                    cluster.set_spatial_slices(&name(*n), *free, *total);
                }
                PickOp::Advance(secs) => {
                    horizon = now + SimDuration::from_secs(*secs);
                    eng.run_until(horizon);
                }
                PickOp::Delete(_) | PickOp::Crash(_) => {}
            }
            prop_assert!(eng.world.cluster.verify_node_rank().is_ok());
            for (at, e) in out {
                eng.queue.schedule_at(at, PickEv(e));
            }
        }
        eng.run_to_completion(1_000_000);
        prop_assert!(
            eng.world.divergences.is_empty(),
            "{} of {} attempts diverged: {:?}",
            eng.world.divergences.len(),
            eng.world.attempts,
            eng.world.divergences
        );
    }
}
