//! Table 1, executed: each capability row of the paper's comparison is
//! probed against the actual implementations, not just asserted as
//! metadata.

use kubeshare_repro::baselines::extender::{aliyun, deepomatic, gaiagpu, ExtenderSystem};
use kubeshare_repro::baselines::ExtenderError;
use kubeshare_repro::cluster::api::NodeConfig;
use kubeshare_repro::gpu::device::{GpuDevice, GpuSpec};
use kubeshare_repro::gpu::types::CudaError;
use kubeshare_repro::sim_core::prelude::*;
use kubeshare_repro::vgpu::{IsolationMode, ShareSpec, SharedGpu, VgpuConfig, VgpuEvent};

fn single_gpu_nodes(n: usize) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| NodeConfig {
            name: format!("node-{i}"),
            cpu_millis: 8_000,
            memory_bytes: 32 << 30,
            gpus: 1,
            gpu_memory_bytes: 16 << 30,
        })
        .collect()
}

/// Row "Multi-GPUs per node": Deepomatic can't, the others can.
#[test]
fn multi_gpu_node_support() {
    let multi = vec![NodeConfig::p3_8xlarge("node-0")];
    assert!(matches!(
        ExtenderSystem::new(deepomatic(), multi.clone()),
        Err(ExtenderError::MultiGpuUnsupported { .. })
    ));
    assert!(ExtenderSystem::new(aliyun(), multi.clone()).is_ok());
    assert!(ExtenderSystem::new(gaiagpu(), multi).is_ok());
}

/// Row "Fine-grained allocation": extenders round to scaling-factor units;
/// KubeShare reserves the exact fraction.
#[test]
fn fine_grained_allocation_granularity() {
    let deep = ExtenderSystem::new(deepomatic(), single_gpu_nodes(1)).unwrap();
    // 23% demand costs 30% of the GPU under a scaling factor of 10.
    assert!((deep.effective_fraction(0.23) - 0.30).abs() < 1e-12);

    // KubeShare's pool accounts the raw fraction.
    let mut pool = kubeshare_repro::kubeshare::pool::VgpuPool::new();
    let id = pool.fresh_id();
    pool.insert_creating(id.clone());
    pool.mark_ready(&id, "n".into(), "GPU-x".into());
    pool.attach(
        &id,
        kubeshare_repro::cluster::Uid(1),
        0.23,
        0.23,
        None,
        None,
        None,
    );
    assert!((pool.get(&id).unwrap().util_free - 0.77).abs() < 1e-12);
}

/// Row "Memory isolation": with the guard the offender gets the OOM; without
/// it, an innocent co-tenant crashes when the device runs out.
#[test]
fn memory_isolation_probe() {
    // Aliyun-style (memory-only isolation): the over-allocator is stopped
    // at its own quota.
    let dev = GpuDevice::new("n", 0, GpuSpec::test_gpu(1000));
    let mut guarded = SharedGpu::new(dev, VgpuConfig::default(), IsolationMode::MEMORY_ONLY);
    let hog = guarded.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
    let victim = guarded.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
    assert!(matches!(
        guarded.mem_alloc(hog, 700),
        Err(CudaError::OutOfMemory { .. })
    ));
    guarded.mem_alloc(hog, 500).unwrap();
    guarded.mem_alloc(victim, 500).unwrap(); // victim unharmed

    // Deepomatic-style (no isolation): the hog succeeds and the victim
    // crashes with a device-level OOM — the §4.5 failure mode.
    let dev = GpuDevice::new("n", 1, GpuSpec::test_gpu(1000));
    let mut bare = SharedGpu::new(dev, VgpuConfig::default(), IsolationMode::NONE);
    let hog = bare.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
    let victim = bare.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
    bare.mem_alloc(hog, 900).unwrap(); // over its share, nothing stops it
    assert!(matches!(
        bare.mem_alloc(victim, 400),
        Err(CudaError::OutOfMemory { .. })
    ));
}

/// Row "Computation isolation": a greedy co-tenant is throttled to its
/// gpu_limit under the token, and unconstrained without it.
#[test]
fn compute_isolation_probe() {
    struct W {
        gpu: SharedGpu,
        done: Vec<(kubeshare_repro::vgpu::ClientId, SimTime)>,
        remaining: std::collections::HashMap<kubeshare_repro::vgpu::ClientId, u32>,
    }
    struct Ev(VgpuEvent);
    impl SimEvent<W> for Ev {
        fn fire(self, now: SimTime, w: &mut W, q: &mut EventQueue<Self>) {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            w.gpu.handle(now, self.0, &mut out, &mut notes);
            for n in notes {
                let kubeshare_repro::vgpu::VgpuNotice::BurstDone { client, .. } = n;
                let left = w.remaining.get_mut(&client).unwrap();
                if *left > 0 {
                    *left -= 1;
                    w.gpu
                        .submit_burst(now, client, SimDuration::from_millis(10), 0, &mut out);
                } else {
                    w.done.push((client, now));
                }
            }
            for (at, e) in out {
                q.schedule_at(at, Ev(e));
            }
        }
    }

    let run = |mode: IsolationMode| {
        let dev = GpuDevice::new("n", 0, GpuSpec::test_gpu(1 << 30));
        let mut gpu = SharedGpu::new(dev, VgpuConfig::default(), mode);
        // Greedy tenant limited to 30%; quiet tenant with plenty of room.
        let greedy = gpu.attach(ShareSpec::new(0.2, 0.3, 0.4).unwrap());
        let quiet = gpu.attach(ShareSpec::new(0.2, 1.0, 0.4).unwrap());
        let mut eng = Engine::new(W {
            gpu,
            done: Vec::new(),
            remaining: [(greedy, 400u32), (quiet, 100u32)].into_iter().collect(),
        });
        let mut out = Vec::new();
        eng.world.gpu.submit_burst(
            SimTime::ZERO,
            greedy,
            SimDuration::from_millis(10),
            0,
            &mut out,
        );
        eng.world.gpu.submit_burst(
            SimTime::ZERO,
            quiet,
            SimDuration::from_millis(10),
            0,
            &mut out,
        );
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(10_000_000);
        let greedy_end = eng.world.done.iter().find(|(c, _)| *c == greedy).unwrap().1;
        greedy_end.as_secs_f64()
    };

    // 4s of greedy work at a 0.3 cap needs ≥ 13.3s with the token…
    let with_token = run(IsolationMode::FULL);
    assert!(with_token > 12.0, "token must throttle: {with_token}");
    // …and finishes in ~5s (sharing the FIFO with the quiet job) without.
    let without = run(IsolationMode::NONE);
    assert!(without < 6.0, "no isolation → no throttle: {without}");
}

/// Rows "First class with GPU identity" + "Locality constraint": only the
/// KubeShare API exposes them, and they actually separate workloads.
#[test]
fn locality_constraints_probe() {
    use ks_telemetry::provenance::SchedProv;
    use kubeshare_repro::cluster::api::Uid;
    use kubeshare_repro::kubeshare::algorithm::{schedule, Decision, SchedRequest};
    use kubeshare_repro::kubeshare::locality::Locality;
    use kubeshare_repro::kubeshare::pool::VgpuPool;
    use kubeshare_repro::kubeshare::Substrate;

    let mut pool = VgpuPool::new();
    for i in 0..2 {
        let id = pool.fresh_id();
        pool.insert_creating(id.clone());
        pool.mark_ready(&id, "n".into(), format!("GPU-{i}"));
    }
    // First noisy job lands somewhere; second must land elsewhere.
    let req = |loc: Locality| SchedRequest {
        util: 0.4,
        mem: 0.4,
        locality: loc,
    };
    let d1 = schedule(
        Substrate::TimeSlice,
        &req(Locality::none().with_anti_affinity("noisy")),
        &mut pool,
        &mut SchedProv::off(),
    );
    let Decision::Assign(g1) = d1 else {
        panic!("{d1:?}")
    };
    pool.attach(&g1, Uid(1), 0.4, 0.4, None, Some("noisy"), None);
    let d2 = schedule(
        Substrate::TimeSlice,
        &req(Locality::none().with_anti_affinity("noisy")),
        &mut pool,
        &mut SchedProv::off(),
    );
    let Decision::Assign(g2) = d2 else {
        panic!("{d2:?}")
    };
    assert_ne!(g1, g2);

    // The extender systems have no field to express this at all:
    // `ExtenderSystem::submit_shared_job` takes only a ShareSpec.
    // (Compile-time absence; nothing to probe at runtime.)
}
