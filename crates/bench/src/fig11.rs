//! Fig. 11: scheduling time of KubeShare-Sched vs the number of SharePods
//! in the system (§5.4).
//!
//! Algorithm 1 is O(N) in the number of devices/sharePods, so scheduling
//! time grows linearly. The paper measures its Go implementation including
//! etcd round trips (<400 ms at 100 SharePods); our in-memory Rust
//! implementation is µs-scale, so the table reports both the measured time
//! and a modelled total that adds the etcd read the controller performs
//! per tracked SharePod (≈3 ms each, the paper's dominant term).

use std::time::Instant;

use ks_cluster::api::Uid;
use ks_sim_core::rng::SimRng;
use kubeshare::algorithm::{schedule_reference, SchedRequest};
use kubeshare::locality::Locality;
use kubeshare::pool::VgpuPool;

use crate::report::{f3, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// SharePods tracked in the pool.
    pub sharepods: usize,
    /// Mean time of one scheduling decision (µs), measured.
    pub measured_us: f64,
    /// Modelled end-to-end time (ms) including per-SharePod etcd reads.
    pub modelled_ms: f64,
}

/// Builds a pool tracking `n` sharePods spread over `n / 3 + 1` devices
/// with a mix of labels, then times `iters` scheduling decisions.
pub fn measure(n: usize, iters: u32, seed: u64) -> Point {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool = VgpuPool::new();
    let devices = n / 3 + 1;
    let ids: Vec<_> = (0..devices)
        .map(|i| {
            let id = pool.fresh_id();
            pool.insert_creating(id.clone());
            pool.mark_ready(&id, format!("node-{}", i % 8), format!("GPU-{i}"));
            id
        })
        .collect();
    // Attach n sharePods round-robin with small demands and occasional
    // labels, mirroring a busy cluster.
    for s in 0..n {
        let dev = &ids[s % devices];
        let request = 0.05 + 0.2 * rng.uniform();
        if pool.get(dev).unwrap().util_free < request + 0.05 {
            continue;
        }
        let aff = (s % 7 == 0).then(|| format!("grp-{}", s % 5));
        let anti = (s % 5 == 0).then(|| format!("noisy-{}", s % 3));
        pool.attach(
            dev,
            Uid(s as u64 + 1),
            request,
            request,
            aff.as_deref(),
            anti.as_deref(),
            None,
        );
    }
    let req = SchedRequest {
        util: 0.15,
        mem: 0.15,
        locality: Locality::none().with_anti_affinity("noisy-1"),
    };
    // Warm up, then measure.
    for _ in 0..iters / 10 + 1 {
        let _ = schedule_reference(&req, &mut pool);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(schedule_reference(std::hint::black_box(&req), &mut pool));
    }
    let measured_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    // The paper's controller reads each tracked SharePod from etcd when
    // reconciling; one RTT ≈ 3 ms dominates at their scale.
    let modelled_ms = measured_us / 1e3 + n as f64 * 3.0;
    Point {
        sharepods: n,
        measured_us,
        modelled_ms,
    }
}

/// Runs the sweep.
pub fn run(sizes: &[usize], iters: u32) -> Vec<Point> {
    sizes.iter().map(|&n| measure(n, iters, 99)).collect()
}

/// Default sweep sizes (the paper sweeps up to 100; we extend to 1000).
pub fn default_sizes() -> Vec<usize> {
    vec![10, 25, 50, 100, 250, 500, 1000]
}

/// Renders the figure data.
pub fn report(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Fig 11 — KubeShare-Sched scheduling time vs number of SharePods",
        &["sharepods", "measured (us)", "modelled w/ etcd (ms)"],
    );
    for p in points {
        t.row(vec![
            p.sharepods.to_string(),
            f3(p.measured_us),
            f3(p.modelled_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_time_grows_roughly_linearly() {
        let pts = run(&[50, 200, 800], 200);
        // Time grows with N…
        assert!(pts[0].measured_us < pts[2].measured_us);
        // …and sub-quadratically: 16× the sharePods should cost well under
        // 100× the time (allowing for cache effects and noise).
        let ratio = pts[2].measured_us / pts[0].measured_us.max(0.001);
        assert!(ratio < 100.0, "growth ratio {ratio}");
    }

    #[test]
    fn modelled_time_matches_paper_scale() {
        let p = measure(100, 100, 1);
        // Paper: < 400 ms at 100 SharePods (Go + etcd).
        assert!(
            p.modelled_ms < 400.0,
            "modelled {} ms at 100 sharePods",
            p.modelled_ms
        );
        assert!(p.modelled_ms > 100.0, "etcd term present");
    }
}
