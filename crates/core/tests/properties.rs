//! Property-based tests: Algorithm 1 and the vGPU pool must uphold the
//! paper's scheduling invariants for arbitrary request streams.

use ks_cluster::api::Uid;
use ks_telemetry::provenance::SchedProv;
use kubeshare::algorithm::{schedule, Decision, SchedRequest};
use kubeshare::locality::Locality;
use kubeshare::pool::VgpuPool;
use kubeshare::Substrate;
use proptest::prelude::*;

/// A generated request: fractional demands plus optional labels drawn from
/// small alphabets (so collisions actually happen).
#[derive(Debug, Clone)]
struct GenReq {
    util: f64,
    mem: f64,
    aff: Option<u8>,
    anti: Option<u8>,
    excl: Option<u8>,
}

fn gen_req() -> impl Strategy<Value = GenReq> {
    (
        0.05f64..0.9,
        0.05f64..0.9,
        proptest::option::weighted(0.25, 0u8..3),
        proptest::option::weighted(0.25, 0u8..3),
        proptest::option::weighted(0.25, 0u8..2),
    )
        .prop_map(|(util, mem, aff, anti, excl)| GenReq {
            util,
            mem,
            aff,
            anti,
            excl,
        })
}

fn locality(r: &GenReq) -> Locality {
    let mut loc = Locality::none();
    if let Some(a) = r.aff {
        loc = loc.with_affinity(format!("aff-{a}"));
    }
    if let Some(a) = r.anti {
        loc = loc.with_anti_affinity(format!("anti-{a}"));
    }
    if let Some(e) = r.excl {
        loc = loc.with_exclusion(format!("excl-{e}"));
    }
    loc
}

/// Drives a request stream through schedule+attach, mirroring what
/// KubeShare-Sched does, and returns the pool plus each request's device.
fn drive(reqs: &[GenReq]) -> (VgpuPool, Vec<Option<kubeshare::GpuId>>) {
    let mut pool = VgpuPool::new();
    let mut placed = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let loc = locality(r);
        let req = SchedRequest {
            util: r.util,
            mem: r.mem,
            locality: loc.clone(),
        };
        let decision = schedule(Substrate::TimeSlice, &req, &mut pool, &mut SchedProv::off());
        let id = match decision {
            Decision::Assign(id) => Some(id),
            Decision::NewDevice(id) => {
                pool.insert_creating(id.clone());
                Some(id)
            }
            Decision::Reject(_) => None,
            // `schedule` is the time-slice path; it never reconfigures.
            Decision::Reconfigure(_) => unreachable!("time-slice path proposed a reconfigure"),
        };
        if let Some(id) = &id {
            pool.attach(
                id,
                Uid(i as u64 + 1),
                r.util,
                r.mem,
                loc.affinity.as_deref(),
                loc.anti_affinity.as_deref(),
                loc.exclusion.as_deref(),
            );
        }
        placed.push(id);
    }
    (pool, placed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capacity invariant: no device is ever over-committed by request or
    /// memory (the `attach` assert would fire; checked explicitly too).
    #[test]
    fn no_device_overcommitted(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let (pool, _) = drive(&reqs);
        for d in pool.devices() {
            prop_assert!(d.util_free >= -1e-9);
            prop_assert!(d.mem_free >= -1e-9);
            let total: f64 = d.attached.values().map(|&(u, _)| u).sum();
            prop_assert!(total <= 1.0 + 1e-9, "Σrequest = {total}");
        }
    }

    /// Anti-affinity invariant: two placed requests with the same
    /// anti-affinity label never share a device.
    #[test]
    fn anti_affinity_never_colocates(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let (_, placed) = drive(&reqs);
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if let (Some(a), Some(b)) = (&reqs[i].anti, &reqs[j].anti) {
                    if a == b {
                        if let (Some(di), Some(dj)) = (&placed[i], &placed[j]) {
                            prop_assert_ne!(di, dj, "anti-affine pair co-located");
                        }
                    }
                }
            }
        }
    }

    /// Exclusion invariant: requests with different exclusion labels (or
    /// one labelled, one not) never share a device.
    #[test]
    fn exclusion_never_mixes_tenants(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let (_, placed) = drive(&reqs);
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if reqs[i].excl != reqs[j].excl {
                    if let (Some(di), Some(dj)) = (&placed[i], &placed[j]) {
                        prop_assert_ne!(
                            di, dj,
                            "tenants {:?} and {:?} share a device",
                            reqs[i].excl, reqs[j].excl
                        );
                    }
                }
            }
        }
    }

    /// Affinity invariant: all placed requests with the same affinity
    /// label land on the same device.
    #[test]
    fn affinity_groups_stay_together(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let (_, placed) = drive(&reqs);
        for label in 0u8..3 {
            let devices: Vec<_> = reqs
                .iter()
                .zip(&placed)
                .filter(|(r, p)| r.aff == Some(label) && p.is_some())
                .map(|(_, p)| p.clone().unwrap())
                .collect();
            for w in devices.windows(2) {
                prop_assert_eq!(&w[0], &w[1], "affinity group split");
            }
        }
    }

    /// Determinism: the same request stream always yields the same
    /// placements.
    #[test]
    fn scheduling_is_deterministic(reqs in proptest::collection::vec(gen_req(), 1..40)) {
        let (_, a) = drive(&reqs);
        let (_, b) = drive(&reqs);
        prop_assert_eq!(a, b);
    }

    /// Rejections only happen for affinity-constrained requests — a
    /// label-free request can always fall back to a new device.
    #[test]
    fn only_affinity_requests_get_rejected(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let (_, placed) = drive(&reqs);
        for (r, p) in reqs.iter().zip(&placed) {
            if p.is_none() {
                prop_assert!(r.aff.is_some(), "label-free request rejected: {r:?}");
            }
        }
    }

    /// Pool attach/detach round trip restores full capacity and clears
    /// labels.
    #[test]
    fn detach_restores_capacity(reqs in proptest::collection::vec(gen_req(), 1..40)) {
        let (mut pool, placed) = drive(&reqs);
        for (i, id) in placed.iter().enumerate() {
            if let Some(id) = id {
                if pool.get(id).is_some() {
                    pool.detach(id, Uid(i as u64 + 1));
                }
            }
        }
        for d in pool.devices() {
            prop_assert!((d.util_free - 1.0).abs() < 1e-9);
            prop_assert!((d.mem_free - 1.0).abs() < 1e-9);
            prop_assert!(d.aff.is_empty() && d.anti_aff.is_empty() && d.excl.is_none());
            prop_assert!(d.is_idle());
        }
    }
}
