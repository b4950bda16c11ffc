//! Algorithm 1: locality & resource aware scheduling (paper §4.3).
//!
//! Given a container's requirements `r` (gpu_request, gpu_mem, locality
//! labels) and the vGPU pool `D`, pick the GPUID to bind:
//!
//! * **Step 1** — affinity: if `r` has an affinity label and a device
//!   already carries it, the container *must* go there (reject on any
//!   conflict with exclusion/anti-affinity/capacity). If no device carries
//!   the label yet, prefer an idle or brand-new device so the group has
//!   room to grow.
//! * **Step 2** — filter: drop devices that conflict on exclusion or
//!   anti-affinity or lack residual capacity (idle devices are clean and
//!   always pass).
//! * **Step 3** — placement: **best-fit** among devices *without* affinity
//!   labels, then **worst-fit** among devices *with* affinity labels
//!   (keeping room for their future group members), then a new device.
//!
//! The runtime path, [`schedule`], serves these steps from
//! [`VgpuPool`]'s slot-addressed capacity indexes by ordered range scans.
//! The paper-literal linear scan survives as [`schedule_reference`], the
//! oracle the differential tests hold the runtime path to byte-identical
//! decisions against (`tests/sched_differential.rs`, DESIGN.md §10).

use ks_cluster::api::Uid;
use ks_partition::{Profile, Substrate, TableState, SLOTS_PER_GPU};
use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, FlightRecorder, Outcome, ReasonCode, SchedProv};

use crate::gpuid::GpuId;
use crate::locality::Locality;
use crate::pool::{PoolDevice, VgpuPool};

/// A container's scheduling requirements (`r` in Algorithm 1).
#[derive(Debug, Clone)]
pub struct SchedRequest {
    /// `gpu_request` — minimum compute share to reserve.
    pub util: f64,
    /// `gpu_mem` — memory fraction to reserve.
    pub mem: f64,
    /// Locality labels.
    pub locality: Locality,
}

/// The algorithm's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Bind to an existing vGPU.
    Assign(GpuId),
    /// Create a new vGPU with this (fresh) GPUID and bind to it.
    NewDevice(GpuId),
    /// Spatial only: no legal slice start hosts the request anywhere, but
    /// this partitioned device holds enough *total* free slots — capacity
    /// stranded purely by slice geometry. The caller should drain and
    /// reconfigure the device, then retry the request.
    Reconfigure(GpuId),
    /// Constraints cannot be satisfied (paper's `return -1`).
    Reject(RejectReason),
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Affinity target exists but carries a different exclusion label.
    ExclusionConflict,
    /// Affinity target already hosts the request's anti-affinity label.
    AntiAffinityConflict,
    /// Affinity target lacks residual capacity.
    InsufficientCapacity,
}

fn excl_matches(req: &Option<String>, dev: &Option<String>) -> bool {
    req == dev
}

fn anti_aff_conflicts(req: &Option<String>, dev: &PoolDevice) -> bool {
    match req {
        Some(label) => dev.anti_aff.contains(label),
        None => false,
    }
}

fn has_capacity(req: &SchedRequest, dev: &PoolDevice) -> bool {
    req.util <= dev.util_free + 1e-9 && req.mem <= dev.mem_free + 1e-9
}

/// Step 2's filter: idle devices are clean and always pass; others must
/// match the exclusion label, hold no conflicting anti-affinity label,
/// and have residual capacity.
fn passes_filter(req: &SchedRequest, d: &PoolDevice) -> bool {
    d.is_idle()
        || (excl_matches(&req.locality.exclusion, &d.excl)
            && !anti_aff_conflicts(&req.locality.anti_affinity, d)
            && has_capacity(req, d))
}

/// Fit metric: total residual after hypothetical placement. Best-fit
/// minimizes it (pack tight); worst-fit maximizes it (keep room).
fn residual_after(req: &SchedRequest, dev: &PoolDevice) -> f64 {
    (dev.util_free - req.util) + (dev.mem_free - req.mem)
}

/// The fit metric of placing `req` on an existing device: the residual
/// Step 3 optimises, exposed so KubeShare-Sched can record the fit score
/// of the decision it just made. `None` if the device is not in the pool.
pub fn fit_residual(req: &SchedRequest, pool: &VgpuPool, gpuid: &GpuId) -> Option<f64> {
    pool.get(gpuid).map(|d| residual_after(req, d))
}

/// Runs the scheduler for a request on a given [`Substrate`]: requests
/// that want a spatial slice take the fragmentation-aware slice path;
/// everything else takes Algorithm 1 over the pool's capacity indexes —
/// a `TimeSlice`-only workload is decision-identical to the paper-literal
/// [`schedule_reference`] (enforced by `tests/sched_differential.rs` and
/// `tests/substrate_differential.rs`).
///
/// `prov` is a pure observer: every capture call is gated on its
/// enablement and mutates nothing the algorithm reads, so decisions are
/// identical with it on or off. With capture on, the candidates recorded
/// are the devices the range scans actually examined.
pub fn schedule(
    substrate: Substrate,
    req: &SchedRequest,
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decision {
    if substrate.wants_spatial(req.util, req.mem) {
        prov.note_static("substrate routes to the spatial (slice) path");
        return schedule_spatial(req, pool, prov);
    }
    // ---- Step 1: affinity ----
    if let Some(aff) = &req.locality.affinity {
        if let Some(id) = pool.affinity_target(aff) {
            let d = pool.get(id).expect("indexed device in pool");
            prov.note_static("affinity label binds to its existing carrier (see candidates)");
            return join_affinity_group(req, d, prov);
        }
        if let Some(id) = pool.first_unattached() {
            let id = id.clone();
            prov.choose(id.as_str(), "idle", 2.0);
            prov.note_static("no device carries the affinity label; seed group on idle device");
            return Decision::Assign(id);
        }
        prov.note_static("no device carries the affinity label and none idle; new device");
        return Decision::NewDevice(pool.fresh_id());
    }

    // ---- Steps 2+3 fused: range-scan, filter, first survivor wins ----
    // Idle devices sit at fit key 2.0 exactly (the pool snaps residuals on
    // idle), so clamping the bound to 2.0 keeps them in range even when
    // the request alone could never fit an existing device.
    let min_fit = (req.util + req.mem - FIT_RANGE_MARGIN).clamp(0.0, 2.0);
    let passes = |d: &PoolDevice| passes_filter(req, d);
    if let Some(d) = first_survivor(pool.plain_fit_range(min_fit), passes, "best_fit", prov) {
        prov.note_static("best_fit: first survivor of ascending plain-fit scan");
        return Decision::Assign(d.id.clone());
    }
    if let Some(d) = first_survivor(
        pool.labeled_fit_range_desc(min_fit),
        passes,
        "worst_fit",
        prov,
    ) {
        prov.note_static("worst_fit: first survivor of descending labeled-fit scan");
        return Decision::Assign(d.id.clone());
    }
    prov.note_static("no indexed device in fit range passes; new device");
    Decision::NewDevice(pool.fresh_id())
}

/// Margin subtracted from the fit-range lower bound so the indexed scan
/// provably includes every device [`has_capacity`] (epsilon `1e-9` per
/// axis) would admit: a device passing both axes has fit key at least
/// `need − 2e-9`, and `2e-9 < 1e-8` with room for rounding to spare.
const FIT_RANGE_MARGIN: f64 = 1e-8;

/// The placement step of both rules: the first device of an index scan
/// that passes the filter. Best-fit scans `plain_fit` ascending by (fit
/// key, id), so the first survivor is the reference's minimum; worst-fit
/// scans `labeled_fit` descending by fit key (ascending id within a key),
/// so the first survivor is the reference's maximum with the same
/// smallest-id tie-break.
///
/// With capture off this is a bare `find`. With capture on, the first
/// [`SchedProv::scan_room`] examined devices are written straight into
/// the collector as the scan passes them, and the winner's capture slot
/// is known, so the string-searching [`SchedProv::choose`] is skipped.
fn first_survivor<'p>(
    mut scan: impl Iterator<Item = &'p PoolDevice>,
    passes: impl Fn(&PoolDevice) -> bool,
    rule: &'static str,
    prov: &mut SchedProv,
) -> Option<&'p PoolDevice> {
    if !prov.is_on() {
        return scan.find(|d| passes(d));
    }
    // Capture slots are collector-wide: an earlier scan of this decision
    // may already hold the first `base` of them.
    let base = prov.candidates().len();
    let room = prov.scan_room();
    let (mut scanned, mut captured) = (0usize, 0usize);
    let winner = scan.find(|d| {
        scanned += 1;
        if captured < room {
            prov.scan_push(rule, d.fit_key(), d.id.as_str());
            captured += 1;
        }
        passes(d)
    });
    prov.add_considered(scanned);
    if let Some(d) = winner {
        // The winner was captured iff the scan stopped inside the window.
        if scanned <= room {
            prov.choose_at(base + captured - 1, rule, d.fit_key());
        } else {
            prov.choose_append(d.id.as_str(), rule, d.fit_key());
        }
    }
    winner
}

/// Step 1's verdict on the device already carrying the request's
/// affinity label: the group member binds there or nowhere.
fn join_affinity_group(req: &SchedRequest, d: &PoolDevice, prov: &mut SchedProv) -> Decision {
    prov.candidate_with("affinity", d.fit_key(), || d.id.as_str());
    if !excl_matches(&req.locality.exclusion, &d.excl) {
        prov.reject(ReasonCode::AffinityExcluded);
        return Decision::Reject(RejectReason::ExclusionConflict);
    }
    if anti_aff_conflicts(&req.locality.anti_affinity, d) {
        prov.reject(ReasonCode::AntiAffinityConflict);
        return Decision::Reject(RejectReason::AntiAffinityConflict);
    }
    if !has_capacity(req, d) {
        prov.reject(ReasonCode::AffinityNoCapacity);
        return Decision::Reject(RejectReason::InsufficientCapacity);
    }
    prov.choose(d.id.as_str(), "affinity", d.fit_key());
    Decision::Assign(d.id.clone())
}

/// The paper-literal Algorithm 1 over time-sliced devices: every step is
/// a linear scan of the whole pool in id order. Not used at runtime; it
/// is the named oracle [`schedule`] must match decision for decision
/// (the differential tests), and the baseline `fig11` and the
/// `sched_algo` bench time. It spells out the Step-1 verdict and the
/// Step-2 filter itself rather than sharing the runtime path's helpers,
/// so a mistake in either cannot hide from the differential tests; only
/// the label/capacity predicates are shared. Pure with respect to pool *contents*; only
/// consumes a fresh id from the pool's id counter when a new device is
/// needed.
pub fn schedule_reference(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    let schedulable = |d: &&PoolDevice| !d.releasing && !d.is_spatial();
    // ---- Step 1: affinity (lines 1–14) ----
    if let Some(aff) = &req.locality.affinity {
        if let Some(d) = pool
            .devices()
            .filter(schedulable)
            .find(|d| d.aff.contains(aff))
        {
            if !excl_matches(&req.locality.exclusion, &d.excl) {
                return Decision::Reject(RejectReason::ExclusionConflict);
            }
            if anti_aff_conflicts(&req.locality.anti_affinity, d) {
                return Decision::Reject(RejectReason::AntiAffinityConflict);
            }
            if !has_capacity(req, d) {
                return Decision::Reject(RejectReason::InsufficientCapacity);
            }
            return Decision::Assign(d.id.clone());
        }
        // No device carries the label yet: prefer an idle device so the
        // affinity group has maximal room (lines 9–14).
        if let Some(d) = pool.devices().filter(schedulable).find(|d| d.is_idle()) {
            return Decision::Assign(d.id.clone());
        }
        return Decision::NewDevice(pool.fresh_id());
    }

    // ---- Step 2: filter (lines 15–20) ----
    let candidates: Vec<&PoolDevice> = pool
        .devices()
        .filter(schedulable)
        .filter(|d| {
            d.is_idle() // clean device: constraints are vacuous
                || (excl_matches(&req.locality.exclusion, &d.excl)
                    && !anti_aff_conflicts(&req.locality.anti_affinity, d)
                    && has_capacity(req, d))
        })
        .collect();

    // ---- Step 3: placement (lines 21–26) ----
    // The fit metric is the residual after placement, `fit_key − (u+m)`;
    // the request term is constant across candidates, so ordering by the
    // device's fit key alone selects the same device — and does it with
    // float comparisons that an ordered index reproduces bit-for-bit.
    // Best fit among devices without affinity labels…
    let best = candidates
        .iter()
        .filter(|d| d.aff.is_empty())
        .min_by(|a, b| {
            a.fit_key()
                .total_cmp(&b.fit_key())
                .then_with(|| a.id.cmp(&b.id))
        });
    // …worst fit among devices with affinity labels…
    let worst = || {
        candidates
            .iter()
            .filter(|d| !d.aff.is_empty())
            .max_by(|a, b| {
                a.fit_key()
                    .total_cmp(&b.fit_key())
                    .then_with(|| b.id.cmp(&a.id))
            })
    };
    if let Some(d) = best.or_else(worst) {
        return Decision::Assign(d.id.clone());
    }
    // …else a brand-new vGPU.
    Decision::NewDevice(pool.fresh_id())
}

/// A device's (free, reachable) capacity fractions for the pool
/// fragmentation score — `largest_alloc == free` on time-sliced devices,
/// the largest placeable profile on partitioned ones.
fn free_view(d: &PoolDevice) -> (f64, f64) {
    match &d.partition {
        Some(t) => (
            f64::from(t.free_slots()) / f64::from(SLOTS_PER_GPU),
            f64::from(t.largest_placeable_slots()) / f64::from(SLOTS_PER_GPU),
        ),
        None => (d.util_free, d.util_free),
    }
}

/// The spatial analogue of Algorithm 1: bind the request to a dedicated
/// MIG-style slice instead of a token lease.
///
/// * **Step 1** — affinity, as in the reference: a partitioned device
///   already carrying the label is binding (reject on conflicts or when
///   no legal start hosts the group member's profile); otherwise prefer
///   an empty partitioned device so the group has maximal room.
/// * **Step 2** — filter: non-releasing partitioned devices passing the
///   exclusion/anti-affinity predicates (empty devices are clean) whose
///   active table can place the profile.
/// * **Step 3** — placement by *fragmentation score*: pick the candidate
///   whose hypothetical placement leaves the pool least fragmented
///   ([`ks_partition::pool_fragmentation`] after the alloc), smallest id
///   on ties. Where best-fit packs residuals, this packs *geometry*:
///   it avoids placements that strand slots no profile can start on.
///
/// When no legal start exists anywhere but some active device holds
/// enough total free slots, the verdict is [`Decision::Reconfigure`] —
/// the capacity exists and only the layout blocks it, so the caller
/// should pay the explicit reconfiguration cost rather than burn a whole
/// new physical GPU. The collector captures the fragmentation score of
/// every placeable candidate.
fn schedule_spatial(req: &SchedRequest, pool: &mut VgpuPool, prov: &mut SchedProv) -> Decision {
    let demand = req.util.max(req.mem);
    let Some(profile) = Profile::smallest_covering(demand) else {
        prov.reject(ReasonCode::DemandOverCapacity);
        prov.note(|| format!("demand {demand:.3} exceeds a whole device; no covering profile"));
        return Decision::Reject(RejectReason::InsufficientCapacity);
    };
    prov.note(|| format!("demand {demand:.3} rounds up to profile {profile:?}"));

    // ---- Step 1: affinity ----
    if let Some(aff) = &req.locality.affinity {
        let target = pool.spatial_devices().find(|d| d.aff.contains(aff));
        if let Some(d) = target {
            prov.candidate_with("affinity", 0.0, || d.id.as_str());
            prov.note(|| format!("affinity '{aff}' binds to {}", d.id));
            if !excl_matches(&req.locality.exclusion, &d.excl) {
                prov.reject(ReasonCode::AffinityExcluded);
                return Decision::Reject(RejectReason::ExclusionConflict);
            }
            if anti_aff_conflicts(&req.locality.anti_affinity, d) {
                prov.reject(ReasonCode::AntiAffinityConflict);
                return Decision::Reject(RejectReason::AntiAffinityConflict);
            }
            let table = d.partition.as_ref().expect("spatial device");
            if !table.can_place(profile) {
                // Enough raw slots but no legal start is geometry
                // stranding; fewer slots than the profile is capacity.
                prov.reject(if table.free_slots() >= profile.slots() {
                    ReasonCode::SliceGeometryStranded
                } else {
                    ReasonCode::AffinityNoCapacity
                });
                return Decision::Reject(RejectReason::InsufficientCapacity);
            }
            prov.choose(d.id.as_str(), "affinity", 0.0);
            return Decision::Assign(d.id.clone());
        }
        if let Some(d) = pool.spatial_devices().find(|d| {
            d.is_idle()
                && d.partition
                    .as_ref()
                    .expect("spatial device")
                    .can_place(profile)
        }) {
            prov.candidate_with("idle", 0.0, || d.id.as_str());
            prov.choose(d.id.as_str(), "idle", 0.0);
            prov.note(|| format!("no device carries affinity '{aff}'; seed group on idle device"));
            return Decision::Assign(d.id.clone());
        }
        prov.note(|| format!("no device carries affinity '{aff}' and none idle; new device"));
        return Decision::NewDevice(pool.fresh_id());
    }

    // ---- Step 2: filter ----
    let passes = |d: &PoolDevice| {
        d.is_idle()
            || (excl_matches(&req.locality.exclusion, &d.excl)
                && !anti_aff_conflicts(&req.locality.anti_affinity, d))
    };

    // ---- Step 3: fragmentation-aware placement ----
    // Pool-wide (free, reachable) totals over every schedulable device of
    // either substrate; each candidate's score is an O(1) delta on them.
    let mut free_total = 0.0;
    let mut reach_total = 0.0;
    for d in pool.devices().filter(|d| !d.releasing) {
        let (f, r) = free_view(d);
        free_total += f;
        reach_total += r;
    }
    let frac = profile.frac();
    let mut best: Option<(f64, GpuId)> = None;
    for d in pool.spatial_devices() {
        if !passes(d) {
            continue;
        }
        let table = d.partition.as_ref().expect("spatial device");
        if !table.can_place(profile) {
            continue;
        }
        let (_, reach_before) = free_view(d);
        let mut after = table.clone();
        after.alloc(profile).expect("can_place checked");
        let reach_after = f64::from(after.largest_placeable_slots()) / f64::from(SLOTS_PER_GPU);
        let free_after = free_total - frac;
        let score = if free_after <= 1e-9 {
            0.0
        } else {
            (1.0 - (reach_total - reach_before + reach_after) / free_after).clamp(0.0, 1.0)
        };
        prov.candidate_with("frag_score", score, || d.id.as_str());
        let better = match &best {
            None => true,
            Some((bs, bid)) => match score.total_cmp(bs) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => d.id < *bid,
                std::cmp::Ordering::Greater => false,
            },
        };
        if better {
            best = Some((score, d.id.clone()));
        }
    }
    if let Some((score, id)) = best {
        prov.choose(id.as_str(), "frag_score", score);
        prov.note(|| {
            "frag_score: placement leaving the pool least fragmented (id tie-break)".to_string()
        });
        return Decision::Assign(id);
    }

    // No legal start anywhere. If an active device holds enough total
    // free slots the capacity is merely stranded by geometry: propose a
    // reconfiguration of the roomiest such device (smallest id on ties).
    let mut target: Option<(u8, GpuId)> = None;
    for d in pool.spatial_devices() {
        if !passes(d) {
            continue;
        }
        let table = d.partition.as_ref().expect("spatial device");
        if table.state() != TableState::Active || table.free_slots() < profile.slots() {
            continue;
        }
        prov.candidate_with("reconfigure", f64::from(table.free_slots()), || {
            d.id.as_str().to_string()
        });
        let better = match &target {
            None => true,
            Some((fs, tid)) => {
                table.free_slots() > *fs || (table.free_slots() == *fs && d.id < *tid)
            }
        };
        if better {
            target = Some((table.free_slots(), d.id.clone()));
        }
    }
    if let Some((fs, id)) = target {
        prov.choose(id.as_str(), "reconfigure", f64::from(fs));
        prov.reject(ReasonCode::SliceGeometryStranded);
        prov.note(|| {
            format!(
                "no legal {}-slot start anywhere, but {fs} free slots are \
                 stranded by geometry; reconfigure the roomiest device",
                profile.slots()
            )
        });
        return Decision::Reconfigure(id);
    }
    prov.note_static("no legal start and no stranded capacity; new device");
    Decision::NewDevice(pool.fresh_id())
}

/// Maps a [`Decision`] and its collector to a provenance [`Outcome`],
/// preferring the collector's precise [`ReasonCode`] over the coarse
/// [`RejectReason`] when both exist.
pub fn outcome_of(decision: &Decision, prov: &SchedProv) -> Outcome {
    match decision {
        Decision::Assign(id) => Outcome::Placed {
            target: id.as_str().into(),
        },
        Decision::NewDevice(id) => Outcome::NewDevice {
            target: id.as_str().into(),
        },
        Decision::Reconfigure(id) => Outcome::Reconfigure {
            target: id.as_str().into(),
        },
        Decision::Reject(r) => Outcome::Rejected {
            reason: prov.reason().unwrap_or(coarse_reason(r)),
        },
    }
}

/// The coarse fallback mapping for rejections recorded without a precise
/// collector-noted code.
pub fn coarse_reason(r: &RejectReason) -> ReasonCode {
    match r {
        RejectReason::ExclusionConflict => ReasonCode::AffinityExcluded,
        RejectReason::AntiAffinityConflict => ReasonCode::AntiAffinityConflict,
        RejectReason::InsufficientCapacity => ReasonCode::NoCapacity,
    }
}

/// One pending sharePod in a scheduling batch.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The sharePod's uid (used to attach its demand to the chosen vGPU).
    pub uid: Uid,
    /// Its scheduling requirements.
    pub req: SchedRequest,
}

impl BatchEntry {
    /// Applies this entry's decision to the pool the way KubeShare-Sched
    /// binds it: `Assign` attaches the demand, `NewDevice` inserts the
    /// creating vGPU and attaches, `Reject` leaves the pool untouched.
    pub fn apply(&self, decision: &Decision, pool: &mut VgpuPool) {
        let id = match decision {
            Decision::Assign(id) => id,
            Decision::NewDevice(id) => {
                pool.insert_creating(id.clone());
                id
            }
            // The time-slice path never proposes a reconfiguration.
            Decision::Reconfigure(_) | Decision::Reject(_) => return,
        };
        let loc = &self.req.locality;
        pool.attach(
            id,
            self.uid,
            self.req.util,
            self.req.mem,
            loc.affinity.as_deref(),
            loc.anti_affinity.as_deref(),
            loc.exclusion.as_deref(),
        );
    }
}

/// Drains a pending queue in one pass with shared pool state: each entry
/// is scheduled in order on the time-slice substrate and its decision
/// [applied](BatchEntry::apply) to the pool before the next entry runs,
/// mirroring how `KubeShareSystem` binds each decision before the
/// controller sees the next pending sharePod. Entries must already be in
/// deterministic (uid) order.
///
/// An enabled `recorder` receives every decision's provenance, stamped
/// `at`; a disabled one makes this the bare drain, decision-identical to
/// the recorded one — the recorder-overhead guard in `ks-bench
/// sched_scale` times exactly this pair. One scratch collector and one
/// recorder session serve the whole batch: `record_scratch` copies only
/// the visible candidates/chain into the ring slot and resets the
/// collector, and the session holds the recorder lock across the drain,
/// so the per-decision cost is flat regardless of record size or ring
/// depth.
pub fn schedule_batch(
    entries: &[BatchEntry],
    pool: &mut VgpuPool,
    at: SimTime,
    recorder: &FlightRecorder,
) -> Vec<(Uid, Decision)> {
    let mut prov = SchedProv::for_recorder(recorder);
    let mut session = recorder.session();
    entries
        .iter()
        .map(|e| {
            let decision = schedule(Substrate::TimeSlice, &e.req, pool, &mut prov);
            e.apply(&decision, pool);
            if prov.is_on() {
                let outcome = outcome_of(&decision, &prov);
                session.record_scratch(at, e.uid.0, 0, DecisionKind::Schedule, outcome, &mut prov);
            }
            (e.uid, decision)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_cluster::api::Uid;

    /// Runs the runtime path with capture off and the reference oracle on
    /// a copy of the same pool, asserts they agree, and returns the
    /// decision.
    fn decide(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
        let mut oracle_pool = pool.clone();
        let d = schedule(Substrate::TimeSlice, req, pool, &mut SchedProv::off());
        assert_eq!(
            d,
            schedule_reference(req, &mut oracle_pool),
            "oracle diverged"
        );
        d
    }

    /// The spatial path, capture off.
    fn spatial(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
        schedule(Substrate::Spatial, req, pool, &mut SchedProv::off())
    }

    fn req(util: f64, mem: f64) -> SchedRequest {
        SchedRequest {
            util,
            mem,
            locality: Locality::none(),
        }
    }

    fn req_loc(util: f64, mem: f64, loc: Locality) -> SchedRequest {
        SchedRequest {
            util,
            mem,
            locality: loc,
        }
    }

    /// Pool with `n` ready devices; returns their ids.
    fn pool(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating(id.clone());
                p.mark_ready(&id, format!("node-{}", i / 4), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn empty_pool_creates_new_device() {
        let mut p = VgpuPool::new();
        match decide(&req(0.5, 0.5), &mut p) {
            Decision::NewDevice(_) => {}
            d => panic!("expected NewDevice, got {d:?}"),
        }
    }

    #[test]
    fn best_fit_packs_tightest_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.6, 0.6, None, None, None); // free 0.4
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // free 0.8
                                                               // 0.3 fits both; best fit picks the tighter device (ids[0]).
        assert_eq!(
            decide(&req(0.3, 0.3), &mut p),
            Decision::Assign(ids[0].clone())
        );
    }

    #[test]
    fn no_fit_on_busy_devices_uses_idle() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.9, 0.9, None, None, None);
        // 0.5 doesn't fit device 0, but device 1 is idle.
        assert_eq!(
            decide(&req(0.5, 0.5), &mut p),
            Decision::Assign(ids[1].clone())
        );
    }

    #[test]
    fn full_pool_spawns_new_device() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.9, 0.9, None, None, None);
        match decide(&req(0.5, 0.5), &mut p) {
            Decision::NewDevice(id) => assert_ne!(id, ids[0]),
            d => panic!("expected NewDevice, got {d:?}"),
        }
    }

    #[test]
    fn affinity_joins_existing_group() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[1], Uid(1), 0.3, 0.3, Some("grp"), None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn affinity_without_group_prefers_idle_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.1, 0.1, None, None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        // ids[0] has load; ids[1] is idle → pick ids[1] to leave room for
        // future "grp" members.
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn affinity_with_no_idle_creates_new() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.1, 0.1, None, None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        assert!(matches!(decide(&r, &mut p), Decision::NewDevice(_)));
    }

    #[test]
    fn affinity_target_exclusion_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(
            &ids[0],
            Uid(1),
            0.3,
            0.3,
            Some("grp"),
            None,
            Some("tenant-a"),
        );
        let r = req_loc(
            0.3,
            0.3,
            Locality::none()
                .with_affinity("grp")
                .with_exclusion("tenant-b"),
        );
        assert_eq!(
            decide(&r, &mut p),
            Decision::Reject(RejectReason::ExclusionConflict)
        );
    }

    #[test]
    fn affinity_target_anti_affinity_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, Some("grp"), Some("noisy"), None);
        let r = req_loc(
            0.3,
            0.3,
            Locality::none()
                .with_affinity("grp")
                .with_anti_affinity("noisy"),
        );
        assert_eq!(
            decide(&r, &mut p),
            Decision::Reject(RejectReason::AntiAffinityConflict)
        );
    }

    #[test]
    fn affinity_target_capacity_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.8, 0.8, Some("grp"), None, None);
        let r = req_loc(0.5, 0.1, Locality::none().with_affinity("grp"));
        assert_eq!(
            decide(&r, &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn anti_affinity_spreads_across_devices() {
        let (mut p, ids) = pool(3);
        // Three anti-affine containers: each must land on a different GPU.
        let mut assigned = Vec::new();
        for i in 0..3 {
            let r = req_loc(0.3, 0.3, Locality::none().with_anti_affinity("noisy"));
            match decide(&r, &mut p) {
                Decision::Assign(id) => {
                    p.attach(&id, Uid(10 + i), 0.3, 0.3, None, Some("noisy"), None);
                    assigned.push(id);
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        assigned.sort();
        assigned.dedup();
        assert_eq!(assigned.len(), 3, "anti-affinity must spread");
        let _ = ids;
    }

    #[test]
    fn anti_affinity_exhausted_creates_new_device() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, Some("noisy"), None);
        let r = req_loc(0.3, 0.3, Locality::none().with_anti_affinity("noisy"));
        assert!(matches!(decide(&r, &mut p), Decision::NewDevice(_)));
    }

    #[test]
    fn exclusion_separates_tenants() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-b"));
        // Device 0 belongs to tenant-a; tenant-b must go elsewhere.
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn same_exclusion_label_shares() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-a"));
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[0].clone()));
    }

    #[test]
    fn unlabeled_request_avoids_exclusive_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req(0.2, 0.2);
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn worst_fit_on_affinity_devices_keeps_room() {
        let (mut p, ids) = pool(2);
        // Both devices carry affinity groups with different loads; a
        // label-free request that fits neither clean rule lands on the one
        // with MORE residual (worst fit), keeping group room balanced.
        p.attach(&ids[0], Uid(1), 0.6, 0.6, Some("g1"), None, None); // free 0.4
        p.attach(&ids[1], Uid(2), 0.2, 0.2, Some("g2"), None, None); // free 0.8
        let r = req(0.3, 0.3);
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn capture_marks_the_worst_fit_winner_after_a_failed_best_fit_scan() {
        let (mut p, ids) = pool(2);
        // Plain device in the fit range (key 1.0) but short on util for
        // the request; the labeled device wins worst-fit.
        p.attach(&ids[0], Uid(1), 0.9, 0.1, None, None, None); // free 0.1/0.9
        p.attach(&ids[1], Uid(2), 0.2, 0.2, Some("g"), None, None); // free 0.8/0.8
        let mut prov = SchedProv::on();
        let d = schedule(Substrate::TimeSlice, &req(0.3, 0.3), &mut p, &mut prov);
        assert_eq!(d, Decision::Assign(ids[1].clone()));
        let cands = prov.candidates();
        assert_eq!(cands.len(), 2);
        assert!(!cands[0].chosen && cands[0].rule == "best_fit");
        let chosen: Vec<_> = cands.iter().filter(|c| c.chosen).collect();
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].target, ids[1].as_str());
        assert_eq!(chosen[0].rule, "worst_fit");
    }

    #[test]
    fn best_fit_preferred_over_affinity_devices() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, Some("g1"), None, None); // aff device
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // plain device
        let r = req(0.3, 0.3);
        // Plain device wins even though the affinity device has equal room.
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn idle_device_passes_filters_despite_stale_look() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, None, Some("tenant-a"));
        p.detach(&ids[0], Uid(1)); // idle again, labels cleared
        let r = req_loc(0.5, 0.5, Locality::none().with_exclusion("tenant-b"));
        assert_eq!(decide(&r, &mut p), Decision::Assign(ids[0].clone()));
    }

    // ---- locality edge cases, runtime path against the oracle ----

    #[test]
    fn empty_pool_with_affinity_creates_new_device() {
        let r = req_loc(0.5, 0.5, Locality::none().with_affinity("g"));
        assert!(matches!(
            decide(&r, &mut VgpuPool::new()),
            Decision::NewDevice(_)
        ));
    }

    #[test]
    fn all_devices_excluded_spawns_new_device() {
        let build = || {
            let (mut p, ids) = pool(3);
            for (i, id) in ids.iter().enumerate() {
                p.attach(
                    id,
                    Uid(i as u64 + 1),
                    0.1,
                    0.1,
                    None,
                    None,
                    Some("tenant-a"),
                );
            }
            p
        };
        let r = req_loc(0.1, 0.1, Locality::none().with_exclusion("tenant-b"));
        assert!(matches!(decide(&r, &mut build()), Decision::NewDevice(_)));
        // An unlabeled request is excluded from tenant devices too.
        assert!(matches!(
            decide(&req(0.1, 0.1), &mut build()),
            Decision::NewDevice(_)
        ));
    }

    #[test]
    fn affinity_group_cannot_span_devices_or_nodes() {
        // pool(8) puts devices on node-0 and node-1 (4 per node). Seed the
        // group on a node-1 device; every subsequent member must land on
        // that same device even with idle devices on node-0, until the
        // device is full — then the member is rejected, never respread.
        let build = || {
            let (mut p, ids) = pool(8);
            p.attach(&ids[5], Uid(1), 0.4, 0.4, Some("grp"), None, None);
            p
        };
        let r = req_loc(0.4, 0.4, Locality::none().with_affinity("grp"));
        let d = decide(&r, &mut build());
        let (p, ids) = pool(8);
        assert_eq!(d, Decision::Assign(ids[5].clone()));
        assert_eq!(p.get(&ids[5]).unwrap().node.as_deref(), Some("node-1"));
        // A member too large for the group's remaining room is rejected —
        // the group never silently spans a second device.
        let r_big = req_loc(0.7, 0.7, Locality::none().with_affinity("grp"));
        assert_eq!(
            decide(&r_big, &mut build()),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn zero_util_request_with_memory_demand() {
        // gpu_request == 0.0 but gpu_mem > 0: placement is driven purely
        // by the memory axis. A device with no memory headroom must be
        // passed over even though util fits trivially.
        let build = || {
            let (mut p, ids) = pool(2);
            p.attach(&ids[0], Uid(1), 0.1, 0.95, None, None, None); // mem_free 0.05
            p.attach(&ids[1], Uid(2), 0.1, 0.2, None, None, None); // mem_free 0.8
            p
        };
        let (_, ids) = pool(2);
        let d = decide(&req(0.0, 0.5), &mut build());
        assert_eq!(d, Decision::Assign(ids[1].clone()));
        // And a zero/zero request best-fits the tightest device.
        let d = decide(&req(0.0, 0.0), &mut build());
        assert_eq!(d, Decision::Assign(ids[0].clone()));
    }

    // ---- spatial substrate ----

    /// Pool with `n` ready *partitioned* devices.
    fn spatial_pool(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating_spatial(id.clone());
                p.mark_ready(&id, format!("node-{}", i / 4), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    fn slice(p: &mut VgpuPool, id: &GpuId, uid: u64, profile: Profile) {
        p.attach_slice(
            id,
            Uid(uid),
            profile,
            profile.frac(),
            profile.frac(),
            None,
            None,
            None,
        )
        .unwrap();
    }

    #[test]
    fn time_slice_scheduler_never_sees_spatial_devices() {
        let (mut p, _sids) = spatial_pool(2);
        // Both paths must create a new device rather than touch a
        // partitioned one.
        match decide(&req(0.5, 0.5), &mut p) {
            Decision::NewDevice(_) => {}
            d => panic!("expected NewDevice, got {d:?}"),
        }
        let r = req_loc(0.5, 0.5, Locality::none().with_affinity("g"));
        match decide(&r, &mut p) {
            Decision::NewDevice(_) => {}
            d => panic!("expected NewDevice, got {d:?}"),
        }
    }

    #[test]
    fn spatial_placement_minimizes_pool_fragmentation() {
        let (mut p, ids) = spatial_pool(2);
        // Device 0 already hosts a P4 (slots 0-3): a P3 completes it
        // exactly; putting the P3 on the empty device 1 would strand its
        // P4 start. The fragmentation score must pack device 0.
        slice(&mut p, &ids[0], 1, Profile::P4);
        assert_eq!(
            spatial(&req(3.0 / 7.0, 0.1), &mut p),
            Decision::Assign(ids[0].clone())
        );
    }

    #[test]
    fn spatial_demand_rounds_up_to_profile() {
        let (mut p, ids) = spatial_pool(1);
        // 0.3 → P3. After binding, only 4 slots remain.
        assert_eq!(
            spatial(&req(0.3, 0.1), &mut p),
            Decision::Assign(ids[0].clone())
        );
        slice(&mut p, &ids[0], 1, Profile::P3);
        let d = p.get(&ids[0]).unwrap();
        assert_eq!(d.partition.as_ref().unwrap().free_slots(), 4);
        // Demand beyond a whole device is unsatisfiable.
        assert_eq!(
            spatial(&req(1.2, 0.1), &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn stranded_capacity_triggers_reconfigure_verdict() {
        let (mut p, ids) = spatial_pool(1);
        // Fill the grid with seven 1-slot tenants, then free all but the
        // ones on slots 0 and 4 — the P3/P4 anchor slots. Five slots are
        // free yet no 3-slot (or larger) profile has a legal start.
        for uid in 1..=7u64 {
            slice(&mut p, &ids[0], uid, Profile::P1);
        }
        let keep: Vec<Uid> = [0u8, 4]
            .iter()
            .map(|&s| p.slice_tenant(&ids[0], s).unwrap())
            .collect();
        for uid in 1..=7u64 {
            if !keep.contains(&Uid(uid)) {
                p.detach(&ids[0], Uid(uid));
            }
        }
        let table = p.get(&ids[0]).unwrap().partition.as_ref().unwrap();
        assert_eq!(table.free_slots(), 5);
        assert!(!table.can_place(Profile::P3));
        // A 3-slot demand: capacity exists, only geometry blocks it.
        assert_eq!(
            spatial(&req(0.4, 0.1), &mut p),
            Decision::Reconfigure(ids[0].clone())
        );
        // A 1-slot demand still fits in place — no reconfig churn.
        assert!(matches!(
            spatial(&req(0.1, 0.1), &mut p),
            Decision::Assign(_)
        ));
    }

    #[test]
    fn spatial_affinity_binds_to_group_device() {
        let (mut p, ids) = spatial_pool(2);
        p.attach_slice(
            &ids[1],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            Some("grp"),
            None,
            None,
        )
        .unwrap();
        let r = req_loc(0.2, 0.2, Locality::none().with_affinity("grp"));
        assert_eq!(spatial(&r, &mut p), Decision::Assign(ids[1].clone()));
        // A group member too large for the remaining grid is rejected.
        let r_big = req_loc(1.0, 1.0, Locality::none().with_affinity("grp"));
        assert_eq!(
            spatial(&r_big, &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn spatial_exclusion_separates_tenants() {
        let (mut p, ids) = spatial_pool(2);
        p.attach_slice(
            &ids[0],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            None,
            None,
            Some("tenant-a"),
        )
        .unwrap();
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-b"));
        assert_eq!(spatial(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn substrate_dispatch_routes_by_waste() {
        let (mut p, ids) = spatial_pool(1);
        // TimeSlice ignores the partitioned device entirely.
        assert!(matches!(
            schedule(
                Substrate::TimeSlice,
                &req(0.5, 0.5),
                &mut p,
                &mut SchedProv::off()
            ),
            Decision::NewDevice(_)
        ));
        // Spatial binds a slice.
        assert_eq!(
            schedule(
                Substrate::Spatial,
                &req(0.5, 0.5),
                &mut p,
                &mut SchedProv::off()
            ),
            Decision::Assign(ids[0].clone())
        );
        // Hybrid: 0.5 → P4 (waste 1/14) goes spatial; 0.6 → P7 (waste
        // 0.4) falls back to the token path.
        assert_eq!(
            schedule(
                Substrate::Hybrid,
                &req(0.5, 0.1),
                &mut p,
                &mut SchedProv::off()
            ),
            Decision::Assign(ids[0].clone())
        );
        assert!(matches!(
            schedule(
                Substrate::Hybrid,
                &req(0.6, 0.1),
                &mut p,
                &mut SchedProv::off()
            ),
            Decision::NewDevice(_)
        ));
    }

    #[test]
    fn batch_applies_decisions_between_entries() {
        // Two anti-affine entries in one batch must not share the device:
        // the first entry's attach is visible to the second's decision.
        let entries: Vec<BatchEntry> = (0..2)
            .map(|i| BatchEntry {
                uid: Uid(i + 1),
                req: req_loc(0.2, 0.2, Locality::none().with_anti_affinity("noisy")),
            })
            .collect();
        for recorder in [FlightRecorder::disabled(), FlightRecorder::enabled()] {
            let (mut p, ids) = pool(2);
            let out = schedule_batch(&entries, &mut p, SimTime::ZERO, &recorder);
            assert_eq!(out[0].1, Decision::Assign(ids[0].clone()));
            assert_eq!(out[1].1, Decision::Assign(ids[1].clone()));
            assert_eq!(p.get(&ids[0]).unwrap().attached.len(), 1);
            assert_eq!(p.get(&ids[1]).unwrap().attached.len(), 1);
            p.verify_indexes().unwrap();
        }
    }
}
