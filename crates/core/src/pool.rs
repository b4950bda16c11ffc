//! The vGPU pool: the set of shared GPUs KubeShare manages (paper §4.1,
//! §4.4).
//!
//! Each vGPU has a first-class identity ([`crate::gpuid::GpuId`]), residual
//! resource accounting (by `gpu_request`/`gpu_mem`, the quantities the
//! scheduler packs on), accumulated locality labels, and a lifecycle:
//! *creating* (anchor pod launching) → *active* (sharePods attached) →
//! *idle* (none attached) → *deleted* (GPU released back to Kubernetes).
//!
//! # Storage and capacity indexes
//!
//! Devices live in a private slab (`Vec<Option<PoolDevice>>` plus a free
//! list); an id-ordered name map resolves a [`GpuId`] to its slot, and
//! slots never leave this module. On top, the pool maintains a set of
//! incrementally-updated indexes so Algorithm 1's hot path (best-fit /
//! worst-fit selection, affinity lookup, idle reuse) runs as ordered-range
//! lookups instead of full scans (DESIGN.md §10):
//!
//! * `plain_fit` / `labeled_fit` — schedulable (non-releasing) devices
//!   keyed flat by *fit key* `util_free + mem_free` and id, each key
//!   mapped to the device's slot, split by whether the device carries
//!   affinity labels. `plain_fit` ascends by (fit key, id) — the best-fit
//!   scan order; `labeled_fit` keys on the reversed fit key, so ascending
//!   iteration is descending fit key with ascending id inside one key —
//!   the worst-fit scan order. Both scans yield devices straight from
//!   their slots, with no per-candidate name lookup;
//! * `unattached` — devices with no tenants (Algorithm 1's `d.idle`),
//!   in id order;
//! * `idle` — devices in the `Idle` lifecycle phase (release-policy
//!   candidates), in id order;
//! * `aff_index` — affinity label → devices carrying it, in id order;
//! * `by_node` — node name → devices hosted there (includes releasing
//!   devices: node-failure handling must see them too);
//! * `spatial` — partitioned devices, in id order, mapped to slots.
//!
//! Every mutation (`insert_creating`, `mark_ready`, `attach`, `detach`,
//! `mark_releasing`, `remove`) keeps the indexes exact;
//! [`VgpuPool::verify_indexes`] cross-checks them against a from-scratch
//! rebuild and backs the index-consistency property tests.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use ks_cluster::api::Uid;
use ks_cluster::scheduler::OrdF64;
use ks_partition::{
    DeviceFreeView, PartitionError, PartitionTable, Profile, TableState, SLOTS_PER_GPU,
};
use ks_sim_core::time::{SimDuration, SimTime};
use serde::Serialize;

use crate::gpuid::GpuId;

/// Lifecycle phase of a vGPU (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VgpuPhase {
    /// Anchor pod launched; waiting for the physical GPU's UUID.
    Creating,
    /// At least one sharePod attached.
    Active,
    /// No sharePods attached; GPU still held from Kubernetes.
    Idle,
}

/// One vGPU in the pool.
#[derive(Debug, Clone)]
pub struct PoolDevice {
    /// First-class identifier.
    pub id: GpuId,
    /// Lifecycle phase.
    pub phase: VgpuPhase,
    /// Node hosting the physical GPU (known once the anchor pod binds).
    pub node: Option<String>,
    /// Physical driver UUID (known once the anchor pod runs).
    pub uuid: Option<String>,
    /// Residual computing capacity: `1 − Σ gpu_request` of attached pods.
    pub util_free: f64,
    /// Residual memory fraction: `1 − Σ gpu_mem` of attached pods.
    pub mem_free: f64,
    /// Affinity labels present on this device.
    pub aff: BTreeSet<String>,
    /// Anti-affinity labels present on this device.
    pub anti_aff: BTreeSet<String>,
    /// Exclusion label of this device (single, overwritten on assignment).
    pub excl: Option<String>,
    /// Attached sharePods and their (request, mem) for release accounting.
    pub attached: BTreeMap<Uid, (f64, f64)>,
    /// Set once DevMgr decided to release the GPU back to Kubernetes; the
    /// anchor pod is being torn down and no new sharePod may bind here.
    pub releasing: bool,
    /// Spatial substrate: the MIG-style slice layout when this device is
    /// partitioned, `None` for the paper's time-sliced devices. The
    /// `util_free`/`mem_free` residuals mirror `free_slots / 7` exactly so
    /// node-capacity accounting and gauges work unchanged.
    pub partition: Option<PartitionTable>,
    /// Slice tenants: sharePod → start slot of the slice it occupies.
    pub slice_of: BTreeMap<Uid, u8>,
}

impl PoolDevice {
    fn fresh(id: GpuId) -> Self {
        PoolDevice {
            id,
            phase: VgpuPhase::Creating,
            node: None,
            uuid: None,
            util_free: 1.0,
            mem_free: 1.0,
            aff: BTreeSet::new(),
            anti_aff: BTreeSet::new(),
            excl: None,
            attached: BTreeMap::new(),
            releasing: false,
            partition: None,
            slice_of: BTreeMap::new(),
        }
    }

    /// Whether this device runs the spatial substrate (is partitioned).
    pub fn is_spatial(&self) -> bool {
        self.partition.is_some()
    }

    /// True if no sharePod is scheduled on the device (the algorithm's
    /// `d.idle`). A *creating* device with nothing attached is also idle
    /// in this sense.
    pub fn is_idle(&self) -> bool {
        self.attached.is_empty()
    }

    /// The fit key Algorithm 1 orders placement candidates by: total
    /// residual capacity. Best-fit minimizes it, worst-fit maximizes it;
    /// for a fixed request the placement residual is this sum minus a
    /// constant, so ordering by the sum is ordering by the residual.
    pub fn fit_key(&self) -> f64 {
        self.util_free + self.mem_free
    }

    /// Records a tenant's demand and accumulates its locality labels; an
    /// attach to a creating device keeps it `Creating` until it is ready.
    fn add_tenant(
        &mut self,
        sharepod: Uid,
        request: f64,
        mem: f64,
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) {
        if let Some(a) = aff {
            self.aff.insert(a.to_string());
        }
        if let Some(a) = anti_aff {
            self.anti_aff.insert(a.to_string());
        }
        self.excl = excl.map(str::to_string);
        self.attached.insert(sharepod, (request, mem));
        if self.phase != VgpuPhase::Creating {
            self.phase = VgpuPhase::Active;
        }
    }
}

/// The capacity indexes over the device slab. Kept in a dedicated struct
/// so incremental maintenance and the from-scratch rebuild in
/// [`VgpuPool::verify_indexes`] share one `insert` routine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PoolIndexes {
    /// Schedulable devices without affinity labels: (fit key, id) → slot.
    plain_fit: BTreeMap<(OrdF64, GpuId), u32>,
    /// Schedulable devices with affinity labels: (reversed fit key, id) →
    /// slot, so ascending order is the worst-fit order.
    labeled_fit: BTreeMap<(Reverse<OrdF64>, GpuId), u32>,
    /// Schedulable devices with no attached sharePods, in id order.
    unattached: BTreeSet<GpuId>,
    /// Non-releasing devices in the `Idle` phase, in id order.
    idle: BTreeSet<GpuId>,
    /// Affinity label → schedulable devices carrying it.
    aff_index: BTreeMap<String, BTreeSet<GpuId>>,
    /// Node → devices hosted there (releasing devices included).
    by_node: BTreeMap<String, BTreeSet<GpuId>>,
    /// Non-releasing partitioned devices: id → slot. Spatial devices live
    /// *only* here (plus `by_node`): they are invisible to the time-slice
    /// fit/idle/affinity indexes, so Algorithm 1's token-lease path never
    /// sees them and the release policy never reclaims them.
    spatial: BTreeMap<GpuId, u32>,
}

impl PoolIndexes {
    /// Adds the device in `slot` to every index it belongs in.
    fn insert(&mut self, d: &PoolDevice, slot: u32) {
        if let Some(node) = &d.node {
            self.by_node
                .entry(node.clone())
                .or_default()
                .insert(d.id.clone());
        }
        if d.releasing {
            // Invisible to the scheduler: no capacity/idle/affinity entries.
            return;
        }
        if d.partition.is_some() {
            // Spatial devices are scheduled through the partition path,
            // never the time-slice fit/idle/affinity indexes.
            self.spatial.insert(d.id.clone(), slot);
            return;
        }
        let key = OrdF64::of(d.fit_key());
        if d.aff.is_empty() {
            self.plain_fit.insert((key, d.id.clone()), slot);
        } else {
            self.labeled_fit.insert((Reverse(key), d.id.clone()), slot);
        }
        if d.attached.is_empty() {
            self.unattached.insert(d.id.clone());
        }
        if d.phase == VgpuPhase::Idle {
            self.idle.insert(d.id.clone());
        }
        for label in &d.aff {
            self.aff_index
                .entry(label.clone())
                .or_default()
                .insert(d.id.clone());
        }
    }

    /// Removes one device from every index, given its *current* state
    /// (call before mutating the device).
    fn remove(&mut self, d: &PoolDevice) {
        if let Some(node) = &d.node {
            if let Some(set) = self.by_node.get_mut(node) {
                set.remove(&d.id);
                if set.is_empty() {
                    self.by_node.remove(node);
                }
            }
        }
        if d.releasing {
            return;
        }
        if d.partition.is_some() {
            self.spatial.remove(&d.id);
            return;
        }
        let key = OrdF64::of(d.fit_key());
        if d.aff.is_empty() {
            self.plain_fit.remove(&(key, d.id.clone()));
        } else {
            self.labeled_fit.remove(&(Reverse(key), d.id.clone()));
        }
        self.unattached.remove(&d.id);
        self.idle.remove(&d.id);
        for label in &d.aff {
            if let Some(set) = self.aff_index.get_mut(label) {
                set.remove(&d.id);
                if set.is_empty() {
                    self.aff_index.remove(label);
                }
            }
        }
    }
}

/// The pool of vGPUs.
#[derive(Debug, Clone, Default)]
pub struct VgpuPool {
    /// Device slab; `None` marks a free slot.
    slots: Vec<Option<PoolDevice>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Id-ordered name map: every device's slot.
    names: BTreeMap<GpuId, u32>,
    next_id: u64,
    ix: PoolIndexes,
    /// Device count per phase (`Creating`/`Active`/`Idle` by discriminant),
    /// maintained on every transition so gauge mirrors don't rescan the
    /// pool after each event.
    tally: [u32; 3],
}

impl VgpuPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The device in a live slot.
    fn at(&self, slot: u32) -> &PoolDevice {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    /// The live device under `id`, mutably.
    ///
    /// # Panics
    /// Panics if the id is not in the pool.
    fn device_mut(&mut self, id: &GpuId) -> &mut PoolDevice {
        let slot = *self.names.get(id).expect("vGPU in pool");
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// Applies `f` to a device with its index entries and phase tally
    /// lifted out, then re-indexes it: every index-visible mutation goes
    /// through here, so the indexes and the tally stay exact.
    fn reindex<R>(&mut self, id: &GpuId, f: impl FnOnce(&mut PoolDevice) -> R) -> R {
        let slot = *self.names.get(id).expect("vGPU in pool");
        let d = self.slots[slot as usize].as_mut().expect("live slot");
        self.ix.remove(d);
        self.tally[d.phase as usize] -= 1;
        let out = f(d);
        self.tally[d.phase as usize] += 1;
        self.ix.insert(d, slot);
        out
    }

    /// Generates a fresh GPUID (not yet in the pool).
    pub fn fresh_id(&mut self) -> GpuId {
        loop {
            self.next_id += 1;
            let id = GpuId::generate(self.next_id);
            if !self.names.contains_key(&id) {
                return id;
            }
        }
    }

    /// Stores a new device in a free slot and indexes it.
    fn insert(&mut self, d: PoolDevice) {
        assert!(
            !self.names.contains_key(&d.id),
            "vGPU {} already in pool",
            d.id
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.tally[d.phase as usize] += 1;
        self.ix.insert(&d, slot);
        self.names.insert(d.id.clone(), slot);
        self.slots[slot as usize] = Some(d);
    }

    /// Adds a new vGPU in `Creating` phase under the given id.
    ///
    /// # Panics
    /// Panics if the id already exists.
    pub fn insert_creating(&mut self, id: GpuId) {
        self.insert(PoolDevice::fresh(id));
    }

    /// Adds a new *partitioned* vGPU in `Creating` phase under the given
    /// id: its anchor pod claims a whole physical GPU which is carved
    /// into the MIG-style slice grid instead of time-sliced.
    ///
    /// # Panics
    /// Panics if the id already exists.
    pub fn insert_creating_spatial(&mut self, id: GpuId) {
        let mut d = PoolDevice::fresh(id);
        d.partition = Some(PartitionTable::new());
        self.insert(d);
    }

    /// Marks a creating vGPU ready: physical GPU acquired.
    pub fn mark_ready(&mut self, id: &GpuId, node: String, uuid: String) {
        self.reindex(id, |d| {
            debug_assert_eq!(d.phase, VgpuPhase::Creating);
            d.node = Some(node);
            d.uuid = Some(uuid);
            d.phase = if d.attached.is_empty() {
                VgpuPhase::Idle
            } else {
                VgpuPhase::Active
            };
        });
    }

    /// Attaches a sharePod's demand to a vGPU, consuming residual capacity
    /// and accumulating labels.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's request tuple
    pub fn attach(
        &mut self,
        id: &GpuId,
        sharepod: Uid,
        request: f64,
        mem: f64,
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) {
        self.reindex(id, |d| {
            assert!(
                !d.is_spatial(),
                "token-lease attach on partitioned vGPU {id}; use attach_slice"
            );
            assert!(
                d.util_free + 1e-9 >= request && d.mem_free + 1e-9 >= mem,
                "over-committing vGPU {id}: free=({:.3},{:.3}) need=({request:.3},{mem:.3})",
                d.util_free,
                d.mem_free
            );
            d.util_free = (d.util_free - request).max(0.0);
            d.mem_free = (d.mem_free - mem).max(0.0);
            d.add_tenant(sharepod, request, mem, aff, anti_aff, excl);
        });
    }

    /// Binds a sharePod to a dedicated slice on a partitioned vGPU. The
    /// slice profile is placed at the fragmentation-aware best start;
    /// labels accumulate exactly as in [`VgpuPool::attach`]. Returns the
    /// start slot, or the partition error (`NoFit` when no legal start
    /// hosts the profile, `BadState` while draining/reconfiguring).
    #[allow(clippy::too_many_arguments)] // mirrors attach's request tuple
    pub fn attach_slice(
        &mut self,
        id: &GpuId,
        sharepod: Uid,
        profile: Profile,
        request: f64,
        mem: f64,
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) -> Result<u8, PartitionError> {
        let d = self.get(id).expect("vGPU in pool");
        assert!(!d.releasing, "binding to releasing vGPU {id}");
        let table = d
            .partition
            .as_ref()
            .expect("attach_slice on time-sliced vGPU");
        if table.state() != TableState::Active {
            return Err(PartitionError::BadState);
        }
        if !table.can_place(profile) {
            return Err(PartitionError::NoFit);
        }
        Ok(self.reindex(id, |d| {
            let table = d.partition.as_mut().expect("checked above");
            let start = table.alloc(profile).expect("can_place checked");
            let free = f64::from(table.free_slots()) / f64::from(SLOTS_PER_GPU);
            d.util_free = free;
            d.mem_free = free;
            d.slice_of.insert(sharepod, start);
            d.add_tenant(sharepod, request, mem, aff, anti_aff, excl);
            start
        }))
    }

    /// Detaches a sharePod, restoring capacity. Returns `true` if the vGPU
    /// became idle (labels are cleared then, so an idle device is clean for
    /// any future tenant). On a partitioned device this frees the tenant's
    /// slice (legal while active or draining), so the generic teardown
    /// paths — node failure, pod deletion, drain — work unchanged.
    pub fn detach(&mut self, id: &GpuId, sharepod: Uid) -> bool {
        self.reindex(id, |d| {
            let (request, mem) = d
                .attached
                .remove(&sharepod)
                .expect("sharePod attached to vGPU");
            if let Some(table) = d.partition.as_mut() {
                let start = d.slice_of.remove(&sharepod).expect("slice tenant");
                table.free(start).expect("resident slice");
                let free = f64::from(table.free_slots()) / f64::from(SLOTS_PER_GPU);
                d.util_free = free;
                d.mem_free = free;
            } else {
                d.util_free = (d.util_free + request).min(1.0);
                d.mem_free = (d.mem_free + mem).min(1.0);
            }
            let became_idle = d.attached.is_empty();
            if became_idle {
                // Full restore, exactly: an idle device has no tenants, so
                // its residuals are whole by definition. Snapping to 1.0
                // (instead of keeping the float round-trip) keeps every
                // idle device at fit key 2.0 exactly, which the capacity
                // indexes rely on.
                d.util_free = 1.0;
                d.mem_free = 1.0;
                d.aff.clear();
                d.anti_aff.clear();
                d.excl = None;
                if d.phase != VgpuPhase::Creating {
                    d.phase = VgpuPhase::Idle;
                }
            }
            became_idle
        })
    }

    /// Starts a partition reconfiguration on a spatial device: the table
    /// goes `Active → Draining` and the resident slice tenants are
    /// returned for the caller to requeue (each requeue's detach frees
    /// its slice; once empty, call
    /// [`VgpuPool::note_partition_drained`]).
    pub fn begin_partition_drain(&mut self, id: &GpuId) -> Result<Vec<Uid>, PartitionError> {
        let d = self.device_mut(id);
        let table = d
            .partition
            .as_mut()
            .expect("partition drain on time-sliced vGPU");
        table.begin_reconfig()?;
        Ok(d.attached.keys().copied().collect())
    }

    /// Records that a spatial device's drain completed; the new layout
    /// activates no earlier than `now + cost`. Returns the activation
    /// time.
    pub fn note_partition_drained(
        &mut self,
        id: &GpuId,
        now: SimTime,
        cost: SimDuration,
    ) -> Result<SimTime, PartitionError> {
        self.device_mut(id)
            .partition
            .as_mut()
            .expect("partition drain on time-sliced vGPU")
            .note_drained(now, cost)
    }

    /// Completes a spatial device's reconfiguration at or after the
    /// activation time recorded by [`VgpuPool::note_partition_drained`].
    pub fn activate_partition(&mut self, id: &GpuId, now: SimTime) -> Result<(), PartitionError> {
        self.device_mut(id)
            .partition
            .as_mut()
            .expect("partition activate on time-sliced vGPU")
            .activate(now)
    }

    /// Non-releasing partitioned devices in id order — the candidate set
    /// of the spatial placement path.
    pub fn spatial_devices(&self) -> impl Iterator<Item = &PoolDevice> {
        self.ix.spatial.values().map(move |&s| self.at(s))
    }

    /// Number of non-releasing partitioned devices.
    pub fn spatial_count(&self) -> usize {
        self.ix.spatial.len()
    }

    /// The sharePod occupying the slice that starts at `start` on a
    /// partitioned device, if any.
    pub fn slice_tenant(&self, id: &GpuId, start: u8) -> Option<Uid> {
        self.get(id).and_then(|d| {
            d.slice_of
                .iter()
                .find(|&(_, &s)| s == start)
                .map(|(&u, _)| u)
        })
    }

    /// Pool-level fragmentation over all schedulable (non-releasing)
    /// devices: the fraction of free capacity no single allocation can
    /// claim ([`ks_partition::pool_fragmentation`]). Time-sliced devices
    /// contribute `largest_alloc == free` (any residual is reachable);
    /// partitioned ones contribute their largest placeable profile — 0
    /// mid-reconfig, so draining devices raise the gauge until they come
    /// back.
    pub fn fragmentation(&self) -> f64 {
        let views: Vec<DeviceFreeView> = self
            .devices()
            .filter(|d| !d.releasing)
            .map(|d| match &d.partition {
                Some(t) => DeviceFreeView {
                    free: f64::from(t.free_slots()) / f64::from(SLOTS_PER_GPU),
                    largest_alloc: f64::from(t.largest_placeable_slots())
                        / f64::from(SLOTS_PER_GPU),
                },
                None => DeviceFreeView {
                    free: d.util_free,
                    largest_alloc: d.util_free,
                },
            })
            .collect();
        ks_partition::pool_fragmentation(&views)
    }

    /// Marks a vGPU as being released: it stays in the pool (its anchor is
    /// still terminating) but is invisible to the scheduler.
    pub fn mark_releasing(&mut self, id: &GpuId) {
        self.reindex(id, |d| {
            debug_assert!(d.attached.is_empty(), "releasing vGPU {id} with tenants");
            d.releasing = true;
        });
    }

    /// Removes a vGPU entirely (GPU released back to Kubernetes). Its
    /// slot is freed for the next inserted device.
    ///
    /// # Panics
    /// Panics if sharePods are still attached.
    pub fn remove(&mut self, id: &GpuId) -> PoolDevice {
        let slot = *self.names.get(id).expect("vGPU in pool");
        let d = self.slots[slot as usize].as_ref().expect("live slot");
        assert!(d.attached.is_empty(), "removing vGPU {id} with tenants");
        self.tally[d.phase as usize] -= 1;
        self.ix.remove(d);
        self.names.remove(id);
        self.free.push(slot);
        self.slots[slot as usize].take().expect("live slot")
    }

    /// Looks up a device.
    pub fn get(&self, id: &GpuId) -> Option<&PoolDevice> {
        self.names.get(id).map(|&s| self.at(s))
    }

    /// All devices in deterministic id order.
    pub fn devices(&self) -> impl Iterator<Item = &PoolDevice> {
        self.names.values().map(move |&s| self.at(s))
    }

    /// Devices currently idle and not already being released (candidates
    /// for release or for reuse), in id order. Served from the idle index —
    /// no allocation; collect if a snapshot is needed across mutations.
    pub fn idle_devices(&self) -> impl Iterator<Item = &GpuId> + '_ {
        self.ix.idle.iter()
    }

    /// Number of idle, non-releasing devices (release-policy accounting).
    pub fn idle_count(&self) -> usize {
        self.ix.idle.len()
    }

    /// First (id order) schedulable device with no attached sharePods —
    /// Algorithm 1's idle-device preference in the affinity step.
    pub fn first_unattached(&self) -> Option<&GpuId> {
        self.ix.unattached.iter().next()
    }

    /// First (id order) schedulable device carrying the affinity label —
    /// the binding target of Algorithm 1's affinity step.
    pub fn affinity_target(&self, label: &str) -> Option<&GpuId> {
        self.ix.aff_index.get(label).and_then(|s| s.iter().next())
    }

    /// Devices hosted on a node (releasing devices included), in id order.
    pub fn devices_on_node<'a>(&'a self, node: &str) -> impl Iterator<Item = &'a GpuId> + 'a {
        self.ix
            .by_node
            .get(node)
            .into_iter()
            .flat_map(|set| set.iter())
    }

    /// Schedulable devices *without* affinity labels whose fit key is at
    /// least `min_fit`, ascending by (fit key, id) — the best-fit scan
    /// order (tightest candidate first, id as the tie-break).
    pub fn plain_fit_range(&self, min_fit: f64) -> impl Iterator<Item = &PoolDevice> {
        // The empty id sorts first, so the bound admits every id at
        // `min_fit` without allocating.
        let from = (OrdF64::of(min_fit), GpuId::named(String::new()));
        self.ix
            .plain_fit
            .range(from..)
            .map(move |(_, &s)| self.at(s))
    }

    /// Schedulable devices *with* affinity labels whose fit key is at least
    /// `min_fit`, descending by fit key with ascending id inside one key —
    /// the worst-fit scan order (roomiest candidate first, id tie-break).
    pub fn labeled_fit_range_desc(&self, min_fit: f64) -> impl Iterator<Item = &PoolDevice> {
        let min = OrdF64::of(min_fit);
        self.ix
            .labeled_fit
            .iter()
            .take_while(move |((Reverse(key), _), _)| *key >= min)
            .map(move |(_, &s)| self.at(s))
    }

    /// Cross-checks the slab, the name map and the incrementally
    /// maintained indexes against a from-scratch rebuild. Returns a
    /// description of the first mismatch. Backs the index-consistency
    /// property tests; cheap enough to call from any invariant-minded
    /// test.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for (id, &slot) in &self.names {
            match self.slots.get(slot as usize).and_then(Option::as_ref) {
                Some(d) if d.id == *id => {}
                _ => {
                    return Err(format!(
                        "name {id} maps to slot {slot}, which holds another"
                    ))
                }
            }
        }
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        if live != self.names.len() || live + self.free.len() != self.slots.len() {
            return Err(format!(
                "slab drifted: {live} live slots, {} names, {} free of {}",
                self.names.len(),
                self.free.len(),
                self.slots.len()
            ));
        }
        let mut fresh_tally = [0u32; 3];
        for d in self.devices() {
            fresh_tally[d.phase as usize] += 1;
        }
        if fresh_tally != self.tally {
            return Err(format!(
                "phase tally drifted: incremental {:?} != rebuilt {fresh_tally:?}",
                self.tally
            ));
        }
        for d in self.devices() {
            let Some(t) = &d.partition else { continue };
            t.verify().map_err(|e| format!("device {}: {e}", d.id))?;
            if d.slice_of.len() != t.slice_count() {
                return Err(format!(
                    "device {}: {} slice tenants but {} slices",
                    d.id,
                    d.slice_of.len(),
                    t.slice_count()
                ));
            }
            let free = f64::from(t.free_slots()) / f64::from(SLOTS_PER_GPU);
            if d.util_free != free || d.mem_free != free {
                return Err(format!(
                    "device {}: residual mirror ({}, {}) != {free} free slots",
                    d.id, d.util_free, d.mem_free
                ));
            }
        }
        let mut fresh = PoolIndexes::default();
        for &slot in self.names.values() {
            fresh.insert(self.at(slot), slot);
        }
        if fresh == self.ix {
            return Ok(());
        }
        for (name, got, want) in [
            (
                "plain_fit",
                format!("{:?}", self.ix.plain_fit),
                format!("{:?}", fresh.plain_fit),
            ),
            (
                "labeled_fit",
                format!("{:?}", self.ix.labeled_fit),
                format!("{:?}", fresh.labeled_fit),
            ),
            (
                "unattached",
                format!("{:?}", self.ix.unattached),
                format!("{:?}", fresh.unattached),
            ),
            (
                "idle",
                format!("{:?}", self.ix.idle),
                format!("{:?}", fresh.idle),
            ),
            (
                "aff_index",
                format!("{:?}", self.ix.aff_index),
                format!("{:?}", fresh.aff_index),
            ),
            (
                "by_node",
                format!("{:?}", self.ix.by_node),
                format!("{:?}", fresh.by_node),
            ),
            (
                "spatial",
                format!("{:?}", self.ix.spatial),
                format!("{:?}", fresh.spatial),
            ),
        ] {
            if got != want {
                return Err(format!(
                    "index {name} drifted: incremental {got} != rebuilt {want}"
                ));
            }
        }
        Err("index drift in unknown structure".into())
    }

    /// Device count per phase as `(creating, active, idle)`, maintained
    /// incrementally — O(1), safe to read after every event.
    pub fn phase_counts(&self) -> (u32, u32, u32) {
        (
            self.tally[VgpuPhase::Creating as usize],
            self.tally[VgpuPhase::Active as usize],
            self.tally[VgpuPhase::Idle as usize],
        )
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_ready(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids: Vec<GpuId> = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating(id.clone());
                p.mark_ready(&id, format!("node-{i}"), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn lifecycle_creating_to_idle_to_active() {
        let mut p = VgpuPool::new();
        let id = p.fresh_id();
        p.insert_creating(id.clone());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Creating);
        p.mark_ready(&id, "n0".into(), "GPU-x".into());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Idle);
        p.attach(&id, Uid(1), 0.5, 0.5, None, None, None);
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Active);
        assert!(p.detach(&id, Uid(1)));
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Idle);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn attach_while_creating_keeps_creating_phase() {
        let mut p = VgpuPool::new();
        let id = p.fresh_id();
        p.insert_creating(id.clone());
        p.attach(&id, Uid(1), 0.3, 0.3, None, None, None);
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Creating);
        p.mark_ready(&id, "n".into(), "GPU-x".into());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Active);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn capacity_accounting() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.4, None, None, None);
        p.attach(&ids[0], Uid(2), 0.5, 0.2, None, None, None);
        let d = p.get(&ids[0]).unwrap();
        assert!((d.util_free - 0.2).abs() < 1e-9);
        assert!((d.mem_free - 0.4).abs() < 1e-9);
        p.detach(&ids[0], Uid(1));
        let d = p.get(&ids[0]).unwrap();
        assert!((d.util_free - 0.5).abs() < 1e-9);
    }

    #[test]
    fn detach_to_idle_restores_exact_full_capacity() {
        let (mut p, ids) = pool_with_ready(1);
        // 0.7 + 0.3 does not round-trip exactly in f64; the idle reset
        // must snap back to a bit-exact 1.0 anyway.
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, None, None);
        p.attach(&ids[0], Uid(2), 0.1, 0.1, None, None, None);
        p.detach(&ids[0], Uid(1));
        p.detach(&ids[0], Uid(2));
        let d = p.get(&ids[0]).unwrap();
        assert_eq!(d.util_free, 1.0);
        assert_eq!(d.mem_free, 1.0);
        assert_eq!(d.fit_key(), 2.0);
    }

    #[test]
    #[should_panic(expected = "over-committing")]
    fn overcommit_panics() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.8, 0.1, None, None, None);
        p.attach(&ids[0], Uid(2), 0.3, 0.1, None, None, None);
    }

    #[test]
    fn labels_accumulate_and_clear_on_idle() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(
            &ids[0],
            Uid(1),
            0.2,
            0.2,
            Some("g1"),
            Some("noisy"),
            Some("tenant"),
        );
        p.attach(&ids[0], Uid(2), 0.2, 0.2, Some("g2"), None, Some("tenant"));
        let d = p.get(&ids[0]).unwrap();
        assert!(d.aff.contains("g1") && d.aff.contains("g2"));
        assert!(d.anti_aff.contains("noisy"));
        assert_eq!(d.excl.as_deref(), Some("tenant"));
        assert_eq!(p.affinity_target("g1"), Some(&ids[0]));
        assert_eq!(p.affinity_target("g2"), Some(&ids[0]));
        p.detach(&ids[0], Uid(1));
        assert!(p.detach(&ids[0], Uid(2)), "becomes idle");
        let d = p.get(&ids[0]).unwrap();
        assert!(d.aff.is_empty() && d.anti_aff.is_empty() && d.excl.is_none());
        assert_eq!(p.affinity_target("g1"), None);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn idle_devices_listed() {
        let (mut p, ids) = pool_with_ready(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
        let idle: Vec<&GpuId> = p.idle_devices().collect();
        assert_eq!(idle, vec![&ids[1]]);
        assert_eq!(p.idle_count(), 1);
    }

    #[test]
    fn releasing_device_leaves_scheduler_indexes() {
        let (mut p, ids) = pool_with_ready(2);
        p.mark_releasing(&ids[0]);
        assert_eq!(p.idle_count(), 1);
        assert_eq!(p.first_unattached(), Some(&ids[1]));
        assert!(p.plain_fit_range(0.0).all(|d| d.id != ids[0]));
        // Still visible by node for failure handling.
        assert_eq!(p.devices_on_node("node-0").next(), Some(&ids[0]));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn fit_ranges_order_by_key_then_id() {
        let (mut p, ids) = pool_with_ready(3);
        p.attach(&ids[0], Uid(1), 0.6, 0.6, None, None, None); // fit 0.8
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // fit 1.6
                                                               // ids[2] idle: fit 2.0
        let order: Vec<&GpuId> = p.plain_fit_range(0.0).map(|d| &d.id).collect();
        assert_eq!(order, vec![&ids[0], &ids[1], &ids[2]]);
        let bounded: Vec<&GpuId> = p.plain_fit_range(1.0).map(|d| &d.id).collect();
        assert_eq!(bounded, vec![&ids[1], &ids[2]]);
        // Labeled devices live in the other index, scanned descending.
        p.attach(&ids[2], Uid(3), 0.5, 0.5, Some("g"), None, None); // fit 1.0
        p.attach(&ids[1], Uid(4), 0.1, 0.1, Some("g"), None, None); // fit 1.4
        let desc: Vec<&GpuId> = p.labeled_fit_range_desc(0.0).map(|d| &d.id).collect();
        assert_eq!(desc, vec![&ids[1], &ids[2]]);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn removed_slot_is_reused_under_a_new_name() {
        let (mut p, ids) = pool_with_ready(3);
        p.attach(&ids[0], Uid(1), 0.6, 0.6, None, None, None); // fit 0.8
        p.attach(&ids[2], Uid(2), 0.2, 0.2, Some("g"), None, None); // fit 1.6
        let freed = p.names[&ids[1]];
        p.mark_releasing(&ids[1]);
        p.remove(&ids[1]);
        assert!(p.get(&ids[1]).is_none());
        p.verify_indexes().unwrap();

        // A differently named device takes the freed slot.
        let named = GpuId::named("zz-reused");
        p.insert_creating(named.clone());
        assert_eq!(p.names[&named], freed, "freed slot reused");
        p.mark_ready(&named, "node-9".into(), "GPU-9".into());
        p.attach(&named, Uid(3), 0.2, 0.2, Some("h"), None, None); // fit 1.6
        assert_eq!(p.get(&named).unwrap().id, named);
        assert_eq!(p.get(&ids[0]).unwrap().id, ids[0]);
        assert_eq!(p.len(), 3);

        // Both scans resolve slots to the right devices: the plain scan
        // holds only ids[0]; the labeled scan ties at 1.6 and breaks the
        // tie by ascending id.
        let plain: Vec<&GpuId> = p.plain_fit_range(0.0).map(|d| &d.id).collect();
        assert_eq!(plain, vec![&ids[0]]);
        let labeled: Vec<&GpuId> = p.labeled_fit_range_desc(0.0).map(|d| &d.id).collect();
        assert_eq!(labeled, vec![&ids[2], &named]);
        assert_eq!(p.labeled_fit_range_desc(1.7).count(), 0);
        assert_eq!(
            p.devices().map(|d| &d.id).collect::<Vec<_>>(),
            vec![&ids[0], &ids[2], &named],
            "id order, not slot order"
        );
        p.verify_indexes().unwrap();

        // Detaching the reused device moves it to the plain index as idle.
        assert!(p.detach(&named, Uid(3)));
        let plain: Vec<&GpuId> = p.plain_fit_range(0.0).map(|d| &d.id).collect();
        assert_eq!(plain, vec![&ids[0], &named]);
        assert_eq!(p.first_unattached(), Some(&named));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn per_node_index_tracks_ready_devices() {
        let (mut p, ids) = pool_with_ready(2);
        assert_eq!(
            p.devices_on_node("node-0").collect::<Vec<_>>(),
            vec![&ids[0]]
        );
        p.remove(&ids[0]);
        assert_eq!(p.devices_on_node("node-0").count(), 0);
        assert_eq!(p.devices_on_node("node-1").count(), 1);
        p.verify_indexes().unwrap();
    }

    #[test]
    #[should_panic(expected = "with tenants")]
    fn remove_active_panics() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
        p.remove(&ids[0]);
    }

    fn spatial_pool_with_ready(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids: Vec<GpuId> = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating_spatial(id.clone());
                p.mark_ready(&id, format!("node-{i}"), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn spatial_devices_hide_from_time_slice_indexes() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        assert_eq!(p.spatial_count(), 1);
        assert_eq!(p.first_unattached(), None);
        assert_eq!(p.idle_count(), 0);
        assert_eq!(p.plain_fit_range(0.0).count(), 0);
        p.attach_slice(
            &ids[0],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            Some("g"),
            None,
            None,
        )
        .unwrap();
        assert_eq!(p.affinity_target("g"), None);
        // Still visible by node for failure handling.
        assert_eq!(p.devices_on_node("node-0").next(), Some(&ids[0]));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn slice_attach_detach_mirrors_residuals() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        let start = p
            .attach_slice(&ids[0], Uid(1), Profile::P3, 0.4, 0.3, None, None, None)
            .unwrap();
        assert_eq!(p.slice_tenant(&ids[0], start), Some(Uid(1)));
        let d = p.get(&ids[0]).unwrap();
        assert_eq!(d.util_free, 4.0 / 7.0);
        assert_eq!(d.phase, VgpuPhase::Active);
        assert!(p.detach(&ids[0], Uid(1)), "becomes idle");
        let d = p.get(&ids[0]).unwrap();
        assert_eq!(d.util_free, 1.0);
        assert_eq!(d.phase, VgpuPhase::Idle);
        assert_eq!(p.slice_tenant(&ids[0], start), None);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn slice_no_fit_reported_not_panicked() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach_slice(&ids[0], Uid(1), Profile::P7, 1.0, 1.0, None, None, None)
            .unwrap();
        assert_eq!(
            p.attach_slice(&ids[0], Uid(2), Profile::P1, 0.1, 0.1, None, None, None),
            Err(PartitionError::NoFit)
        );
        p.verify_indexes().unwrap();
    }

    #[test]
    fn partition_reconfig_round_trip() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach_slice(&ids[0], Uid(1), Profile::P2, 0.25, 0.25, None, None, None)
            .unwrap();
        let tenants = p.begin_partition_drain(&ids[0]).unwrap();
        assert_eq!(tenants, vec![Uid(1)]);
        // No new slice while draining.
        assert_eq!(
            p.attach_slice(&ids[0], Uid(2), Profile::P1, 0.1, 0.1, None, None, None),
            Err(PartitionError::BadState)
        );
        p.detach(&ids[0], Uid(1));
        let now = SimTime::from_secs(3);
        let cost = SimDuration::from_secs(2);
        let until = p.note_partition_drained(&ids[0], now, cost).unwrap();
        assert_eq!(
            p.activate_partition(&ids[0], now),
            Err(PartitionError::NotReady)
        );
        p.activate_partition(&ids[0], until).unwrap();
        assert!(p
            .attach_slice(&ids[0], Uid(3), Profile::P7, 1.0, 1.0, None, None, None)
            .is_ok());
        p.verify_indexes().unwrap();
    }

    #[test]
    fn fragmentation_blends_substrates() {
        // One whole time-sliced device: unfragmented.
        let (mut p, _) = pool_with_ready(1);
        assert_eq!(p.fragmentation(), 0.0);
        // Add a partitioned device with a stranded-slot layout: a P2 at
        // slots 2-3 leaves 5 free slots with only a P3 placeable.
        let sid = p.fresh_id();
        p.insert_creating_spatial(sid.clone());
        p.mark_ready(&sid, "node-s".into(), "GPU-s".into());
        p.attach_slice(&sid, Uid(9), Profile::P2, 0.25, 0.25, None, None, None)
            .unwrap();
        // Force the fragmented layout the best-start heuristic avoids.
        {
            // free = 1 + 5/7, reachable = 1 + largest/7.
            let f = p.fragmentation();
            let d = p.get(&sid).unwrap();
            let largest = d.partition.as_ref().unwrap().largest_placeable_slots();
            let expect = 1.0 - (1.0 + f64::from(largest) / 7.0) / (1.0 + 5.0 / 7.0);
            assert!((f - expect).abs() < 1e-12, "got {f}, want {expect}");
        }
        p.verify_indexes().unwrap();
    }

    #[test]
    #[should_panic(expected = "use attach_slice")]
    fn token_attach_on_spatial_panics() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
    }

    #[test]
    fn fresh_ids_never_collide() {
        let mut p = VgpuPool::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = p.fresh_id();
            p.insert_creating(id.clone());
            assert!(seen.insert(id));
        }
        p.verify_indexes().unwrap();
    }
}
