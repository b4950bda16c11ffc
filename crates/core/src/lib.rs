//! `kubeshare` — a reproduction of *KubeShare: A Framework to Manage GPUs
//! as First-Class and Shared Resources in Container Cloud* (HPDC '20).
//!
//! KubeShare extends Kubernetes so GPUs become **first-class, fractionally
//! shareable** resources:
//!
//! * [`sharepod`] — the `SharePod` custom resource: a PodSpec plus
//!   fractional GPU demands (`gpu_request`/`gpu_limit`/`gpu_mem`), an
//!   explicit [`gpuid::GpuId`], and [`locality::Locality`] constraints
//!   (affinity / anti-affinity / exclusion);
//! * [`algorithm`] — KubeShare-Sched's locality & resource aware
//!   scheduling (the paper's Algorithm 1: affinity step, constraint
//!   filter, best-fit/worst-fit placement);
//! * [`pool`] — the vGPU pool with its creation → active → idle →
//!   deletion lifecycle;
//! * [`system`] — the composed control plane: KubeShare-Sched +
//!   KubeShare-DevMgr as custom controllers over an unmodified
//!   [`ks_cluster`] Kubernetes, with anchor pods acquiring physical GPUs
//!   and explicit GPUID→UUID binding.
//!
//! The kernel-level isolation that containers then experience is the vGPU
//! device library in [`ks_vgpu`]; the experiment harnesses in `ks-bench`
//! wire [`system::KsNotice::SharePodRunning`] notices to
//! `ks_vgpu::SharedGpu` instances per physical GPU.

#![warn(missing_docs)]

pub mod algorithm;
pub mod gpuid;
pub mod locality;
pub mod pool;
pub mod replicaset;
pub mod sharepod;
pub mod system;

pub use algorithm::{
    schedule, schedule_batch, schedule_reference, BatchEntry, Decision, RejectReason, SchedRequest,
};
pub use gpuid::GpuId;
pub use ks_partition::{Profile, Substrate};
pub use locality::Locality;
pub use pool::{PoolDevice, VgpuPhase, VgpuPool};
pub use replicaset::{ReplicaSetController, ReplicaSetId, ReplicaSetSpec};
pub use sharepod::{SharePod, SharePodPhase, SharePodSpec, SharePodStatus};
pub use system::{
    KsConfig, KsEmit, KsEvent, KsNotice, KubeShareSystem, PoolPolicy, RestartPolicy, SystemError,
};
