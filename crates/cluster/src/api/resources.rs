//! Resource quantities and arithmetic.
//!
//! Kubernetes natively understands CPU and memory; any other resource is an
//! *extended resource* registered by a device plugin and constrained to
//! **integer** quantities that can be neither fractionally requested nor
//! over-committed (paper §3.1). That integer constraint is the root of the
//! problem KubeShare solves, so it is enforced here by construction: custom
//! resource quantities are `u64` counts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The resource name Kubernetes' NVIDIA device plugin registers.
pub const NVIDIA_GPU: &str = "nvidia.com/gpu";

/// A bag of named resource quantities (node capacity, pod request, …).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceList {
    /// CPU in millicores.
    pub cpu_millis: u64,
    /// Memory in bytes.
    pub memory_bytes: u64,
    /// Extended resources: name → integer count.
    pub extended: BTreeMap<String, u64>,
}

impl ResourceList {
    /// The empty quantity.
    pub fn zero() -> Self {
        Self::default()
    }

    /// CPU + memory convenience constructor.
    pub fn cpu_mem(cpu_millis: u64, memory_bytes: u64) -> Self {
        ResourceList {
            cpu_millis,
            memory_bytes,
            extended: BTreeMap::new(),
        }
    }

    /// Adds an extended resource count (builder style).
    pub fn with_extended(mut self, name: impl Into<String>, count: u64) -> Self {
        self.extended.insert(name.into(), count);
        self
    }

    /// Count of one extended resource.
    pub fn extended_count(&self, name: &str) -> u64 {
        self.extended.get(name).copied().unwrap_or(0)
    }

    /// True if `self` fits within `avail` on every axis.
    pub fn fits_in(&self, avail: &ResourceList) -> bool {
        if self.cpu_millis > avail.cpu_millis || self.memory_bytes > avail.memory_bytes {
            return false;
        }
        self.extended
            .iter()
            .all(|(k, &v)| v <= avail.extended_count(k))
    }

    /// True if `self` fits within `allocatable − allocated` on every axis:
    /// [`ResourceList::fits_in`] against the free capacity, without
    /// building the difference.
    pub fn fits_in_free(&self, allocatable: &ResourceList, allocated: &ResourceList) -> bool {
        let free = |cap: u64, used: u64| cap.saturating_sub(used);
        if self.cpu_millis > free(allocatable.cpu_millis, allocated.cpu_millis)
            || self.memory_bytes > free(allocatable.memory_bytes, allocated.memory_bytes)
        {
            return false;
        }
        self.extended
            .iter()
            .all(|(k, &v)| v <= free(allocatable.extended_count(k), allocated.extended_count(k)))
    }

    /// Component-wise addition.
    pub fn checked_add(&self, other: &ResourceList) -> ResourceList {
        let mut out = self.clone();
        out.cpu_millis += other.cpu_millis;
        out.memory_bytes += other.memory_bytes;
        for (k, v) in &other.extended {
            *out.extended.entry(k.clone()).or_insert(0) += v;
        }
        out
    }

    /// Component-wise subtraction.
    ///
    /// # Panics
    /// Panics if any component would go negative (accounting bug).
    pub fn checked_sub(&self, other: &ResourceList) -> ResourceList {
        let mut out = self.clone();
        out.cpu_millis = out
            .cpu_millis
            .checked_sub(other.cpu_millis)
            .expect("cpu underflow");
        out.memory_bytes = out
            .memory_bytes
            .checked_sub(other.memory_bytes)
            .expect("memory underflow");
        for (k, v) in &other.extended {
            let e = out
                .extended
                .get_mut(k)
                .unwrap_or_else(|| panic!("missing extended resource {k}"));
            *e = e.checked_sub(*v).expect("extended resource underflow");
        }
        out
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.cpu_millis == 0 && self.memory_bytes == 0 && self.extended.values().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_all_axes() {
        let avail = ResourceList::cpu_mem(4000, 8 << 30).with_extended(NVIDIA_GPU, 4);
        assert!(ResourceList::cpu_mem(1000, 1 << 30)
            .with_extended(NVIDIA_GPU, 2)
            .fits_in(&avail));
        assert!(!ResourceList::cpu_mem(5000, 1 << 30).fits_in(&avail));
        assert!(!ResourceList::cpu_mem(100, 16 << 30).fits_in(&avail));
        assert!(!ResourceList::cpu_mem(100, 100)
            .with_extended(NVIDIA_GPU, 5)
            .fits_in(&avail));
    }

    #[test]
    fn unknown_extended_resource_never_fits() {
        let avail = ResourceList::cpu_mem(4000, 8 << 30);
        assert!(!ResourceList::zero()
            .with_extended("example.com/fpga", 1)
            .fits_in(&avail));
    }

    #[test]
    fn fits_in_free_matches_fits_in_the_difference() {
        let cap = ResourceList::cpu_mem(4000, 8 << 30).with_extended(NVIDIA_GPU, 4);
        let used = ResourceList::cpu_mem(1000, 2 << 30).with_extended(NVIDIA_GPU, 3);
        let free = cap.checked_sub(&used);
        for req in [
            ResourceList::cpu_mem(3000, 6 << 30).with_extended(NVIDIA_GPU, 1),
            ResourceList::cpu_mem(3001, 0),
            ResourceList::cpu_mem(0, (6 << 30) + 1),
            ResourceList::zero().with_extended(NVIDIA_GPU, 2),
            ResourceList::zero().with_extended("example.com/fpga", 1),
            ResourceList::zero(),
        ] {
            assert_eq!(req.fits_in_free(&cap, &used), req.fits_in(&free), "{req:?}");
        }
    }

    #[test]
    fn zero_fits_everywhere() {
        assert!(ResourceList::zero().fits_in(&ResourceList::zero()));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = ResourceList::cpu_mem(1000, 100).with_extended(NVIDIA_GPU, 2);
        let b = ResourceList::cpu_mem(500, 50).with_extended(NVIDIA_GPU, 1);
        let sum = a.checked_add(&b);
        assert_eq!(sum.cpu_millis, 1500);
        assert_eq!(sum.extended_count(NVIDIA_GPU), 3);
        let back = sum.checked_sub(&b);
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let a = ResourceList::cpu_mem(100, 0);
        let b = ResourceList::cpu_mem(200, 0);
        let _ = a.checked_sub(&b);
    }

    #[test]
    fn is_zero() {
        assert!(ResourceList::zero().is_zero());
        let r = ResourceList::zero().with_extended(NVIDIA_GPU, 0);
        assert!(r.is_zero());
        assert!(!ResourceList::cpu_mem(1, 0).is_zero());
    }
}
