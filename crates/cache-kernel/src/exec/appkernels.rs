//! The application-kernel registry.
//!
//! Application kernels are trait objects stored in a dense table indexed
//! by the slot of the kernel object they are registered under. Kernel
//! slots are small (the kernel cache holds a handful), so the table is a
//! `Vec` that grows to the highest registered slot and a take or put is
//! one index, not a tree walk. Broadcast deliveries — clock ticks and
//! cluster events — visit the occupied entries in ascending slot order
//! regardless of registration history; this is load-bearing for the
//! byte-identical event traces the executive guarantees.

use crate::appkernel::AppKernel;

/// Registered application-kernel objects, indexed by kernel-object slot.
#[derive(Default)]
pub struct AppKernelTable {
    kernels: Vec<Option<Box<dyn AppKernel>>>,
    /// Occupied entries (a kernel taken out for a call does not count).
    len: usize,
}

impl AppKernelTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `k` under the kernel-object `slot`.
    pub fn insert(&mut self, slot: u16, k: Box<dyn AppKernel>) {
        let i = slot as usize;
        if i >= self.kernels.len() {
            self.kernels.resize_with(i + 1, || None);
        }
        if self.kernels[i].replace(k).is_none() {
            self.len += 1;
        }
    }

    /// Remove and return the kernel registered under `slot`.
    pub fn remove(&mut self, slot: u16) -> Option<Box<dyn AppKernel>> {
        let k = self.kernels.get_mut(slot as usize)?.take()?;
        self.len -= 1;
        Some(k)
    }

    /// Take a kernel out for a call; return it with [`put`] afterwards
    /// (take-out/put-back lets the callee re-enter the executive).
    ///
    /// [`put`]: AppKernelTable::put
    pub fn take(&mut self, slot: u16) -> Option<Box<dyn AppKernel>> {
        self.remove(slot)
    }

    /// Return a kernel taken with [`take`].
    ///
    /// [`take`]: AppKernelTable::take
    pub fn put(&mut self, slot: u16, k: Box<dyn AppKernel>) {
        self.insert(slot, k);
    }

    /// Write the registered slots into `out` (cleared first) in
    /// ascending (deterministic) order. The caller owns the buffer, so
    /// a per-tick snapshot allocates nothing once it has grown.
    pub fn slots_into(&self, out: &mut Vec<u16>) {
        out.clear();
        out.extend(
            self.kernels
                .iter()
                .enumerate()
                .filter(|(_, k)| k.is_some())
                .map(|(slot, _)| slot as u16),
        );
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}
