//! Simulated ParaDiGM hardware substrate for the V++ Cache Kernel
//! reproduction.
//!
//! The original system ran on multiprocessor modules (MPMs) of four 25 MHz
//! Motorola 68040s with a shared software-controlled second-level cache,
//! memory-based-messaging support and fiber-channel interconnect. This
//! crate provides a deterministic software model of that machine: physical
//! memory, 68040-style three-level page tables, per-CPU TLBs and reverse
//! TLBs, an L2 tag model, devices and an inter-MPM fabric — everything the
//! Cache Kernel needs, with cycle-accounting hooks so the paper's
//! measurements can be re-derived in simulated time as well as host time.
//!
//! Nothing in this crate knows about the Cache Kernel's object model; the
//! dependency points strictly upward, as it would across a real
//! hardware/software boundary.

pub mod clock;
pub mod cpu;
pub mod dev;
pub mod fabric;
pub mod faults;
pub mod l2;
pub mod machine;
pub mod mem;
pub mod pagetable;
pub mod ring;
pub mod rtlb;
pub mod tlb;
pub mod types;

pub use clock::{CostModel, SimClock};
pub use cpu::{Cpu, Fault, FaultKind, Mode, RegisterFile};
pub use fabric::{Fabric, LinkStats, Packet};
pub use faults::{splitmix64, FabricEvent, FaultPlan, FaultRng, FaultStats, FrameFate, KillPoint};
pub use l2::{L2Cache, L2Stats};
pub use machine::{MachineConfig, Mpm, Translation};
pub use mem::{MemError, PhysMem};
pub use pagetable::{PageTable, Pte};
pub use ring::{mpsc, spsc, MpscRx, MpscTx, RingRx, RingTx};
pub use rtlb::{Rtlb, RtlbEntry, RtlbStats};
pub use tlb::{Asid, Tlb, TlbStats};
pub use types::{
    Access, Paddr, Pfn, Rights, Vaddr, Vpn, CACHE_LINE_SIZE, PAGE_GROUPS_TOTAL, PAGE_GROUP_PAGES,
    PAGE_GROUP_SIZE, PAGE_SHIFT, PAGE_SIZE,
};
