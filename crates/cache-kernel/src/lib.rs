//! The V++ Cache Kernel: a caching model of operating system kernel
//! functionality.
//!
//! Reproduction of Cheriton & Duda, *A Caching Model of Operating System
//! Kernel Functionality* (OSDI 1994). The Cache Kernel caches the active
//! operating-system objects — application **kernels**, **address spaces**
//! and **threads**, plus per-page **memory mappings** — exactly as a
//! hardware cache holds memory data. User-mode application kernels load
//! and unload these objects, receive writebacks when objects are
//! displaced, and implement all policy: paging, scheduling disciplines,
//! swapping, recovery. All inter-process communication is memory-based
//! messaging: address-valued signals raised by stores to message-mode
//! pages.
//!
//! Crate layout mirrors the paper:
//!
//! * [`ck`] — the load/unload/writeback interface (§2) and resource
//!   accounting (§4.3);
//! * [`physmap`] — the 16-byte dependency records of the physical memory
//!   map (§4.1);
//! * [`reclaim`] — dependency-ordered object replacement (§4.2, Fig. 6);
//! * [`msg`] — memory-based messaging and signal delivery (§2.2);
//! * [`fault`] — fault/trap forwarding and the optimized
//!   load-mapping-and-resume call (Fig. 2);
//! * [`sched`], [`account`] — fixed-priority time-sliced scheduling and
//!   graduated CPU charging;
//! * [`exec`] — the per-MPM executive driving simulated CPUs, and
//!   [`exec::Cluster`] for multi-MPM configurations;
//! * [`program`], [`appkernel`] — the simulated user-code and
//!   application-kernel interfaces.
//!
//! # Example
//!
//! Boot a Cache Kernel, load the three object types, watch an identifier
//! go stale on unload:
//!
//! ```
//! use cache_kernel::{CacheKernel, CkConfig, KernelDesc, MemoryAccessArray,
//!                    SpaceDesc, ThreadDesc};
//! use hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr};
//!
//! let mut ck = CacheKernel::new(CkConfig::default());
//! let mut mpm = Mpm::new(MachineConfig { phys_frames: 1024, ..Default::default() });
//! let first = ck.boot(KernelDesc {
//!     memory_access: MemoryAccessArray::all(),
//!     ..KernelDesc::default()
//! });
//!
//! let space = ck.load_space(first, SpaceDesc::default(), &mut mpm)?;
//! let thread = ck.load_thread(first, ThreadDesc::new(space, 1, 10), false, &mut mpm)?;
//! ck.load_mapping(first, space, Vaddr(0x1000), Paddr(0x8000),
//!                 Pte::WRITABLE | Pte::CACHEABLE, None, None, &mut mpm)?;
//!
//! // Unloading returns the cached state; the identifier is now stale.
//! let desc = ck.unload_thread(first, thread, &mut mpm)?;
//! assert_eq!(desc.regs.pc, 1);
//! assert!(ck.thread(thread).is_err());
//! # Ok::<(), cache_kernel::CkError>(())
//! ```

pub mod account;
pub mod appkernel;
pub mod cache;
pub mod caps;
pub mod ck;
pub mod counters;
pub mod drivers;
pub mod error;
pub mod events;
pub mod exec;
pub mod fault;
pub mod ids;
pub mod invariants;
pub mod lock;
pub mod mapping;
pub mod msg;
pub mod objects;
pub mod overload;
pub mod physmap;
pub mod program;
pub mod reclaim;
pub mod recover;
pub mod sched;
pub mod shardmsg;
pub mod shootdown;
pub mod sigbatch;

#[cfg(test)]
pub(crate) mod test_support;

pub use appkernel::{AppKernel, Env, NullKernel};
pub use caps::CapOp;
pub use ck::{CacheKernel, CkConfig, MappingState, Writeback, STAT_MAPPING};
pub use counters::Counters;
pub use drivers::EtherDriver;
pub use error::{CkError, CkResult};
pub use events::{ClusterEvent, DeviceSource, KernelEvent};
pub use exec::{Cluster, Executive, Machine, RunMode, ShardConfig};
pub use fault::{FaultDisposition, TrapDisposition};
pub use ids::{ObjId, ObjKind};
pub use mapping::TransferOutcome;
pub use msg::SignalOutcome;
pub use objects::{
    KernelDesc, LockedQuota, MemoryAccessArray, Priority, ReservedSlots, SpaceDesc, ThreadDesc,
    ThreadState, IDLE_PRIORITY, MAX_CPUS, MAX_PRIORITY, PRIORITY_LEVELS,
};
pub use overload::{KernelOverload, OverloadState, ThrashState};
pub use physmap::{DepRecord, P2v, PhysMap, RecHandle, CTX_COW, CTX_SIGNAL};
pub use program::{CodeStore, FnProgram, ForkableFn, ProgId, Program, Script, Step, ThreadCtx};
pub use recover::RecoveryReport;
pub use sched::{Pick, Scheduler};
pub use shardmsg::{Job, RemoteShootdown, ShardDst, ShardExport, ShardMsg, WbShipment};
pub use shootdown::ShootdownBatch;
pub use sigbatch::SignalBatch;
