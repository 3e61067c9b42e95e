//! The event pump: delivery of pipeline events to application kernels.
//!
//! Everything the Cache Kernel's lower layers want from an application
//! kernel arrives here as a [`KernelEvent`], in emission order. The pump
//! pops one event at a time, so a delivery that emits further events
//! (a fault handler displacing objects, a kill forwarding a thread exit)
//! keeps strict queue order; nested pumps — `terminate_thread` inside a
//! `Kill` disposition — simply drain the same queue and leave the outer
//! pump nothing to do, which makes the pump reentrancy-safe.
//!
//! With [`EventTrace`] enabled the pump records one line per delivered
//! event; identical configurations replay byte-identical traces, which
//! the cluster determinism test pins down.

use super::Executive;
use crate::events::{DeviceSource, KernelEvent};
use crate::fault::{FaultDisposition, TrapDisposition};
use crate::objects::ThreadState;
use hw::FaultKind;

/// A recorded event trace (determinism verification and diagnostics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventTrace {
    /// Whether the pump records delivered events.
    pub enabled: bool,
    /// One line per delivered event: `q<quantum> <description>`.
    pub lines: Vec<String>,
}

impl Executive {
    /// Deliver the events queued in the Cache Kernel *at the time the
    /// pump starts* to the application kernels. The only place
    /// `on_writeback`, `on_page_fault`, `on_exception`, `on_trap`,
    /// `on_thread_exit`, `on_tick` and `on_packet` are invoked from the
    /// executive.
    ///
    /// The pump is bounded to the starting queue length: events emitted
    /// *during* delivery wait for the next pump (next quantum, or the
    /// next fault-path pump). This is what keeps a descriptor-pressure
    /// livelock impossible — a kernel whose `on_writeback` reloads the
    /// object (displacing another) queues the next writeback instead of
    /// delivering it recursively, so threads get to run in between.
    /// Nested pumps (a `Kill` disposition terminating the thread inside
    /// a delivery) share the same queue; the inner pump's consumption
    /// just leaves the outer one fewer events, never duplicates.
    pub fn pump_events(&mut self) {
        let budget = self.ck.pending_events();
        for _ in 0..budget {
            let Some(ev) = self.ck.pop_event() else {
                break; // a nested pump already drained the rest
            };
            if self.trace.enabled {
                self.trace
                    .lines
                    .push(format!("q{} {}", self.quanta_run, ev.describe()));
            }
            self.ck.stats.events_delivered += 1;
            self.deliver_event(ev);
        }
    }

    fn deliver_event(&mut self, ev: KernelEvent) {
        match ev {
            KernelEvent::FaultForward {
                owner,
                thread,
                cpu,
                fault,
            } => self.deliver_fault(owner, thread, cpu, fault),
            KernelEvent::TrapForward {
                owner,
                thread,
                cpu,
                no,
                args,
            } => self.deliver_trap(owner, thread, cpu, no, args),
            KernelEvent::Writeback(wb) => {
                let owner = wb.owner();
                self.call_kernel(owner.slot, 0, |k, env| k.on_writeback(env, wb));
                // A fault plan may have this kernel die at its K-th
                // delivered writeback.
                if self
                    .faults
                    .as_mut()
                    .map(|p| p.note_writeback(owner.slot))
                    .unwrap_or(false)
                {
                    self.crash_kernel(owner.slot);
                }
            }
            KernelEvent::Signal { .. } => {
                // Thread wakeup happened synchronously in the messaging
                // layer; the event carried the fact into the ordered
                // pipeline for counters and tracing.
            }
            KernelEvent::Shootdown { .. } => {
                // The TLB/rTLB invalidations were applied synchronously at
                // the batch flush; the event records the round for
                // counters and tracing.
            }
            KernelEvent::DeviceInterrupt { source, paddr } => {
                self.ck.raise_signal(&mut self.mpm, 0, paddr);
                if source == DeviceSource::Clock {
                    // Registered kernels get their rescheduling hook, in
                    // deterministic slot order. Answering the tick is the
                    // liveness heartbeat the SRM's failure detector reads:
                    // a crashed (unregistered) kernel stops being stamped
                    // and its last-seen cycle goes stale.
                    let now = self.mpm.clock.cycles();
                    for ks in self.kernels.slots() {
                        self.ck.note_heartbeat(ks, now);
                        self.call_kernel(ks, 0, |k, env| k.on_tick(env));
                    }
                }
            }
            KernelEvent::PacketArrived { src, channel, data } => {
                if let Some(ks) = self.channel_owners.get(&channel).copied() {
                    self.call_kernel(ks, 0, |k, env| k.on_packet(env, src, channel, &data));
                }
            }
            KernelEvent::AccountingPeriodEnd { period } => {
                self.ck.end_accounting_period(period);
            }
            KernelEvent::ThreadExit {
                owner,
                thread,
                code,
                cpu,
            } => {
                let slot = thread.slot;
                let pc = self.ck.thread(thread).map(|t| t.desc.regs.pc).ok();
                self.call_kernel(owner.slot, cpu, |k, env| {
                    k.on_thread_exit(env, thread, code)
                });
                // The kernel may have already unloaded it in the callback.
                if self.ck.thread_id(slot) == Some(thread) {
                    let _ = self.ck.do_unload_thread(thread, &mut self.mpm);
                }
                if let Some(pc) = pc {
                    self.code.remove(pc);
                }
                if let Some(c) = self.mpm.cpus.get_mut(cpu) {
                    if c.current == Some(slot as u32) {
                        c.current = None;
                    }
                }
            }
            KernelEvent::KernelFailed { .. } | KernelEvent::KernelRecovered { .. } => {
                // Failure/recovery already happened in the Cache Kernel;
                // the events record the episode for counters and tracing.
            }
            KernelEvent::ThrashDetected { .. } => {
                // Informational: the victim-selection penalty was armed
                // when the detector fired; the event carries the episode
                // into counters and traces for the overload harness.
            }
            KernelEvent::CapViolation { .. } => {
                // Informational: the violator already received
                // `CapDenied` synchronously and the counter ticked at
                // emit; the event carries the violation into traces so
                // adversarial runs can audit containment.
            }
            KernelEvent::Cluster(cev) => {
                // Membership transitions fan out to every registered
                // kernel in deterministic slot order, mirroring the clock
                // tick: a DSM kernel re-homes a dead owner's lines, the
                // SRM freezes or thaws its placement.
                for ks in self.kernels.slots() {
                    self.call_kernel(ks, 0, |k, env| k.on_cluster_event(env, cev));
                }
            }
        }
    }

    /// Deliver a forwarded fault (Fig. 2 steps 3–6) and apply the
    /// handler's disposition. The disposition is recorded for the
    /// dispatch loop to read back.
    fn deliver_fault(
        &mut self,
        owner: crate::ids::ObjId,
        thread: crate::ids::ObjId,
        cpu: usize,
        fault: hw::Fault,
    ) {
        let slot = thread.slot;
        self.ck.resume_armed = false;
        let is_mapping_fault = fault.kind == FaultKind::Unmapped;
        let disp = self
            .call_kernel(owner.slot, cpu, |k, env| {
                if is_mapping_fault {
                    k.on_page_fault(env, thread, fault)
                } else {
                    k.on_exception(env, thread, fault)
                }
            })
            .unwrap_or(FaultDisposition::Kill);
        match disp {
            FaultDisposition::Resume => {
                // The combined load-and-resume call already paid the
                // return; otherwise charge the separate completion trap.
                if !self.ck.resume_armed {
                    self.ck.end_forward(&mut self.mpm, cpu);
                }
                self.ck.resume_armed = false;
                if self.ck.thread_id(slot) != Some(thread) {
                    self.clear_current(cpu);
                }
            }
            FaultDisposition::Block => {
                if self.ck.thread_id(slot) == Some(thread) {
                    if let Some(t) = self.ck.threads.get_slot_mut(slot) {
                        if matches!(t.desc.state, ThreadState::Running(_)) {
                            t.desc.state = ThreadState::Suspended;
                        }
                    }
                    self.ck.sched.remove(slot);
                }
                self.clear_current(cpu);
            }
            FaultDisposition::Retry => {
                // The resolving load was shed (`Again`): put the thread
                // back on the ready queue so it refaults after the
                // pressure has had a chance to drain. The charged
                // forward/return is the simulated cost of the backoff.
                self.ck.end_forward(&mut self.mpm, cpu);
                if self.ck.thread_id(slot) == Some(thread) {
                    let mut requeue = false;
                    if let Some(t) = self.ck.threads.get_slot_mut(slot) {
                        if matches!(t.desc.state, ThreadState::Running(_)) {
                            t.desc.state = ThreadState::Ready;
                            requeue = true;
                        }
                    }
                    if requeue {
                        self.ck.enqueue_thread(slot);
                    }
                }
                self.clear_current(cpu);
            }
            FaultDisposition::Kill => {
                if self.ck.thread_id(slot) == Some(thread) {
                    self.terminate_thread(cpu, slot, -11); // SIGSEGV flavor
                } else {
                    self.clear_current(cpu);
                }
            }
        }
        self.last_fault_disp = Some(disp);
    }

    /// Deliver a forwarded trap (§2.3) and apply the disposition.
    fn deliver_trap(
        &mut self,
        owner: crate::ids::ObjId,
        thread: crate::ids::ObjId,
        cpu: usize,
        no: u32,
        args: [u32; 4],
    ) {
        let slot = thread.slot;
        // Capture the program id before the handler runs: it may unload
        // the thread, and a Return value still lands in the code store.
        let pc = self.ck.thread(thread).map(|t| t.desc.regs.pc).ok();
        let disp = self
            .call_kernel(owner.slot, cpu, |k, env| k.on_trap(env, thread, no, args))
            .unwrap_or(TrapDisposition::Exit);
        self.ck.end_forward(&mut self.mpm, cpu);
        match disp {
            TrapDisposition::Return(v) => {
                if let Some(pc) = pc {
                    self.code.set_trap_ret(pc, v);
                }
            }
            TrapDisposition::Block => {
                // The kernel parks the thread (it may also have unloaded
                // it); if still loaded and running, suspend it.
                if self.ck.thread_id(slot) == Some(thread) {
                    if let Some(t) = self.ck.threads.get_slot_mut(slot) {
                        if matches!(t.desc.state, ThreadState::Running(_)) {
                            t.desc.state = ThreadState::Suspended;
                        }
                    }
                    self.ck.sched.remove(slot);
                }
                self.clear_current(cpu);
            }
            TrapDisposition::Exit => {
                self.terminate_thread(cpu, slot, no as i32);
            }
        }
        self.last_trap_disp = Some(disp);
    }

    pub(crate) fn close_accounting_period(&mut self) {
        let period = crate::ck::ACCOUNTING_PERIOD;
        let now = self.mpm.clock.cycles();
        if now - self.last_period_end >= period {
            self.last_period_end = now;
            self.ck.emit(KernelEvent::AccountingPeriodEnd { period });
        }
    }
}
