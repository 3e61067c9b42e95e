//! Model-based property tests for the physical memory map: the 16-byte
//! dependency-record store must behave exactly like a reference map of
//! (frame → set of mappings) with attached signal/COW records, under any
//! operation sequence, including handle reuse.

use cache_kernel::{PhysMap, RecHandle};
use hw::{Paddr, Vaddr};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Insert { frame: u8, vpage: u8, asid: u8 },
    Remove { pick: u8 },
    AttachSignal { pick: u8, thread: u8 },
    AttachCow { pick: u8, src: u8 },
    LookupFrame { frame: u8 },
    Signals { frame: u8 },
    RemoveThreadSignals { thread: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..8).prop_map(|(frame, vpage, asid)| Op::Insert {
            frame: frame % 16,
            vpage,
            asid
        }),
        any::<u8>().prop_map(|pick| Op::Remove { pick }),
        (any::<u8>(), 0u8..8).prop_map(|(pick, thread)| Op::AttachSignal { pick, thread }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, src)| Op::AttachCow { pick, src }),
        (0u8..16).prop_map(|frame| Op::LookupFrame { frame }),
        (0u8..16).prop_map(|frame| Op::Signals { frame }),
        (0u8..8).prop_map(|thread| Op::RemoveThreadSignals { thread }),
    ]
}

#[derive(Clone, Debug, Default)]
struct ModelRec {
    frame: u8,
    vpage: u8,
    asid: u8,
    signal: Option<u8>,
    cow: Option<u8>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn physmap_matches_model(ops in proptest::collection::vec(op(), 1..250)) {
        let mut m = PhysMap::new(512);
        let mut model: HashMap<RecHandle, ModelRec> = HashMap::new();
        let mut handles: Vec<RecHandle> = Vec::new();

        let pa = |frame: u8| Paddr((frame as u32 + 1) << 12);
        let va = |vpage: u8| Vaddr((vpage as u32 + 1) << 12);

        for o in ops {
            match o {
                Op::Insert { frame, vpage, asid } => {
                    // The Cache Kernel never inserts duplicate (asid, va):
                    // skip if the model already has it.
                    if model.values().any(|r| r.asid == asid && r.vpage == vpage) {
                        continue;
                    }
                    let h = m.insert_p2v(pa(frame), va(vpage), asid as u32).unwrap();
                    prop_assert!(!model.contains_key(&h), "live handle reused");
                    model.insert(h, ModelRec { frame, vpage, asid, signal: None, cow: None });
                    handles.push(h);
                }
                Op::Remove { pick } => {
                    if handles.is_empty() { continue; }
                    let h = handles.remove(pick as usize % handles.len());
                    let rec = model.remove(&h).unwrap();
                    let got = m.remove_p2v(h).unwrap();
                    prop_assert_eq!(got, (pa(rec.frame), va(rec.vpage), rec.asid as u32));
                    // Removing again with the (stale) handle must fail.
                    prop_assert!(m.remove_p2v(h).is_none() || !model.is_empty());
                }
                Op::AttachSignal { pick, thread } => {
                    if handles.is_empty() { continue; }
                    let h = handles[pick as usize % handles.len()];
                    let rec = model.get_mut(&h).unwrap();
                    if rec.signal.is_none() {
                        m.attach_signal(h, thread as u32).unwrap();
                        rec.signal = Some(thread);
                    }
                }
                Op::AttachCow { pick, src } => {
                    if handles.is_empty() { continue; }
                    let h = handles[pick as usize % handles.len()];
                    let rec = model.get_mut(&h).unwrap();
                    if rec.cow.is_none() {
                        m.attach_cow(h, pa(src % 16)).unwrap();
                        rec.cow = Some(src % 16);
                    }
                }
                Op::LookupFrame { frame } => {
                    let mut got: Vec<(u32, u32)> =
                        m.find_p2v(pa(frame)).into_iter().map(|x| (x.asid, x.vaddr.0)).collect();
                    let mut want: Vec<(u32, u32)> = model
                        .values()
                        .filter(|r| r.frame == frame)
                        .map(|r| (r.asid as u32, va(r.vpage).0))
                        .collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                Op::Signals { frame } => {
                    let mut got: Vec<u32> =
                        m.signals_for(pa(frame)).into_iter().map(|(t, _, _)| t).collect();
                    let mut want: Vec<u32> = model
                        .values()
                        .filter(|r| r.frame == frame)
                        .filter_map(|r| r.signal.map(|t| t as u32))
                        .collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                Op::RemoveThreadSignals { thread } => {
                    let affected = m.remove_signals_of_thread(thread as u32);
                    let expect = model
                        .values_mut()
                        .filter(|r| r.signal == Some(thread))
                        .count();
                    prop_assert_eq!(affected.len(), expect);
                    for r in model.values_mut() {
                        if r.signal == Some(thread) {
                            r.signal = None;
                        }
                    }
                }
            }
            // Global accounting: records = p2v + signals + cows.
            let want_count = model.len()
                + model.values().filter(|r| r.signal.is_some()).count()
                + model.values().filter(|r| r.cow.is_some()).count();
            prop_assert_eq!(m.len(), want_count);
            prop_assert_eq!(m.bytes(), want_count * 16);
        }

        // Attached records agree handle by handle.
        for (h, rec) in &model {
            prop_assert_eq!(m.signal_of(*h), rec.signal.map(|t| t as u32));
            prop_assert_eq!(m.cow_source_of(*h), rec.cow.map(&pa));
        }
    }
}
