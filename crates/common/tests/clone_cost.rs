//! Cloning an instance copies no per-fact data: relations share their
//! frozen segments, membership table and liveness bitmap with the
//! clone, and copy only their packed tail (one buffer) and segment list.
//! So `Instance::clone` makes the same number of allocations whatever
//! the number of facts, with the storage committed or not.
//!
//! Allocations are counted per thread by this test binary's own global
//! allocator, so tests running in parallel do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unchained_common::{Instance, Interner, Symbol, Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees pass through unchanged; the
// bookkeeping touches a const-initialized thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Two relations of `facts` facts in total, committed in a few segments
/// or left in the tail, with a few tombstones when `retracted`; and the
/// binary relation's symbol.
fn instance(facts: i64, committed: bool, retracted: bool) -> (Instance, Symbol) {
    let mut interner = Interner::new();
    let (g, s) = (interner.intern("G"), interner.intern("S"));
    let mut inst = Instance::new();
    for k in 0..facts / 2 {
        inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        inst.insert_fact(s, Tuple::from([Value::Int(k)]));
        if committed && k % (facts / 8) == 0 {
            inst.commit_all();
        }
    }
    if committed {
        inst.commit_all();
    }
    if retracted {
        for k in 0..5 {
            inst.retract_fact(g, &[Value::Int(k), Value::Int(k + 1)]);
        }
    }
    (inst, g)
}

#[test]
fn instance_clone_allocations_do_not_depend_on_the_fact_count() {
    for (committed, retracted) in [(true, false), (false, false), (true, true)] {
        let counts: Vec<u64> = [10_000, 100_000]
            .into_iter()
            .map(|facts| {
                let (inst, _) = instance(facts, committed, retracted);
                assert_eq!(
                    inst.fact_count(),
                    facts as usize - if retracted { 5 } else { 0 }
                );
                let (copy, allocs) = allocs_of(|| inst.clone());
                assert!(copy.same_facts(&inst));
                allocs
            })
            .collect();
        assert_eq!(
            counts[0], counts[1],
            "committed={committed} retracted={retracted}: clone allocations grew with the facts"
        );
        // A handful per relation, nothing per fact.
        assert!(counts[0] < 20, "{counts:?}");
    }
}

#[test]
fn a_clone_diverges_without_disturbing_the_original() {
    let (inst, g) = instance(10_000, true, false);
    let mut copy = inst.clone();
    assert!(copy.insert_fact(g, Tuple::from([Value::Int(-1), Value::Int(-2)])));
    assert!(copy.retract_fact(g, &[Value::Int(0), Value::Int(1)]));
    assert!(!inst.contains_fact(g, &[Value::Int(-1), Value::Int(-2)]));
    assert!(inst.contains_fact(g, &[Value::Int(0), Value::Int(1)]));
    assert_eq!(inst.fact_count(), 10_000);
    assert_eq!(copy.fact_count(), 10_000);
}
