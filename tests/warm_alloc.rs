//! The warm path allocates nothing.
//!
//! A counting global allocator tallies heap allocations made on the
//! current thread. After a warm-up that specializes every key and sizes
//! every reusable buffer, 1,000 more calls — through a `ThreadRuntime`
//! over a shared runtime, a single-threaded dynamic session, and a
//! static session — must make zero allocations: no VM frame, no register
//! file, no key buffer, no argument vector.

use dyc::{Compiler, Program, SharedRuntime, Value};
use dyc_vm::{CostModel, Vm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A promoted-key region whose specialized code still makes a call, so
/// a warm dispatch pushes frames for the specialized code and its callee.
const SRC: &str = "
    int mix(int a, int b) { if (a > b) { return a - b; } return a * 3 + b; }
    int serve(int key, int x) { make_static(key);
        int acc = x; int i = key % 8 + 1;
        while (i > 0) { acc = mix(acc, key + i); i = i - 1; }
        return acc; }";

fn expected(key: i64, x: i64) -> i64 {
    let mut acc = x;
    let mut i = key % 8 + 1;
    while i > 0 {
        let b = key + i;
        acc = if acc > b { acc - b } else { acc * 3 + b };
        i -= 1;
    }
    acc
}

const KEYS: i64 = 16;
const WARM_CALLS: usize = 1_000;

fn args(n: usize) -> [Value; 2] {
    let n = n as i64;
    [Value::I(n % KEYS), Value::I(n % 7 - 3)]
}

fn check(n: usize, out: Option<Value>) {
    let [key, x] = args(n);
    assert_eq!(
        out,
        Some(Value::I(expected(key.as_i(), x.as_i()))),
        "call {n}"
    );
}

fn program() -> Program {
    Compiler::new().compile(SRC).unwrap()
}

#[test]
fn warm_thread_runtime_dispatch_allocates_nothing() {
    let p = program();
    let shared = p.shared_runtime();
    let mut rt = SharedRuntime::thread(&shared);
    let mut module = shared.base_module();
    let func = module.func_by_name("serve").unwrap();
    let mut vm = Vm::new(CostModel::alpha21164());
    for n in 0..4 * KEYS as usize {
        let out = vm
            .call_with_handler(&mut module, &mut rt, func, &args(n))
            .unwrap();
        check(n, out);
    }
    let allocs = allocs_during(|| {
        for n in 0..WARM_CALLS {
            let out = vm
                .call_with_handler(&mut module, &mut rt, func, &args(n))
                .unwrap();
            check(n, out);
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations in {WARM_CALLS} warm calls");
    assert_eq!(rt.stats.specializations, KEYS as u64);
}

#[test]
fn warm_dynamic_session_allocates_nothing() {
    let p = program();
    let mut s = p.dynamic_session();
    for n in 0..4 * KEYS as usize {
        check(n, s.run("serve", &args(n)).unwrap());
    }
    let allocs = allocs_during(|| {
        for n in 0..WARM_CALLS {
            check(n, s.run("serve", &args(n)).unwrap());
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations in {WARM_CALLS} warm calls");
}

#[test]
fn warm_static_session_allocates_nothing() {
    let p = program();
    let mut s = p.static_session();
    for n in 0..4 * KEYS as usize {
        check(n, s.run("serve", &args(n)).unwrap());
    }
    let allocs = allocs_during(|| {
        for n in 0..WARM_CALLS {
            check(n, s.run("serve", &args(n)).unwrap());
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations in {WARM_CALLS} warm calls");
}
