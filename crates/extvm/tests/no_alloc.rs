//! Steady-state executions allocate nothing: after a warm-up run, both
//! `Vm::run` and `CompiledProgram::run` reuse the hoisted buffers
//! (operand stack, locals, memory, registers, host-call scratch) and
//! never touch the allocator. This is ISSUE 10's "reset-in-place"
//! satellite, enforced with a counting global allocator.
//!
//! The count is per thread: libtest runs the tests below in parallel,
//! and a process-global counter would charge one test for another's
//! allocations (or for the harness's own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use udc_extvm::{assemble, CompiledProgram, NullHost, Vm, VmLimits};

struct CountingAlloc;

thread_local! {
    // `const` init with a `Drop`-free type: accessing it never
    // allocates, so the allocator may touch it re-entrantly.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_runs_do_not_allocate() {
    let limits = VmLimits::default();
    let programs = [
        assemble("arg 0\narg 4\nsub\nret").unwrap(),
        assemble(
            "arg 0\nstore 1\nloop:\nload 1\njz done\nload 1\npush 1\nsub\nstore 1\njmp loop\ndone:\npush 0\nret",
        )
        .unwrap(),
        assemble("push 3\npush 9\nmemstore\npush 3\nmemload\nret").unwrap(),
    ];
    let args = [7i64, 64, 3, -1, 4];

    for program in &programs {
        // Interpreter path.
        let mut vm = Vm::new(limits);
        vm.run(program, &args, &mut NullHost).unwrap(); // warm-up
        let n = allocs_during(|| {
            for _ in 0..100 {
                vm.run(program, &args, &mut NullHost).unwrap();
            }
        });
        assert_eq!(n, 0, "interpreter steady state allocated {n} times");

        // Compiled path.
        let compiled = CompiledProgram::compile(program, limits);
        let mut vm = Vm::new(limits);
        compiled.run(&mut vm, &args, &mut NullHost).unwrap(); // warm-up
        let n = allocs_during(|| {
            for _ in 0..100 {
                compiled.run(&mut vm, &args, &mut NullHost).unwrap();
            }
        });
        assert_eq!(n, 0, "compiled steady state allocated {n} times");
    }
}

#[test]
fn trapping_runs_do_not_allocate_either() {
    // Gasless traps (BadArg) and deopted traps (OutOfGas) both reuse
    // the retained buffers. (HostError traps allocate by design — the
    // error message is a String.)
    let limits = VmLimits {
        max_gas: 50,
        ..Default::default()
    };
    let trap_arg = assemble("arg 9\nret").unwrap();
    let spin = assemble("top:\npush 1\npop\njmp top").unwrap();

    for program in [&trap_arg, &spin] {
        let compiled = CompiledProgram::compile(program, limits);
        let mut vm = Vm::new(limits);
        let _ = compiled.run(&mut vm, &[], &mut NullHost); // warm-up
        let n = allocs_during(|| {
            for _ in 0..50 {
                let _ = compiled.run(&mut vm, &[], &mut NullHost);
            }
        });
        assert_eq!(n, 0, "trapping steady state allocated {n} times");
    }
}
