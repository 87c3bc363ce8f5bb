//! Sim threads as fibers, the [`Body`] on x86-64 Linux: every sim thread of
//! a [`Runtime`](crate::Runtime) runs on the OS thread that called
//! `Runtime::run`, root on that thread's own stack and each spawned thread on
//! a stack of its own, and a run-token hand-off is a swap of stack pointers
//! in user space instead of a futex wake and wait: about a hundred
//! nanoseconds where a kernel context switch costs two microseconds.
//!
//! A [`Fiber`] is a [`STACK_SIZE`] stack `mmap`'d above a `PROT_NONE` guard
//! page, so a sim thread that overflows its stack dies of `SIGSEGV` on the
//! guard instead of writing over memory it does not own. A stack is made once,
//! holding a fresh frame that enters `entry`, and a fiber whose sim thread has
//! exited waits in the runtime's idle list for the next spawn: its `entry`
//! loops, so a reused fiber resumes where it left off and runs its next
//! thread. The stacks are unmapped when `run` returns, a suspended daemon's
//! included.
//!
//! The switch saves the registers a call must preserve (`rbx`, `rbp`,
//! `r12`–`r15`, the MXCSR and the x87 control word) on the running stack,
//! stores the stack pointer in the running fiber's cell, loads the next
//! fiber's and restores what that stack saved. To its caller it is a call
//! that returns when another switch hands the token back. Because all fibers
//! share one OS thread, no lock guard may be alive across the switch, or it
//! would be held by whichever fiber runs next; the switch asserts that.
//!
//! This module holds three of the workspace's `unsafe` blocks: mapping a
//! stack and writing its first frame, unmapping it, and the switch.

#![allow(unsafe_code)]

use crate::runtime::{run_spawned, Body, Ctx};
use std::cell::Cell;
use std::ffi::{c_int, c_long, c_void};

/// Usable bytes of a fiber's stack: what `std::thread` gives a thread.
const STACK_SIZE: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// The initial frame, in words from the stack pointer up: the MXCSR and the
/// x87 control word, `r15`, `r14`, `r13`, `r12`, `rbx`, `rbp`, the address
/// the switch returns to, and a zero return address for `entry` that ends a
/// backtrace there.
const FRAME_WORDS: usize = 9;
/// MXCSR 0x1F80 (all exceptions masked, round to nearest) in the low half,
/// x87 control word 0x037F (the same, 64-bit precision) above it: the
/// values the ABI starts a process with.
const FRESH_FP_CONTROL: u64 = 0x037F_0000_1F80;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    /// Pushes the callee-saved state, stores `rsp` in `*save`, loads `load`
    /// into `rsp`, pops the state saved there and returns on that stack.
    fn xlsm_sim_fiber_switch(save: *mut usize, load: usize);
}

std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl xlsm_sim_fiber_switch",
    ".hidden xlsm_sim_fiber_switch",
    ".type xlsm_sim_fiber_switch, @function",
    "xlsm_sim_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size xlsm_sim_fiber_switch, . - xlsm_sim_fiber_switch",
);

thread_local! {
    /// Stacks this OS thread has mapped and not yet unmapped. A runtime's
    /// fibers all run on the OS thread that runs it, which maps and unmaps
    /// their stacks, so the count needs no atomic.
    static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// A mapping of the guard page and the stack above it, unmapped on drop.
struct Stack {
    base: usize,
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is a mapping of `GUARD + STACK_SIZE` bytes this
        // module made, and nothing runs on it: a fiber's stack is dropped only
        // by the runtime after its last switch away from it, on another stack.
        let unmapped = unsafe { munmap(self.base as *mut c_void, GUARD + STACK_SIZE) };
        debug_assert_eq!(unmapped, 0, "munmap of a fiber stack failed");
        LIVE_STACKS.with(|n| n.set(n.get() - 1));
    }
}

/// A sim thread's machine context: the cell its stack pointer is saved in
/// while it is switched out, and the stack it runs on.
pub(crate) struct Fiber {
    /// The stack pointer the fiber resumes at, or 0 while it runs. A heap
    /// cell, so that it stays put while the runtime's thread table grows and
    /// while the fiber moves in and out of the idle list.
    sp: Box<Cell<usize>>,
    /// Held for its mapping, which goes with the fiber; `None` for the OS
    /// thread's own stack, which the root runs on.
    _stack: Option<Stack>,
}

/// Where every fiber starts: a fiber runs one spawned thread after another,
/// and waits inside `run_spawned` between them.
extern "C" fn entry() -> ! {
    loop {
        run_spawned();
    }
}

impl Fiber {
    /// A fiber on a fresh stack whose first switch-in calls `entry`.
    ///
    /// # Panics
    ///
    /// If the stack cannot be mapped.
    fn new() -> Fiber {
        let len = GUARD + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a fresh anonymous mapping aliases nothing. Once the guard
        // page is made inaccessible, the frame is written into the top
        // `FRAME_WORDS` words of the mapping, which are readable, writable and
        // 8-aligned (the mapping is page-aligned).
        let (base, sp) = unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            );
            assert!(
                base != MAP_FAILED,
                "mmap of a fiber stack failed: {}",
                std::io::Error::last_os_error()
            );
            let guarded = mprotect(base, GUARD, PROT_NONE);
            assert_eq!(guarded, 0, "mprotect of a fiber's guard page failed");
            let frame = base.cast::<u8>().add(len).cast::<u64>().sub(FRAME_WORDS);
            frame.write(FRESH_FP_CONTROL);
            frame
                .add(FRAME_WORDS - 2)
                .write(entry as extern "C" fn() -> ! as usize as u64);
            (base as usize, frame as usize)
        };
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        // The top is 16-aligned, so `entry` starts with `rsp` 8 below a
        // multiple of 16, as after a call.
        debug_assert_eq!((sp + 8 * FRAME_WORDS) % 16, 0);
        Fiber {
            sp: Box::new(Cell::new(sp)),
            _stack: Some(Stack { base }),
        }
    }
}

impl Body for Fiber {
    type Swap = Swap;

    /// The context of the OS thread's own stack, which is running.
    fn root() -> Fiber {
        Fiber {
            sp: Box::default(),
            _stack: None,
        }
    }

    fn start(&self, idle: Option<Fiber>, _: &str, _: impl FnOnce() -> Ctx) -> Fiber {
        idle.unwrap_or_else(Fiber::new)
    }

    /// The switch from this fiber, which must be the one running, to `next`,
    /// which must be switched out; the asserts hold the runtime to that, so a
    /// switch only ever loads what a switch or [`Fiber::new`] saved.
    fn swap_to(&self, next: &Fiber) -> Swap {
        assert_eq!(
            self.sp.get(),
            0,
            "a switch from a fiber that is not running"
        );
        let load = next.sp.replace(0);
        assert_ne!(load, 0, "a switch to a fiber that is running");
        Swap {
            save: self.sp.as_ptr(),
            load,
        }
    }

    fn switch(swap: Swap) {
        assert_eq!(
            parking_lot::guards_held(),
            0,
            "a lock guard across a fiber switch"
        );
        // SAFETY: `save` is the heap cell of the running fiber, and `load`
        // (by `swap_to`'s asserts) the stack pointer the next fiber's last
        // switch saved, or its fresh frame's, on a stack mapped for as long as
        // the fiber lives, with the frame the switch pops on top. The runtime
        // drops fibers only with its scheduler, after `Runtime::run`'s body
        // returned on the OS thread's own stack, and between `swap_to` and
        // this call it only releases its lock and reads the caller's
        // charges, so both fibers are alive and as `swap_to` found them. The
        // switch preserves every register a call must, so to the compiler
        // this is an ordinary call.
        unsafe { xlsm_sim_fiber_switch(swap.save, swap.load) }
    }
}

/// A switch decided by [`Body::swap_to`]: the two stack-pointer words.
pub(crate) struct Swap {
    save: *mut usize,
    load: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn, spawn_daemon, sync::WaitSet, Runtime};
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Output};

    /// How many fiber stacks this OS thread has mapped right now.
    fn live_stacks() -> usize {
        LIVE_STACKS.with(Cell::get)
    }

    /// Set in a child process this test binary started, to make the test it
    /// was started for do its work instead of starting another child.
    const CHILD: &str = "XLSM_SIM_FIBER_CHILD";

    /// Runs the test `name` (of this module) alone in a child process of this
    /// binary, with [`CHILD`] set, and returns how the child ended. Its
    /// working directory is the temporary one, where a core dump would land.
    fn in_child(name: &str) -> Output {
        let module = module_path!().split_once("::").expect("crate::module").1;
        Command::new(std::env::current_exe().expect("the test binary"))
            .args([&format!("{module}::{name}"), "--exact", "--test-threads=1"])
            .env(CHILD, "1")
            .current_dir(std::env::temp_dir())
            .output()
            .expect("the child test ran")
    }

    /// Runs the test `name` in a child and asserts that it ran and passed.
    fn passes_in_child(name: &str) {
        let out = in_child(name);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} in a child: {:?}\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    fn is_child() -> bool {
        std::env::var_os(CHILD).is_some()
    }

    /// OS threads of this process.
    fn os_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .count()
    }

    /// Recurses until the stack runs out; the frame is kept by `black_box`.
    fn recurse(depth: u64) -> u64 {
        let frame = std::hint::black_box([depth; 32]);
        if std::hint::black_box(true) {
            recurse(depth + 1) + frame[31]
        } else {
            frame[0]
        }
    }

    #[test]
    fn an_overflowing_sim_thread_dies_on_the_guard_page() {
        if is_child() {
            Runtime::new().run(|| spawn("deep", || recurse(0)).join());
            return;
        }
        let status = in_child("an_overflowing_sim_thread_dies_on_the_guard_page").status;
        assert!(
            status.signal().is_some(),
            "the child should die of a signal, not exit: {status:?}"
        );
    }

    #[test]
    fn spawn_join_pairs_reuse_one_stack() {
        if is_child() {
            let before = live_stacks();
            Runtime::new().run(|| {
                for i in 0..10_000u64 {
                    assert_eq!(spawn("empty", move || i).join(), i);
                    assert!(live_stacks() <= before + 1, "peak concurrency is one");
                }
                let pair: Vec<_> = (0..2).map(|_| spawn("pair", || ())).collect();
                pair.into_iter().for_each(|h| h.join());
                assert!(live_stacks() <= before + 2, "peak concurrency is two");
            });
            assert_eq!(
                live_stacks(),
                before,
                "the pool is unmapped with its runtime"
            );
            return;
        }
        passes_in_child("spawn_join_pairs_reuse_one_stack");
    }

    #[test]
    fn a_suspended_daemon_leaves_no_thread_and_no_stack() {
        if is_child() {
            let (threads, stacks) = (os_threads(), live_stacks());
            for _ in 0..50 {
                Runtime::new().run(|| {
                    let _daemon = spawn_daemon("daemon", || WaitSet::new("forever").wait());
                    crate::sleep_nanos(1_000);
                });
            }
            assert_eq!(os_threads(), threads);
            assert_eq!(live_stacks(), stacks);
            return;
        }
        passes_in_child("a_suspended_daemon_leaves_no_thread_and_no_stack");
    }
}
