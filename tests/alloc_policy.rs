//! Every run shares one allocator policy: glibc's mmap threshold stays at
//! its 128 KiB default, so a large buffer is mapped on its own whatever
//! the process freed before it. Left dynamic, freeing a mapped 4 MiB
//! buffer raises the threshold to 4 MiB, and a 1 MiB buffer allocated
//! after it is carved from a heap, where it stays resident behind later
//! allocations once freed. Generating a trace pins the policy, as a run's
//! engine and the daemon do.
//!
//! A test binary of its own, with one test, because the threshold is
//! process-wide and glibc's count of mapped bytes is too.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::hint::black_box;

use mbts::workload::{generate_trace, MixConfig};

/// glibc's `struct mallinfo2`: ten `size_t` counters.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the process holds in buffers mapped on their own.
fn mapped_bytes() -> usize {
    // SAFETY: `mallinfo2` takes nothing and returns its counters by
    // value; it only reads glibc's own bookkeeping under its locks.
    unsafe { mallinfo2() }.hblkhd
}

#[test]
fn a_large_buffer_is_mapped_after_a_larger_one_is_freed() {
    let trace = generate_trace(&MixConfig::millennium_default().with_tasks(8), 1);
    assert_eq!(trace.len(), 8);

    drop(black_box(vec![1u8; 4 << 20]));
    let before = mapped_bytes();
    let buffer = black_box(vec![1u8; 1 << 20]);
    let grown = mapped_bytes().saturating_sub(before);
    assert!(
        grown >= buffer.len(),
        "a 1 MiB buffer after a freed 4 MiB one added {grown} B of mapped memory: \
         it was carved from a heap, so the mmap threshold is not pinned"
    );
}
