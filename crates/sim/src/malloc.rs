//! The process's allocator policy, shared by every run.
//!
//! glibc's malloc decides per request whether a buffer is mapped on its own
//! or carved from a heap, by an mmap threshold that it adjusts as the
//! process runs: freeing a mapped buffer raises the threshold to that
//! buffer's size, and the trim threshold with it. After that, buffers just
//! as large are carved from the heap, and when freed they stay resident
//! behind whatever was allocated above them. A run's peak memory then
//! depends on the order in which its inputs, its snapshots and its threads
//! happened to free their large buffers. [`pin_malloc_thresholds`] turns
//! the adjustment off; every engine, every trace and the daemon call it.

/// Fixes glibc's mmap threshold at its documented default, 128 KiB,
/// once per process. Setting the threshold turns glibc's dynamic
/// adjustment off, so every buffer above it is mapped on allocation and
/// returned on free, whatever was freed before it. Elsewhere than
/// linux-gnu it does nothing.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        static PINNED: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` takes two integers and touches no caller
        // memory; glibc serialises it with its own arena locks, so it is
        // sound from any thread at any time. A refusal (return 0) leaves
        // the threshold dynamic, which is only the old behaviour.
        PINNED.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        });
    }
}
