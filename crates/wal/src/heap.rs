//! The process's glibc heap setting.
//!
//! glibc's default trim threshold is dynamic: each time a large block
//! served by `mmap` is freed, the threshold rises to that block's size,
//! so heap tops up to that size stay resident after they are freed. A
//! multi-threaded build (the index MapReduce's workers, each with its own
//! arena) then leaves most of its transient memory resident long after it
//! is dropped. The call is a no-op off glibc.

/// Heap-top size above which `free` returns memory to the OS.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const TRIM_THRESHOLD: i32 = 128 * 1024;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
unsafe extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's trim threshold at 128 KiB (its initial value), so the
/// threshold no longer rises as large blocks are freed. Setting it also
/// pins the mmap threshold at its default. Call it once, at process
/// start, before the heap grows.
pub fn fix_trim_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// glibc's `M_TRIM_THRESHOLD` parameter number.
        const M_TRIM_THRESHOLD: i32 = -1;
        // SAFETY: `mallopt` takes no pointers and only changes allocator
        // parameters; it is safe to call from any thread at any time.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
        }
    }
}
