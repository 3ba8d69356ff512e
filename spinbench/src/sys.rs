//! Process and host facts read from outside the program: CPU time, peak
//! memory, heap allocations and the host block printed with every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (allocs and growth reallocs) and tracks live
/// and peak heap bytes on top of the system allocator: a few relaxed
/// atomics per allocation, which the engine's allocation-free hot path
/// never reaches.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every operation is delegated to `System` unchanged; the counter
// has no effect on the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Heap allocations made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak live heap bytes of the process so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// User plus system CPU time of the whole process (all threads, exited
/// ones included), in nanoseconds: `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the layout matches the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host block printed before every result.
pub fn host_lines(seed: u64, offered_rate: Option<f64>) -> Vec<String> {
    vec![
        format!("host.nproc {}", nproc()),
        format!("host.cpu {}", cpu_model()),
        format!("host.rustc {}", env!("SPINBENCH_RUSTC")),
        format!("host.profile {}", env!("SPINBENCH_PROFILE")),
        "host.pinning none".to_string(),
        format!("host.seed {seed}"),
        format!(
            "host.offered_rate {}",
            offered_rate.map_or("none".to_string(), |r| format!("{r} tuples/s"))
        ),
    ]
}
