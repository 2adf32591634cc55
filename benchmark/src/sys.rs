//! What the benchmark needs from the C library that `std` does not
//! offer: thread placement, the process's CPU clock, and a say in how
//! many arenas `malloc` keeps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Limits glibc's `malloc` to its one main arena, as `MALLOC_ARENA_MAX=1`
/// would; `main` calls it before the first thread starts. By default
/// every thread that finds the arenas busy gets one of its own, each
/// keeps what was freed into it, and which worker happens to handle
/// which publish decides how many fill up: the same code peaked at 67
/// to 95 MB on `tcp_publish_write` and 52 to 71 on `tcp_publish`, a
/// spread no change to the program could be told from. With one arena
/// the peaks are 23 to 24 MB and 25 to 27, run after run, and what is
/// left is what the program holds. No timing moved beyond its noise.
/// `peak_rss_mb` is therefore the memory of a replica started with that
/// setting, not of one left to glibc's default.
pub fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets a tunable of the allocator; no thread
    // but this one exists yet.
    let accepted = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(accepted, 1, "mallopt refused M_ARENA_MAX");
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut time = [0i64; 2];
    // SAFETY: `time` is a live `timespec` (two 64-bit fields on every
    // 64-bit Linux target) that the kernel fills in.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime failed");
    time[0] as u64 * 1_000_000_000 + time[1] as u64
}

/// CPU time the [`IdleKeeper`] has burnt so far, which is nobody's work.
static KEEPER_NS: AtomicU64 = AtomicU64::new(0);

/// User plus system CPU time of this process so far, threads that have
/// ended included and the [`IdleKeeper`]'s spinning left out, in
/// microseconds. `/proc/self/stat` has the same sum but only in ticks of
/// 10 ms, too coarse for a slice of half a second.
pub fn cpu_us() -> f64 {
    // The process clock first: the keeper's count only grows, so what is
    // taken off is never less than what the first reading held of it.
    let process = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    process.saturating_sub(KEEPER_NS.load(Ordering::Relaxed)) as f64 / 1e3
}

/// A thread of the lowest scheduling class (`SCHED_IDLE`) that spins on
/// the CPU it is started on, so that the CPU never halts: `idle=poll`
/// for one core, from user space. Any other thread that wakes pre-empts
/// it at once, so the program runs as it would alone.
///
/// Why: the guest's CPU is a virtual one. When every thread of a socket
/// workload sleeps (the batcher's linger does that on each request of
/// `tcp_unique`), the core halts, which is an exit to the hypervisor,
/// and the timer or the packet that ends the sleep is another; what the
/// pair costs is the host's business and moved `p50_us` and
/// `cpu_us_per_op` by 10 to 25% from run to run. With the core kept
/// busy a sleep costs a context switch, as on a machine of one's own.
///
/// The keeper counts its own CPU time and [`cpu_us`] leaves it out.
pub struct IdleKeeper {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleKeeper {
    /// Starts the keeper on the calling thread's CPUs. Gives the reason
    /// when the kernel refuses the scheduling class: without it the
    /// spinning would take the program's share of the core, so there is
    /// no keeper then, and more noise.
    pub fn start() -> Result<Self, String> {
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let (report, classed) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            // SAFETY: pid 0 is the calling thread; the parameter is a
            // live `sched_param` (one int) holding the only priority the
            // class has.
            let status = unsafe { sched_setscheduler(0, SCHED_IDLE, &0) };
            report.send(status == 0).expect("report the class");
            if status != 0 {
                return;
            }
            let base = KEEPER_NS.load(Ordering::Relaxed);
            while !stopped.load(Ordering::Relaxed) {
                // A system call of a fraction of a microsecond: the
                // count is never further behind than that.
                KEEPER_NS.store(base + clock_ns(CLOCK_THREAD_CPUTIME_ID), Ordering::Relaxed);
            }
        });
        // Dropped (and so stopped and joined) on the way out if refused.
        let keeper = Self {
            stop,
            thread: Some(thread),
        };
        match classed.recv() {
            Ok(true) => Ok(keeper),
            _ => Err("the kernel refused SCHED_IDLE".into()),
        }
    }
}

impl Drop for IdleKeeper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("the idle keeper panicked");
        }
    }
}

/// The CPUs the calling thread may run on, lowest first. Empty when the
/// kernel would not say (the mask is larger than 1,024 CPUs).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live 128-byte bit set whose size is passed
    // with it, and the kernel only writes inside it; pid 0 is the
    // calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..64 * mask.len())
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread spawned from it from
/// now on, to the last of the CPUs it is allowed (a cpuset's CPUs need
/// not start at 0). The socket workloads run like this, load generator
/// and program together: left to the scheduler, clients and server
/// threads share the cores differently from run to run and the same
/// code reads 30% apart (14k or 19k requests a second on `tcp_hot`); on
/// separate cores every request pays two wake-ups of an idle virtual
/// CPU, whose cost is the hypervisor's. On one core a hop between
/// threads is a context switch, which is the program's own. The first
/// core is left to interrupts and whatever else is running.
///
/// Returns the CPU, or why the run goes on unpinned: the numbers are
/// then noisier, not wrong.
pub fn pin_to_last_allowed_cpu() -> Result<usize, String> {
    let last = *allowed_cpus()
        .last()
        .ok_or("sched_getaffinity gave no CPU set")?;
    let mut mask = [0u64; 16];
    mask[last / 64] |= 1 << (last % 64);
    // SAFETY: `mask` is a live 128-byte bit set whose size is passed
    // with it, and the kernel only reads it; pid 0 is the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(last)
    } else {
        Err(format!(
            "sched_setaffinity to CPU {last} failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = super::cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(super::cpu_us() > before);
    }

    /// The keeper spins while this thread sleeps and counts what it
    /// burns, which [`cpu_us`](super::cpu_us) then leaves out. (What the
    /// tests running beside this one burn is counted, so there is no
    /// upper limit to check the process's own time against.)
    #[test]
    fn the_idle_keeper_spins_and_counts_it() {
        let Ok(keeper) = super::IdleKeeper::start() else {
            return; // a kernel without the class: nothing to check
        };
        let kept = super::KEEPER_NS.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(200));
        drop(keeper);
        let spun_us = (super::KEEPER_NS.load(Ordering::Relaxed) - kept) as f64 / 1e3;
        assert!(spun_us > 20_000.0, "the keeper spun {spun_us} us");
    }

    /// On a thread of its own: the pin must not leak into other tests.
    #[test]
    fn pins_to_a_cpu_of_the_allowed_set() {
        std::thread::spawn(|| {
            let allowed = super::allowed_cpus();
            assert!(!allowed.is_empty());
            let cpu = super::pin_to_last_allowed_cpu().expect("pin");
            assert_eq!(Some(&cpu), allowed.last());
            assert_eq!(super::allowed_cpus(), [cpu]);
        })
        .join()
        .expect("pinning thread");
    }
}
