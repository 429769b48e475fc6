//! Wall time and on-CPU time of one operation.
//!
//! The gated timings of CPU-bound operations read the process CPU clock:
//! user plus system time of every thread of the process. On a virtual
//! machine the wall clock also counts the time the hypervisor runs other
//! guests on the benchmark's CPU (steal time), which on a shared host
//! comes and goes over minutes and moves wall-clock latencies by a fifth
//! from one run to the next. The CPU clock leaves that out, and it leaves
//! out time blocked on the disk, which `write_over_fsync` measures instead.
//! Summing every thread means work moved to helper threads still counts.

use std::time::{Duration, Instant};

/// Both clocks of one timed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub wall: Duration,
    pub cpu: Duration,
}

#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    pub fn took(&self) -> Took {
        Took {
            wall: self.wall.elapsed(),
            cpu: process_cpu_time().saturating_sub(self.cpu),
        }
    }
}

#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere there is no portable process CPU clock: the CPU side reads
/// the wall clock, from a fixed origin.
#[cfg(not(target_os = "linux"))]
fn process_cpu_time() -> Duration {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_shows_on_both_clocks() {
        // Other tests run in parallel threads of this process, so only a
        // lower bound on the CPU side holds.
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.took().wall < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = sw.took();
        assert!(busy.wall >= Duration::from_millis(30), "{busy:?}");
        assert!(busy.cpu >= Duration::from_millis(10), "{busy:?}");
    }
}
