//! Virtual clocks.
//!
//! Each simulated process owns one [`VClock`] counting virtual nanoseconds
//! since the start of the run. The clock belongs to the process, not to a
//! thread: every thread acting for the process — its main thread or the
//! harness thread running one of its steps, its margo handler and progress
//! threads, its pool workers — may `merge` into it and `advance` it, and
//! any thread may read it, so the counter is an atomic.
//!
//! The compute rule: a compute phase that starts at `start` and spends
//! `cpu` ends at `max(start + cpu, latest concurrent arrival)`. The arrivals
//! other threads merge while the phase runs overlap its compute instead of
//! adding to it. A charge therefore must not wrap a collective: a message
//! it sends would leave at `start`, and the wait for a peer would swallow
//! the compute after it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cpu::CpuTimer;

/// A virtual clock in nanoseconds.
///
/// Cloning a `VClock` yields a handle to the *same* clock.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    ns: Arc<AtomicU64>,
}

impl VClock {
    /// A new clock starting at virtual time `ns`.
    pub fn starting_at(ns: u64) -> Self {
        let c = Self::default();
        c.ns.store(ns, Ordering::Relaxed);
        c
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ns` and returns the new time.
    pub fn advance(&self, ns: u64) -> u64 {
        self.ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Moves the clock forward to `t` if `t` is in the future; returns the
    /// resulting time. This is the message-receive merge rule
    /// `local = max(local, arrival)`.
    pub fn merge(&self, t: u64) -> u64 {
        let mut cur = self.ns.load(Ordering::Relaxed);
        loop {
            if t <= cur {
                return cur;
            }
            match self
                .ns
                .compare_exchange_weak(cur, t, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Runs `f` as one compute phase: the clock ends at the phase's start
    /// plus the thread CPU time `f` consumed, scaled by `scale` (1.0 =
    /// charge measured time as-is), or at a later time merged in meanwhile.
    pub fn charge_compute_scaled<R>(&self, scale: f64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let timer = CpuTimer::start();
        let out = f();
        let ns = (timer.elapsed_ns() as f64 * scale) as u64;
        self.merge(start + ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let c = VClock::default();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(7), 12);
        assert_eq!(c.now(), 12);
    }

    #[test]
    fn merge_only_moves_forward() {
        let c = VClock::starting_at(100);
        assert_eq!(c.merge(50), 100);
        assert_eq!(c.merge(150), 150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn clone_shares_state() {
        let a = VClock::default();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn charge_compute_advances() {
        let c = VClock::default();
        let out = c.charge_compute_scaled(1.0, || {
            let mut x = 0u64;
            for i in 0..300_000 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x)
        });
        std::hint::black_box(out);
        assert!(c.now() > 0);
    }

    /// Spins until this thread has spent at least `ns` of CPU time.
    fn burn_cpu(ns: u64) {
        let timer = CpuTimer::start();
        while timer.elapsed_ns() < ns {
            std::hint::spin_loop();
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn charge_ends_at_a_later_concurrent_arrival() {
        let c = VClock::starting_at(1_000);
        c.charge_compute_scaled(1.0, || {
            burn_cpu(MS);
            let peer = c.clone();
            std::thread::spawn(move || peer.merge(1_000 + 50 * MS))
                .join()
                .unwrap();
        });
        // 50 ms arrived during at most a few ms of CPU: the arrival, not
        // arrival + CPU.
        assert_eq!(c.now(), 1_000 + 50 * MS);
    }

    #[test]
    fn charge_ends_at_start_plus_cpu_past_an_earlier_arrival() {
        let c = VClock::starting_at(1_000);
        c.charge_compute_scaled(1.0, || {
            c.merge(1_000 + 3 * MS / 2);
            burn_cpu(2 * MS);
        });
        let end = c.now();
        assert!(end >= 1_000 + 2 * MS, "CPU not charged: {end}");
        // The arrival overlapped the CPU: summing them would read 3.5 ms.
        assert!(end < 1_000 + 3 * MS, "arrival summed: {end}");
    }

    #[test]
    fn back_to_back_charges_sum() {
        let c = VClock::default();
        c.charge_compute_scaled(1.0, || burn_cpu(MS));
        let first = c.now();
        assert!(first >= MS);
        c.charge_compute_scaled(1.0, || burn_cpu(MS));
        assert!(c.now() >= first + MS, "{} after {first}", c.now());
    }

    #[test]
    fn merge_is_concurrent_safe() {
        let c = VClock::default();
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.merge(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 3999);
    }
}
