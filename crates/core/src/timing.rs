//! Per-party computation timing for the orchestrated executions.
//!
//! The paper's Fig. 2/3(a) report *each participant's computation
//! overhead*. The orchestrator runs all parties in one thread, so it
//! brackets every piece of party-local work with [`PartyTimer::time`] and
//! accumulates wall-clock per party. Sections that fan a party's work out
//! across worker threads report via [`PartyTimer::record`], which keeps
//! wall-clock (what the party waits) and CPU time (what the cores burn)
//! as separate ledgers — on a single-core host the two coincide.

use std::time::{Duration, Instant};

/// Accumulated computation time per party (index 0 = initiator).
#[derive(Clone, Debug)]
pub struct PartyTimer {
    wall: Vec<Duration>,
    cpu: Vec<Duration>,
}

impl PartyTimer {
    /// A timer for `parties` parties (including the initiator slot 0).
    pub fn new(parties: usize) -> Self {
        PartyTimer {
            wall: vec![Duration::ZERO; parties],
            cpu: vec![Duration::ZERO; parties],
        }
    }

    /// Times `f` and charges the elapsed time to `party` (serial section:
    /// wall and CPU are the same).
    pub fn time<T>(&mut self, party: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.wall[party] += elapsed;
        self.cpu[party] += elapsed;
        out
    }

    /// Charges a parallel section to `party`: `wall` is the elapsed time
    /// the party observed, `cpu` the total compute summed over workers.
    pub fn record(&mut self, party: usize, wall: Duration, cpu: Duration) {
        self.wall[party] += wall;
        self.cpu[party] += cpu;
    }

    /// Total wall-clock charged to `party`.
    pub fn spent(&self, party: usize) -> Duration {
        self.wall[party]
    }

    /// Total CPU time charged to `party` (≥ wall-clock when the party's
    /// work ran on several cores).
    pub fn cpu_spent(&self, party: usize) -> Duration {
        self.cpu[party]
    }

    /// Mean wall-clock over participant slots `1..` (what Fig. 2 plots).
    pub fn mean_participant(&self) -> Duration {
        let n = self.wall.len().saturating_sub(1);
        if n == 0 {
            return Duration::ZERO;
        }
        self.wall[1..].iter().sum::<Duration>() / n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_to_the_right_party() {
        let mut t = PartyTimer::new(3);
        let v = t.time(1, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t.spent(1) >= Duration::from_millis(5));
        assert_eq!(t.spent(2), Duration::ZERO);
    }

    #[test]
    fn aggregates() {
        let mut t = PartyTimer::new(3);
        t.time(1, || std::thread::sleep(Duration::from_millis(2)));
        t.time(2, || std::thread::sleep(Duration::from_millis(6)));
        assert!(t.mean_participant() > Duration::ZERO);
    }

    #[test]
    fn empty_participant_set() {
        let t = PartyTimer::new(1);
        assert_eq!(t.mean_participant(), Duration::ZERO);
    }

    #[test]
    fn serial_sections_charge_wall_and_cpu_equally() {
        let mut t = PartyTimer::new(2);
        t.time(1, || std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(t.spent(1), t.cpu_spent(1));
        assert!(t.spent(1) >= Duration::from_millis(2));
    }

    #[test]
    fn parallel_sections_split_wall_and_cpu() {
        // A 4-worker fan-out: the party waits 3 ms but burns 10 ms of CPU.
        let mut t = PartyTimer::new(2);
        t.record(1, Duration::from_millis(3), Duration::from_millis(10));
        assert_eq!(t.spent(1), Duration::from_millis(3));
        assert_eq!(t.cpu_spent(1), Duration::from_millis(10));
        // Wall-clock feeds the participant aggregates.
        assert_eq!(t.mean_participant(), Duration::from_millis(3));
    }
}
