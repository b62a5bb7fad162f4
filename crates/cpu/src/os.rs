//! Round-robin OS thread scheduling (paper §III-B / §V).
//!
//! The OS scheduler is deliberately PIM-oblivious: it optimizes fairness,
//! rotating software threads across cores every quantum (1.5 ms in the
//! paper's model). When more threads than cores are runnable, which subset
//! runs — and therefore which PIM channels receive transfer traffic —
//! changes on a millisecond timescale, producing the coarse-grained
//! channel congestion of Fig. 6(a)/Fig. 12(a).

use std::collections::VecDeque;

/// Round-robin scheduler over a fixed set of thread slots.
#[derive(Debug)]
pub struct OsScheduler {
    cores: usize,
    quantum: u64,
    runqueue: VecDeque<usize>,
    next_rotate: u64,
    assignments: Vec<Option<usize>>,
}

impl OsScheduler {
    /// Create a scheduler for `cores` cores and threads `0..n_threads`,
    /// rotating every `quantum` cycles.
    pub fn new(cores: usize, n_threads: usize, quantum: u64) -> Self {
        let mut s = OsScheduler {
            cores,
            quantum,
            runqueue: (0..n_threads).collect(),
            next_rotate: quantum,
            assignments: vec![None; cores],
        };
        s.reassign();
        s
    }

    /// Current thread-to-core assignment (`assignments()[core] = thread`).
    pub fn assignments(&self) -> &[Option<usize>] {
        &self.assignments
    }

    /// Remove a thread that exited.
    pub fn retire_thread(&mut self, tid: usize) {
        self.runqueue.retain(|&t| t != tid);
        self.reassign();
    }

    /// The cycle of the next rotation while more threads are runnable
    /// than there are cores; `None` once they all fit (the run queue only
    /// shrinks, so no later rotation can change the assignment).
    pub fn next_rotate(&self) -> Option<u64> {
        (self.runqueue.len() > self.cores).then_some(self.next_rotate)
    }

    /// Advance to `now`; returns `true` if the assignment changed (the
    /// cluster then charges context-switch penalties).
    pub fn tick(&mut self, now: u64) -> bool {
        if now < self.next_rotate || self.runqueue.len() <= self.cores {
            // Not due, or everybody already runs: nothing to rotate.
            return false;
        }
        self.next_rotate = now + self.quantum;
        // The batch that just ran goes to the back of the queue.
        let batch = self.cores.min(self.runqueue.len());
        for _ in 0..batch {
            let t = self.runqueue.pop_front().expect("nonempty");
            self.runqueue.push_back(t);
        }
        self.reassign();
        true
    }

    fn reassign(&mut self) {
        for c in 0..self.cores {
            self.assignments[c] = self.runqueue.get(c).copied();
        }
    }

    /// Number of runnable threads.
    pub fn runnable(&self) -> usize {
        self.runqueue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersubscribed_assignment_is_stable() {
        let mut s = OsScheduler::new(4, 2, 100);
        assert_eq!(s.assignments(), &[Some(0), Some(1), None, None]);
        assert_eq!(s.next_rotate(), None, "nothing to rotate");
        assert!(!s.tick(100));
        assert_eq!(s.assignments(), &[Some(0), Some(1), None, None]);
    }

    #[test]
    fn oversubscribed_rotation_is_fair() {
        let mut s = OsScheduler::new(2, 5, 100);
        assert_eq!(s.assignments(), &[Some(0), Some(1)]);
        assert_eq!(s.next_rotate(), Some(100));
        assert!(s.tick(100));
        assert_eq!(s.next_rotate(), Some(200));
        assert_eq!(s.assignments(), &[Some(2), Some(3)]);
        assert!(s.tick(200));
        assert_eq!(s.assignments(), &[Some(4), Some(0)]);
        // Over 5 quanta every thread ran exactly twice.
        let mut counts = [0u32; 5];
        let mut s = OsScheduler::new(2, 5, 100);
        for q in 0..5 {
            for a in s.assignments().iter().flatten() {
                counts[*a] += 1;
            }
            s.tick((q + 1) * 100);
        }
        assert_eq!(counts, [2, 2, 2, 2, 2]);
    }

    #[test]
    fn retiring_threads_frees_cores() {
        let mut s = OsScheduler::new(2, 3, 100);
        s.retire_thread(0);
        assert_eq!(s.runnable(), 2);
        assert_eq!(s.assignments(), &[Some(1), Some(2)]);
        s.retire_thread(1);
        s.retire_thread(2);
        assert_eq!(s.assignments(), &[None, None]);
    }

    #[test]
    fn rotation_does_not_happen_early() {
        let mut s = OsScheduler::new(1, 3, 1000);
        assert!(!s.tick(999));
        assert!(s.tick(1000));
    }
}
