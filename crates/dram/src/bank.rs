//! Bank, bank-group and rank state with per-command earliest-issue tables.
//!
//! Following Ramulator's design, every node of the DRAM hierarchy keeps a
//! small table `next[cmd]` holding the earliest memory-clock cycle at which
//! `cmd` may be issued to (any descendant of) that node. Issuing a command
//! pushes new lower bounds into the tables of the affected nodes; checking
//! legality is a `max` over the node's ancestors.

use crate::timing::Command;
use std::collections::VecDeque;

/// Per-node earliest-issue table.
#[derive(Debug, Clone, Default)]
pub struct NextTable {
    next: [u64; Command::COUNT],
}

impl NextTable {
    /// Earliest cycle `cmd` may issue under this node's constraints.
    #[inline]
    pub fn earliest(&self, cmd: Command) -> u64 {
        self.next[cmd.idx()]
    }

    /// Impose `cmd` may not issue before `cycle` (keeps the max).
    #[inline]
    pub fn push(&mut self, cmd: Command, cycle: u64) {
        let slot = &mut self.next[cmd.idx()];
        if cycle > *slot {
            *slot = cycle;
        }
    }
}

/// A DRAM bank: open row plus bank-level constraints.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// The currently open row, if any.
    pub open_row: Option<u64>,
    /// Bank-level timing constraints.
    pub next: NextTable,
}

/// A DDR4 bank group (constraints such as `tCCD_L`/`tRRD_L` live here).
#[derive(Debug, Clone)]
pub struct BankGroup {
    /// Group-level timing constraints.
    pub next: NextTable,
    /// Banks within the group.
    pub banks: Vec<Bank>,
}

impl BankGroup {
    /// Create a bank group with `banks` idle banks.
    pub fn new(banks: u32) -> Self {
        BankGroup {
            next: NextTable::default(),
            banks: vec![Bank::default(); banks as usize],
        }
    }
}

/// A rank: FAW window tracking plus rank-level constraints.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Rank-level timing constraints.
    pub next: NextTable,
    /// Issue cycles of the most recent activates (for `tFAW`).
    pub act_history: VecDeque<u64>,
    /// Bank groups within the rank.
    pub bank_groups: Vec<BankGroup>,
    /// Cycle at which the next refresh becomes due.
    pub refresh_deadline: u64,
    /// Number of REF commands issued (energy accounting).
    pub refreshes: u64,
}

impl Rank {
    /// Create a rank of `bank_groups` groups of `banks` banks.
    pub fn new(bank_groups: u32, banks: u32, refi: u64) -> Self {
        Rank {
            next: NextTable::default(),
            act_history: VecDeque::with_capacity(4),
            bank_groups: (0..bank_groups).map(|_| BankGroup::new(banks)).collect(),
            refresh_deadline: refi,
            refreshes: 0,
        }
    }

    /// Record an activate for FAW tracking.
    pub fn record_act(&mut self, cycle: u64) {
        if self.act_history.len() == 4 {
            self.act_history.pop_front();
        }
        self.act_history.push_back(cycle);
    }

    /// Earliest cycle a new ACT satisfies the four-activate window.
    pub fn faw_earliest(&self, faw: u64) -> u64 {
        if self.act_history.len() < 4 {
            0
        } else {
            self.act_history[0] + faw
        }
    }

    /// Whether every bank in the rank is precharged (required for REF).
    pub fn all_banks_closed(&self) -> bool {
        self.bank_groups
            .iter()
            .all(|bg| bg.banks.iter().all(|b| b.open_row.is_none()))
    }

    /// The `(bank_group, bank)` indices of currently open banks, in
    /// index order.
    pub fn open_banks(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0u32..).zip(&self.bank_groups).flat_map(|(g, bg)| {
            (0u32..)
                .zip(&bg.banks)
                .filter(|(_, bank)| bank.open_row.is_some())
                .map(move |(b, _)| (g, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_table_keeps_max() {
        let mut t = NextTable::default();
        t.push(Command::Act, 10);
        t.push(Command::Act, 5);
        assert_eq!(t.earliest(Command::Act), 10);
        assert_eq!(t.earliest(Command::Rd), 0);
    }

    #[test]
    fn faw_window() {
        let mut r = Rank::new(4, 4, 9363);
        assert_eq!(r.faw_earliest(26), 0);
        for c in [10, 20, 30, 40] {
            r.record_act(c);
        }
        assert_eq!(r.faw_earliest(26), 10 + 26);
        r.record_act(50); // oldest (10) slides out
        assert_eq!(r.faw_earliest(26), 20 + 26);
    }

    #[test]
    fn open_bank_tracking() {
        let mut r = Rank::new(2, 2, 9363);
        assert!(r.all_banks_closed());
        r.bank_groups[1].banks[0].open_row = Some(7);
        assert!(!r.all_banks_closed());
        assert!(r.open_banks().eq([(1, 0)]));
    }
}
