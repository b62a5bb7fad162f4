//! Channel-level DRAM state: command legality and timing propagation.

use crate::bank::{Bank, BankGroup, NextTable, Rank};
use crate::timing::{Command, TimingParams};
use pim_mapping::{DramAddr, Organization};

/// The DRAM state of one memory channel: all ranks/bank-groups/banks plus
/// channel-level constraints, with [`can_issue`](ChannelState::can_issue) /
/// [`issue`](ChannelState::issue) enforcing the DDR4 timing rules.
///
/// This type is deliberately independent of the request queues so that the
/// timing model can be tested (and validated by
/// [`TimingValidator`](crate::TimingValidator)) in isolation.
#[derive(Debug, Clone)]
pub struct ChannelState {
    timing: TimingParams,
    org: Organization,
    ranks: Vec<Rank>,
    chan_next: NextTable,
}

impl ChannelState {
    /// Create an idle channel for the per-channel slice of `org`.
    pub fn new(org: Organization, timing: TimingParams) -> Self {
        ChannelState {
            timing,
            org,
            ranks: (0..org.ranks)
                .map(|_| Rank::new(org.bank_groups, org.banks, timing.refi))
                .collect(),
            chan_next: NextTable::default(),
        }
    }

    /// Timing parameters in force.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Organization (per-channel dimensions are taken from it).
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Immutable access to a rank (panics if out of range).
    pub fn rank(&self, rank: u32) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// Mutable access to a rank (panics if out of range).
    pub fn rank_mut(&mut self, rank: u32) -> &mut Rank {
        &mut self.ranks[rank as usize]
    }

    /// The row currently open in the addressed bank, if any.
    pub fn open_row(&self, addr: &DramAddr) -> Option<u64> {
        self.path(addr).2.open_row
    }

    /// Earliest cycle at which `cmd` may legally be issued to `addr`.
    pub fn earliest(&self, cmd: Command, addr: &DramAddr) -> u64 {
        let (rank, bg, bank) = self.path(addr);
        self.earliest_on(cmd, rank, bg, bank)
    }

    /// The command a request to `addr` needs next — `col` (RD or WR)
    /// if its row is open, ACT if its bank is closed, PRE if another
    /// row is open — and the earliest cycle at which it may issue. The
    /// cycle depends only on the bank, so requests to one bank that
    /// need the same command share it.
    pub fn next_command(&self, col: Command, addr: &DramAddr) -> (Command, u64) {
        let (rank, bg, bank) = self.path(addr);
        let cmd = match bank.open_row {
            Some(row) if row == addr.row => col,
            Some(_) => Command::Pre,
            None => Command::Act,
        };
        (cmd, self.earliest_on(cmd, rank, bg, bank))
    }

    /// The rank, bank group and bank that `addr` names.
    fn path(&self, addr: &DramAddr) -> (&Rank, &BankGroup, &Bank) {
        let rank = &self.ranks[addr.rank as usize];
        let bg = &rank.bank_groups[addr.bank_group as usize];
        (rank, bg, &bg.banks[addr.bank as usize])
    }

    /// [`earliest`](Self::earliest) for the bank at the end of a
    /// [`path`](Self::path).
    fn earliest_on(&self, cmd: Command, rank: &Rank, bg: &BankGroup, bank: &Bank) -> u64 {
        let mut t = self
            .chan_next
            .earliest(cmd)
            .max(rank.next.earliest(cmd))
            .max(bg.next.earliest(cmd))
            .max(bank.next.earliest(cmd));
        if cmd == Command::Act {
            t = t.max(rank.faw_earliest(self.timing.faw));
        }
        t
    }

    /// Whether `cmd` may issue to `addr` at cycle `now`, considering both
    /// timing and bank state (ACT needs a closed bank; RD/WR need the
    /// addressed row open; PRE needs an open bank; REF needs all banks of
    /// the rank closed).
    pub fn can_issue(&self, cmd: Command, addr: &DramAddr, now: u64) -> bool {
        let (rank, bg, bank) = self.path(addr);
        if now < self.earliest_on(cmd, rank, bg, bank) {
            return false;
        }
        match cmd {
            Command::Act => bank.open_row.is_none(),
            Command::Pre => bank.open_row.is_some(),
            Command::Rd | Command::Wr => bank.open_row == Some(addr.row),
            Command::Ref => rank.all_banks_closed(),
        }
    }

    /// Issue `cmd` to `addr` at cycle `now`, updating bank state and
    /// propagating every timing constraint the command imposes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the command is not legal at `now`;
    /// callers must check [`can_issue`](Self::can_issue) first.
    pub fn issue(&mut self, cmd: Command, addr: &DramAddr, now: u64) {
        debug_assert!(
            self.can_issue(cmd, addr, now),
            "illegal {cmd} to {addr} at cycle {now}"
        );
        let t = self.timing;
        let this_rank = addr.rank as usize;
        match cmd {
            Command::Act => {
                {
                    let rank = &mut self.ranks[this_rank];
                    rank.record_act(now);
                    // tRRD_S to every bank group in the rank; tRRD_L is the
                    // stricter same-group bound.
                    rank.next.push(Command::Act, now + t.rrd_s);
                    let bg = &mut rank.bank_groups[addr.bank_group as usize];
                    bg.next.push(Command::Act, now + t.rrd_l);
                    let bank = &mut bg.banks[addr.bank as usize];
                    bank.open_row = Some(addr.row);
                    bank.next.push(Command::Rd, now + t.rcd);
                    bank.next.push(Command::Wr, now + t.rcd);
                    bank.next.push(Command::Pre, now + t.ras);
                    bank.next.push(Command::Act, now + t.rc);
                }
            }
            Command::Pre => {
                let bank = &mut self.ranks[this_rank].bank_groups[addr.bank_group as usize].banks
                    [addr.bank as usize];
                bank.open_row = None;
                bank.next.push(Command::Act, now + t.rp);
            }
            Command::Rd => {
                for (r, rank) in self.ranks.iter_mut().enumerate() {
                    if r == this_rank {
                        rank.next.push(Command::Rd, now + t.ccd_s);
                        rank.next.push(Command::Wr, now + t.rtw());
                    } else {
                        // Rank-to-rank bus turnaround.
                        rank.next.push(Command::Rd, now + t.bl + t.rtrs);
                        rank.next.push(
                            Command::Wr,
                            now + (t.cl + t.bl + t.rtrs).saturating_sub(t.cwl),
                        );
                    }
                }
                let rank = &mut self.ranks[this_rank];
                let bg = &mut rank.bank_groups[addr.bank_group as usize];
                bg.next.push(Command::Rd, now + t.ccd_l);
                let bank = &mut bg.banks[addr.bank as usize];
                bank.next.push(Command::Pre, now + t.rtp);
            }
            Command::Wr => {
                for (r, rank) in self.ranks.iter_mut().enumerate() {
                    if r == this_rank {
                        rank.next.push(Command::Wr, now + t.ccd_s);
                        rank.next.push(Command::Rd, now + t.cwl + t.bl + t.wtr_s);
                    } else {
                        rank.next.push(Command::Wr, now + t.bl + t.rtrs);
                        rank.next.push(
                            Command::Rd,
                            now + (t.cwl + t.bl + t.rtrs).saturating_sub(t.cl),
                        );
                    }
                }
                let rank = &mut self.ranks[this_rank];
                let bg = &mut rank.bank_groups[addr.bank_group as usize];
                bg.next.push(Command::Wr, now + t.ccd_l);
                bg.next.push(Command::Rd, now + t.cwl + t.bl + t.wtr_l);
                let bank = &mut bg.banks[addr.bank as usize];
                bank.next.push(Command::Pre, now + t.cwl + t.bl + t.wr);
            }
            Command::Ref => {
                let rank = &mut self.ranks[this_rank];
                rank.next.push(Command::Act, now + t.rfc);
                rank.next.push(Command::Ref, now + t.rfc);
                rank.refreshes += 1;
                rank.refresh_deadline += t.refi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> ChannelState {
        ChannelState::new(Organization::ddr4_dimm(1, 2), TimingParams::ddr4_2400())
    }

    fn addr(rank: u32, bg: u32, bank: u32, row: u64, col: u32) -> DramAddr {
        DramAddr {
            channel: 0,
            rank,
            bank_group: bg,
            bank,
            row,
            col,
        }
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let mut c = chan();
        let a = addr(0, 0, 0, 5, 0);
        assert!(c.can_issue(Command::Act, &a, 0));
        c.issue(Command::Act, &a, 0);
        let t = *c.timing();
        assert!(!c.can_issue(Command::Rd, &a, t.rcd - 1));
        assert!(c.can_issue(Command::Rd, &a, t.rcd));
    }

    #[test]
    fn read_requires_matching_open_row() {
        let mut c = chan();
        let a = addr(0, 0, 0, 5, 0);
        c.issue(Command::Act, &a, 0);
        let other_row = addr(0, 0, 0, 6, 0);
        assert!(!c.can_issue(Command::Rd, &other_row, 1000));
        assert!(c.can_issue(Command::Rd, &a, 1000));
    }

    #[test]
    fn ccd_l_within_group_ccd_s_across_groups() {
        let mut c = chan();
        let t = *c.timing();
        let a = addr(0, 0, 0, 0, 0);
        let same_bg = addr(0, 0, 1, 0, 0);
        let other_bg = addr(0, 1, 0, 0, 0);
        c.issue(Command::Act, &a, 0);
        c.issue(Command::Act, &same_bg, t.rrd_l);
        c.issue(Command::Act, &other_bg, t.rrd_l + t.rrd_s);
        let start = 100;
        c.issue(Command::Rd, &a, start);
        // Same bank group: blocked until tCCD_L.
        assert!(!c.can_issue(Command::Rd, &same_bg, start + t.ccd_s));
        assert!(c.can_issue(Command::Rd, &same_bg, start + t.ccd_l));
        // Different bank group: allowed at tCCD_S.
        assert!(c.can_issue(Command::Rd, &other_bg, start + t.ccd_s));
    }

    #[test]
    fn rrd_and_faw_limit_activates() {
        let mut c = chan();
        let t = *c.timing();
        // Activate 4 banks in different bank groups as fast as possible.
        let mut now = 0;
        for g in 0..4 {
            let a = addr(0, g, 0, 0, 0);
            while !c.can_issue(Command::Act, &a, now) {
                now += 1;
            }
            c.issue(Command::Act, &a, now);
        }
        assert_eq!(now, 3 * t.rrd_s);
        // The 5th ACT (different bank, bg 0) must wait for the FAW.
        let fifth = addr(0, 0, 1, 0, 0);
        let mut t5 = now;
        while !c.can_issue(Command::Act, &fifth, t5) {
            t5 += 1;
        }
        assert_eq!(t5, t.faw); // first ACT at 0 + tFAW
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut c = chan();
        let t = *c.timing();
        let a = addr(0, 0, 0, 0, 0);
        let other_bg = addr(0, 1, 0, 0, 1);
        c.issue(Command::Act, &a, 0);
        c.issue(Command::Act, &other_bg, t.rrd_s);
        let start = 200;
        c.issue(Command::Wr, &a, start);
        // Read in a different bank group waits tCWL + tBL + tWTR_S.
        let earliest = start + t.cwl + t.bl + t.wtr_s;
        assert!(!c.can_issue(Command::Rd, &other_bg, earliest - 1));
        assert!(c.can_issue(Command::Rd, &other_bg, earliest));
    }

    #[test]
    fn precharge_closes_and_trp_gates_next_act() {
        let mut c = chan();
        let t = *c.timing();
        let a = addr(0, 0, 0, 0, 0);
        c.issue(Command::Act, &a, 0);
        // tRAS gates the precharge.
        assert!(!c.can_issue(Command::Pre, &a, t.ras - 1));
        c.issue(Command::Pre, &a, t.ras);
        assert_eq!(c.open_row(&a), None);
        let b = addr(0, 0, 0, 9, 0);
        assert!(!c.can_issue(Command::Act, &b, t.ras + t.rp - 1));
        assert!(c.can_issue(Command::Act, &b, t.ras + t.rp));
    }

    #[test]
    fn refresh_needs_closed_banks_and_blocks_act() {
        let mut c = chan();
        let t = *c.timing();
        let a = addr(0, 0, 0, 0, 0);
        c.issue(Command::Act, &a, 0);
        let ref_addr = addr(0, 0, 0, 0, 0);
        assert!(!c.can_issue(Command::Ref, &ref_addr, t.ras + t.rp));
        c.issue(Command::Pre, &a, t.ras);
        assert!(c.can_issue(Command::Ref, &ref_addr, t.ras + t.rp));
        c.issue(Command::Ref, &ref_addr, t.ras + t.rp);
        let after = t.ras + t.rp + t.rfc;
        assert!(!c.can_issue(Command::Act, &a, after - 1));
        assert!(c.can_issue(Command::Act, &a, after));
        assert_eq!(c.rank(0).refreshes, 1);
    }

    #[test]
    fn cross_rank_bus_switch_penalty() {
        let mut c = chan();
        let t = *c.timing();
        let r0 = addr(0, 0, 0, 0, 0);
        let r1 = addr(1, 0, 0, 0, 0);
        c.issue(Command::Act, &r0, 0);
        c.issue(Command::Act, &r1, t.rrd_s.max(1));
        let start = 100;
        c.issue(Command::Rd, &r0, start);
        // Same rank could read again at tCCD_S, other rank must wait
        // tBL + tRTRS (> tCCD_S).
        assert!(!c.can_issue(Command::Rd, &r1, start + t.ccd_s));
        assert!(c.can_issue(Command::Rd, &r1, start + t.bl + t.rtrs));
    }
}
