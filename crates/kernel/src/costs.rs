//! Calibrated kernel path costs.
//!
//! Each kernel code path is described by a [`PathCost`]: how many
//! *instrumentable* memory accesses and returns/indirect calls it executes
//! (these get more expensive under Virtual Ghost: +mask per access, +CFI
//! check per branch) and how many *fixed* cycles of non-instrumentable work
//! it does (hardware operations, cache effects — identical in both modes).
//!
//! The numbers were calibrated once so that the LMBench microbenchmarks
//! (Table 2 of the paper) land near the paper's **native** column under the
//! native cost model and near the **Virtual Ghost** column under the VG cost
//! model; every application benchmark (thttpd, OpenSSH, Postmark) then uses
//! these same paths unchanged, so the application-level shapes are emergent.
//! See EXPERIMENTS.md for the calibration table.

use crate::mem::kwork;
use vg_machine::{Instrumented, Machine, Scope};

/// Work profile of one kernel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCost {
    /// Span name under the `kpath` trace category.
    pub name: &'static str,
    /// Instrumentable memory accesses.
    pub acc: u64,
    /// Returns / indirect calls.
    pub br: u64,
    /// Non-instrumentable fixed cycles.
    pub fixed: u64,
}

impl PathCost {
    /// Charges this path on `machine` under its cost model inside a leaf
    /// scope: the profiler leaf inherits whatever domain encloses the call
    /// site (syscall, fault, boot), so kernel paths appear as named
    /// flamegraph leaves and `kpath` spans without reclassifying the cycles.
    #[inline]
    pub fn charge(&self, machine: &mut Machine) {
        machine.scope(Scope::leaf(self.name), |m| {
            kwork(m, self.acc, self.br);
            m.charge(self.fixed);
        });
    }
}

/// `getpid` and other trivial syscalls (beyond trap + dispatch).
pub const NULL_SYSCALL: PathCost = PathCost {
    name: "null_syscall",
    acc: 4,
    br: 2,
    fixed: 0,
};
/// `open`: path lookup, fd allocation, vnode setup (excl. fs work).
pub const OPEN: PathCost = PathCost {
    name: "open",
    acc: 1650,
    br: 100,
    fixed: 800,
};
/// `close`: fd teardown.
pub const CLOSE: PathCost = PathCost {
    name: "close",
    acc: 420,
    br: 20,
    fixed: 60,
};
/// `read`/`write` fixed part (copy and fs work charged separately).
pub const RW_BASE: PathCost = PathCost {
    name: "rw_base",
    acc: 170,
    br: 9,
    fixed: 150,
};
/// File create path beyond OPEN (inode + dirent allocation).
pub const CREATE_EXTRA: PathCost = PathCost {
    name: "create_extra",
    acc: 4000,
    br: 120,
    fixed: 4160,
};
/// `unlink`.
pub const UNLINK: PathCost = PathCost {
    name: "unlink",
    acc: 5500,
    br: 260,
    fixed: 5600,
};
/// `mmap` region setup.
pub const MMAP: PathCost = PathCost {
    name: "mmap",
    acc: 7200,
    br: 420,
    fixed: 4700,
};
/// `munmap`.
pub const MUNMAP: PathCost = PathCost {
    name: "munmap",
    acc: 700,
    br: 36,
    fixed: 600,
};
/// `brk`.
pub const BRK: PathCost = PathCost {
    name: "brk",
    acc: 160,
    br: 8,
    fixed: 120,
};
/// Page-fault service for a zero-fill anonymous page.
pub const PAGE_FAULT: PathCost = PathCost {
    name: "page_fault",
    acc: 600,
    br: 40,
    fixed: 2_500,
};
/// Additional work for a file-backed fault (vnode getpages path) — what
/// LMBench's `lat_pagefault` on a mapped file measures on top.
pub const PAGE_FAULT_FILE_EXTRA: PathCost = PathCost {
    name: "page_fault_file_extra",
    acc: 0,
    br: 0,
    fixed: 97_500,
};
/// Signal handler installation (`sigaction`).
pub const SIG_INSTALL: PathCost = PathCost {
    name: "sig_install",
    acc: 40,
    br: 3,
    fixed: 150,
};
/// Signal delivery path (kernel side, excl. SVA IC operations).
pub const SIG_DELIVER: PathCost = PathCost {
    name: "sig_deliver",
    acc: 45,
    br: 4,
    fixed: 3250,
};
/// `kill`.
pub const KILL: PathCost = PathCost {
    name: "kill",
    acc: 60,
    br: 5,
    fixed: 180,
};
/// `fork`: proc/vmspace/cred duplication (excl. per-page copies).
pub const FORK: PathCost = PathCost {
    name: "fork",
    acc: 59_600,
    br: 3500,
    fixed: 52_000,
};
/// Per copied page during fork (excl. the byte copy itself).
pub const FORK_PER_PAGE: PathCost = PathCost {
    name: "fork_per_page",
    acc: 120,
    br: 6,
    fixed: 200,
};
/// `exec`: image setup, argument shuffling (excl. signature checks).
pub const EXEC: PathCost = PathCost {
    name: "exec",
    acc: 35_000,
    br: 1200,
    fixed: 45_000,
};
/// `exit` + reaping.
pub const EXIT: PathCost = PathCost {
    name: "exit",
    acc: 9000,
    br: 460,
    fixed: 2000,
};
/// `wait4`.
pub const WAIT: PathCost = PathCost {
    name: "wait",
    acc: 330,
    br: 18,
    fixed: 250,
};
/// `select` per file descriptor polled.
pub const SELECT_PER_FD: PathCost = PathCost {
    name: "select_per_fd",
    acc: 17,
    br: 3,
    fixed: 49,
};
/// `select` fixed part.
pub const SELECT_BASE: PathCost = PathCost {
    name: "select_base",
    acc: 130,
    br: 8,
    fixed: 80,
};
/// Socket creation / bind / listen.
pub const SOCK_SETUP: PathCost = PathCost {
    name: "sock_setup",
    acc: 600,
    br: 30,
    fixed: 700,
};
/// `accept`.
pub const ACCEPT: PathCost = PathCost {
    name: "accept",
    acc: 900,
    br: 46,
    fixed: 900,
};
/// Network send/receive per packet (protocol processing).
pub const NET_PER_PACKET: PathCost = PathCost {
    name: "net_per_packet",
    acc: 380,
    br: 20,
    fixed: 250,
};
/// Descriptor-ring doorbell: batch submit/retire bookkeeping around the
/// single checked port write (one per batch, any size).
pub const RING_DOORBELL: PathCost = PathCost {
    name: "ring_doorbell",
    acc: 40,
    br: 4,
    fixed: 120,
};
/// Per descriptor posted through the ring: slot setup plus completion
/// retirement. Replaces [`NET_PER_PACKET`]'s full protocol path when the
/// batched data plane carries the packet.
pub const RING_PER_DESC: PathCost = PathCost {
    name: "ring_per_desc",
    acc: 30,
    br: 2,
    fixed: 40,
};
/// `fsync`.
pub const FSYNC: PathCost = PathCost {
    name: "fsync",
    acc: 420,
    br: 22,
    fixed: 600,
};
/// SSH per-session kernel work beyond fork/exec: pty allocation, auth file
/// lookups, credential churn (calibrated against Figure 3's small-file
/// bandwidth reduction).
pub const SSHD_SESSION: PathCost = PathCost {
    name: "sshd_session",
    acc: 100_000,
    br: 4000,
    fixed: 30_000,
};
/// Kernel module load/link.
pub const MODULE_LOAD: PathCost = PathCost {
    name: "module_load",
    acc: 8000,
    br: 400,
    fixed: 6000,
};

#[cfg(test)]
mod tests {
    use super::*;
    use vg_machine::cost::{CostModel, CYCLES_PER_US};
    use vg_machine::MachineConfig;

    fn cycles(path: PathCost, costs: CostModel) -> u64 {
        let mut m = Machine::new(MachineConfig {
            costs,
            ..Default::default()
        });
        path.charge(&mut m);
        m.clock.cycles()
    }

    #[test]
    fn paths_cost_more_under_vg() {
        for p in [
            OPEN,
            CLOSE,
            FORK,
            EXEC,
            MMAP,
            SELECT_PER_FD,
            RING_DOORBELL,
            RING_PER_DESC,
        ] {
            let n = cycles(p, CostModel::native());
            let v = cycles(p, CostModel::virtual_ghost());
            assert!(v > n, "{p:?}");
        }
    }

    #[test]
    fn fork_native_magnitude_matches_paper() {
        // fork+exit native ≈ 63.7 µs in the paper; FORK alone should be the
        // bulk of it.
        let us = cycles(FORK, CostModel::native()) as f64 / CYCLES_PER_US;
        assert!((20.0..60.0).contains(&us), "fork path = {us} µs");
    }

    #[test]
    fn ring_batch_amortizes_per_packet_path() {
        // The batched data plane exists to beat the per-call path: a
        // 32-packet batch (one doorbell + 32 descriptors) must cost well
        // under a third of 32 classic per-packet traversals under VG.
        let batch = {
            let mut m = Machine::new(MachineConfig {
                costs: CostModel::virtual_ghost(),
                ..Default::default()
            });
            RING_DOORBELL.charge(&mut m);
            for _ in 0..32 {
                RING_PER_DESC.charge(&mut m);
            }
            m.clock.cycles()
        };
        let classic = {
            let mut m = Machine::new(MachineConfig {
                costs: CostModel::virtual_ghost(),
                ..Default::default()
            });
            for _ in 0..32 {
                NET_PER_PACKET.charge(&mut m);
            }
            m.clock.cycles()
        };
        assert!(batch * 3 < classic, "batch={batch} classic={classic}");
    }

    #[test]
    fn file_page_fault_mostly_fixed() {
        // Paper: page faults only 1.15× slower under VG — dominated by the
        // non-instrumentable getpages path (the file-extra component).
        let total = |m: CostModel| {
            let mut mach = Machine::new(MachineConfig {
                costs: m,
                ..Default::default()
            });
            PAGE_FAULT.charge(&mut mach);
            PAGE_FAULT_FILE_EXTRA.charge(&mut mach);
            mach.clock.cycles() as f64
        };
        let ratio = total(CostModel::virtual_ghost()) / total(CostModel::native());
        assert!(ratio < 1.4, "ratio {ratio}");
    }
}
