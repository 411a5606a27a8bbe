//! Test-only oracle for vgfs's directory and inode-allocation paths.
//!
//! This is the implementation those paths replaced: every directory scan
//! decodes each record into an owned `String`, every edit re-serializes the
//! whole entry list, and inode allocation makes one cache touch per inode.
//! The differential proptest below drives random scripts through both and
//! asserts that nothing the simulator or a caller can observe differs:
//! results, the [`FsWork`] of every call, the device's read/write sequence,
//! and the buffer cache (blocks, LRU ticks, dirty bits, contents).
//!
//! The one intended difference is a name that is not UTF-8, which the
//! oracle decodes lossily (see the `fs::tests` cases on tampered
//! directories). The scripts only ever put bytes below 0x80 on the disk, so
//! they cannot produce one.

use super::*;
use proptest::prelude::*;

/// The LRU clock and every cached block as (number, tick, dirty, data).
type CacheSnapshot<'a> = (u64, Vec<(u32, u64, bool, &'a [u8])>);

impl VgFs {
    fn oracle_alloc_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        for i in 1..self.ninodes {
            let ino = Ino(i);
            let d = self.read_inode(dev, ino, w)?;
            if d.kind == 0 {
                let fresh = DiskInode {
                    kind: if kind == InodeKind::Dir { 2 } else { 1 },
                    nlink: 1,
                    ..Default::default()
                };
                self.write_inode(dev, ino, &fresh, w)?;
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    fn oracle_dir_entries(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        w: &mut FsWork,
    ) -> Result<Vec<(String, Ino)>, FsError> {
        let (size, kind) = self.stat(dev, dir, w)?;
        if kind != InodeKind::Dir {
            return Err(FsError::WrongKind);
        }
        let mut raw = vec![0u8; size as usize];
        self.read(dev, dir, 0, &mut raw, w)?;
        w.acc(raw.len() as u64 / 4 + 8);
        let mut entries = Vec::new();
        let mut pos = 0;
        while pos + 5 <= raw.len() {
            let ino = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
            let len = raw[pos + 4] as usize;
            pos += 5;
            if pos + len > raw.len() {
                break;
            }
            let name = String::from_utf8_lossy(&raw[pos..pos + len]).into_owned();
            pos += len;
            if ino != 0 {
                entries.push((name, Ino(ino)));
            }
        }
        Ok(entries)
    }

    fn oracle_write_dir_entries(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        entries: &[(String, Ino)],
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let mut raw = Vec::new();
        for (name, ino) in entries {
            raw.extend_from_slice(&ino.0.to_le_bytes());
            raw.push(name.len() as u8);
            raw.extend_from_slice(name.as_bytes());
        }
        self.truncate(dev, dir, w)?;
        self.write(dev, dir, 0, &raw, w)?;
        Ok(())
    }

    fn oracle_lookup(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            w.acc(24);
            cur = self
                .oracle_dir_entries(dev, cur, w)?
                .into_iter()
                .find(|(n, _)| n == comp)
                .map(|(_, i)| i)
                .ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    fn oracle_create(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.oracle_lookup(dev, parent_path, w)?;
        let mut entries = self.oracle_dir_entries(dev, parent, w)?;
        if entries.iter().any(|(n, _)| n == name) {
            return Err(FsError::Exists);
        }
        let ino = self.oracle_alloc_inode(dev, kind, w)?;
        entries.push((name.to_string(), ino));
        self.oracle_write_dir_entries(dev, parent, &entries, w)?;
        Ok(ino)
    }

    fn oracle_unlink(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.oracle_lookup(dev, parent_path, w)?;
        let mut entries = self.oracle_dir_entries(dev, parent, w)?;
        let idx = entries
            .iter()
            .position(|(n, _)| n == name)
            .ok_or(FsError::NotFound)?;
        let ino = entries[idx].1;
        let (_, kind) = self.stat(dev, ino, w)?;
        if kind == InodeKind::Dir && !self.oracle_dir_entries(dev, ino, w)?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.truncate(dev, ino, w)?;
        self.write_inode(dev, ino, &DiskInode::default(), w)?;
        entries.remove(idx);
        self.oracle_write_dir_entries(dev, parent, &entries, w)?;
        Ok(())
    }

    fn oracle_readdir(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Vec<(String, Ino)>, FsError> {
        let dir = self.oracle_lookup(dev, path, w)?;
        self.oracle_dir_entries(dev, dir, w)
    }

    /// Everything the buffer cache holds, in block order.
    fn cache_snapshot(&self) -> CacheSnapshot<'_> {
        let mut blocks: Vec<_> = self
            .cache
            .iter()
            .map(|(&bno, b)| (bno, b.tick, b.dirty, &b.data[..]))
            .collect();
        blocks.sort_unstable_by_key(|b| b.0);
        (self.clock, blocks)
    }
}

/// One device transfer as the filesystem issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DevOp {
    Read(u32),
    Write(u32, Vec<u8>),
}

/// A [`MemDisk`] that records every transfer and fails every
/// `fail_every`-th one (never, when 0).
struct RecordingDev {
    disk: MemDisk,
    log: Vec<DevOp>,
    transfers: u64,
    fail_every: u64,
}

impl RecordingDev {
    fn transfer(&mut self, op: DevOp) -> Result<(), FsError> {
        self.log.push(op);
        self.transfers += 1;
        if self.fail_every != 0 && self.transfers.is_multiple_of(self.fail_every) {
            return Err(FsError::Io);
        }
        Ok(())
    }
}

impl BlockDev for RecordingDev {
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError> {
        self.transfer(DevOp::Read(bno))?;
        self.disk.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError> {
        self.transfer(DevOp::Write(bno, data.to_vec()))?;
        self.disk.write_block(bno, data)
    }

    fn capacity(&self) -> u32 {
        self.disk.capacity()
    }
}

/// One step of a script. `dir` picks the parent (`/`, `/n0` or `/n0/n1`,
/// whichever of those exist and are directories); `id` picks a name.
#[derive(Debug, Clone)]
enum Op {
    /// Creates directory `/n0` (0) or `/n0/n1` (1).
    Mkdir(u8),
    /// Unlinks `/n0` (0) or `/n0/n1` (1).
    Rmdir(u8),
    Create {
        dir: u8,
        id: u8,
        is_dir: bool,
    },
    /// Creates `n` files with consecutive ids, to grow a directory past
    /// one block.
    CreateMany {
        dir: u8,
        id: u8,
        n: u8,
    },
    Unlink {
        dir: u8,
        id: u8,
    },
    Lookup {
        dir: u8,
        id: u8,
    },
    Readdir(u8),
    Write {
        dir: u8,
        id: u8,
        off: u16,
        len: u16,
    },
    Truncate {
        dir: u8,
        id: u8,
    },
    Sync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Half the ids come from a few names, so steps often hit what earlier
    // steps created.
    let at = || (0u8..3, prop_oneof![0u8..8, 0u8..160]);
    prop_oneof![
        (0u8..2).prop_map(Op::Mkdir),
        (0u8..2).prop_map(Op::Rmdir),
        (at(), any::<bool>()).prop_map(|((dir, id), is_dir)| Op::Create { dir, id, is_dir }),
        (at(), 20u8..120).prop_map(|((dir, id), n)| Op::CreateMany { dir, id, n }),
        at().prop_map(|(dir, id)| Op::Unlink { dir, id }),
        at().prop_map(|(dir, id)| Op::Lookup { dir, id }),
        (0u8..3).prop_map(Op::Readdir),
        (at(), 0u16..20_000, 0u16..9_000).prop_map(|((dir, id), off, len)| Op::Write {
            dir,
            id,
            off,
            len
        }),
        at().prop_map(|(dir, id)| Op::Truncate { dir, id }),
        Just(Op::Sync),
    ]
}

/// Names of 2 to 58 bytes, so a directory of a few hundred entries spans
/// several blocks.
fn name(id: u8) -> String {
    format!("n{id}{}", "_".repeat(id as usize * 7 % 55))
}

fn dir_path(dir: u8) -> String {
    (0..dir).map(|i| format!("/{}", name(i))).collect()
}

fn path(dir: u8, id: u8) -> String {
    format!("{}/{}", dir_path(dir), name(id))
}

/// One implementation on its own device: the shipped paths, or the oracle
/// when `oracle` is set.
struct Side {
    fs: VgFs,
    dev: RecordingDev,
    oracle: bool,
}

impl Side {
    fn new(ninodes: u32, nblocks: u32, cache_cap: usize, fail_every: u64, oracle: bool) -> Self {
        let mut dev = RecordingDev {
            disk: MemDisk::new(nblocks),
            log: Vec::new(),
            transfers: 0,
            fail_every: 0,
        };
        let mut fs = VgFs::mkfs(&mut dev, ninodes);
        fs.cache_cap = cache_cap;
        dev.fail_every = fail_every;
        Side { fs, dev, oracle }
    }

    fn lookup(&mut self, p: &str, w: &mut FsWork) -> Result<Ino, FsError> {
        if self.oracle {
            self.fs.oracle_lookup(&mut self.dev, p, w)
        } else {
            self.fs.lookup(&mut self.dev, p, w)
        }
    }

    fn create(&mut self, p: &str, kind: InodeKind, w: &mut FsWork) -> Result<Ino, FsError> {
        if self.oracle {
            self.fs.oracle_create(&mut self.dev, p, kind, w)
        } else {
            self.fs.create(&mut self.dev, p, kind, w)
        }
    }

    fn unlink(&mut self, p: &str, w: &mut FsWork) -> Result<(), FsError> {
        if self.oracle {
            self.fs.oracle_unlink(&mut self.dev, p, w)
        } else {
            self.fs.unlink(&mut self.dev, p, w)
        }
    }

    fn readdir(&mut self, p: &str, w: &mut FsWork) -> Result<Vec<(String, Ino)>, FsError> {
        if self.oracle {
            self.fs.oracle_readdir(&mut self.dev, p, w)
        } else {
            self.fs.readdir(&mut self.dev, p, w)
        }
    }

    /// Writes a pattern of bytes below 0x80 into a file (never into a
    /// directory: that would be tampering).
    fn write(&mut self, p: &str, off: u16, len: u16, w: &mut FsWork) -> Result<usize, FsError> {
        let ino = self.lookup(p, w)?;
        if self.fs.stat(&mut self.dev, ino, w)?.1 != InodeKind::File {
            return Err(FsError::WrongKind);
        }
        let data: Vec<u8> = (0..len).map(|i| 0x20 + (i % 0x5f) as u8).collect();
        self.fs.write(&mut self.dev, ino, u64::from(off), &data, w)
    }

    /// Runs one step; returns what a caller would observe of it.
    fn run(&mut self, op: &Op, w: &mut FsWork) -> String {
        match *op {
            Op::Mkdir(d) => format!("{:?}", self.create(&dir_path(d + 1), InodeKind::Dir, w)),
            Op::Rmdir(d) => format!("{:?}", self.unlink(&dir_path(d + 1), w)),
            Op::Create { dir, id, is_dir } => {
                let kind = if is_dir {
                    InodeKind::Dir
                } else {
                    InodeKind::File
                };
                format!("{:?}", self.create(&path(dir, id), kind, w))
            }
            Op::CreateMany { dir, id, n } => (0..n)
                .map(|k| {
                    let p = path(dir, id.wrapping_add(k) % 160);
                    format!("{:?}", self.create(&p, InodeKind::File, w))
                })
                .collect(),
            Op::Unlink { dir, id } => format!("{:?}", self.unlink(&path(dir, id), w)),
            Op::Lookup { dir, id } => format!("{:?}", self.lookup(&path(dir, id), w)),
            Op::Readdir(dir) => format!("{:?}", self.readdir(&dir_path(dir), w)),
            Op::Write { dir, id, off, len } => {
                format!("{:?}", self.write(&path(dir, id), off, len, w))
            }
            Op::Truncate { dir, id } => {
                let r = self
                    .lookup(&path(dir, id), w)
                    .and_then(|ino| self.fs.truncate(&mut self.dev, ino, w));
                format!("{r:?}")
            }
            Op::Sync => format!("{:?}", self.fs.sync(&mut self.dev)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random scripts give identical results, `FsWork`, device transfers
    /// and cache state on the shipped paths and on the oracle. Small caches
    /// put evictions in the middle of inode scans; small inode tables and
    /// devices reach `NoSpace`; a failing device reaches every error path.
    #[test]
    fn directory_and_inode_paths_match_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        // On a failing device a torn edit can leave a directory pointing at
        // a block that was freed and reused, so any on-disk byte can end up
        // inside a name. Those devices keep every inode and block number
        // below 0x80, so such a name is still UTF-8.
        (ninodes, nblocks, fail_every) in prop_oneof![
            Just((40u32, 96u32, 0u64)),
            Just((127, 600, 0)),
            Just((300, 600, 0)),
            Just((70, 96, 5)),
            Just((127, 96, 13)),
        ],
        cache_cap in prop_oneof![Just(3usize), Just(6usize), Just(16usize), Just(4096usize)],
    ) {
        let mut fast = Side::new(ninodes, nblocks, cache_cap, fail_every, false);
        let mut oracle = Side::new(ninodes, nblocks, cache_cap, fail_every, true);
        for (step, op) in ops.iter().enumerate() {
            let (mut wf, mut wo) = (FsWork::default(), FsWork::default());
            let got = fast.run(op, &mut wf);
            let want = oracle.run(op, &mut wo);
            prop_assert_eq!(&got, &want, "result of step {} {:?}", step, op);
            prop_assert_eq!(wf, wo, "FsWork of step {} {:?}", step, op);
            let (lf, lo) = (std::mem::take(&mut fast.dev.log), std::mem::take(&mut oracle.dev.log));
            prop_assert!(lf == lo, "device transfers of step {step} {op:?}");
            let (cf, co) = (fast.fs.cache_snapshot(), oracle.fs.cache_snapshot());
            prop_assert!(cf == co, "buffer cache after step {step} {op:?}");
        }
    }
}
