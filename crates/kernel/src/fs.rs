//! vgfs — a small UFS-flavoured filesystem on the simulated disk.
//!
//! Real on-disk layout (4 KiB blocks): superblock, inode table, allocation
//! bitmap, data blocks. Directories are ordinary files containing serialized
//! entries. All block I/O goes through a write-back buffer cache; cache
//! misses DMA through the IOMMU exactly like a real driver, so filesystem
//! benchmarks (LMBench file create/delete, Postmark) exercise the same
//! hardware paths the paper measured.
//!
//! The OS has raw access to the platter (the paper's threat model), so
//! nothing here is confidential — applications encrypt file *contents*
//! themselves (see `vg-runtime`).

use std::collections::HashMap;
use vg_machine::layout::PAGE_SIZE;

/// Block size (= page size).
pub const BLOCK_SIZE: usize = PAGE_SIZE as usize;
/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;
/// Inodes per block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;
/// Direct block pointers per inode.
pub const NDIRECT: usize = 10;
/// Pointers in an indirect block.
pub const NINDIRECT: usize = BLOCK_SIZE / 4;
/// Maximum file size in bytes.
pub const MAX_FILE_BYTES: u64 = ((NDIRECT + NINDIRECT) * BLOCK_SIZE) as u64;
/// Maximum filename length.
pub const MAX_NAME: usize = 60;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u32);

/// Root directory inode.
pub const ROOT_INO: Ino = Ino(1);

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component not found.
    NotFound,
    /// Entry already exists.
    Exists,
    /// Out of inodes or data blocks.
    NoSpace,
    /// Not a directory (when a directory was required) or vice versa.
    WrongKind,
    /// Name too long or otherwise invalid.
    BadName,
    /// File would exceed the maximum size.
    TooBig,
    /// Directory not empty.
    NotEmpty,
    /// The backing device failed the transfer (after the driver exhausted
    /// its retries). Surfaces as `EIO` at the syscall boundary.
    Io,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NoSpace => "no space left on device",
            FsError::WrongKind => "is a directory / not a directory",
            FsError::BadName => "invalid file name",
            FsError::TooBig => "file too large",
            FsError::NotEmpty => "directory not empty",
            FsError::Io => "I/O error",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone, Default)]
struct DiskInode {
    kind: u16, // 0 free, 1 file, 2 dir
    nlink: u16,
    size: u64,
    direct: [u32; NDIRECT],
    indirect: u32,
}

impl DiskInode {
    fn encode(&self, out: &mut [u8]) {
        out[..2].copy_from_slice(&self.kind.to_le_bytes());
        out[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            out[16 + 4 * i..20 + 4 * i].copy_from_slice(&d.to_le_bytes());
        }
        out[16 + 4 * NDIRECT..20 + 4 * NDIRECT].copy_from_slice(&self.indirect.to_le_bytes());
    }

    fn decode(data: &[u8]) -> Self {
        let mut inode = DiskInode {
            kind: u16::from_le_bytes([data[0], data[1]]),
            nlink: u16::from_le_bytes([data[2], data[3]]),
            size: u64::from_le_bytes(data[8..16].try_into().unwrap()),
            ..Default::default()
        };
        for i in 0..NDIRECT {
            inode.direct[i] = u32::from_le_bytes(data[16 + 4 * i..20 + 4 * i].try_into().unwrap());
        }
        inode.indirect =
            u32::from_le_bytes(data[16 + 4 * NDIRECT..20 + 4 * NDIRECT].try_into().unwrap());
        inode
    }
}

/// Accounting for one filesystem call, converted into cycle charges by the
/// kernel (`vg-kernel::mem::kwork`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsWork {
    /// Abstract instrumentable kernel memory accesses performed.
    pub accesses: u64,
    /// Function returns / indirect calls performed.
    pub branches: u64,
    /// Buffer-cache misses that went to disk.
    pub disk_reads: u64,
    /// Dirty blocks written to disk.
    pub disk_writes: u64,
    /// Bytes memcpy'd between cache and caller buffers.
    pub bytes_copied: u64,
}

impl FsWork {
    fn acc(&mut self, n: u64) {
        self.accesses += n;
        self.branches += n / 16 + 1;
    }
}

#[derive(Debug)]
struct CachedBlock {
    data: Vec<u8>,
    dirty: bool,
    /// LRU tick of the last touch; ticks are unique, so the eviction
    /// victim (the minimum) is well defined.
    tick: u64,
}

/// Backing store abstraction so the filesystem can be unit-tested against a
/// plain in-memory device and wired to the machine's DMA disk by the kernel.
pub trait BlockDev {
    /// Reads block `bno` (4 KiB).
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] when the device fails the transfer. Drivers with
    /// retry logic (the kernel's DMA disk) exhaust their retries *before*
    /// returning this; the filesystem treats it as final.
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError>;
    /// Writes block `bno`.
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] when the device fails the transfer.
    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError>;
    /// Device capacity in blocks.
    fn capacity(&self) -> u32;
}

/// A trivial in-memory block device for tests.
#[derive(Debug)]
pub struct MemDisk {
    blocks: Vec<Option<Vec<u8>>>,
}

impl MemDisk {
    /// A zeroed device of `n` blocks.
    pub fn new(n: u32) -> Self {
        MemDisk {
            blocks: vec![None; n as usize],
        }
    }
}

impl BlockDev for MemDisk {
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError> {
        Ok(self.blocks[bno as usize]
            .clone()
            .unwrap_or_else(|| vec![0; BLOCK_SIZE]))
    }

    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError> {
        self.blocks[bno as usize] = Some(data.to_vec());
        Ok(())
    }

    fn capacity(&self) -> u32 {
        self.blocks.len() as u32
    }
}

/// The filesystem: superblock geometry plus the buffer cache.
///
/// All operations take the backing [`BlockDev`] explicitly so the kernel can
/// pass a device that charges DMA costs, and return an [`FsWork`] record of
/// the work performed.
#[derive(Debug)]
pub struct VgFs {
    ninodes: u32,
    inode_blocks: u32,
    bitmap_blocks: u32,
    nblocks: u32,
    cache: HashMap<u32, CachedBlock>,
    cache_cap: usize,
    clock: u64, // LRU tick
}

impl VgFs {
    /// Formats a fresh filesystem on `dev` with `ninodes` inodes.
    pub fn mkfs(dev: &mut dyn BlockDev, ninodes: u32) -> Self {
        let nblocks = dev.capacity();
        let inode_blocks = ninodes.div_ceil(INODES_PER_BLOCK as u32);
        let bitmap_blocks = nblocks.div_ceil((BLOCK_SIZE * 8) as u32);
        let mut fs = VgFs {
            ninodes,
            inode_blocks,
            bitmap_blocks,
            nblocks,
            cache: HashMap::new(),
            cache_cap: 4096,
            clock: 0,
        };
        let mut w = FsWork::default();
        // mkfs runs at boot, before any fault plan can be armed, so the
        // device cannot fail here; a failure would mean a broken harness.
        let mut fmt = || -> Result<(), FsError> {
            // Mark metadata blocks used in the bitmap.
            let meta = 1 + inode_blocks + bitmap_blocks;
            for b in 0..meta {
                fs.bitmap_set(dev, b, true, &mut w)?;
            }
            // Root directory.
            let root = DiskInode {
                kind: 2,
                nlink: 1,
                ..Default::default()
            };
            fs.write_inode(dev, ROOT_INO, &root, &mut w)?;
            fs.sync(dev)?;
            Ok(())
        };
        fmt().expect("mkfs: boot-time device cannot fail");
        fs
    }

    /// Mounts an existing filesystem (geometry must match the mkfs call).
    pub fn mount(dev: &mut dyn BlockDev, ninodes: u32) -> Self {
        let nblocks = dev.capacity();
        VgFs {
            ninodes,
            inode_blocks: ninodes.div_ceil(INODES_PER_BLOCK as u32),
            bitmap_blocks: nblocks.div_ceil((BLOCK_SIZE * 8) as u32),
            nblocks,
            cache: HashMap::new(),
            cache_cap: 4096,
            clock: 0,
        }
    }

    fn data_start(&self) -> u32 {
        1 + self.inode_blocks + self.bitmap_blocks
    }

    // ---- buffer cache ----------------------------------------------------

    fn with_block<R>(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        w: &mut FsWork,
        f: impl FnOnce(&mut CachedBlock) -> R,
    ) -> Result<R, FsError> {
        self.clock += 1;
        let tick = self.clock;
        if let Some(blk) = self.cache.get_mut(&bno) {
            blk.tick = tick;
            w.acc(8);
            return Ok(f(blk));
        }
        if self.cache.len() >= self.cache_cap {
            self.evict_one(dev, w)?;
        }
        w.disk_reads += 1;
        let data = dev.read_block(bno)?;
        let blk = self.cache.entry(bno).or_insert(CachedBlock {
            data,
            dirty: false,
            tick,
        });
        w.acc(8);
        Ok(f(blk))
    }

    fn evict_one(&mut self, dev: &mut dyn BlockDev, w: &mut FsWork) -> Result<(), FsError> {
        let Some((&victim, b)) = self.cache.iter().min_by_key(|(_, b)| b.tick) else {
            return Ok(());
        };
        if b.dirty {
            w.disk_writes += 1;
            // On failure the victim stays cached (and dirty): no data is
            // lost, the cache just runs over capacity until the device
            // recovers.
            dev.write_block(victim, &b.data)?;
        }
        self.cache.remove(&victim);
        Ok(())
    }

    /// Flushes all dirty blocks (fsync / unmount), in ascending block
    /// order so the device sees a deterministic write sequence. Returns
    /// blocks written.
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] if any block failed to write; failed blocks remain
    /// cached and dirty, so a later sync can retry them.
    pub fn sync(&mut self, dev: &mut dyn BlockDev) -> Result<u64, FsError> {
        let mut written = 0;
        let mut failed = false;
        let mut dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, b)| b.dirty)
            .map(|(&bno, _)| bno)
            .collect();
        dirty.sort_unstable();
        for bno in dirty {
            let blk = self.cache.get_mut(&bno).expect("collected from cache");
            match dev.write_block(bno, &blk.data) {
                Ok(()) => {
                    blk.dirty = false;
                    written += 1;
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            return Err(FsError::Io);
        }
        Ok(written)
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    // ---- bitmap ----------------------------------------------------------

    fn bitmap_set(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        used: bool,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let bb = 1 + self.inode_blocks + bno / (BLOCK_SIZE as u32 * 8);
        let idx = (bno % (BLOCK_SIZE as u32 * 8)) as usize;
        self.with_block(dev, bb, w, |blk| {
            if used {
                blk.data[idx / 8] |= 1 << (idx % 8);
            } else {
                blk.data[idx / 8] &= !(1 << (idx % 8));
            }
            blk.dirty = true;
        })
    }

    fn alloc_block(&mut self, dev: &mut dyn BlockDev, w: &mut FsWork) -> Result<u32, FsError> {
        let start = self.data_start();
        for bb in 0..self.bitmap_blocks {
            let base = bb * BLOCK_SIZE as u32 * 8;
            let found = self.with_block(dev, 1 + self.inode_blocks + bb, w, |blk| {
                for (byte_i, byte) in blk.data.iter_mut().enumerate() {
                    if *byte != 0xff {
                        let bit = byte.trailing_ones() as usize;
                        let bno = base + (byte_i * 8 + bit) as u32;
                        return Some((bno, byte_i, bit));
                    }
                }
                None
            })?;
            if let Some((bno, byte_i, bit)) = found {
                if bno < start || bno >= self.nblocks {
                    // Bits below data_start are pre-marked; a bit past the
                    // device end means we are full.
                    if bno >= self.nblocks {
                        return Err(FsError::NoSpace);
                    }
                    continue;
                }
                self.with_block(dev, 1 + self.inode_blocks + bb, w, |blk| {
                    blk.data[byte_i] |= 1 << bit;
                    blk.dirty = true;
                })?;
                // Fresh blocks must read as zeros.
                self.with_block(dev, bno, w, |blk| {
                    blk.data.fill(0);
                    blk.dirty = true;
                })?;
                return Ok(bno);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        self.bitmap_set(dev, bno, false, w)
    }

    // ---- inodes ----------------------------------------------------------

    fn inode_block(&self, ino: Ino) -> (u32, usize) {
        (
            1 + ino.0 / INODES_PER_BLOCK as u32,
            (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE,
        )
    }

    fn read_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<DiskInode, FsError> {
        let (bno, off) = self.inode_block(ino);
        self.with_block(dev, bno, w, |blk| {
            DiskInode::decode(&blk.data[off..off + INODE_SIZE])
        })
    }

    fn write_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        inode: &DiskInode,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (bno, off) = self.inode_block(ino);
        self.with_block(dev, bno, w, |blk| {
            inode.encode(&mut blk.data[off..off + INODE_SIZE]);
            blk.dirty = true;
        })
    }

    /// Takes the lowest free inode. The model charges a UFS-style scan that
    /// reads one inode at a time from inode 1; the host examines a whole
    /// inode block per cache touch and books the touches it stands for
    /// (only the first touch of a block can miss, the rest are hits).
    fn alloc_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let per_block = INODES_PER_BLOCK as u32;
        let mut first = 1;
        while first < self.ninodes {
            let end = ((first / per_block + 1) * per_block).min(self.ninodes);
            let (bno, _) = self.inode_block(Ino(first));
            let free = self.with_block(dev, bno, w, |blk| {
                (first..end).find(|&i| {
                    let off = (i as usize % INODES_PER_BLOCK) * INODE_SIZE;
                    blk.data[off] == 0 && blk.data[off + 1] == 0
                })
            })?;
            // The model reads one inode per touch: each after the block's
            // first is a hit that advances the LRU clock.
            let hits = u64::from(free.map_or(end, |i| i + 1) - first - 1);
            for _ in 0..hits {
                w.acc(8);
            }
            self.clock += hits;
            self.cache.get_mut(&bno).expect("just touched").tick = self.clock;
            if let Some(i) = free {
                let fresh = DiskInode {
                    kind: if kind == InodeKind::Dir { 2 } else { 1 },
                    nlink: 1,
                    ..Default::default()
                };
                self.write_inode(dev, Ino(i), &fresh, w)?;
                return Ok(Ino(i));
            }
            first = end;
        }
        Err(FsError::NoSpace)
    }

    /// Maps a file byte offset to its data block, allocating if `alloc`.
    fn bmap(
        &mut self,
        dev: &mut dyn BlockDev,
        inode: &mut DiskInode,
        ino: Ino,
        fbn: usize,
        alloc: bool,
        w: &mut FsWork,
    ) -> Result<Option<u32>, FsError> {
        if fbn < NDIRECT {
            if inode.direct[fbn] == 0 {
                if !alloc {
                    return Ok(None);
                }
                inode.direct[fbn] = self.alloc_block(dev, w)?;
                self.write_inode(dev, ino, inode, w)?;
            }
            return Ok(Some(inode.direct[fbn]));
        }
        let ifbn = fbn - NDIRECT;
        if ifbn >= NINDIRECT {
            return Err(FsError::TooBig);
        }
        if inode.indirect == 0 {
            if !alloc {
                return Ok(None);
            }
            inode.indirect = self.alloc_block(dev, w)?;
            self.write_inode(dev, ino, inode, w)?;
        }
        let ib = inode.indirect;
        let existing = self.with_block(dev, ib, w, |blk| {
            u32::from_le_bytes(blk.data[4 * ifbn..4 * ifbn + 4].try_into().unwrap())
        })?;
        if existing != 0 {
            return Ok(Some(existing));
        }
        if !alloc {
            return Ok(None);
        }
        let nb = self.alloc_block(dev, w)?;
        self.with_block(dev, ib, w, |blk| {
            blk.data[4 * ifbn..4 * ifbn + 4].copy_from_slice(&nb.to_le_bytes());
            blk.dirty = true;
        })?;
        Ok(Some(nb))
    }

    // ---- file data -------------------------------------------------------

    /// Reads up to `buf.len()` bytes at `off`; returns bytes read.
    pub fn read(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        buf: &mut [u8],
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        let mut inode = self.read_inode(dev, ino, w)?;
        if inode.kind == 0 {
            return Err(FsError::NotFound);
        }
        if off >= inode.size {
            return Ok(0);
        }
        let n = buf.len().min((inode.size - off) as usize);
        let mut done = 0;
        while done < n {
            let pos = off as usize + done;
            let fbn = pos / BLOCK_SIZE;
            let boff = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - boff).min(n - done);
            match self.bmap(dev, &mut inode, ino, fbn, false, w)? {
                Some(bno) => {
                    self.with_block(dev, bno, w, |blk| {
                        buf[done..done + take].copy_from_slice(&blk.data[boff..boff + take]);
                    })?;
                }
                None => buf[done..done + take].fill(0), // hole
            }
            done += take;
            w.bytes_copied += take as u64;
        }
        Ok(n)
    }

    /// Writes `data` at `off`, growing the file as needed.
    pub fn write(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        data: &[u8],
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        if off + data.len() as u64 > MAX_FILE_BYTES {
            return Err(FsError::TooBig);
        }
        let mut inode = self.read_inode(dev, ino, w)?;
        if inode.kind == 0 {
            return Err(FsError::NotFound);
        }
        let mut done = 0;
        while done < data.len() {
            let pos = off as usize + done;
            let fbn = pos / BLOCK_SIZE;
            let boff = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - boff).min(data.len() - done);
            let bno = self
                .bmap(dev, &mut inode, ino, fbn, true, w)?
                .ok_or(FsError::NoSpace)?;
            self.with_block(dev, bno, w, |blk| {
                blk.data[boff..boff + take].copy_from_slice(&data[done..done + take]);
                blk.dirty = true;
            })?;
            done += take;
            w.bytes_copied += take as u64;
        }
        let end = off + data.len() as u64;
        if end > inode.size {
            inode.size = end;
            self.write_inode(dev, ino, &inode, w)?;
        }
        Ok(data.len())
    }

    /// File size and kind.
    pub fn stat(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<(u64, InodeKind), FsError> {
        let inode = self.read_inode(dev, ino, w)?;
        match inode.kind {
            1 => Ok((inode.size, InodeKind::File)),
            2 => Ok((inode.size, InodeKind::Dir)),
            _ => Err(FsError::NotFound),
        }
    }

    /// Truncates a file to zero length, freeing its blocks.
    pub fn truncate(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let mut inode = self.read_inode(dev, ino, w)?;
        if inode.kind == 0 {
            return Err(FsError::NotFound);
        }
        for d in inode.direct {
            if d != 0 {
                self.free_block(dev, d, w)?;
            }
        }
        if inode.indirect != 0 {
            let entries = self.with_block(dev, inode.indirect, w, |blk| {
                (0..NINDIRECT)
                    .map(|i| u32::from_le_bytes(blk.data[4 * i..4 * i + 4].try_into().unwrap()))
                    .collect::<Vec<_>>()
            })?;
            for e in entries {
                if e != 0 {
                    self.free_block(dev, e, w)?;
                }
            }
            self.free_block(dev, inode.indirect, w)?;
        }
        inode.direct = [0; NDIRECT];
        inode.indirect = 0;
        inode.size = 0;
        self.write_inode(dev, ino, &inode, w)?;
        Ok(())
    }

    // ---- directories & paths ----------------------------------------------

    /// Reads the directory image of `dir`. The model charges the scan a
    /// UFS-style kernel makes over it: every record's fields are loaded
    /// individually (and thus individually instrumented under Virtual
    /// Ghost), whether or not the caller stops at an early match.
    fn dir_image(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        w: &mut FsWork,
    ) -> Result<Vec<u8>, FsError> {
        let (size, kind) = self.stat(dev, dir, w)?;
        if kind != InodeKind::Dir {
            return Err(FsError::WrongKind);
        }
        let mut raw = vec![0u8; size as usize];
        self.read(dev, dir, 0, &mut raw, w)?;
        w.acc(raw.len() as u64 / 4 + 8);
        Ok(raw)
    }

    fn lookup_in(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        name: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        w.acc(24); // name comparison work
        let raw = self.dir_image(dev, dir, w)?;
        let found = find_record(&raw, name).map(|r| Ino(r.ino));
        found.ok_or(FsError::NotFound)
    }

    /// Resolves an absolute path to an inode.
    pub fn lookup(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup_in(dev, cur, comp, w)?;
        }
        Ok(cur)
    }

    fn split_path(path: &str) -> Result<(&str, &str), FsError> {
        let path = path.trim_end_matches('/');
        let name = path.rsplit('/').next().unwrap_or("");
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(FsError::BadName);
        }
        let parent = &path[..path.len() - name.len()];
        Ok((parent, name))
    }

    /// Creates a file or directory at `path`.
    pub fn create(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup(dev, parent_path, w)?;
        let mut raw = self.dir_image(dev, parent, w)?;
        if find_record(&raw, name).is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(dev, kind, w)?;
        compact_dir(&mut raw, None);
        raw.extend_from_slice(&ino.0.to_le_bytes());
        raw.push(name.len() as u8);
        raw.extend_from_slice(name.as_bytes());
        self.truncate(dev, parent, w)?;
        self.write(dev, parent, 0, &raw, w)?;
        Ok(ino)
    }

    /// Removes the file or (empty) directory at `path`.
    pub fn unlink(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup(dev, parent_path, w)?;
        let mut raw = self.dir_image(dev, parent, w)?;
        let (ino, at) = find_record(&raw, name)
            .map(|r| (Ino(r.ino), r.span.start))
            .ok_or(FsError::NotFound)?;
        let (_, kind) = self.stat(dev, ino, w)?;
        if kind == InodeKind::Dir {
            let child = self.dir_image(dev, ino, w)?;
            if dir_records(&child).any(|r| r.is_live()) {
                return Err(FsError::NotEmpty);
            }
        }
        self.truncate(dev, ino, w)?;
        self.write_inode(dev, ino, &DiskInode::default(), w)?;
        compact_dir(&mut raw, Some(at));
        self.truncate(dev, parent, w)?;
        self.write(dev, parent, 0, &raw, w)?;
        Ok(())
    }

    /// Lists the entries of the directory at `path`.
    pub fn readdir(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Vec<(String, Ino)>, FsError> {
        let dir = self.lookup(dev, path, w)?;
        let raw = self.dir_image(dev, dir, w)?;
        Ok(dir_records(&raw)
            .filter(DirRecord::is_live)
            .map(|r| (String::from_utf8_lossy(r.name).into_owned(), Ino(r.ino)))
            .collect())
    }
}

/// One directory record, borrowed from a directory image. On disk a record
/// is `[ino: u32 LE][len: u8][name: len bytes]`; `ino == 0` marks a free
/// slot.
struct DirRecord<'a> {
    ino: u32,
    name: &'a [u8],
    /// Byte range of the whole record in the image.
    span: std::ops::Range<usize>,
}

impl DirRecord<'_> {
    fn is_live(&self) -> bool {
        self.ino != 0
    }
}

/// The complete record that starts at `pos` of a directory image, if any.
fn dir_record_at(raw: &[u8], pos: usize) -> Option<DirRecord<'_>> {
    let header = raw.get(pos..pos + 5)?;
    let end = pos + 5 + header[4] as usize;
    Some(DirRecord {
        ino: u32::from_le_bytes(header[..4].try_into().unwrap()),
        name: raw.get(pos + 5..end)?,
        span: pos..end,
    })
}

/// The complete records of a directory image, in order. Iteration stops at
/// an incomplete trailing record.
fn dir_records(raw: &[u8]) -> impl Iterator<Item = DirRecord<'_>> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let r = dir_record_at(raw, pos)?;
        pos = r.span.end;
        Some(r)
    })
}

/// The first live record of a directory image named `name`. Names compare
/// as raw bytes, exactly.
fn find_record<'a>(raw: &'a [u8], name: &str) -> Option<DirRecord<'a>> {
    dir_records(raw).find(|r| r.is_live() && r.name == name.as_bytes())
}

/// Compacts a directory image in place to its live records, byte for byte
/// and in order, leaving out the record that starts at `unlinked`. Free
/// slots and an incomplete trailing record are dropped, so an edit writes
/// back exactly the live entries. On an image of live records only this
/// just walks the headers.
fn compact_dir(raw: &mut Vec<u8>, unlinked: Option<usize>) {
    let mut kept = 0;
    let mut pos = 0;
    while let Some(r) = dir_record_at(raw, pos) {
        let keep = r.is_live() && Some(r.span.start) != unlinked;
        let span = r.span;
        if keep {
            if kept != span.start {
                raw.copy_within(span.clone(), kept);
            }
            kept += span.len();
        }
        pos = span.end;
    }
    raw.truncate(kept);
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (MemDisk, VgFs) {
        let mut dev = MemDisk::new(2048);
        let fs = VgFs::mkfs(&mut dev, 256);
        (dev, fs)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs
            .create(&mut dev, "/hello.txt", InodeKind::File, &mut w)
            .unwrap();
        fs.write(&mut dev, ino, 0, b"hello vgfs", &mut w).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap(), 10);
        assert_eq!(&buf, b"hello vgfs");
        assert_eq!(
            fs.stat(&mut dev, ino, &mut w).unwrap(),
            (10, InodeKind::File)
        );
    }

    #[test]
    fn lookup_and_duplicate() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/a", &mut w).unwrap(), ino);
        assert_eq!(
            fs.create(&mut dev, "/a", InodeKind::File, &mut w),
            Err(FsError::Exists)
        );
        assert_eq!(fs.lookup(&mut dev, "/nope", &mut w), Err(FsError::NotFound));
    }

    #[test]
    fn nested_directories() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        fs.create(&mut dev, "/usr", InodeKind::Dir, &mut w).unwrap();
        fs.create(&mut dev, "/usr/share", InodeKind::Dir, &mut w)
            .unwrap();
        let f = fs
            .create(&mut dev, "/usr/share/f.txt", InodeKind::File, &mut w)
            .unwrap();
        fs.write(&mut dev, f, 0, b"deep", &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/usr/share/f.txt", &mut w).unwrap(), f);
        let names: Vec<String> = fs
            .readdir(&mut dev, "/usr", &mut w)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["share"]);
    }

    #[test]
    fn unlink_frees_and_removes() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 0, &vec![7u8; 10_000], &mut w)
            .unwrap();
        fs.unlink(&mut dev, "/f", &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/f", &mut w), Err(FsError::NotFound));
        // The inode and blocks are reusable.
        let again = fs.create(&mut dev, "/g", InodeKind::File, &mut w).unwrap();
        assert_eq!(again, ino, "inode slot reused");
    }

    #[test]
    fn unlink_nonempty_dir_refused() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
        fs.create(&mut dev, "/d/x", InodeKind::File, &mut w)
            .unwrap();
        assert_eq!(fs.unlink(&mut dev, "/d", &mut w), Err(FsError::NotEmpty));
        fs.unlink(&mut dev, "/d/x", &mut w).unwrap();
        fs.unlink(&mut dev, "/d", &mut w).unwrap();
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs
            .create(&mut dev, "/big", InodeKind::File, &mut w)
            .unwrap();
        let size = (NDIRECT + 5) * BLOCK_SIZE; // spills into the indirect block
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.write(&mut dev, ino, 0, &data, &mut w).unwrap();
        let mut back = vec![0u8; size];
        assert_eq!(fs.read(&mut dev, ino, 0, &mut back, &mut w).unwrap(), size);
        assert_eq!(back, data);
    }

    #[test]
    fn file_size_limit_enforced() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        assert_eq!(
            fs.write(&mut dev, ino, MAX_FILE_BYTES, b"x", &mut w),
            Err(FsError::TooBig)
        );
    }

    #[test]
    fn sparse_read_returns_zeros() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/s", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 3 * BLOCK_SIZE as u64, b"end", &mut w)
            .unwrap();
        let mut buf = [9u8; 8];
        fs.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn persistence_across_mount() {
        let mut dev = MemDisk::new(2048);
        {
            let mut fs = VgFs::mkfs(&mut dev, 256);
            let mut w = FsWork::default();
            let ino = fs
                .create(&mut dev, "/persist", InodeKind::File, &mut w)
                .unwrap();
            fs.write(&mut dev, ino, 0, b"still here", &mut w).unwrap();
            fs.sync(&mut dev).unwrap();
        }
        let mut fs2 = VgFs::mount(&mut dev, 256);
        let mut w = FsWork::default();
        let ino = fs2.lookup(&mut dev, "/persist", &mut w).unwrap();
        let mut buf = [0u8; 10];
        fs2.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap();
        assert_eq!(&buf, b"still here");
    }

    #[test]
    fn cache_eviction_preserves_data() {
        let mut dev = MemDisk::new(4096);
        let mut fs = VgFs::mkfs(&mut dev, 64);
        fs.cache_cap = 8; // force heavy eviction
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        let data: Vec<u8> = (0..BLOCK_SIZE * 12).map(|i| (i % 13) as u8).collect();
        fs.write(&mut dev, ino, 0, &data, &mut w).unwrap();
        let mut back = vec![0u8; data.len()];
        fs.read(&mut dev, ino, 0, &mut back, &mut w).unwrap();
        assert_eq!(back, data);
        assert!(fs.cached_blocks() <= 8);
    }

    #[test]
    fn work_accounting_accumulates() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 0, &vec![1u8; 8192], &mut w)
            .unwrap();
        assert!(w.accesses > 0);
        assert!(w.bytes_copied >= 8192);
        assert!(w.disk_reads > 0, "cold cache went to the device");
    }

    #[test]
    fn many_small_files_postmark_style() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        for i in 0..100 {
            let path = format!("/pm{i}");
            let ino = fs.create(&mut dev, &path, InodeKind::File, &mut w).unwrap();
            fs.write(&mut dev, ino, 0, &vec![i as u8; 600], &mut w)
                .unwrap();
        }
        assert_eq!(fs.readdir(&mut dev, "/", &mut w).unwrap().len(), 100);
        for i in (0..100).step_by(2) {
            fs.unlink(&mut dev, &format!("/pm{i}"), &mut w).unwrap();
        }
        assert_eq!(fs.readdir(&mut dev, "/", &mut w).unwrap().len(), 50);
    }

    /// A fixed Postmark-style script: 320 base files in one directory, then
    /// 600 transactions (read or append, create or unlink), then delete
    /// everything. Returns the work it booked.
    fn postmark_script(cache_cap: usize) -> FsWork {
        let mut dev = MemDisk::new(8192);
        let mut fs = VgFs::mkfs(&mut dev, 1024);
        fs.cache_cap = cache_cap;
        let mut w = FsWork::default();
        let mut seed = 0x5eed_cafe_u64;
        let mut rand = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let path = |i: u32| format!("/pm/postmark-file-{i:05}");
        fs.create(&mut dev, "/pm", InodeKind::Dir, &mut w).unwrap();
        let mut live = Vec::new();
        let mut next = 0;
        let mut buf = vec![0u8; 12_000];
        for _ in 0..320 {
            let ino = fs
                .create(&mut dev, &path(next), InodeKind::File, &mut w)
                .unwrap();
            let len = 500 + rand(9_500) as usize;
            fs.write(&mut dev, ino, 0, &buf[..len], &mut w).unwrap();
            live.push(next);
            next += 1;
        }
        for _ in 0..600 {
            let target = live[rand(live.len() as u64) as usize];
            let ino = fs.lookup(&mut dev, &path(target), &mut w).unwrap();
            if rand(2) == 0 {
                fs.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap();
            } else {
                let (size, _) = fs.stat(&mut dev, ino, &mut w).unwrap();
                fs.write(&mut dev, ino, size, &[0x6d; 512], &mut w).unwrap();
            }
            if rand(2) == 0 {
                let ino = fs
                    .create(&mut dev, &path(next), InodeKind::File, &mut w)
                    .unwrap();
                let len = 500 + rand(9_500) as usize;
                fs.write(&mut dev, ino, 0, &buf[..len], &mut w).unwrap();
                live.push(next);
                next += 1;
            } else {
                let victim = live.swap_remove(rand(live.len() as u64) as usize);
                fs.unlink(&mut dev, &path(victim), &mut w).unwrap();
            }
        }
        assert_eq!(
            fs.readdir(&mut dev, "/pm", &mut w).unwrap().len(),
            live.len()
        );
        for f in live {
            fs.unlink(&mut dev, &path(f), &mut w).unwrap();
        }
        assert!(fs.readdir(&mut dev, "/pm", &mut w).unwrap().is_empty());
        w
    }

    /// Pins the modelled cost of [`postmark_script`]. The totals were
    /// recorded with the inode-at-a-time allocator and the parse/re-serialize
    /// directory code; a host-side change to vgfs must leave them exactly as
    /// they are, or it has changed what the simulator charges.
    #[test]
    fn postmark_script_fswork_is_pinned() {
        let golden = |disk_reads, disk_writes| FsWork {
            accesses: 4_011_866,
            branches: 323_758,
            disk_reads,
            disk_writes,
            bytes_copied: 23_122_361,
        };
        assert_eq!(postmark_script(4096), golden(615, 0));
        assert_eq!(postmark_script(48), golden(2_010, 1_449));
    }

    /// Appends raw bytes to the root directory image, as a hostile OS with
    /// raw disk access could.
    fn tamper_root(fs: &mut VgFs, dev: &mut MemDisk, bytes: &[u8]) {
        let mut w = FsWork::default();
        let (size, _) = fs.stat(dev, ROOT_INO, &mut w).unwrap();
        fs.write(dev, ROOT_INO, size, bytes, &mut w).unwrap();
    }

    fn root_image(fs: &mut VgFs, dev: &mut MemDisk) -> Vec<u8> {
        let mut w = FsWork::default();
        let (size, _) = fs.stat(dev, ROOT_INO, &mut w).unwrap();
        let mut raw = vec![0; size as usize];
        fs.read(dev, ROOT_INO, 0, &mut raw, &mut w).unwrap();
        raw
    }

    fn record(ino: Ino, name: &[u8]) -> Vec<u8> {
        let mut r = ino.0.to_le_bytes().to_vec();
        r.push(name.len() as u8);
        r.extend_from_slice(name);
        r
    }

    #[test]
    fn lookup_matches_raw_name_bytes_exactly() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let a = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
        // A name that is not UTF-8 is not found under its lossy decoding.
        tamper_root(&mut fs, &mut dev, &record(a, &[0xff]));
        assert_eq!(
            fs.lookup(&mut dev, "/\u{fffd}", &mut w),
            Err(FsError::NotFound)
        );
        // A UTF-8 name is found under exactly its bytes, and a name that is
        // only a prefix of a record's is not.
        tamper_root(&mut fs, &mut dev, &record(a, "é".as_bytes()));
        assert_eq!(fs.lookup(&mut dev, "/é", &mut w), Ok(a));
        assert_eq!(
            fs.lookup(&mut dev, "/\u{fffd}", &mut w),
            Err(FsError::NotFound)
        );
        assert_eq!(
            fs.create(&mut dev, "/é", InodeKind::File, &mut w),
            Err(FsError::Exists)
        );
    }

    #[test]
    fn create_drops_an_incomplete_trailing_record() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let a = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
        // A free slot, then a header that claims a 10-byte name but has
        // only 1 byte after it.
        tamper_root(&mut fs, &mut dev, &record(Ino(0), b"z"));
        tamper_root(&mut fs, &mut dev, &[9, 0, 0, 0, 10, b'x']);
        let b = fs.create(&mut dev, "/b", InodeKind::File, &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/b", &mut w), Ok(b));
        let mut expect = record(a, b"a");
        expect.extend(record(b, b"b"));
        assert_eq!(root_image(&mut fs, &mut dev), expect);
    }

    #[test]
    fn edits_never_rewrite_a_record_length() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let a = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
        // 100 bytes that are not UTF-8: their lossy decoding is 300 bytes
        // long, which no longer fits the record's length byte.
        let hostile = record(Ino(7), &[0xff; 100]);
        tamper_root(&mut fs, &mut dev, &hostile);
        let b = fs.create(&mut dev, "/b", InodeKind::File, &mut w).unwrap();
        let mut expect = record(a, b"a");
        expect.extend(&hostile);
        expect.extend(record(b, b"b"));
        assert_eq!(root_image(&mut fs, &mut dev), expect);
        assert_eq!(fs.lookup(&mut dev, "/b", &mut w), Ok(b));
        let listed = fs.readdir(&mut dev, "/", &mut w).unwrap();
        let inos: Vec<Ino> = listed.iter().map(|&(_, i)| i).collect();
        assert_eq!(inos, vec![a, Ino(7), b]);
        // Unlinking a neighbour leaves the hostile record's bytes as they are.
        fs.unlink(&mut dev, "/a", &mut w).unwrap();
        let mut expect = hostile.clone();
        expect.extend(record(b, b"b"));
        assert_eq!(root_image(&mut fs, &mut dev), expect);
    }
}
