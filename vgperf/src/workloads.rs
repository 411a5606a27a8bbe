//! The four paper workloads, each driven through its public `vg-apps`
//! driver as one pre-queued burst: every input is queued before the first
//! operation, so the run measures throughput at saturation and a request's
//! latency is its completion time counted from the start of the burst.

use std::collections::BTreeMap;
use vg_apps::smp::{self, SmpBench};
use vg_apps::{ghostkv, postmark, ssh, PostmarkConfig};
use vg_crypto::aes::Aes128;
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{ChildKind, Mode, NetMode, System};
use vg_machine::cost::CYCLES_PER_US;

/// Bytes per ghostkv value (the `BENCH_net.json` shape).
pub const KV_VALUE: usize = 256;
/// SET/GET pairs per ghostkv connection: 4 SETs, then 4 GETs.
pub const KV_PAIRS: u32 = 4;
/// Size of the file each sshd transfer downloads.
pub const SSHD_FILE: usize = 1 << 20;
/// Back-to-back Postmark runs per drive, each a quarter of the
/// transactions. One run's cost per transaction follows its live file
/// count, a random walk of its creates and deletes, so at 5,000
/// transactions it spreads by 8% (quartiles over ten seeds); four runs of
/// 1,250 spread by 1%.
pub const POSTMARK_RUNS: u32 = 4;
/// Simulated cores of the procmix workload.
pub const PROCMIX_CPUS: usize = 8;
/// Shard processes of the procmix workload (`smp::procmix`'s `procs`).
pub const PROCMIX_SHARDS: usize = 8;
/// The chunk size sshd encrypts per `ctr_xor` call.
pub const SSHD_CHUNK: usize = 8192;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 5 Postmark on 1 core: [`POSTMARK_RUNS`] runs on one system.
    Postmark,
    /// ghostkv on the descriptor ring, 1 core, pipelined connections.
    GhostkvC10k,
    /// Figure 3 sshd: repeated 1 MiB scp-style downloads on 1 core.
    SshdTransfer,
    /// The LMBench process mix sharded over 8 simulated cores.
    ProcmixSmp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Postmark,
        Workload::GhostkvC10k,
        Workload::SshdTransfer,
        Workload::ProcmixSmp,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Postmark => "postmark",
            Workload::GhostkvC10k => "ghostkv_c10k",
            Workload::SshdTransfer => "sshd_transfer",
            Workload::ProcmixSmp => "procmix_smp",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's size: transactions, connections, transfers or
    /// iterations per shard. Chosen so one drive takes about a second of
    /// host time on a 2-core container.
    pub fn size(self) -> u32 {
        match self {
            Workload::Postmark => 5_000,
            Workload::GhostkvC10k => 2_048,
            Workload::SshdTransfer => 96,
            Workload::ProcmixSmp => 8_000,
        }
    }

    /// What one op is.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::Postmark => "transaction",
            Workload::GhostkvC10k => "KV command",
            Workload::SshdTransfer => "transfer",
            Workload::ProcmixSmp => "procmix iteration",
        }
    }

    /// Simulated cores the workload runs on.
    pub fn cpus(self) -> usize {
        match self {
            Workload::ProcmixSmp => PROCMIX_CPUS,
            _ => 1,
        }
    }

    /// Boots the system a drive runs on. `procmix_smp`'s driver boots its
    /// own; this boot is its identical twin, so its cost can be measured.
    pub fn boot(self, mode: Mode) -> System {
        let mut sys = System::boot_with_cpus(mode, self.cpus());
        sys.net_mode = NetMode::Ring;
        sys
    }

    /// Queues the inputs a driver queues for itself, on a twin system, so
    /// their host cost can be measured apart from the drive. Postmark
    /// creates its files inside the timed transaction loop and procmix
    /// queues nothing, so they have no preload.
    pub fn preload_twin(self, sys: &mut System, size: u32) {
        match self {
            Workload::Postmark | Workload::ProcmixSmp => {}
            Workload::GhostkvC10k => {
                for conn in 0..size as usize {
                    let train = kv_train(conn, KV_PAIRS, KV_VALUE);
                    let flow = sys.wire_connect(ghostkv::KV_PORT).expect("wire connect");
                    sys.wire_send(flow, &train);
                    sys.wire_close(flow);
                }
            }
            Workload::SshdTransfer => {
                sys.write_file("/srv.dat", &vec![0u8; SSHD_FILE]);
                for _ in 0..size {
                    let flow = sys.wire_connect(ssh::SSH_PORT).expect("connect");
                    sys.wire_send(flow, b"get /srv.dat");
                }
            }
        }
    }

    /// Whether the driver queues its own inputs, so a drive's host time
    /// must exclude the cost [`Workload::preload_twin`] measures.
    pub fn has_preload(self) -> bool {
        matches!(self, Workload::GhostkvC10k | Workload::SshdTransfer)
    }

    /// Ops one burst of `size` performs.
    pub fn ops(self, size: u32) -> u64 {
        match self {
            Workload::GhostkvC10k => size as u64 * KV_PAIRS as u64 * 2,
            Workload::ProcmixSmp => size as u64 * PROCMIX_SHARDS as u64,
            Workload::Postmark => (size / POSTMARK_RUNS * POSTMARK_RUNS) as u64,
            Workload::SshdTransfer => size as u64,
        }
    }
}

/// The simulated outcome of one drive. Deterministic: the same workload,
/// size and seed give the same value on every run and host.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Ops completed.
    pub ops: u64,
    /// Simulated CPU cycles of the burst (procmix: the scheduling horizon).
    pub cycles: u64,
    /// Median op completion time from the start of the burst.
    pub latency_p50: u64,
    /// 99th-percentile op completion time from the start of the burst.
    pub latency_p99: u64,
    /// Completion-time samples behind the percentiles.
    pub latency_samples: u64,
    /// The scheduler's books (procmix only).
    pub smp: Option<SmpBench>,
}

impl SimResult {
    /// Simulated cycles per op.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.ops as f64
    }

    /// The named simulated quantities, for the determinism check.
    pub fn fields(&self) -> BTreeMap<&'static str, u64> {
        let mut f = BTreeMap::from([
            ("ops", self.ops),
            ("cycles", self.cycles),
            ("sim_latency_p50_cycles", self.latency_p50),
            ("sim_latency_p99_cycles", self.latency_p99),
            ("latency_samples", self.latency_samples),
        ]);
        if let Some(b) = &self.smp {
            f.insert("smp.horizon_cycles", b.horizon_cycles);
            f.insert("smp.total_cycles", b.total_cycles);
            f.insert("smp.ipis", b.ipis);
            f.insert("smp.steals", b.steals);
        }
        f
    }

    /// A burst with no per-op completion times: the only sample is the
    /// burst's own completion, so p50 == p99 == `makespan`.
    fn whole_burst(ops: u64, cycles: u64, makespan: u64) -> SimResult {
        SimResult {
            ops,
            cycles,
            latency_p50: makespan,
            latency_p99: makespan,
            latency_samples: 1,
            smp: None,
        }
    }

    /// The result of a sharded run: the horizon is the burst's
    /// completion time.
    pub fn from_smp(b: SmpBench) -> SimResult {
        SimResult {
            smp: Some(b.clone()),
            ..SimResult::whole_burst(b.units, b.horizon_cycles, b.horizon_cycles)
        }
    }
}

/// Names the first simulated quantity on which `a` and `b` differ.
pub fn first_difference(a: &SimResult, b: &SimResult) -> Option<String> {
    let (fa, fb) = (a.fields(), b.fields());
    if fa.len() != fb.len() {
        return Some("smp".to_string());
    }
    fa.iter()
        .zip(fb.iter())
        .find(|(x, y)| x != y)
        .map(|((name, va), (_, vb))| format!("{name} ({va} vs {vb})"))
}

/// Drives one burst of `w` at `size` through its public driver, on `sys`
/// as booted by [`Workload::boot`]. `procmix_smp`'s driver ignores `sys`
/// and boots its own 8-core Virtual Ghost system. The drivers check their
/// own outputs and panic on a mismatch.
pub fn drive(w: Workload, sys: &mut System, seed: u64, size: u32) -> SimResult {
    match w {
        Workload::Postmark => {
            let mut cycles = 0;
            for run in 0..POSTMARK_RUNS {
                let cfg = postmark_config(postmark_seed(seed, run), size / POSTMARK_RUNS);
                let r = postmark::run(sys, cfg);
                cycles += (r.seconds * CYCLES_PER_US * 1e6).round() as u64;
            }
            SimResult::whole_burst(w.ops(size), cycles, cycles)
        }
        Workload::GhostkvC10k => {
            let b = ghostkv::kv_load(sys, KV_VALUE, size, KV_PAIRS);
            SimResult {
                ops: b.requests,
                cycles: b.cpu_cycles,
                latency_p50: b.p50_cycles,
                latency_p99: b.p99_cycles,
                latency_samples: b.requests,
                smp: None,
            }
        }
        Workload::SshdTransfer => {
            let (c0, w0) = (sys.machine.clock.cycles(), sys.machine.nic_time.cycles());
            ssh::sshd_bandwidth(sys, SSHD_FILE, size);
            let cpu = sys.machine.clock.cycles() - c0;
            let wire = sys.machine.nic_time.cycles() - w0;
            SimResult::whole_burst(size as u64, cpu, cpu.max(wire))
        }
        Workload::ProcmixSmp => {
            SimResult::from_smp(smp::procmix(PROCMIX_CPUS, PROCMIX_SHARDS, size))
        }
    }
}

/// [`drive`], except that `procmix_smp` runs on `sys` through
/// [`procmix_on`], so the caller can pick the mode and read the system's
/// counters and profiler afterwards.
pub fn drive_on(w: Workload, sys: &mut System, seed: u64, size: u32) -> SimResult {
    match w {
        Workload::ProcmixSmp => SimResult::from_smp(procmix_on(sys, PROCMIX_SHARDS, size)),
        _ => drive(w, sys, seed, size),
    }
}

/// Seed of Postmark run `run` of a drive: the runs of different benchmark
/// seeds never share a seed.
pub fn postmark_seed(seed: u64, run: u32) -> u64 {
    seed.wrapping_mul(POSTMARK_RUNS as u64)
        .wrapping_add(run as u64)
}

/// The Postmark configuration: §8.5 defaults with the benchmark's seed and
/// transaction count.
pub fn postmark_config(seed: u64, transactions: u32) -> PostmarkConfig {
    PostmarkConfig {
        transactions,
        seed,
        ..Default::default()
    }
}

/// Checks the outputs the driver leaves for its caller to check, and
/// returns how many ops failed. `ghostkv::kv_load` checks every flow's
/// response bytes and `smp::procmix` every shard's exit code itself.
pub fn verify(w: Workload, sys: &mut System, r: &SimResult) -> u64 {
    match w {
        Workload::Postmark => {
            // The spool must be empty, read back through the VFS.
            let mut work = vg_kernel::fs::FsWork::default();
            let (fs, machine, vm) = (&mut sys.fs, &mut sys.machine, &mut sys.vm);
            let mut dev = vg_kernel::system::DmaDisk { machine, vm };
            match fs.readdir(&mut dev, "/pm", &mut work) {
                Ok(entries) if entries.is_empty() => 0,
                _ => r.ops,
            }
        }
        Workload::SshdTransfer => {
            // The driver drained and checked the first flow. Every other
            // flow must carry the source file under the session cipher,
            // i.e. decrypt to it (CTR mode is its own inverse).
            let Some(mut expect) = sys.read_file("/srv.dat") else {
                return r.ops;
            };
            let cipher = Aes128::new(&ssh::session_key());
            for (i, chunk) in expect.chunks_mut(SSHD_CHUNK).enumerate() {
                cipher.ctr_xor(i as u64, chunk);
            }
            let mut flows: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for p in sys.machine.nic.wire_drain() {
                flows.entry(p.flow).or_default().extend(p.data);
            }
            let ok = flows.values().filter(|payload| **payload == expect).count() as u64;
            r.ops.saturating_sub(ok + 1)
        }
        Workload::GhostkvC10k | Workload::ProcmixSmp => 0,
    }
}

/// `smp::procmix` on a system the caller booted, so the benchmark can run
/// it on Native and read its counters and profiler. Same shard bodies, in
/// the same order; `procmix_matches_bench_smp_horizons` and the traced run check that
/// it reproduces the driver's books exactly.
pub fn procmix_on(sys: &mut System, procs: usize, iters: u32) -> SmpBench {
    let mut pids = Vec::with_capacity(procs);
    for i in 0..procs {
        let name = format!("lmbench-mix-{i}");
        sys.install_app(&name, false, move || {
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, &[0x5au8; 256]);
                match i % 3 {
                    0 => {
                        for k in 0..iters {
                            let fd = env.open(&format!("/mix-{i}-{}", k % 8), O_CREAT);
                            env.write(fd, buf, 256);
                            env.close(fd);
                        }
                    }
                    1 => {
                        for _ in 0..iters.div_ceil(4) {
                            if env.fork(ChildKind::Exit(0)) <= 0 {
                                return 103;
                            }
                            env.wait();
                        }
                    }
                    _ => {
                        for k in 0..iters {
                            let va = env.mmap_anon(2 * 4096);
                            env.write_mem(va + (k as u64 % 2) * 4096, &[1u8; 16]);
                        }
                    }
                }
                0
            })
        });
        pids.push(sys.spawn(&name));
    }
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    let ipis0 = sys.machine.counters.ipis;
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), procs, "every shard ran");
    assert!(run.exits.iter().all(|&(_, code)| code == 0), "{run:?}");
    SmpBench {
        cpus: sys.machine.num_cpus(),
        shards: procs,
        units: procs as u64 * iters as u64,
        horizon_cycles: run.horizon,
        total_cycles: run.work.iter().sum(),
        steals: run.steals,
        ipis: sys.machine.counters.ipis - ipis0,
    }
}

/// One ghostkv connection's command train: `pairs` SETs, then `pairs`
/// GETs, byte-identical to the one `kv_load` queues (same keys, lengths
/// and value bytes), so the preload twin costs what the driver's does.
fn kv_train(conn: usize, pairs: u32, value_size: usize) -> Vec<u8> {
    let value = |p: u32| -> Vec<u8> {
        (0..value_size)
            .map(|i| ((conn * 131 + p as usize * 17 + i) % 251) as u8)
            .collect()
    };
    let mut train = Vec::new();
    for p in 0..pairs {
        train.extend_from_slice(format!("SET k{conn}-{p} {value_size}\n").as_bytes());
        train.extend_from_slice(&value(p));
    }
    for p in 0..pairs {
        train.extend_from_slice(format!("GET k{conn}-{p}\n").as_bytes());
    }
    train
}
