//! SMP scaling workloads: the paper's macro-benchmarks sharded across N
//! simulated cores through the kernel's per-CPU run queues and
//! work-stealing scheduler (DESIGN.md §11).
//!
//! Each driver splits a fixed workload into `shards` independent processes
//! (one server per port, one mail spool per directory), enqueues them on
//! their round-robin home cores, and drains them with
//! [`System::run_queued`]. The reported elapsed time is the scheduling
//! *horizon* — the busiest core's cycles inside the window — so the
//! speedup of an `n`-core run over the 1-core run is the scaling headline:
//! the same total work, finished `horizon(1)/horizon(n)` times sooner.
//!
//! The shard count is held constant across cpu counts so every scaling
//! curve compares identical work; only the core count varies. Multi-core
//! runs pay real coherence costs the 1-core run does not: every PTE
//! mapping broadcasts a TLB shootdown IPI to all sibling cores.

use crate::postmark::{self, PostmarkConfig};
use crate::{ghostkv, thttpd};
use std::cell::Cell;
use std::rc::Rc;
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{ChildKind, Mode, NetMode, SchedRun, System};

/// Result of one sharded run at one cpu count.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpBench {
    /// Simulated cores the scheduler spread the shards over.
    pub cpus: usize,
    /// Independent shard processes (constant across cpu counts).
    pub shards: usize,
    /// Workload units completed (requests, transactions, iterations).
    pub units: u64,
    /// Elapsed: the busiest core's cycles inside the scheduling window.
    pub horizon_cycles: u64,
    /// Aggregate work: every core's cycles summed.
    pub total_cycles: u64,
    /// Processes run on a core other than their home.
    pub steals: u64,
    /// TLB-shootdown IPIs delivered during the run.
    pub ipis: u64,
}

impl SmpBench {
    /// Workload units per million elapsed cycles.
    pub fn units_per_megacycle(&self) -> f64 {
        self.units as f64 / (self.horizon_cycles as f64 / 1e6)
    }

    /// Aggregate-throughput speedup over the single-core run of the same
    /// workload: how many times sooner the horizon arrives.
    pub fn speedup_over(&self, uni: &SmpBench) -> f64 {
        uni.horizon_cycles as f64 / self.horizon_cycles as f64
    }
}

/// Drains all enqueued shards and folds the scheduler's books into a bench
/// row. Asserts every shard exited cleanly.
fn drain(sys: &mut System, shards: usize, units: u64) -> SmpBench {
    let ipis0 = sys.machine.counters.ipis;
    let run: SchedRun = sys.run_queued();
    assert_eq!(run.exits.len(), shards, "every shard ran");
    assert!(run.exits.iter().all(|&(_, code)| code == 0), "{run:?}");
    SmpBench {
        cpus: sys.machine.num_cpus(),
        shards,
        units,
        horizon_cycles: run.horizon,
        total_cycles: run.work.iter().sum(),
        steals: run.steals,
        ipis: sys.machine.counters.ipis - ipis0,
    }
}

/// thttpd-c10k sharded: `shards` event-loop servers, each on its own port
/// (`HTTP_PORT + shard`) with `conns_per_shard` pipelined keep-alive
/// connections pre-queued, all drained through the descriptor-ring data
/// plane under the work-stealing scheduler.
pub fn c10k_sharded(
    cpus: usize,
    shards: usize,
    file_size: usize,
    conns_per_shard: u32,
    reqs_per_conn: u32,
) -> SmpBench {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    sys.net_mode = NetMode::Ring;
    let data: Vec<u8> = (0..file_size).map(|i| (i * 31 % 251) as u8).collect();
    sys.write_file("/index.dat", &data);

    let request = thttpd::http_request("/index.dat");
    let mut train = Vec::with_capacity(request.len() * reqs_per_conn as usize);
    for _ in 0..reqs_per_conn {
        train.extend_from_slice(&request);
    }
    let mut spot = Vec::with_capacity(shards);
    for s in 0..shards {
        let port = thttpd::HTTP_PORT + s as u16;
        for c in 0..conns_per_shard {
            let flow = sys.wire_connect(port).expect("wire connect");
            sys.wire_send(flow, &train);
            sys.wire_close(flow);
            if c == 0 {
                spot.push(flow);
            }
        }
    }

    let served = Rc::new(Cell::new(0u64));
    let mut pids = Vec::with_capacity(shards);
    for s in 0..shards {
        let port = thttpd::HTTP_PORT + s as u16;
        let name = format!("thttpd-smp-{s}");
        let tally = served.clone();
        sys.install_app(&name, false, move || {
            let tally = tally.clone();
            Box::new(move |env| {
                let sock = env.socket();
                env.bind(sock, port);
                env.listen(sock);
                let t0 = env.sys.machine.clock.cycles();
                let n = thttpd::serve_event_loop(env, sock, &mut Vec::new(), t0);
                tally.set(tally.get() + n);
                0
            })
        });
        pids.push(sys.spawn(&name));
    }
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    let units = shards as u64 * conns_per_shard as u64 * reqs_per_conn as u64;
    let bench = drain(&mut sys, shards, units);
    assert_eq!(served.get(), units, "every shard drained its backlog");

    // Spot-check one flow per shard: every response present and intact.
    let hdr = thttpd::http_header(file_size);
    for flow in spot {
        let resp = sys.wire_recv(flow);
        assert_eq!(resp.len(), (hdr.len() + file_size) * reqs_per_conn as usize);
        assert!(resp.starts_with(&hdr));
    }
    bench
}

/// Postmark sharded: `shards` mail-server processes, each running the full
/// three-phase Postmark workload in its own directory (`/pm{shard}`) with a
/// distinct seed — the multi-process mail-spool shape.
pub fn postmark_sharded(cpus: usize, shards: usize, cfg: &PostmarkConfig) -> SmpBench {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    let mut pids = Vec::with_capacity(shards);
    for s in 0..shards {
        let name = format!("postmark-smp-{s}");
        let mut shard_cfg = cfg.clone();
        shard_cfg.seed = cfg.seed.wrapping_add(s as u64);
        let dir = format!("/pm{s}");
        sys.install_app(&name, false, move || {
            let cfg = shard_cfg.clone();
            let dir = dir.clone();
            Box::new(move |env| {
                postmark::workload(env, &cfg, &dir);
                0
            })
        });
        pids.push(sys.spawn(&name));
    }
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    drain(&mut sys, shards, shards as u64 * cfg.transactions as u64)
}

/// ghostkv sharded: `shards` KV servers on distinct ports, each holding its
/// value heap in ghost memory and serving `conns_per_shard` pipelined
/// SET/GET connections. Every connection's response bytes are verified.
pub fn kv_sharded(
    cpus: usize,
    shards: usize,
    value_size: usize,
    conns_per_shard: u32,
    pairs: u32,
) -> SmpBench {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    sys.net_mode = NetMode::Ring;
    let mut expected = Vec::new(); // (flow, bytes) across all shards
    for s in 0..shards {
        let port = ghostkv::KV_PORT + s as u16;
        for c in 0..conns_per_shard as usize {
            // Globally distinct conn index -> distinct keys and values.
            let global = s * conns_per_shard as usize + c;
            let (train, expect) = ghostkv::command_train(global, pairs, value_size);
            let flow = sys.wire_connect(port).expect("wire connect");
            sys.wire_send(flow, &train);
            sys.wire_close(flow);
            expected.push((flow, expect));
        }
    }

    let served = Rc::new(Cell::new(0u64));
    let mut pids = Vec::with_capacity(shards);
    for s in 0..shards {
        let port = ghostkv::KV_PORT + s as u16;
        let name = format!("ghostkv-smp-{s}");
        let tally = served.clone();
        sys.install_app(&name, true, move || {
            let tally = tally.clone();
            Box::new(move |env| {
                let sock = env.socket();
                env.bind(sock, port);
                env.listen(sock);
                let t0 = env.sys.machine.clock.cycles();
                let n = ghostkv::serve_kv(env, sock, &mut Vec::new(), t0);
                tally.set(tally.get() + n);
                0
            })
        });
        pids.push(sys.spawn(&name));
    }
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    let units = shards as u64 * conns_per_shard as u64 * pairs as u64 * 2;
    let bench = drain(&mut sys, shards, units);
    assert_eq!(served.get(), units, "every pipelined command served");
    let mut sent = sys.wire_recv_all();
    for (flow, expect) in expected {
        let got = sent.remove(&flow).unwrap_or_default();
        assert_eq!(got, expect, "flow {flow} response bytes");
    }
    bench
}

/// LMBench-style process mix: `procs` processes, each iterating one of the
/// microbenchmark kernels (file churn, fork/wait waves, mmap + page-fault
/// touch) `iters` times — the multi-process shape of Table 2 run across
/// cores. The fault-heavy shard broadcasts shootdowns on every mapping.
pub fn procmix(cpus: usize, procs: usize, iters: u32) -> SmpBench {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    let mut pids = Vec::with_capacity(procs);
    for i in 0..procs {
        let name = format!("lmbench-mix-{i}");
        sys.install_app(&name, false, move || {
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, &[0x5au8; 256]);
                match i % 3 {
                    0 => {
                        // open/write/close churn (Tables 3-4 shape).
                        for k in 0..iters {
                            let fd = env.open(&format!("/mix-{i}-{}", k % 8), O_CREAT);
                            env.write(fd, buf, 256);
                            env.close(fd);
                        }
                    }
                    1 => {
                        // fork + wait waves (fork/exit latency shape).
                        for _ in 0..iters.div_ceil(4) {
                            let child = env.fork(ChildKind::Exit(0));
                            if child <= 0 {
                                return 103;
                            }
                            env.wait();
                        }
                    }
                    _ => {
                        // mmap + first-touch page faults (mmap/page-fault
                        // latency shape); each fault maps a PTE and, on SMP,
                        // broadcasts a shootdown.
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
    drain(&mut sys, procs, procs as u64 * iters as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c10k_shards_scale_and_replay() {
        let quad = c10k_sharded(4, 8, 512, 16, 4);
        assert_eq!(quad.units, 8 * 16 * 4);
        assert_eq!(quad.cpus, 4);
        assert!(quad.ipis > 0, "multi-core mappings broadcast shootdowns");
        let uni = c10k_sharded(1, 8, 512, 16, 4);
        assert_eq!(uni.units, quad.units);
        assert_eq!(uni.ipis, 0, "single core never sends IPIs");
        assert!(
            quad.speedup_over(&uni) > 1.5,
            "4-core speedup {}",
            quad.speedup_over(&uni)
        );
        // Seed-stable: the same configuration replays bit-identically.
        assert_eq!(quad, c10k_sharded(4, 8, 512, 16, 4));
    }

    #[test]
    fn postmark_shards_run_isolated_spools() {
        let cfg = PostmarkConfig {
            base_files: 10,
            transactions: 40,
            ..Default::default()
        };
        let quad = postmark_sharded(4, 4, &cfg);
        assert_eq!(quad.units, 4 * 40);
        let uni = postmark_sharded(1, 4, &cfg);
        assert!(quad.horizon_cycles < uni.horizon_cycles);
        assert_eq!(
            quad.total_cycles,
            quad.horizon_cycles.max(quad.total_cycles)
        );
    }

    #[test]
    fn kv_shards_verify_every_connection() {
        // kv_sharded asserts full response bytes per flow internally.
        let b = kv_sharded(2, 4, 64, 4, 2);
        assert_eq!(b.units, 4 * 4 * 2 * 2);
        assert!(b.steals <= b.shards as u64);
    }

    #[test]
    fn procmix_spreads_across_cores() {
        let b = procmix(4, 8, 6);
        assert_eq!(b.units, 48);
        assert!(b.ipis > 0, "fault-heavy shards broadcast shootdowns");
        assert!(b.total_cycles >= b.horizon_cycles);
    }
}
