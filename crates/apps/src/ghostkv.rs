//! ghostkv — a memcached-style key/value server whose value heap lives in
//! ghost memory.
//!
//! The paper's thesis applied to a cache tier: the values a KV server holds
//! are exactly the data a hostile OS would scrape, so ghostkv keeps every
//! value in ghost pages ([`Heap`] with ghost backing). Socket I/O cannot
//! touch ghost memory — the kernel's copyin/copyout would be refused — so
//! the server stages bytes through traditional memory on both paths, the
//! same pattern as the paper's 216-line libc patch:
//!
//! * `SET`: payload arrives in a traditional rx buffer (`readv`), then the
//!   application copies it into its ghost heap.
//! * `GET`: the application copies the value out of ghost memory into a
//!   per-response staging slot, and one batched `writev` per connection per
//!   round transmits every staged response through the descriptor ring.
//!
//! Protocol (text framed, pipelining friendly):
//!
//! ```text
//! SET <key> <len>\n<len bytes>   ->  OK\n
//! GET <key>\n                    ->  VALUE <len>\n<len bytes>  |  MISS\n
//! ```
//!
//! Bad input never stops the server. As in memcached, a line that is not a
//! well-formed command gets `ERROR\n` and is dropped; a SET longer than
//! [`MAX_VALUE`] gets `SERVER_ERROR\n` and its payload is discarded as it
//! arrives; a partial command left at EOF is dropped with the connection.

use crate::thttpd; // shares the C10K latency/throughput reporting shape
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use vg_kernel::syscall::EAGAIN;
use vg_kernel::{System, UserEnv};
use vg_runtime::Heap;

/// Port the server listens on (memcached's).
pub const KV_PORT: u16 = 11211;

/// Staging slot stride: one response (header + value) per slot.
const SLOT: u64 = 4096;

/// Staging slots, and so responses per `writev`.
const SLOTS: usize = 256;

/// Largest value the staging layout accepts.
pub const MAX_VALUE: usize = 2048;

/// One parsed command, or refused input (`Error`) with the reply it gets.
enum Cmd {
    Set { key: String, value: Vec<u8> },
    Get { key: String },
    Error(&'static [u8]),
}

/// One connection's unparsed input.
#[derive(Default)]
struct Input {
    acc: Vec<u8>,
    /// Payload bytes of a refused SET still to be discarded.
    discard: usize,
}

/// Pulls complete commands off the front of `input`; leaves partial input.
fn drain_commands(input: &mut Input) -> Vec<Cmd> {
    let acc = &mut input.acc;
    let mut out = Vec::new();
    loop {
        let skip = input.discard.min(acc.len());
        acc.drain(..skip);
        input.discard -= skip;
        if input.discard > 0 {
            return out;
        }
        let Some(nl) = acc.iter().position(|&b| b == b'\n') else {
            return out;
        };
        let line = String::from_utf8_lossy(&acc[..nl]).into_owned();
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["SET", key, len] => match len.parse::<usize>() {
                Ok(len) if len > MAX_VALUE => {
                    acc.drain(..nl + 1);
                    input.discard = len;
                    out.push(Cmd::Error(b"SERVER_ERROR\n"));
                }
                Ok(len) => {
                    if acc.len() < nl + 1 + len {
                        return out; // payload not fully arrived yet
                    }
                    let value = acc[nl + 1..nl + 1 + len].to_vec();
                    acc.drain(..nl + 1 + len);
                    out.push(Cmd::Set {
                        key: key.to_string(),
                        value,
                    });
                }
                Err(_) => {
                    acc.drain(..nl + 1);
                    out.push(Cmd::Error(b"ERROR\n"));
                }
            },
            ["GET", key] => {
                acc.drain(..nl + 1);
                out.push(Cmd::Get {
                    key: key.to_string(),
                });
            }
            _ => {
                acc.drain(..nl + 1);
                out.push(Cmd::Error(b"ERROR\n"));
            }
        }
    }
}

/// The server's store: key → (ghost address, length). The map itself is
/// allocator metadata (host-side, like [`Heap`]'s free list); the value
/// bytes live in simulated ghost pages.
struct Store {
    heap: Heap,
    index: HashMap<String, (u64, usize)>,
}

impl Store {
    fn set(&mut self, env: &mut UserEnv, key: String, value: &[u8]) {
        if let Some((va, _)) = self.index.remove(&key) {
            self.heap.free(va);
        }
        let va = self.heap.malloc(env, value.len() as u64);
        env.write_mem(va, value); // traditional rx staging -> ghost heap
        self.index.insert(key, (va, value.len()));
    }

    /// Stages the response for `key` at `slot_va`; returns its length.
    fn get_into(&self, env: &mut UserEnv, key: &str, slot_va: u64) -> usize {
        match self.index.get(key) {
            Some(&(va, len)) => {
                let header = format!("VALUE {len}\n").into_bytes();
                let value = env.read_mem(va, len); // ghost heap -> staging
                let mut resp = header;
                resp.extend_from_slice(&value);
                env.write_mem(slot_va, &resp);
                resp.len()
            }
            None => {
                env.write_mem(slot_va, b"MISS\n");
                5
            }
        }
    }
}

/// Event-loop body: accept burst, poll, readv, serve, one writev per
/// connection per round. Returns commands served.
pub(crate) fn serve_kv(env: &mut UserEnv, listen_fd: i64, lat: &mut Vec<u64>, t0: u64) -> u64 {
    let ghost = env.sys.procs[&env.pid].ghosting;
    let heap = Heap::new(env, ghost);
    let mut store = Store {
        heap,
        index: HashMap::new(),
    };
    let rxbuf = env.mmap_anon(8192);
    let iov_va = env.mmap_anon(4096);
    let scratch = env.mmap_anon(64 * 4096); // pollfd table
    let staging = env.mmap_anon(SLOTS * SLOT as usize); // response slots, reused per batch
    let mut conns: Vec<i64> = Vec::new();
    let mut bufs: Vec<Input> = Vec::new();
    let mut eof: Vec<bool> = Vec::new();
    let mut served = 0u64;
    loop {
        loop {
            let c = env.accept(listen_fd);
            if c < 0 {
                break;
            }
            conns.push(c);
            bufs.push(Input::default());
            eof.push(false);
        }
        if conns.is_empty() {
            break;
        }
        let (_ready, events) = env.poll(scratch, &conns);
        for i in 0..conns.len() {
            const POLLIN: u64 = 0x1;
            const POLLHUP: u64 = 0x2;
            if events[i] & POLLIN == 0 {
                if events[i] & POLLHUP != 0 {
                    eof[i] = true;
                }
                continue;
            }
            loop {
                let r = env.readv(conns[i], iov_va, &[(rxbuf, 8192)]);
                if r == EAGAIN {
                    break;
                }
                if r <= 0 {
                    eof[i] = true;
                    break;
                }
                bufs[i].acc.extend(env.read_mem(rxbuf, r as usize));
                if (r as usize) < 8192 {
                    break;
                }
            }
            let mut cmds = drain_commands(&mut bufs[i]).into_iter().peekable();
            while cmds.peek().is_some() {
                let mut iovs: Vec<(u64, usize)> = Vec::with_capacity(cmds.len().min(SLOTS));
                for (slot, cmd) in cmds.by_ref().take(SLOTS).enumerate() {
                    let slot_va = staging + slot as u64 * SLOT;
                    let len = match cmd {
                        Cmd::Set { key, value } => {
                            store.set(env, key, &value);
                            env.write_mem(slot_va, b"OK\n");
                            3
                        }
                        Cmd::Get { key } => store.get_into(env, &key, slot_va),
                        Cmd::Error(reply) => {
                            env.write_mem(slot_va, reply);
                            reply.len()
                        }
                    };
                    iovs.push((slot_va, len));
                }
                let expect: i64 = iovs.iter().map(|&(_, l)| l as i64).sum();
                let n = iovs.len() as u64;
                assert_eq!(env.writev(conns[i], iov_va, &iovs), expect);
                served += n;
                let now = env.sys.machine.clock.cycles() - t0;
                for _ in 0..n {
                    env.sys.machine.metrics.observe("kv.request_cycles", now);
                    lat.push(now);
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            // Complete commands were served above, so what is left at EOF
            // is a truncated command the client can never finish.
            if eof[i] {
                env.close(conns[i]);
                conns.swap_remove(i);
                bufs.swap_remove(i);
                eof.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    served
}

/// The client command train for one connection: `pairs` SETs of distinct
/// keys followed by `pairs` GETs reading them back.
pub(crate) fn command_train(conn: usize, pairs: u32, value_size: usize) -> (Vec<u8>, Vec<u8>) {
    let mut train = Vec::new();
    let mut expected = Vec::new();
    for p in 0..pairs {
        let value = kv_value(conn, p, value_size);
        train.extend_from_slice(format!("SET k{conn}-{p} {}\n", value.len()).as_bytes());
        train.extend_from_slice(&value);
        expected.extend_from_slice(b"OK\n");
    }
    for p in 0..pairs {
        let value = kv_value(conn, p, value_size);
        train.extend_from_slice(format!("GET k{conn}-{p}\n").as_bytes());
        expected.extend_from_slice(format!("VALUE {}\n", value.len()).as_bytes());
        expected.extend_from_slice(&value);
    }
    (train, expected)
}

/// Deterministic per-key value bytes.
fn kv_value(conn: usize, pair: u32, value_size: usize) -> Vec<u8> {
    (0..value_size)
        .map(|i| ((conn * 131 + pair as usize * 17 + i) % 251) as u8)
        .collect()
}

/// Result of one ghostkv load run (same shape as
/// [`thttpd::C10kBench`]).
pub type KvBench = thttpd::C10kBench;

/// Drives `conns` pipelined connections, each issuing `pairs` SETs then
/// `pairs` GETs of `value_size`-byte values, against the event-loop server
/// under whatever [`NetMode`](vg_kernel::NetMode) is set on `sys`. Verifies
/// every connection's response bytes, then reports throughput and latency.
pub fn kv_load(sys: &mut System, value_size: usize, conns: u32, pairs: u32) -> KvBench {
    let mut flows = Vec::with_capacity(conns as usize);
    let mut expected = Vec::with_capacity(conns as usize);
    for c in 0..conns as usize {
        let (train, expect) = command_train(c, pairs, value_size);
        let flow = sys.wire_connect(KV_PORT).expect("wire connect");
        sys.wire_send(flow, &train);
        sys.wire_close(flow);
        flows.push(flow);
        expected.push(expect);
    }

    let cpu = Rc::new(Cell::new(0u64));
    let wire = Rc::new(Cell::new(0u64));
    let served = Rc::new(Cell::new(0u64));
    let lats: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let (c2, w2, s2, l2) = (cpu.clone(), wire.clone(), served.clone(), lats.clone());
    sys.install_app("ghostkv", true, move || {
        let (c, w, s, l) = (c2.clone(), w2.clone(), s2.clone(), l2.clone());
        Box::new(move |env| {
            let sock = env.socket();
            env.bind(sock, KV_PORT);
            env.listen(sock);
            let t0 = env.sys.machine.clock.cycles();
            let w0 = env.sys.machine.nic_time.cycles();
            let mut lat = Vec::new();
            let n = serve_kv(env, sock, &mut lat, t0);
            s.set(n);
            c.set(env.sys.machine.clock.cycles() - t0);
            w.set(env.sys.machine.nic_time.cycles() - w0);
            *l.borrow_mut() = lat;
            0
        })
    });
    let pid = sys.spawn("ghostkv");
    sys.run_until_exit(pid);
    let ops = conns as u64 * pairs as u64 * 2;
    assert_eq!(served.get(), ops, "all pipelined commands served");
    let mut sent = sys.wire_recv_all();
    for (i, flow) in flows.iter().enumerate() {
        assert_eq!(
            sent.remove(flow).unwrap_or_default(),
            expected[i],
            "connection {i} response bytes"
        );
    }

    let mut lat = lats.borrow().clone();
    lat.sort_unstable();
    KvBench {
        conns,
        reqs_per_conn: pairs * 2,
        file_size: value_size,
        requests: served.get(),
        cpu_cycles: cpu.get(),
        wire_cycles: wire.get(),
        req_per_megacycle: served.get() as f64 / (cpu.get() as f64 / 1e6),
        p50_cycles: thttpd::percentile(&lat, 50),
        p99_cycles: thttpd::percentile(&lat, 99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::{Mode, NetMode};

    /// Serves one connection carrying `input` then EOF; returns the bytes
    /// sent back and the number of commands answered.
    fn serve_one(input: &[u8]) -> (Vec<u8>, u64) {
        let mut sys = System::boot(Mode::VirtualGhost);
        let flow = sys.wire_connect(KV_PORT).unwrap();
        sys.wire_send(flow, input);
        sys.wire_close(flow);
        let served = Rc::new(Cell::new(0));
        let s2 = served.clone();
        sys.install_app("ghostkv", true, move || {
            let s = s2.clone();
            Box::new(move |env| {
                let sock = env.socket();
                env.bind(sock, KV_PORT);
                env.listen(sock);
                s.set(serve_kv(env, sock, &mut Vec::new(), 0));
                0
            })
        });
        let pid = sys.spawn("ghostkv");
        assert_eq!(sys.run_until_exit(pid), 0);
        (sys.wire_recv(flow), served.get())
    }

    #[test]
    fn sets_and_gets_roundtrip_with_miss() {
        let (out, n) = serve_one(b"SET a 3\nxyzGET a\nGET nope\n");
        assert_eq!(out, b"OK\nVALUE 3\nxyzMISS\n".to_vec());
        assert_eq!(n, 3);
    }

    #[test]
    fn malformed_lines_get_error_and_are_dropped() {
        let (out, n) = serve_one(b"SET a 1\nxFLUSH\n\nGET\nGET a\n");
        assert_eq!(out, b"OK\nERROR\nERROR\nERROR\nVALUE 1\nx".to_vec());
        assert_eq!(n, 5);
    }

    #[test]
    fn bad_set_length_gets_error() {
        let (out, _) = serve_one(b"SET a -3\nSET b lots\nSET c 2\nhiGET c\n");
        assert_eq!(out, b"ERROR\nERROR\nOK\nVALUE 2\nhi".to_vec());
    }

    #[test]
    fn oversized_set_gets_server_error_and_its_payload_is_discarded() {
        // The payload spans several packets and readv rounds, and looks
        // like commands; none of it may be parsed.
        let big = MAX_VALUE + 5000;
        let mut input = format!("SET big {big}\n").into_bytes();
        input.extend(b"GET x\n".iter().cycle().take(big));
        input.extend_from_slice(b"GET big\nSET s 1\nzGET s\n");
        let (out, n) = serve_one(&input);
        assert_eq!(out, b"SERVER_ERROR\nMISS\nOK\nVALUE 1\nz".to_vec());
        assert_eq!(n, 4);
    }

    #[test]
    fn truncated_command_at_eof_is_dropped() {
        let (out, n) = serve_one(b"SET a 1\nxGET a\nSET b 10\nabc");
        assert_eq!(out, b"OK\nVALUE 1\nx".to_vec());
        assert_eq!(n, 2);
        let (out, _) = serve_one(b"GET a");
        assert!(out.is_empty());
    }

    #[test]
    fn replies_beyond_the_staging_slots_go_out_in_further_batches() {
        let lines = SLOTS * 2 + 7;
        let (out, n) = serve_one(&b"?\n".repeat(lines));
        assert_eq!(out, b"ERROR\n".repeat(lines));
        assert_eq!(n, lines as u64);
    }

    #[test]
    fn empty_burst_reports_zero_percentiles() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let b = kv_load(&mut sys, 64, 0, 4);
        assert_eq!(b.requests, 0);
        assert_eq!((b.p50_cycles, b.p99_cycles), (0, 0));
    }

    #[test]
    fn values_live_in_ghost_frames() {
        // The point of the app: after a load, the store's value pages are
        // ghost memory — unreadable by the kernel, un-DMA-able by the ring.
        let mut sys = System::boot(Mode::VirtualGhost);
        kv_load(&mut sys, 64, 4, 2);
        assert!(
            sys.machine.counters.ghost_pages_allocated > 0,
            "value heap drew ghost pages"
        );
    }

    #[test]
    fn ring_and_reference_modes_serve_identical_bytes() {
        // kv_load itself verifies full response bytes per connection; run
        // it under both data planes and compare the cost books.
        let mut ring = System::boot(Mode::VirtualGhost);
        ring.net_mode = NetMode::Ring;
        let r = kv_load(&mut ring, 128, 16, 4);
        let mut refer = System::boot(Mode::VirtualGhost);
        refer.net_mode = NetMode::Reference;
        let f = kv_load(&mut refer, 128, 16, 4);
        assert_eq!(r.requests, f.requests);
        assert_eq!(
            ring.machine.counters.packets,
            refer.machine.counters.packets
        );
        assert!(
            r.req_per_megacycle > f.req_per_megacycle,
            "ring {} vs reference {}",
            r.req_per_megacycle,
            f.req_per_megacycle
        );
    }
}
