//! Runs one command and reports its wall time, exit code and peak RSS,
//! with the time of a fixed reference kernel run right after it.
//!
//! Usage: `perfbench-launch <stdout-file> <stderr-file> <timeout-s> <program> [args…]`.
//! Prints `<wall_ns> <exit_code> <maxrss_kib> <reference_ns>` on one line; a
//! command killed by a signal reports `-<signal>`, and one still running
//! after the timeout is killed.
//!
//! Why a reference kernel: the shared hosts this benchmark runs on change
//! speed for minutes at a time, by up to half, with no steal time to show
//! for it. The reference does the same fixed graph work on every call, so
//! `run.py` can divide each command's wall by it and report times at one
//! host speed. It lives here, not in the program, so no change to the
//! program can move it.
//!
//! Why a native launcher: on Linux a child's `ru_maxrss` starts from the
//! resident size of the process that forked it, so a command forked from
//! the Python driver would report the driver's heap as its own peak. Forked
//! from this small process, the figure is the command's.

use std::fs::File;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// The reference kernel: builds the adjacency lists of a fixed random
/// multigraph (2^15 nodes, 2^18 edges) and runs four BFS passes over it,
/// the allocation, scatter and pointer-chasing mix of the program's
/// solvers. About 8-20 ms on a 2-vCPU VM, depending on the host's speed.
fn reference() -> u64 {
    const N: usize = 1 << 15;
    const M: usize = 1 << 18;
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let edges: Vec<(u32, u32)> = (0..M)
        .map(|_| {
            let r = next();
            ((r % N as u64) as u32, ((r >> 32) % N as u64) as u32)
        })
        .collect();
    let mut start = vec![0usize; N + 1];
    for &(u, v) in &edges {
        start[u as usize + 1] += 1;
        start[v as usize + 1] += 1;
    }
    for i in 0..N {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut adj = vec![0u32; 2 * M];
    for &(u, v) in &edges {
        adj[fill[u as usize]] = v;
        fill[u as usize] += 1;
        adj[fill[v as usize]] = u;
        fill[v as usize] += 1;
    }
    let mut sum = 0u64;
    let mut dist = vec![u32::MAX; N];
    let mut queue = Vec::with_capacity(N);
    for root in 0..4u32 {
        dist.fill(u32::MAX);
        dist[root as usize] = 0;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let u = u as usize;
            for &v in &adj[start[u]..start[u + 1]] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u] + 1;
                    queue.push(v);
                }
            }
        }
        sum += dist.iter().map(|&d| u64::from(d)).sum::<u64>();
    }
    sum
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out, err, timeout, program, rest @ ..] = args.as_slice() else {
        return Err(
            "usage: perfbench-launch <stdout> <stderr> <timeout-s> <program> [args…]".into(),
        );
    };
    let timeout: u64 = timeout.parse().map_err(|e| format!("bad timeout: {e}"))?;
    let stdout = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let stderr = File::create(err).map_err(|e| format!("cannot create {err}: {e}"))?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::from(stderr))
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    // The watchdog only ever signals `pid`, which stays unreaped (so cannot
    // be reused) until the `wait4` below returns; the process exits right
    // after, taking the sleeping thread with it.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(timeout));
        // SAFETY: `kill` takes plain integers and touches no memory.
        unsafe { kill(pid, SIGKILL) };
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both pointers are to live, writable locals of the layout the
    // kernel fills (`int` status and 64-bit Linux `struct rusage`).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    if reaped != pid {
        return Err(format!("wait4 failed for pid {pid}"));
    }
    // After the command, not before: a forked child's peak RSS starts from
    // this process's resident size, which the reference's buffers raise.
    let reference_start = Instant::now();
    black_box(reference());
    let reference_ns = reference_start.elapsed().as_nanos();
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok(format!(
        "{} {code} {} {reference_ns}",
        wall.as_nanos(),
        usage.maxrss
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-launch: {e}");
            ExitCode::FAILURE
        }
    }
}
