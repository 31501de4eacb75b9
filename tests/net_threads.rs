//! Helper-thread hygiene of veil-net's node runtime, alone in its test
//! binary so that no other test's threads are in the count.
//!
//! A node runs an acceptor thread, one reader thread per live connection
//! and (with a metrics port) a second acceptor. `run_node_with` promises
//! that all of them have exited and been joined, and both listeners are
//! closed, when it returns.

use std::net::TcpListener;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use veil_net::{run_node_with, NetScenario, NodeOptions};

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Threads of this process, as the kernel counts them.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

/// (b) Several 2-node runs in this process, one after the other, leave
/// exactly the threads they found, and their ports free to bind again.
#[test]
fn sequential_runs_leave_no_thread_and_no_listener_behind() {
    let before = live_threads();
    for round in 0..3 {
        let ports = free_ports(4);
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock after 1970")
            .as_millis() as u64;
        let sc = NetScenario {
            nodes: 2,
            seed: 3 + round,
            horizon: 4.0,
            period_ms: 40,
            loss: 0.0,
            ports: ports[..2].to_vec(),
            start_at_ms: now_ms + 200,
        };
        let nodes: Vec<_> = (0..2u32)
            .map(|id| {
                let sc = sc.clone();
                let opts = NodeOptions {
                    telemetry: true,
                    metrics_port: Some(ports[2 + id as usize]),
                };
                std::thread::spawn(move || run_node_with(&sc, id, &opts).expect("node runs"))
            })
            .collect();
        for node in nodes {
            let out = node.join().expect("node thread");
            assert_eq!(out.summary.shuffles_completed, 4, "{:?}", out.summary);
        }
        for port in ports {
            TcpListener::bind(("127.0.0.1", port))
                .unwrap_or_else(|e| panic!("round {round}: port {port} is still held: {e}"));
        }
    }
    // A joined thread has finished, but the kernel drops its entry from
    // procfs a moment after it wakes the joiner: wait for the count to
    // settle rather than for a fixed time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(live_threads(), before, "helper threads outlived their runs");
}
