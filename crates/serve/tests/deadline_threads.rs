//! Under a compute deadline, a plan cache hit is answered on the
//! connection worker: no helper thread is spawned for it. A sampler reads
//! the process's thread count (`/proc/self/status` `Threads`) while 50
//! hits are served. A helper thread lives only while its hit is answered,
//! so one sample may miss it, but 50 hits spawning one each were caught in
//! 5 of 6 runs on a 2-core host. This file holds one test, so no other
//! test's threads come and go.

use mule_serve::http::{read_response, write_request, ClientResponse};
use mule_serve::ServerConfig;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The `Threads` line of `/proc/self/status`, or `None` off Linux.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn a_cache_hit_under_a_deadline_spawns_no_thread() {
    if threads().is_none() {
        return;
    }
    let server = mule_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        deadline: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    })
    .expect("server start");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut post = |body: &[u8]| -> ClientResponse {
        write_request(&mut writer, "POST", "/v1/plan", body, true).expect("write request");
        read_response(&mut reader).expect("read response")
    };
    let body = br#"{"targets": 8, "mules": 3, "seed": 4}"#;

    // The miss computes on a helper thread, which exits once it has
    // handed over the bytes. The pause lets it go before the first
    // sample, which it would otherwise count in place of a hit's helper.
    let miss = post(body);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("miss"));
    std::thread::sleep(Duration::from_millis(200));

    // The sampler counts itself in every reading, the first included.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let first = threads().unwrap();
            let mut most = first;
            while !stop.load(Ordering::Relaxed) {
                most = most.max(threads().unwrap());
            }
            (first, most)
        })
    };
    for _ in 0..50 {
        let hit = post(body);
        assert_eq!(hit.status, 200);
        assert_eq!(hit.header("x-cache"), Some("hit"));
        assert_eq!(hit.body, miss.body);
    }
    stop.store(true, Ordering::Relaxed);
    let (before, most) = sampler.join().unwrap();
    assert_eq!(most, before, "threads while serving hits");
    server.shutdown();
}
