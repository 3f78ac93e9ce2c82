//! The open-loop serve load generator: requests go out at their due
//! times over a fixed set of connections from one process, whether or not
//! earlier replies are back, and each latency runs from the request's due
//! time — so a stall shows in every request due while it lasts. Like a
//! connection pool, each request goes to the connection with the fewest
//! replies outstanding; a busy connection queues (pipelines) it.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::proc::Conn;

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index into the phase's schedule.
    pub index: usize,
    /// How late the generator wrote the request.
    pub lateness: Duration,
    /// From the due time to the complete reply.
    pub latency: Duration,
    /// The reply line, or why there is none.
    pub reply: Result<String, String>,
}

/// Sends `lines[k]` at `origin + due[k]` and collects every reply. A
/// connection that fails yields an `Err` reply for each request it held;
/// only healthy connections are handed back.
#[must_use]
pub fn run(conns: Vec<Conn>, due: &[Duration], lines: &[&str]) -> (Vec<Sent>, Vec<Conn>) {
    assert_eq!(due.len(), lines.len());
    let outstanding: Vec<AtomicUsize> = conns.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut sent: Vec<Sent> = (0..due.len())
        .map(|index| Sent {
            index,
            lateness: Duration::ZERO,
            latency: Duration::ZERO,
            reply: Err("never sent".to_owned()),
        })
        .collect();
    let mut back = Vec::with_capacity(conns.len());
    let origin = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let mut writers = Vec::with_capacity(conns.len());
        let mut queues = Vec::with_capacity(conns.len());
        let mut readers = Vec::with_capacity(conns.len());
        for (c, conn) in conns.into_iter().enumerate() {
            let (writer, mut reader) = conn.split();
            let (queue, held) = mpsc::channel::<usize>();
            let outstanding = &outstanding;
            writers.push(Some(writer));
            queues.push(queue);
            readers.push(scope.spawn(move || {
                // Replies come back in the order requests were written.
                let mut got = Vec::new();
                let mut healthy = true;
                for k in held {
                    let mut line = String::new();
                    let reply = if healthy {
                        match reader.read_line(&mut line) {
                            Ok(0) => Err("connection closed".to_owned()),
                            Ok(_) => {
                                line.truncate(line.trim_end_matches('\n').len());
                                Ok(line)
                            }
                            Err(e) => Err(format!("recv: {e}")),
                        }
                    } else {
                        Err("connection failed earlier".to_owned())
                    };
                    healthy &= reply.is_ok();
                    got.push((k, Instant::now(), reply));
                    outstanding[c].fetch_sub(1, Ordering::Relaxed);
                }
                (got, healthy.then_some(reader))
            }));
        }
        for (k, line) in lines.iter().enumerate() {
            let at = origin + due[k];
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let c = (0..writers.len())
                .filter(|&c| writers[c].is_some())
                .min_by_key(|&c| outstanding[c].load(Ordering::Relaxed));
            let Some(c) = c else {
                sent[k].reply = Err("no healthy connection".to_owned());
                continue;
            };
            let wrote = Instant::now();
            sent[k].lateness = wrote.saturating_duration_since(at);
            outstanding[c].fetch_add(1, Ordering::Relaxed);
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            let writer = writers[c].as_mut().expect("filtered to healthy writers");
            match writer.write_all(&buf) {
                Ok(()) => queues[c].send(k).expect("reader outlives the dispatcher"),
                Err(e) => {
                    outstanding[c].fetch_sub(1, Ordering::Relaxed);
                    sent[k].reply = Err(format!("send: {e}"));
                    writers[c] = None;
                }
            }
        }
        drop(queues);
        for (writer, reader) in writers.into_iter().zip(readers) {
            let (got, reader) = reader.join().expect("reader thread");
            for (k, at, reply) in got {
                sent[k].latency = at.saturating_duration_since(origin + due[k]);
                sent[k].reply = reply;
            }
            if let (Some(writer), Some(reader)) = (writer, reader) {
                back.push(Conn::from_halves(writer, reader));
            }
        }
    });
    (sent, back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;

    /// A stand-in server: answers every line with `ok`, except that it
    /// stalls for `stall` before answering the line `stall_at`.
    fn fake_server(path: &std::path::Path, stall_at: String, stall: Duration) {
        let listener = UnixListener::bind(path).expect("bind");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { return };
                if line == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = if line.contains("ping") { "pong" } else { "ok" };
                if writeln!(writer, "{reply}").is_err() {
                    return;
                }
            }
        });
    }

    #[test]
    fn a_stall_shows_in_every_request_due_during_it() {
        let dir = std::env::temp_dir().join(format!("perfbench-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("fake.sock");
        let _ = std::fs::remove_file(&socket);
        let stall = Duration::from_millis(200);
        // 100 requests 5 ms apart; the server stalls on request 40.
        let lines: Vec<String> = (0..100).map(|k| format!("req{k}")).collect();
        fake_server(&socket, lines[40].clone(), stall);
        let due: Vec<Duration> = (0..100).map(|k| Duration::from_millis(5 * k)).collect();
        let conn = Conn::connect(&socket).expect("connect");
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (sent, _) = run(vec![conn], &due, &refs);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(sent.len(), 100);
        assert!(sent.iter().all(|s| s.reply.as_deref() == Ok("ok")));
        // Before the stall, replies are quick.
        assert!(sent[..40]
            .iter()
            .all(|s| s.latency < Duration::from_millis(100)));
        // Request k (40 ≤ k < 80) is due 5·(k−40) ms into the stall, so
        // it waits at least the rest of the stall.
        for s in &sent[40..80] {
            let into_stall = Duration::from_millis(5 * (s.index as u64 - 40));
            assert!(
                s.latency + into_stall >= stall,
                "request {} latency {:?}",
                s.index,
                s.latency
            );
        }
    }
}
