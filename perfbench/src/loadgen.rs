//! Open-loop request generator.
//!
//! Requests are due on a fixed schedule (`rate` per second, shared
//! round-robin by [`THREADS`] threads with one connection each) whatever
//! the server does. Each request is timed from when it was due, so a
//! stall also charges the requests that queued up behind it. A
//! connection carries one request at a time, so a request that is due
//! while the previous answer is outstanding is sent as soon as that
//! answer arrives; the wait still counts against it. The generator's own
//! lateness is the time from when a request could be sent (due, and the
//! connection free) to when it was sent.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::checks::{Failure, Outcome};

/// Generator threads, each with one connection.
pub const THREADS: usize = 2;

/// A request without an answer after this long counts as timed out, and
/// its connection is replaced.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a (re)connect may take before the run stalls.
const CONNECT_DEADLINE: Duration = Duration::from_secs(5);

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `{"ok":true…`, equal to the expected answer where one is given.
    Ok,
    /// `{"ok":true…` but different from the expected answer.
    Mismatch,
    /// `{"ok":false…`: the server answered with an error.
    Error,
    /// The server refused the connection at its in-flight cap.
    Busy,
    /// A line that is none of the above.
    Malformed,
    /// No answer within [`REQUEST_TIMEOUT`].
    Timeout,
    /// The connection failed or closed before the answer.
    Broken,
}

impl Reply {
    /// True when a reply line arrived.
    pub fn answered(self) -> bool {
        !matches!(self, Reply::Timeout | Reply::Broken)
    }
}

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the request line.
    pub req: u16,
    pub due: Instant,
    /// When the request could first be sent: due, and the connection free.
    pub ready: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Reply,
}

impl Sample {
    /// Latency from the due time in µs; a request without a correct
    /// answer misses every limit, so it reads as infinite.
    pub fn latency_us(&self) -> f64 {
        match self.reply {
            Reply::Ok | Reply::Mismatch => us(self.done - self.due),
            _ => f64::INFINITY,
        }
    }

    /// The generator's own lateness in µs.
    pub fn late_us(&self) -> f64 {
        us(self.sent.saturating_duration_since(self.ready))
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One open-loop phase.
pub struct Schedule<'a> {
    pub addr: SocketAddr,
    /// Distinct request lines, each ending in `\n`.
    pub lines: &'a [String],
    /// The offline answer to each request line (no newline), when the
    /// served answers must match it byte for byte.
    pub expect: Option<&'a [String]>,
    /// Request line index of each slot, cycled.
    pub seq: &'a [u16],
    /// Requests per second over all threads.
    pub rate: f64,
    /// Due time of slot 0.
    pub start: Instant,
    /// Number of requests.
    pub slots: usize,
}

/// Run the schedule on [`THREADS`] threads while the calling thread runs
/// `during`; returns every request's sample and `during`'s result.
pub fn run<T>(sched: &Schedule, during: impl FnOnce() -> Outcome<T>) -> Outcome<(Vec<Sample>, T)> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || drive(sched, t)))
            .collect();
        let side = during();
        let mut samples = Vec::with_capacity(sched.slots);
        for w in workers {
            samples.extend(w.join().expect("load generator thread panicked")?);
        }
        samples.sort_by_key(|x| x.due);
        Ok((samples, side?))
    })
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: SocketAddr) -> Outcome<Conn> {
    let t0 = Instant::now();
    loop {
        let attempt = TcpStream::connect_timeout(&addr, CONNECT_DEADLINE).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            Ok(Conn {
                writer: s.try_clone()?,
                reader: BufReader::new(s),
            })
        });
        match attempt {
            Ok(c) => return Ok(c),
            Err(_) if t0.elapsed() < CONNECT_DEADLINE => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                return Err(Failure::Stalled {
                    step: format!("loadgen.connect {addr}"),
                    waited: t0.elapsed(),
                })
            }
        }
    }
}

/// Send one request line and classify the answer.
fn exchange(conn: &mut Conn, line: &str, expect: Option<&str>, buf: &mut String) -> Reply {
    if conn.writer.write_all(line.as_bytes()).is_err() {
        return Reply::Broken;
    }
    buf.clear();
    match conn.reader.read_line(buf) {
        Ok(0) => Reply::Broken,
        Ok(_) => {
            let got = buf.trim_end_matches('\n');
            if got.starts_with(r#"{"ok":true"#) {
                match expect {
                    Some(want) if want != got => Reply::Mismatch,
                    _ => Reply::Ok,
                }
            } else if got.contains(r#""busy":true"#) {
                Reply::Busy
            } else if got.starts_with(r#"{"ok":false"#) {
                Reply::Error
            } else {
                Reply::Malformed
            }
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Reply::Timeout,
        Err(_) => Reply::Broken,
    }
}

fn drive(sched: &Schedule, thread: usize) -> Outcome<Vec<Sample>> {
    tighten_timer_slack();
    let mut conn = connect(sched.addr)?;
    let period = Duration::from_secs_f64(1.0 / sched.rate);
    let mut out = Vec::with_capacity(sched.slots / THREADS + 1);
    let mut buf = String::new();
    let mut free_at = sched.start;
    for k in (thread..sched.slots).step_by(THREADS) {
        let req = sched.seq[k % sched.seq.len()];
        let due = sched.start + period.mul_f64(k as f64);
        sleep_until(due);
        let ready = due.max(free_at);
        let sent = Instant::now();
        let expect = sched.expect.map(|e| e[usize::from(req)].as_str());
        let reply = exchange(&mut conn, &sched.lines[usize::from(req)], expect, &mut buf);
        let done = Instant::now();
        free_at = done;
        if !matches!(reply, Reply::Ok | Reply::Mismatch | Reply::Error) {
            // The stream is closed or out of step with its requests.
            conn = connect(sched.addr)?;
        }
        out.push(Sample {
            req,
            due,
            ready,
            sent,
            done,
            reply,
        });
    }
    Ok(out)
}

/// Sleep until `t` (no-op if it has passed).
pub fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Ask the kernel to wake this thread's sleeps on time. The default
/// 50 µs timer slack would otherwise be added to every request's
/// latency, since each request is sent after a sleep to its due time.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        // A failure leaves the default slack, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// Send one request on a fresh connection and return the answer line
/// (no newline); used outside the timed phases.
pub fn ask(addr: SocketAddr, line: &str) -> Outcome<String> {
    let mut conn = connect(addr)?;
    let mut buf = String::new();
    match exchange(&mut conn, line, None, &mut buf) {
        Reply::Ok => Ok(buf.trim_end_matches('\n').to_string()),
        other => Err(Failure::Error {
            step: format!("ask {}", line.trim_end()),
            detail: format!("{other:?}: {}", buf.trim_end()),
        }),
    }
}
