//! The `soc-serve` process and the closed-loop socket clients that
//! drive it.

use crate::calm::settle_calm;
use crate::gate::Digester;
use soctest_multisite::service::{ServerFrame, ServerStats};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Executor workers of every benchmarked server; every other cap keeps
/// its default.
pub const EXECUTORS: &str = "2";

/// The flags a server of this run is started with (besides `--listen`).
pub const SERVER_FLAGS: [&str; 2] = ["--executors", EXECUTORS];

/// A running `soc-serve --listen` process.
pub struct ServerProc {
    child: Child,
    stderr: BufReader<ChildStderr>,
    socket: PathBuf,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening on` line, then,
    /// untimed, for the `Bye` of an empty probe connection: the server
    /// installs its drain signal handler after that line, and a SIGTERM
    /// sent before the handler would kill it. Returns the process and
    /// the time from spawn to the `listening on` line.
    pub fn start(binary: &Path, socket: &Path) -> io::Result<(ServerProc, Duration)> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("--listen")
            .arg(socket)
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = ServerProc {
            child,
            stderr,
            socket: socket.to_path_buf(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stderr.read_line(&mut line)? == 0 {
                let _ = server.child.wait();
                return Err(io::Error::other("soc-serve exited before listening"));
            }
            if line.starts_with("listening on") {
                let ready = started.elapsed();
                Conn::connect(socket)?.close()?;
                return Ok((server, ready));
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends SIGTERM, waits for the drain to finish and returns the
    /// server's remaining stderr.
    pub fn stop(&mut self) -> io::Result<String> {
        extern "C" {
            fn kill(pid: i32, signal: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // which has not been waited for, so the id cannot be reused.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            self.child.kill()?;
        }
        let status = self.child.wait()?;
        let mut rest = String::new();
        io::Read::read_to_string(&mut self.stderr, &mut rest)?;
        let _ = std::fs::remove_file(&self.socket);
        if !status.success() {
            return Err(io::Error::other(format!(
                "soc-serve exited with {status}: {rest}"
            )));
        }
        Ok(rest)
    }
}

/// A server still running when the run bails out early is killed, so
/// no process outlives the benchmark.
impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// One client connection with at most one request outstanding.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Sends one frame line and reads the one reply line into `reply`.
    pub fn call(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ));
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(())
    }

    /// Half-closes the connection and returns the server's `Bye`.
    pub fn close(self) -> io::Result<ServerStats> {
        self.writer.shutdown(std::net::Shutdown::Write)?;
        for line in self.reader.lines() {
            if let Ok(ServerFrame::Bye(stats)) = serde_json::from_str::<ServerFrame>(&line?) {
                return Ok(stats);
            }
        }
        Err(io::Error::other("connection closed without a Bye frame"))
    }
}

/// One request handed to a client: its ordinal in the run, wire id and
/// rendered frame.
pub struct Draw {
    pub index: usize,
    pub id: String,
    pub line: String,
}

/// What the client recorded about one request.
#[derive(Debug)]
pub struct Outcome {
    pub index: usize,
    pub latency_ns: u64,
    /// When the reply arrived, from the start of the phase.
    pub done_ns: u64,
    /// `Some((warm, cached))` when the reply was a `Result` for this
    /// request; `None` for an `Error` frame, a foreign frame or a
    /// missing reply.
    pub flags: Option<(bool, bool)>,
    /// The reply's length and digest, kept for the correctness gate;
    /// `None` when no reply arrived.
    pub kept: Option<Digest>,
    /// Set by the correctness gate when the reply differs.
    pub mismatch: bool,
}

/// A reply's length and keyed 64-bit digest: what the correctness gate
/// compares, so a run's replies need not stay in memory.
pub type Digest = (usize, u64);

/// When a closed-loop phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After exactly this many requests.
    Count(usize),
    /// Once `seconds` have passed and at least `min_calm` calm replies
    /// (see [`crate::calm`]) arrived, or unconditionally after `cap`.
    Timed {
        seconds: Duration,
        min_calm: usize,
        cap: Duration,
    },
}

/// Hypervisor steal ticks (`/proc/stat`, all CPUs) at one moment of a
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct StealSample {
    pub at_ns: u64,
    pub ticks: u64,
}

/// How often the steal counter is sampled during a phase.
const STEAL_PERIOD: Duration = Duration::from_millis(10);

/// How often, in steal samples, a timed phase counts its calm replies.
const CALM_COUNT_EVERY: usize = 25;

/// The machine's steal counter (`/proc/stat`, all CPUs, in 10 ms ticks);
/// `None` where there is none.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The result of one closed-loop phase.
pub struct Phase {
    /// Sorted by request index.
    pub outcomes: Vec<Outcome>,
    /// The steal counter through the phase; empty where `/proc/stat`
    /// has none.
    pub steal: Vec<StealSample>,
}

/// Drives every connection closed-loop on its own thread: take the next
/// draw, send it, wait for the reply, keep its digest, repeat until
/// `stop`. `counted` sees the running reply count after every reply.
pub fn drive(
    conns: &mut [Conn],
    next: &(dyn Fn() -> Draw + Sync),
    digester: &Digester,
    counted: &(dyn Fn(usize) + Sync),
    stop: Stop,
) -> Phase {
    let started = Instant::now();
    let replies = AtomicUsize::new(0);
    let issued = AtomicUsize::new(0);
    let enough_calm = AtomicBool::new(false);
    let outcomes = Mutex::new(Vec::new());
    let clients = conns.len();
    let clients_done = AtomicUsize::new(0);
    let steal = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            let mut round = 0;
            // Replies not yet settled, as `(sent, done)`, and how many
            // of the outcomes have been taken into account.
            let mut pending = Vec::new();
            let mut taken = 0;
            let mut calm = 0;
            while clients_done.load(Ordering::SeqCst) < clients {
                if let Some(ticks) = steal_ticks() {
                    samples.push(StealSample {
                        at_ns: nanos(started.elapsed()),
                        ticks,
                    });
                }
                round += 1;
                if let Stop::Timed { min_calm, .. } = stop {
                    if round % CALM_COUNT_EVERY == 0 {
                        {
                            let outcomes = outcomes.lock().expect("no client panicked");
                            pending.extend(
                                outcomes[taken..]
                                    .iter()
                                    .map(|o: &Outcome| (o.done_ns - o.latency_ns, o.done_ns)),
                            );
                            taken = outcomes.len();
                        }
                        calm += settle_calm(&mut pending, &samples);
                        if calm >= min_calm {
                            enough_calm.store(true, Ordering::SeqCst);
                        }
                    }
                }
                std::thread::sleep(STEAL_PERIOD);
            }
            samples
        });
        for conn in conns.iter_mut() {
            let (replies, issued, outcomes, clients_done, enough_calm) =
                (&replies, &issued, &outcomes, &clients_done, &enough_calm);
            scope.spawn(move || {
                // Counted on every exit, a panic included, so the
                // sampler always stops.
                let _done = CountOnDrop(clients_done);
                let mut reply = String::new();
                loop {
                    let go = match stop {
                        Stop::Count(count) => issued.fetch_add(1, Ordering::SeqCst) < count,
                        Stop::Timed { seconds, cap, .. } => {
                            let elapsed = started.elapsed();
                            elapsed < cap
                                && (elapsed < seconds || !enough_calm.load(Ordering::SeqCst))
                        }
                    };
                    if !go {
                        break;
                    }
                    let draw = next();
                    let sent = Instant::now();
                    let result = conn.call(&draw.line, &mut reply);
                    let latency_ns = nanos(sent.elapsed());
                    let mut outcome = Outcome {
                        index: draw.index,
                        latency_ns,
                        done_ns: nanos(started.elapsed()),
                        flags: None,
                        kept: None,
                        mismatch: false,
                    };
                    let failed = result.is_err();
                    if !failed {
                        outcome.flags = result_flags(&reply, &draw.id);
                        outcome.kept = Some(digester.of(&reply));
                        counted(replies.fetch_add(1, Ordering::SeqCst) + 1);
                    }
                    outcomes.lock().expect("no client panicked").push(outcome);
                    if failed {
                        break;
                    }
                }
            });
        }
        sampler.join().expect("the steal sampler does not panic")
    });
    let mut outcomes = outcomes.into_inner().expect("no client panicked");
    outcomes.sort_by_key(|outcome| outcome.index);
    Phase { outcomes, steal }
}

struct CountOnDrop<'a>(&'a AtomicUsize);

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// `(warm, cached)` of a `Result` frame answering `id`, read from the
/// fixed field order the server renders; `None` for anything else.
pub fn result_flags(line: &str, id: &str) -> Option<(bool, bool)> {
    let rest = line.strip_prefix("{\"Result\":{\"request_id\":\"")?;
    let rest = rest.strip_prefix(id)?.strip_prefix("\",\"warm\":")?;
    let (warm, rest) = split_bool(rest)?;
    let (cached, rest) = split_bool(rest.strip_prefix(",\"cached\":")?)?;
    rest.starts_with(",\"response\":").then_some((warm, cached))
}

fn split_bool(text: &str) -> Option<(bool, &str)> {
    if let Some(rest) = text.strip_prefix("true") {
        Some((true, rest))
    } else {
        text.strip_prefix("false").map(|rest| (false, rest))
    }
}
