//! Load loops.  One thread per connection, at most two of each during a
//! measured window.
//!
//! - Open loop: each connection follows its own seeded Poisson schedule and
//!   an operation's latency runs from when it was *due*, so a stall is
//!   charged to every operation queued behind it.  Lateness (sent minus the
//!   later of due and the connection's previous completion) is recorded to
//!   show the generator kept up.
//! - Closed loop: each connection issues its next operation as soon as the
//!   previous one completes, in whole sweeps over its sessions.  An
//!   operation is due when its predecessor finished, so lateness is the
//!   client's own turnaround.

use crate::client::Client;
use crate::gen::{Arrival, Rng};
use std::time::{Duration, Instant};

/// What one connection saw in one window.
#[derive(Debug, Default)]
pub struct Tally {
    pub lat_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Closed loop: seconds from the start to this connection's last completion.
    pub busy_s: f64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Latency runs from `origin`: the due time in an open loop, the send
    /// time in a closed one.  Lateness runs from `ready`, the earliest the
    /// generator could have sent.
    fn record(
        &mut self,
        origin: Instant,
        ready: Instant,
        sent: Instant,
        result: &Result<Instant, String>,
    ) {
        self.ops += 1;
        match result {
            Ok(done) => {
                self.lat_us.push(micros(done.saturating_duration_since(origin)));
                self.late_us.push(micros(sent.saturating_duration_since(ready)));
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 3 {
                    self.errors.push(e.clone());
                }
            }
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wake this thread within a microsecond of a sleep's end instead of the
/// default 50 µs timer slack, which would otherwise be added to every
/// open-loop latency.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long passed by value and
    // changes only the calling thread's timer slack; no memory is shared.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// An operation on one session: returns when its last response arrived.
pub type Op<'a> = dyn Fn(&mut Client, usize) -> Result<Instant, String> + Sync + 'a;

/// Run every connection's schedule from a common start.  An open loop runs
/// its fixed work to the end however late; only a window that falls more
/// than `give_up` behind abandons the rest, counting it as failed, so a
/// wedged server cannot hold the run past its time limit.
pub fn open_loop(
    clients: &mut [Client],
    schedules: Vec<Vec<Arrival>>,
    op_name: &'static str,
    give_up: Duration,
    op: &Op,
) -> Vec<Tally> {
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(schedules)
            .map(|(client, schedule)| {
                scope.spawn(move || {
                    tighten_timer_slack();
                    let mut tally = Tally::default();
                    let mut free = start;
                    for (i, arrival) in schedule.iter().enumerate() {
                        let due = start + Duration::from_secs_f64(arrival.due_s);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now - due > give_up {
                            let abandoned = (schedule.len() - i) as u64;
                            tally.ops += abandoned;
                            tally.failed += abandoned;
                            tally.errors.push(format!("{abandoned} operations abandoned"));
                            break;
                        }
                        let sent = Instant::now();
                        client.rec.begin_op();
                        let result = op(client, arrival.session);
                        if let Ok(done) = result {
                            client.rec.end_op(op_name, due, sent, done);
                        }
                        // The generator is late only past the moment it
                        // could send: the due time, or the previous
                        // operation's completion when that came later.
                        tally.record(due, due.max(free), sent, &result);
                        free = Instant::now();
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}

/// When a closed loop ends.  Either way each of a connection's sessions is
/// touched equally often.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long, at the end of the sweep under way.
    After(Duration),
    /// After this many sweeps over each connection's sessions: fixed work.
    Sweeps(u64),
}

/// Back-to-back operations on every connection until `stop`.  Connection
/// `t` cycles through `sessions[t]` from a seeded starting point.
pub fn closed_loop(
    clients: &mut [Client],
    sessions: &[Vec<usize>],
    stop: Stop,
    seed: u64,
    op_name: &'static str,
    op: &Op,
) -> Vec<Tally> {
    let start = Instant::now();
    let more = |ops: u64, sweep: u64| match stop {
        Stop::After(duration) => Instant::now() < start + duration || !ops.is_multiple_of(sweep),
        Stop::Sweeps(n) => ops < n * sweep,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sessions)
            .enumerate()
            .map(|(t, (client, sessions))| {
                let mut next = Rng::new(seed, t as u64).below(sessions.len() as u64) as usize;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut due = start;
                    while more(tally.ops, sessions.len() as u64) {
                        let session = sessions[next % sessions.len()];
                        next += 1;
                        let sent = Instant::now();
                        client.rec.begin_op();
                        let result = op(client, session);
                        if let Ok(done) = result {
                            client.rec.end_op(op_name, due, sent, done);
                        }
                        tally.record(sent, due, sent, &result);
                        due = Instant::now();
                    }
                    tally.busy_s = due.saturating_duration_since(start).as_secs_f64();
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}
