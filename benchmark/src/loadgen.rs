//! Load generator: one process, one thread per connection.
//!
//! A closed loop sends a connection's next request when the previous one is
//! answered (callers that wait for a reply).  An open loop sends on an evenly
//! spaced schedule split round-robin over the connections and times every
//! request **from when it was due**, so a stall is charged to the requests it
//! delayed; how late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// One search hit: `(id, squared distance)`.
pub type Hit = (u32, f32);

/// Something that answers a block of row-major queries.
pub trait Searcher: Send {
    fn search(&mut self, queries: &[f32]) -> Result<Vec<Vec<Hit>>, String>;
}

/// Fixed query vectors, handed out in blocks of `per_request`.
pub struct QueryPool<'a> {
    pub flat: &'a [f32],
    pub dim: usize,
    pub per_request: usize,
}

impl QueryPool<'_> {
    fn blocks(&self) -> usize {
        (self.flat.len() / self.dim / self.per_request).max(1)
    }

    /// Queries of request number `i` (wraps around the pool).
    pub fn block(&self, i: usize) -> &[f32] {
        let b = i % self.blocks();
        let width = self.per_request * self.dim;
        &self.flat[b * width..(b + 1) * width]
    }
}

/// One request, times in seconds since the phase started.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub ok: bool,
}

impl Sample {
    /// Closed-loop latency: send → decoded reply.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }

    /// Open-loop latency: due → decoded reply.
    pub fn latency_from_due_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Every request of one phase, in completion order.
#[derive(Clone, Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// The instant sample times count from.
    pub started: Instant,
    pub wall_s: f64,
    pub per_request: usize,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Queries answered by `samples`.
    pub fn answered(&self, samples: &[Sample]) -> f64 {
        (samples.iter().filter(|s| s.ok).count() * self.per_request) as f64
    }

    /// Cuts the phase into `n` intervals of equal length; each sample falls in
    /// the interval it completed in.
    pub fn windows(&self, n: usize) -> Vec<&[Sample]> {
        let n = n.max(1);
        let mut out = Vec::with_capacity(n);
        let mut from = 0;
        for w in 1..=n {
            let edge = self.wall_s * w as f64 / n as f64;
            let to = if w == n {
                self.samples.len()
            } else {
                from + self.samples[from..].partition_point(|s| s.done_s < edge)
            };
            out.push(&self.samples[from..to]);
            from = to;
        }
        out
    }

    /// `stat` over each of `n` equal intervals (the interval's samples and its
    /// length in seconds).  An interval that holds under half its even share
    /// of the samples is left out: too few to take a percentile of.
    pub fn per_interval(&self, n: usize, stat: impl Fn(&[Sample], f64) -> f64) -> Vec<f64> {
        let n = n.max(1);
        self.windows(n)
            .into_iter()
            .filter(|w| w.len() * 2 * n >= self.samples.len())
            .map(|w| stat(w, self.wall_s / n as f64))
            .collect()
    }

    /// How many intervals leave each about `per_interval` samples: at most
    /// `max`, at least one.
    pub fn intervals_of(&self, per_interval: usize, max: usize) -> usize {
        (self.samples.len() / per_interval).clamp(1, max)
    }

    fn finish(mut self) -> Phase {
        self.samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        self
    }
}

/// A response is well-formed when every query has exactly `r` hits in
/// ascending `(distance, id)` order.
pub fn well_formed(results: &[Vec<Hit>], queries: usize, r: usize) -> bool {
    results.len() == queries
        && results.iter().all(|list| {
            list.len() == r
                && list
                    .windows(2)
                    .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0))
        })
}

fn issue<S: Searcher>(
    searcher: &mut S,
    pool: &QueryPool<'_>,
    request: usize,
    r: usize,
    start: Instant,
    due_s: f64,
) -> Sample {
    let queries = pool.block(request);
    let sent_s = start.elapsed().as_secs_f64();
    let answer = searcher.search(queries);
    let done_s = start.elapsed().as_secs_f64();
    let ok = matches!(&answer, Ok(results) if well_formed(results, pool.per_request, r));
    Sample {
        due_s,
        sent_s,
        done_s,
        ok,
    }
}

/// Runs `drive(connection number, searcher, phase start)` on one thread per
/// searcher and gathers every thread's samples into a [`Phase`].
fn on_every_connection<S: Searcher>(
    searchers: &mut [S],
    per_request: usize,
    drive: impl Fn(usize, &mut S, Instant) -> Vec<Sample> + Sync,
) -> Phase {
    let start = Instant::now();
    let drive = &drive;
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = searchers
            .iter_mut()
            .enumerate()
            .map(|(c, searcher)| scope.spawn(move || drive(c, searcher, start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Phase {
        samples,
        started: start,
        wall_s: start.elapsed().as_secs_f64(),
        per_request,
    }
    .finish()
}

/// Closed loop over every searcher for `duration`.
pub fn closed_loop<S: Searcher>(
    searchers: &mut [S],
    pool: &QueryPool<'_>,
    r: usize,
    duration: Duration,
) -> Phase {
    let conns = searchers.len();
    on_every_connection(searchers, pool.per_request, |c, searcher, start| {
        let mut samples = Vec::new();
        let mut request = c;
        while start.elapsed() < duration {
            let now = start.elapsed().as_secs_f64();
            samples.push(issue(searcher, pool, request, r, start, now));
            request += conns;
        }
        samples
    })
}

/// Sleeps to just before `due`, then spins: `sleep` alone overshoots by the
/// timer slack, which would show up as generator lateness.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop at `rate` requests per second for `duration`: request `i` is due
/// at `i / rate` and goes to connection `i mod connections`.  A connection
/// has one request in flight, so when the system falls behind later requests
/// leave late and their latency-from-due grows with the backlog.
pub fn open_loop<S: Searcher>(
    searchers: &mut [S],
    pool: &QueryPool<'_>,
    r: usize,
    rate: f64,
    duration: Duration,
) -> Phase {
    let conns = searchers.len();
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    on_every_connection(searchers, pool.per_request, |c, searcher, start| {
        (c..total)
            .step_by(conns)
            .map(|request| {
                let due_s = request as f64 / rate;
                wait_until(start + Duration::from_secs_f64(due_s));
                issue(searcher, pool, request, r, start, due_s)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers after a fixed service time.
    struct Fixed {
        service: Duration,
        r: usize,
    }

    impl Searcher for Fixed {
        fn search(&mut self, queries: &[f32]) -> Result<Vec<Vec<Hit>>, String> {
            std::thread::sleep(self.service);
            Ok(vec![
                (0..self.r as u32).map(|i| (i, i as f32)).collect();
                queries.len() / 2
            ])
        }
    }

    fn pool(flat: &[f32]) -> QueryPool<'_> {
        QueryPool {
            flat,
            dim: 2,
            per_request: 2,
        }
    }

    #[test]
    fn well_formed_checks_count_and_order() {
        assert!(well_formed(&[vec![(1, 0.0), (0, 1.0)]], 1, 2));
        assert!(well_formed(&[vec![(1, 1.0), (2, 1.0)]], 1, 2), "ties by id");
        assert!(!well_formed(&[vec![(2, 1.0), (1, 1.0)]], 1, 2));
        assert!(!well_formed(&[vec![(1, 2.0), (0, 1.0)]], 1, 2));
        assert!(!well_formed(&[vec![(1, 0.0)]], 1, 2));
        assert!(!well_formed(&[], 1, 2));
    }

    #[test]
    fn open_loop_charges_a_backlog_to_the_requests_it_delays() {
        // 200 req/s against a 20 ms service time on one connection: the
        // system keeps up with 50 req/s, so request i is due at 5·i ms but
        // leaves at about 20·i ms.
        let flat = vec![0.0; 64];
        let mut s = [Fixed {
            service: Duration::from_millis(20),
            r: 3,
        }];
        let phase = open_loop(&mut s, &pool(&flat), 3, 200.0, Duration::from_millis(100));
        assert_eq!(phase.attempted(), 20);
        assert_eq!(phase.failed(), 0);
        let last = phase.samples.last().unwrap();
        assert!(last.latency_from_due_ms() > 250.0, "{last:?}");
        assert!(
            last.latency_ms() < 40.0,
            "send → reply stays one service time"
        );
        assert!(
            last.late_ms() > 200.0,
            "the generator reports its own lateness"
        );
        let first = &phase.samples[0];
        assert!(first.late_ms() < 5.0 && first.latency_from_due_ms() < 40.0);
    }

    #[test]
    fn open_loop_on_schedule_has_no_lateness() {
        let flat = vec![0.0; 64];
        let mut s = [
            Fixed {
                service: Duration::from_millis(1),
                r: 3,
            },
            Fixed {
                service: Duration::from_millis(1),
                r: 3,
            },
        ];
        let phase = open_loop(&mut s, &pool(&flat), 3, 100.0, Duration::from_millis(200));
        assert_eq!(phase.attempted(), 20);
        let worst = phase
            .samples
            .iter()
            .map(Sample::late_ms)
            .fold(0.0, f64::max);
        assert!(worst < 5.0, "worst lateness {worst} ms");
    }

    #[test]
    fn per_interval_statistics_keep_a_stall_to_its_interval() {
        // five seconds, one request per 10 ms; the third second stalls
        let samples: Vec<Sample> = (0..500)
            .map(|i| {
                let t = i as f64 * 0.01;
                let slow = (2.0..3.0).contains(&t);
                Sample {
                    due_s: t,
                    sent_s: t,
                    done_s: t + if slow { 0.009 } else { 0.001 },
                    ok: true,
                }
            })
            .collect();
        let phase = Phase {
            samples,
            started: Instant::now(),
            wall_s: 5.0,
            per_request: 4,
        };
        let sizes: Vec<usize> = phase.windows(5).iter().map(|w| w.len()).collect();
        assert_eq!(sizes, [100, 100, 100, 100, 100]);
        let p99 = |w: &[Sample], _: f64| {
            let v: Vec<f64> = w.iter().map(Sample::latency_ms).collect();
            crate::stats::percentile(&v, 0.99)
        };
        let per = phase.per_interval(5, p99);
        assert_eq!(per.len(), 5);
        assert!(
            (per[2] - 9.0).abs() < 1e-6,
            "the stalled interval stands alone"
        );
        assert!(per.iter().filter(|&&v| (v - 1.0).abs() < 1e-6).count() == 4);
        assert!(
            (phase.per_interval(1, p99)[0] - 9.0).abs() < 1e-6,
            "a flat p99 sees only the stall"
        );
        let qps = phase.per_interval(5, |w, secs| phase.answered(w) / secs);
        assert!(qps.iter().all(|q| (q - 400.0).abs() < 1e-9));
        assert_eq!(phase.intervals_of(1000, 5), 1);
        assert_eq!(phase.intervals_of(40, 5), 5);
        assert_eq!(phase.intervals_of(40, 10), 10);
    }

    #[test]
    fn an_interval_with_too_few_samples_is_left_out() {
        // nothing completes in the second of four seconds
        let samples: Vec<Sample> = (0..300)
            .map(|i| {
                let t = if i < 100 {
                    i as f64 * 0.01
                } else {
                    1.0 + i as f64 * 0.01
                };
                Sample {
                    due_s: t,
                    sent_s: t,
                    done_s: t + 0.001,
                    ok: true,
                }
            })
            .collect();
        let phase = Phase {
            samples,
            started: Instant::now(),
            wall_s: 4.0,
            per_request: 1,
        };
        assert_eq!(
            phase.per_interval(4, |w, _| w.len() as f64),
            [100.0, 100.0, 100.0]
        );
    }

    #[test]
    fn closed_loop_counts_answered_queries() {
        let flat = vec![0.0; 64];
        let mut s = [
            Fixed {
                service: Duration::from_millis(2),
                r: 3,
            },
            Fixed {
                service: Duration::from_millis(2),
                r: 3,
            },
        ];
        let phase = closed_loop(&mut s, &pool(&flat), 3, Duration::from_millis(100));
        assert!(phase.attempted() >= 40, "{}", phase.attempted());
        assert_eq!(phase.failed(), 0);
        let qps = phase.answered(&phase.samples) / phase.wall_s;
        assert!(qps > 2.0 * 2.0 * 200.0, "{qps}");
        assert!(phase.samples.windows(2).all(|w| w[0].done_s <= w[1].done_s));
    }
}
