//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultSchedule`] is a seeded, fully deterministic list of events in
//! *simulated* time: worker crashes and stalls, and link degradations or
//! partitions over a time window. The trainer consults the schedule at
//! iteration boundaries (workers) and the cost model consults it per
//! transfer (links), so the same spec + seed always reproduces the same
//! run — faults are part of the experiment, not noise.
//!
//! # Spec grammar
//!
//! A spec is a `;`-separated list of clauses:
//!
//! ```text
//! crash@W:T            worker W crashes at simulated time T (seconds)
//! stall@W:T:D          worker W stalls for D seconds starting at T
//! degrade@A-B:T:D:F    link A↔B runs F× slower during [T, T+D)
//! partition@A-B:T:D    link A↔B drops every message during [T, T+D)
//! restart=S            recovery restart overhead in seconds (default 0.002)
//! ```
//!
//! `W`, `A`, `B` are worker indices; `W` may be `*`, which resolves to a
//! worker picked deterministically from the schedule seed (so a fault
//! matrix can say "crash someone" without hand-picking the victim). Link
//! clauses are symmetric: `degrade@0-1` affects traffic in both directions.
//!
//! ```
//! use hetgmp_cluster::FaultSchedule;
//! let f = FaultSchedule::parse("crash@*:0.5; degrade@0-1:0.2:0.3:8", 4, 42).unwrap();
//! assert!(f.has_crashes());
//! assert_eq!(f.degrade_factor(1, 0, 0.25), 8.0);
//! assert_eq!(f.degrade_factor(1, 0, 0.55), 1.0);
//! ```

/// What happens to a worker at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerFaultKind {
    /// The worker process dies and must restore from the last checkpoint.
    Crash,
    /// The worker freezes for the given number of simulated seconds
    /// (GC pause, thermal throttle, preemption) but loses no state.
    Stall {
        /// Stall length in simulated seconds.
        duration: f64,
    },
}

/// One scheduled worker fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerFault {
    /// Simulated time at which the fault fires. Workers act on it at the
    /// first iteration boundary at or after this instant.
    pub at: f64,
    /// Crash or stall.
    pub kind: WorkerFaultKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkFaultKind {
    /// Transfers take `factor`× the healthy time.
    Degrade { factor: f64 },
    /// No message gets through until the window closes.
    Partition,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkFault {
    a: usize,
    b: usize,
    from: f64,
    until: f64,
    kind: LinkFaultKind,
}

impl LinkFault {
    fn covers(&self, a: usize, b: usize, now: f64) -> bool {
        let pair = (self.a == a && self.b == b) || (self.a == b && self.b == a);
        pair && now >= self.from && now < self.until
    }
}

/// Bounded exponential backoff against an unreachable peer: attempts are
/// spaced `base, 2·base, 4·base, …` apart, up to `max_attempts`. Senders
/// facing a partitioned link retry on this schedule; if the budget runs out
/// before the link heals they park until the heal (the deterministic
/// analogue of "retry forever with capped backoff").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First backoff interval, seconds (typically the link latency).
    pub base: f64,
    /// Maximum number of retry attempts before parking.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The default policy: retries double from `base` up to 16 attempts.
    pub fn with_base(base: f64) -> Self {
        Self {
            base: base.max(1e-7),
            max_attempts: 16,
        }
    }

    /// Seconds a sender spends before its first successful attempt when the
    /// peer becomes reachable again `outage` seconds from now. Closed form:
    /// the first attempt scheduled at or after the heal succeeds; if every
    /// attempt in the budget lands inside the outage, the sender parks
    /// until the heal itself.
    pub fn wait_for_heal(&self, outage: f64) -> f64 {
        if outage <= 0.0 {
            return 0.0;
        }
        let mut waited = 0.0;
        let mut backoff = self.base;
        for _ in 0..self.max_attempts {
            waited += backoff;
            if waited >= outage {
                return waited;
            }
            backoff *= 2.0;
        }
        outage
    }
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    num_workers: usize,
    seed: u64,
    /// Per-worker faults, sorted by time.
    worker_faults: Vec<Vec<WorkerFault>>,
    link_faults: Vec<LinkFault>,
    restart_overhead: f64,
}

impl FaultSchedule {
    /// An empty schedule for `num_workers` workers (injects nothing).
    pub fn empty(num_workers: usize) -> Self {
        Self {
            num_workers,
            seed: 0,
            worker_faults: vec![Vec::new(); num_workers],
            link_faults: Vec::new(),
            restart_overhead: 0.002,
        }
    }

    /// Parses a fault spec (see the module docs for the grammar). `seed`
    /// resolves `*` worker wildcards deterministically.
    pub fn parse(spec: &str, num_workers: usize, seed: u64) -> Result<Self, String> {
        let mut schedule = Self::empty(num_workers);
        schedule.seed = seed;
        for (idx, raw) in spec.split(';').enumerate() {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("restart=") {
                let secs = parse_secs(v, clause)?;
                schedule.restart_overhead = secs;
                continue;
            }
            let (kind, rest) = clause
                .split_once('@')
                .ok_or_else(|| format!("clause {clause:?}: expected KIND@TARGET:ARGS"))?;
            match kind {
                "crash" => {
                    let (w, args) = split_target(rest, clause)?;
                    let w = schedule.resolve_worker(w, idx, clause)?;
                    let at = parse_one_time(args, clause)?;
                    schedule.worker_faults[w].push(WorkerFault {
                        at,
                        kind: WorkerFaultKind::Crash,
                    });
                }
                "stall" => {
                    let (w, args) = split_target(rest, clause)?;
                    let w = schedule.resolve_worker(w, idx, clause)?;
                    let (at, duration) = parse_two_times(args, clause)?;
                    schedule.worker_faults[w].push(WorkerFault {
                        at,
                        kind: WorkerFaultKind::Stall { duration },
                    });
                }
                "degrade" => {
                    let (pair, args) = split_target(rest, clause)?;
                    let (a, b) = schedule.parse_pair(pair, clause)?;
                    let parts: Vec<&str> = args.split(':').collect();
                    if parts.len() != 3 {
                        return Err(format!("clause {clause:?}: expected A-B:T:D:F"));
                    }
                    let from = parse_secs(parts[0], clause)?;
                    let dur = parse_positive_secs(parts[1], clause)?;
                    let factor: f64 = parts[2]
                        .parse()
                        .map_err(|_| format!("clause {clause:?}: bad factor {:?}", parts[2]))?;
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(format!(
                            "clause {clause:?}: slowdown factor must be finite and ≥ 1"
                        ));
                    }
                    schedule.link_faults.push(LinkFault {
                        a,
                        b,
                        from,
                        until: from + dur,
                        kind: LinkFaultKind::Degrade { factor },
                    });
                }
                "partition" => {
                    let (pair, args) = split_target(rest, clause)?;
                    let (a, b) = schedule.parse_pair(pair, clause)?;
                    let (from, dur) = parse_two_times(args, clause)?;
                    schedule.link_faults.push(LinkFault {
                        a,
                        b,
                        from,
                        until: from + dur,
                        kind: LinkFaultKind::Partition,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (crash|stall|degrade|partition|restart=)"
                    ))
                }
            }
        }
        for list in &mut schedule.worker_faults {
            list.sort_by(|x, y| x.at.partial_cmp(&y.at).expect("finite times"));
        }
        Ok(schedule)
    }

    fn resolve_worker(
        &self,
        token: &str,
        clause_idx: usize,
        clause: &str,
    ) -> Result<usize, String> {
        if token == "*" {
            if self.num_workers == 0 {
                return Err("no workers to pick from".into());
            }
            return Ok(
                (splitmix64(self.seed ^ clause_idx as u64) % self.num_workers as u64) as usize,
            );
        }
        let w: usize = token
            .parse()
            .map_err(|_| format!("clause {clause:?}: bad worker {token:?}"))?;
        if w >= self.num_workers {
            return Err(format!(
                "clause {clause:?}: worker {w} out of range (have {})",
                self.num_workers
            ));
        }
        Ok(w)
    }

    fn parse_pair(&self, token: &str, clause: &str) -> Result<(usize, usize), String> {
        let (a, b) = token
            .split_once('-')
            .ok_or_else(|| format!("clause {clause:?}: expected a worker pair A-B"))?;
        let a = self.resolve_worker(a, 0, clause)?;
        let b = self.resolve_worker(b, 0, clause)?;
        if a == b {
            return Err(format!("clause {clause:?}: link endpoints must differ"));
        }
        Ok((a, b))
    }

    /// Workers this schedule was built for.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The faults scheduled for worker `w`, sorted by time.
    pub fn worker_faults(&self, w: usize) -> &[WorkerFault] {
        &self.worker_faults[w]
    }

    /// Whether any worker is scheduled to crash.
    pub fn has_crashes(&self) -> bool {
        self.worker_faults
            .iter()
            .flatten()
            .any(|f| matches!(f.kind, WorkerFaultKind::Crash))
    }

    /// Whether the schedule injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.worker_faults.iter().all(Vec::is_empty) && self.link_faults.is_empty()
    }

    /// Fixed process-restart overhead charged on crash recovery, seconds.
    pub fn restart_overhead(&self) -> f64 {
        self.restart_overhead
    }

    /// The worst active slowdown on link `a↔b` at `now` (1.0 = healthy).
    /// Partitions are reported separately by [`FaultSchedule::partition_heal_time`].
    pub fn degrade_factor(&self, a: usize, b: usize, now: f64) -> f64 {
        self.link_faults
            .iter()
            .filter(|f| f.covers(a, b, now))
            .filter_map(|f| match f.kind {
                LinkFaultKind::Degrade { factor } => Some(factor),
                LinkFaultKind::Partition => None,
            })
            .fold(1.0, f64::max)
    }

    /// If link `a↔b` is partitioned at `now`, the simulated time at which it
    /// heals (the latest end among active partition windows).
    pub fn partition_heal_time(&self, a: usize, b: usize, now: f64) -> Option<f64> {
        let mut heal: Option<f64> = None;
        // A message that parks until one window closes may land inside
        // another; chase windows until a gap is found.
        let mut t = now;
        loop {
            let next = self
                .link_faults
                .iter()
                .filter(|f| matches!(f.kind, LinkFaultKind::Partition) && f.covers(a, b, t))
                .map(|f| f.until)
                .fold(f64::NEG_INFINITY, f64::max);
            if next == f64::NEG_INFINITY {
                return heal;
            }
            heal = Some(next);
            t = next;
        }
    }
}

fn split_target<'s>(rest: &'s str, clause: &str) -> Result<(&'s str, &'s str), String> {
    rest.split_once(':')
        .ok_or_else(|| format!("clause {clause:?}: expected TARGET:ARGS"))
}

fn parse_secs(token: &str, clause: &str) -> Result<f64, String> {
    let v: f64 = token
        .parse()
        .map_err(|_| format!("clause {clause:?}: bad time {token:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("clause {clause:?}: times must be finite and ≥ 0"));
    }
    Ok(v)
}

fn parse_positive_secs(token: &str, clause: &str) -> Result<f64, String> {
    let v = parse_secs(token, clause)?;
    if v <= 0.0 {
        return Err(format!("clause {clause:?}: duration must be positive"));
    }
    Ok(v)
}

fn parse_one_time(args: &str, clause: &str) -> Result<f64, String> {
    if args.contains(':') {
        return Err(format!("clause {clause:?}: expected a single time"));
    }
    parse_secs(args, clause)
}

fn parse_two_times(args: &str, clause: &str) -> Result<(f64, f64), String> {
    let (t, d) = args
        .split_once(':')
        .ok_or_else(|| format!("clause {clause:?}: expected T:D"))?;
    Ok((parse_secs(t, clause)?, parse_positive_secs(d, clause)?))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let f = FaultSchedule::parse(
            "crash@1:0.5; stall@0:0.2:0.1; degrade@0-2:0.1:0.4:4; partition@1-3:0.3:0.2; restart=0.01",
            4,
            7,
        )
        .unwrap();
        assert_eq!(f.worker_faults(1).len(), 1);
        assert_eq!(f.worker_faults(0).len(), 1);
        assert!(f.has_crashes());
        assert!(!f.is_empty());
        assert_eq!(f.restart_overhead(), 0.01);
        assert_eq!(f.degrade_factor(2, 0, 0.2), 4.0);
        assert_eq!(f.degrade_factor(2, 0, 0.6), 1.0);
        assert_eq!(f.partition_heal_time(3, 1, 0.35), Some(0.5));
        assert_eq!(f.partition_heal_time(3, 1, 0.55), None);
        // Unaffected pair.
        assert_eq!(f.degrade_factor(0, 1, 0.2), 1.0);
    }

    #[test]
    fn wildcard_is_deterministic_in_seed() {
        let a = FaultSchedule::parse("crash@*:1.0", 8, 123).unwrap();
        let b = FaultSchedule::parse("crash@*:1.0", 8, 123).unwrap();
        assert_eq!(a, b);
        let victim_a = (0..8).find(|&w| !a.worker_faults(w).is_empty()).unwrap();
        // A different seed is free to pick a different victim, but some
        // worker is always picked.
        let c = FaultSchedule::parse("crash@*:1.0", 8, 124).unwrap();
        assert!((0..8).any(|w| !c.worker_faults(w).is_empty()));
        assert!(victim_a < 8);
    }

    #[test]
    fn faults_sorted_by_time() {
        let f =
            FaultSchedule::parse("stall@0:0.9:0.1; crash@0:0.2; stall@0:0.5:0.1", 2, 1).unwrap();
        let times: Vec<f64> = f.worker_faults(0).iter().map(|e| e.at).collect();
        assert_eq!(times, vec![0.2, 0.5, 0.9]);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultSchedule::parse("crash@9:1.0", 4, 0).is_err()); // out of range
        assert!(FaultSchedule::parse("explode@0:1.0", 4, 0).is_err()); // unknown kind
        assert!(FaultSchedule::parse("crash@0", 4, 0).is_err()); // missing time
        assert!(FaultSchedule::parse("stall@0:1.0:0", 4, 0).is_err()); // zero duration
        assert!(FaultSchedule::parse("degrade@0-0:0:1:2", 4, 0).is_err()); // self link
        assert!(FaultSchedule::parse("degrade@0-1:0:1:0.5", 4, 0).is_err()); // speedup
        assert!(FaultSchedule::parse("crash@0:-1", 4, 0).is_err()); // negative time
        assert!(FaultSchedule::parse("crash@0:nan", 4, 0).is_err());
    }

    #[test]
    fn empty_and_whitespace_clauses_ignored() {
        let f = FaultSchedule::parse(" ; crash@0:1.0 ;; ", 2, 0).unwrap();
        assert_eq!(f.worker_faults(0).len(), 1);
        assert!(FaultSchedule::parse("", 2, 0).unwrap().is_empty());
    }

    #[test]
    fn overlapping_partitions_chain() {
        // Two windows overlapping: a message parked at 0.1 must wait for the
        // later heal at 0.6, not the first at 0.4.
        let f = FaultSchedule::parse("partition@0-1:0.0:0.4; partition@0-1:0.3:0.3", 2, 0).unwrap();
        assert_eq!(f.partition_heal_time(0, 1, 0.1), Some(0.6));
    }

    #[test]
    fn retry_policy_backoff_bounds() {
        let p = RetryPolicy::with_base(0.001);
        // Heals immediately: first attempt (one base interval) succeeds.
        assert!((p.wait_for_heal(0.0005) - 0.001).abs() < 1e-12);
        // Heals after 0.005: attempts at 0.001, 0.003, 0.007 → 0.007.
        assert!((p.wait_for_heal(0.005) - 0.007).abs() < 1e-12);
        // Outage far beyond the budget: park until the heal.
        let huge = 1e6;
        assert_eq!(p.wait_for_heal(huge), huge);
        // Waiting never undershoots the outage.
        for outage in [0.0001, 0.01, 1.0, 100.0] {
            assert!(p.wait_for_heal(outage) >= outage);
        }
    }
}
