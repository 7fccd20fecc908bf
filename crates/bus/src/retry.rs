//! Per-request timeout and bounded-backoff retry for bus RPCs.
//!
//! The paper's bus is "best effort with failure notification" (§2.2): a
//! request can be lost to a dropped wire message, a crashed peer, or a
//! corrupted frame, and the requester must notice and recover on its own.
//! Before this module, every requester in the tree either blocked forever
//! (the KVS server wedging into `Failed`) or retried inline without bound
//! (the FTL's old `retire_block` loop). Both behaviours make fault-injection
//! experiments meaningless: a lost message either hangs the run or hides
//! inside an unbounded loop.
//!
//! [`RpcTracker`] is the shared fix: a pure state machine that remembers
//! every in-flight request expecting a reply ([`Payload::expects_reply`]),
//! assigns it a virtual-time deadline, and — when the deadline lapses —
//! either schedules a resend after a [`BackoffPolicy`] delay or gives the
//! original envelope back to the caller as a terminal failure. Deadlines
//! live *here*, in tracker entries, never on the wire: the bus protocol's
//! byte format is unchanged, and retransmissions are byte-identical to the
//! original send (same `req`, same `corr`), so receivers can deduplicate
//! and traces still correlate.
//!
//! Like [`SystemBus`](crate::bus::SystemBus), the tracker is pure: it never
//! schedules events itself. The simulator calls [`RpcTracker::track`] when a
//! request leaves a device, [`RpcTracker::complete`] when the matching reply
//! arrives, and [`RpcTracker::expire`] from a periodic sweep; the returned
//! [`RetryVerdict`]s tell the simulator what to do. Jitter comes from a
//! caller-provided [`DetRng`], so a seeded run replays its retry schedule
//! bit-identically.

use crate::ids::{DeviceId, RequestId};
use crate::message::{Dst, Envelope, Payload};
use lastcpu_sim::{BackoffPolicy, DetHashMap, DetRng, SimDuration, SimTime};

impl Payload {
    /// Whether this payload is a request that expects a matching reply,
    /// making it eligible for timeout tracking and retransmission.
    ///
    /// Discovery `Query` is deliberately excluded: zero `QueryHit`s is a
    /// legitimate answer ("nobody offers that service"), so a missing reply
    /// is not evidence of loss. Notifications, responses, and beacons never
    /// expect replies.
    pub fn expects_reply(&self) -> bool {
        matches!(
            self,
            Payload::Hello { .. }
                | Payload::OpenRequest { .. }
                | Payload::CloseRequest { .. }
                | Payload::MemAlloc { .. }
                | Payload::MemFree { .. }
                | Payload::Share { .. }
                | Payload::RegisterController { .. }
                | Payload::MapInstruction { .. }
                | Payload::ResetRequest
        )
    }
}

/// Whether `reply` is the reply kind that answers `request`.
fn reply_pairs(request: &Payload, reply: &Payload) -> bool {
    matches!(
        (request, reply),
        (Payload::Hello { .. }, Payload::HelloAck { .. })
            | (Payload::OpenRequest { .. }, Payload::OpenResponse { .. })
            | (Payload::CloseRequest { .. }, Payload::CloseResponse { .. })
            | (Payload::MemAlloc { .. }, Payload::MemAllocResponse { .. })
            | (Payload::MemFree { .. }, Payload::MemFreeResponse { .. })
            | (Payload::Share { .. }, Payload::ShareResponse { .. })
            | (Payload::RegisterController { .. }, Payload::BusAck { .. })
            | (Payload::MapInstruction { .. }, Payload::BusAck { .. })
            | (Payload::MapInstruction { .. }, Payload::MapComplete { .. })
            | (Payload::ResetRequest, Payload::ResetDone)
    )
}

/// Configuration for the RPC retry state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// How long to wait for a reply before declaring the attempt lost.
    pub timeout: SimDuration,
    /// Backoff schedule between attempts (also bounds the attempt count).
    pub backoff: BackoffPolicy,
}

impl Default for RetryConfig {
    /// 200µs reply timeout with the shared default backoff policy
    /// (10µs base doubling to a 1ms cap, 5 retries, 25% jitter). The
    /// timeout is an order of magnitude above a healthy request/response
    /// round trip (two bus hops plus handler time, ~1–20µs), so spurious
    /// retransmissions under load are rare.
    fn default() -> Self {
        RetryConfig {
            timeout: SimDuration::from_micros(200),
            backoff: BackoffPolicy::default(),
        }
    }
}

/// One in-flight tracked request.
#[derive(Debug, Clone)]
struct PendingRpc {
    /// The original envelope, kept for byte-identical retransmission.
    env: Envelope,
    /// Virtual time the *first* attempt was sent (recovery-latency base).
    first_sent: SimTime,
    /// Retries performed so far (0 = only the original send).
    retries: u32,
    /// When the current attempt times out.
    deadline: SimTime,
}

/// What the simulator must do about a timed-out request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryVerdict {
    /// Retransmit `env` (byte-identical to the original) at `send_at`;
    /// the tracker has already re-armed the deadline for this attempt.
    Resend {
        /// Envelope to put back on the wire.
        env: Envelope,
        /// Virtual time of the retransmission (now + backoff delay).
        send_at: SimTime,
        /// Which retry this is (1-based).
        attempt: u32,
    },
    /// The retry budget is exhausted; the request is abandoned and the
    /// caller must surface a terminal error to the requester.
    GiveUp {
        /// The abandoned envelope.
        env: Envelope,
        /// Virtual time the first attempt was sent.
        first_sent: SimTime,
        /// Total attempts made (original + retries).
        attempts: u32,
    },
}

/// Aggregate counters for one tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests registered for tracking.
    pub tracked: u64,
    /// Requests completed by a matching reply.
    pub completed: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Requests abandoned after exhausting the budget.
    pub give_ups: u64,
    /// Completions that arrived only after at least one retry.
    pub recovered: u64,
}

/// Timeout/retry state machine for bus RPCs, keyed by
/// `(requester, request id)`.
///
/// Request ids are allocated per-device (each slot has its own counter), so
/// the pair is unique across in-flight requests. A reply is matched by the
/// requester's id and the echoed request id — replies echo `req` by
/// protocol, so no payload inspection is needed.
#[derive(Debug, Default)]
pub struct RpcTracker {
    config: RetryConfig,
    pending: DetHashMap<(DeviceId, RequestId), PendingRpc>,
    stats: RetryStats,
}

impl RpcTracker {
    /// Creates a tracker with the given policy.
    pub fn new(config: RetryConfig) -> Self {
        RpcTracker {
            config,
            pending: DetHashMap::default(),
            stats: RetryStats::default(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> RetryConfig {
        self.config
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Number of requests currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Registers an outgoing envelope if it is a trackable request.
    ///
    /// Returns the reply deadline when tracking was armed. Broadcasts are
    /// never tracked (no single responder), and re-sending an envelope that
    /// is already tracked (a retransmission) does not reset its retry
    /// count.
    pub fn track(&mut self, now: SimTime, env: &Envelope) -> Option<SimTime> {
        if !env.payload.expects_reply() || matches!(env.dst, Dst::Broadcast) {
            return None;
        }
        let key = (env.src, env.req);
        if self.pending.contains_key(&key) {
            return None;
        }
        let deadline = now + self.config.timeout;
        self.pending.insert(
            key,
            PendingRpc {
                env: env.clone(),
                first_sent: now,
                retries: 0,
                deadline,
            },
        );
        self.stats.tracked += 1;
        Some(deadline)
    }

    /// Marks a request complete because `reply`, addressed to `requester`
    /// and echoing `req`, was delivered. Returns `true` if the reply matched
    /// a tracked request (a late duplicate after give-up, or a reply kind
    /// that does not pair with the tracked request, returns `false`).
    ///
    /// Kind pairing matters because request ids are only unique *per
    /// device*: a `MapComplete` notification to a device must not complete
    /// an unrelated request of that device that happens to share an id.
    pub fn complete(&mut self, requester: DeviceId, req: RequestId, reply: &Payload) -> bool {
        let key = (requester, req);
        let matches = self
            .pending
            .get(&key)
            .is_some_and(|p| reply_pairs(&p.env.payload, reply));
        if !matches {
            return false;
        }
        let p = self.pending.remove(&key).expect("checked above");
        self.stats.completed += 1;
        if p.retries > 0 {
            self.stats.recovered += 1;
        }
        true
    }

    /// Sweeps for lapsed deadlines at virtual time `now`.
    ///
    /// Each expired entry yields one [`RetryVerdict`]: either a
    /// retransmission (deadline re-armed to `send_at + timeout`) or a
    /// terminal [`RetryVerdict::GiveUp`] (entry removed). Verdicts are
    /// returned in deterministic key order so a seeded run replays exactly.
    pub fn expire(&mut self, now: SimTime, rng: &mut DetRng) -> Vec<RetryVerdict> {
        let mut expired: Vec<(DeviceId, RequestId)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(k, _)| *k)
            .collect();
        // HashMap iteration order is nondeterministic; sort so the jitter
        // draws (and thus the whole replay) are stable.
        expired.sort_by_key(|(d, r)| (d.0, r.0));
        let mut verdicts = Vec::with_capacity(expired.len());
        for key in expired {
            let p = self.pending.get_mut(&key).expect("key collected above");
            let next = p.retries + 1;
            match self.config.backoff.delay_jittered(next, rng) {
                Some(delay) => {
                    p.retries = next;
                    let send_at = now + delay;
                    p.deadline = send_at + self.config.timeout;
                    self.stats.retries += 1;
                    verdicts.push(RetryVerdict::Resend {
                        env: p.env.clone(),
                        send_at,
                        attempt: next,
                    });
                }
                None => {
                    let p = self.pending.remove(&key).expect("present");
                    self.stats.give_ups += 1;
                    verdicts.push(RetryVerdict::GiveUp {
                        attempts: p.retries + 1,
                        first_sent: p.first_sent,
                        env: p.env,
                    });
                }
            }
        }
        verdicts
    }

    /// The earliest pending deadline, if any — lets the simulator schedule
    /// its next sweep exactly instead of polling.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Drops every tracked request from `device` (it crashed or departed;
    /// its in-flight requests will be re-issued after re-registration, not
    /// retransmitted into the void). Returns how many were dropped.
    pub fn forget_requester(&mut self, device: DeviceId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|(src, _), _| *src != device);
        before - self.pending.len()
    }
}

impl lastcpu_snap::Snapshot for RpcTracker {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.config.timeout.as_nanos());
        w.put_u64(self.config.backoff.base.as_nanos());
        w.put_u64(self.config.backoff.cap.as_nanos());
        w.put_u32(self.config.backoff.max_retries);
        w.put_u32(self.config.backoff.jitter_pct);
        w.put_u64(self.stats.tracked);
        w.put_u64(self.stats.completed);
        w.put_u64(self.stats.retries);
        w.put_u64(self.stats.give_ups);
        w.put_u64(self.stats.recovered);
        let mut keys: Vec<_> = self.pending.keys().copied().collect();
        keys.sort_by_key(|(d, r)| (d.0, r.0));
        w.put_len(keys.len());
        for key in keys {
            let p = &self.pending[&key];
            w.put_u32(key.0 .0);
            w.put_u64(key.1 .0);
            w.put_bytes(&p.env.encode());
            w.put_u64(p.first_sent.as_nanos());
            w.put_u32(p.retries);
            w.put_u64(p.deadline.as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConnId, Token};
    use crate::message::Status;
    use lastcpu_sim::CorrId;

    fn req_env(src: u32, req: u64) -> Envelope {
        Envelope {
            src: DeviceId(src),
            dst: Dst::Device(DeviceId(1)),
            req: RequestId(req),
            corr: CorrId(7),
            payload: Payload::MemAlloc {
                pasid: 1,
                va: 0x1000,
                bytes: 4096,
                perms: 3,
            },
        }
    }

    fn cfg(max_retries: u32) -> RetryConfig {
        RetryConfig {
            timeout: SimDuration::from_micros(100),
            backoff: BackoffPolicy {
                base: SimDuration::from_micros(10),
                cap: SimDuration::from_micros(160),
                max_retries,
                jitter_pct: 0,
            },
        }
    }

    #[test]
    fn expects_reply_classification() {
        assert!(Payload::MemAlloc {
            pasid: 0,
            va: 0,
            bytes: 0,
            perms: 0
        }
        .expects_reply());
        assert!(Payload::OpenRequest {
            service: crate::ids::ServiceId(1),
            token: Token(0),
            params: vec![],
        }
        .expects_reply());
        assert!(Payload::ResetRequest.expects_reply());
        assert!(Payload::Hello {
            name: "x".into(),
            kind: "y".into()
        }
        .expects_reply());
        // Replies, beacons, notifications, and discovery do not.
        assert!(!Payload::MemAllocResponse {
            status: Status::Ok,
            region: 0
        }
        .expects_reply());
        assert!(!Payload::Heartbeat.expects_reply());
        assert!(!Payload::Doorbell {
            conn: ConnId(1),
            value: 0
        }
        .expects_reply());
        assert!(!Payload::Query {
            pattern: "*".into()
        }
        .expects_reply());
    }

    #[test]
    fn reply_before_deadline_completes() {
        let mut t = RpcTracker::new(cfg(3));
        let now = SimTime::from_nanos(1_000);
        let env = req_env(5, 42);
        let deadline = t.track(now, &env).expect("tracked");
        assert_eq!(deadline, now + SimDuration::from_micros(100));
        assert_eq!(t.in_flight(), 1);
        let reply = Payload::MemAllocResponse {
            status: Status::Ok,
            region: 1,
        };
        assert!(t.complete(DeviceId(5), RequestId(42), &reply));
        assert_eq!(t.in_flight(), 0);
        let s = t.stats();
        assert_eq!(
            (s.tracked, s.completed, s.retries, s.recovered),
            (1, 1, 0, 0)
        );
        // A duplicate reply after completion is ignored.
        assert!(!t.complete(DeviceId(5), RequestId(42), &reply));
    }

    #[test]
    fn broadcasts_and_nonrequests_not_tracked() {
        let mut t = RpcTracker::new(cfg(3));
        let mut bcast = req_env(5, 1);
        bcast.dst = Dst::Broadcast;
        assert!(t.track(SimTime::ZERO, &bcast).is_none());
        let beat = Envelope {
            payload: Payload::Heartbeat,
            ..req_env(5, 2)
        };
        assert!(t.track(SimTime::ZERO, &beat).is_none());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn expiry_resends_with_growing_backoff_then_gives_up() {
        let mut t = RpcTracker::new(cfg(2));
        let mut rng = DetRng::new(9);
        let env = req_env(5, 42);
        t.track(SimTime::ZERO, &env);

        // First expiry: resend after base delay (10µs, no jitter).
        let mut now = SimTime::ZERO + SimDuration::from_micros(100);
        let v = t.expire(now, &mut rng);
        assert_eq!(v.len(), 1);
        match &v[0] {
            RetryVerdict::Resend {
                env: e,
                send_at,
                attempt,
            } => {
                assert_eq!(e, &env, "retransmission is byte-identical");
                assert_eq!(*attempt, 1);
                assert_eq!(*send_at, now + SimDuration::from_micros(10));
            }
            other => panic!("expected resend, got {other:?}"),
        }

        // Second expiry: doubled delay.
        now = t.next_deadline().expect("re-armed");
        let v = t.expire(now, &mut rng);
        match &v[0] {
            RetryVerdict::Resend {
                send_at, attempt, ..
            } => {
                assert_eq!(*attempt, 2);
                assert_eq!(*send_at, now + SimDuration::from_micros(20));
            }
            other => panic!("expected resend, got {other:?}"),
        }

        // Third expiry exceeds max_retries=2: give up, entry removed.
        now = t.next_deadline().expect("re-armed");
        let v = t.expire(now, &mut rng);
        match &v[0] {
            RetryVerdict::GiveUp {
                env: e, attempts, ..
            } => {
                assert_eq!(e, &env);
                assert_eq!(*attempts, 3, "original + 2 retries");
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(t.in_flight(), 0);
        assert!(t.next_deadline().is_none());
        let s = t.stats();
        assert_eq!((s.retries, s.give_ups, s.completed), (2, 1, 0));
    }

    #[test]
    fn late_reply_after_retry_counts_as_recovered() {
        let mut t = RpcTracker::new(cfg(3));
        let mut rng = DetRng::new(9);
        t.track(SimTime::ZERO, &req_env(5, 42));
        let now = SimTime::ZERO + SimDuration::from_micros(100);
        assert_eq!(t.expire(now, &mut rng).len(), 1);
        let reply = Payload::MemAllocResponse {
            status: Status::Ok,
            region: 1,
        };
        assert!(t.complete(DeviceId(5), RequestId(42), &reply));
        assert_eq!(t.stats().recovered, 1);
    }

    #[test]
    fn expire_order_is_deterministic_across_runs() {
        let run = || {
            let mut t = RpcTracker::new(RetryConfig {
                timeout: SimDuration::from_micros(100),
                backoff: BackoffPolicy {
                    base: SimDuration::from_micros(10),
                    cap: SimDuration::from_micros(160),
                    max_retries: 3,
                    jitter_pct: 25,
                },
            });
            let mut rng = DetRng::new(77);
            // Insert in scrambled order; HashMap order must not leak.
            for (src, req) in [(9u32, 3u64), (2, 8), (9, 1), (4, 5), (2, 2)] {
                t.track(SimTime::ZERO, &req_env(src, req));
            }
            t.expire(SimTime::from_nanos(100_000), &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same verdicts, same jitter");
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn forget_requester_drops_only_that_device() {
        let mut t = RpcTracker::new(cfg(3));
        t.track(SimTime::ZERO, &req_env(5, 1));
        t.track(SimTime::ZERO, &req_env(5, 2));
        t.track(SimTime::ZERO, &req_env(6, 1));
        assert_eq!(t.forget_requester(DeviceId(5)), 2);
        assert_eq!(t.in_flight(), 1);
        assert!(t.complete(
            DeviceId(6),
            RequestId(1),
            &Payload::MemAllocResponse {
                status: Status::Ok,
                region: 1
            }
        ));
    }

    #[test]
    fn retransmission_does_not_rearm_tracking() {
        let mut t = RpcTracker::new(cfg(3));
        let env = req_env(5, 42);
        t.track(SimTime::ZERO, &env);
        // The simulator calls track() again when the resend goes out; the
        // existing entry (with its retry count) must win.
        assert!(t.track(SimTime::from_nanos(500), &env).is_none());
        assert_eq!(t.stats().tracked, 1);
        assert_eq!(t.in_flight(), 1);
    }
}
