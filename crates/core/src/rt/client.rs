//! Client nodes: generator installation, request issue (closed and open
//! loop), timeout/retransmission, and the reply path with its redirect and
//! shed handling.

use super::*;
use ipipe_sim::PoissonArrivals;

impl Cluster {
    /// Install a closed-loop generator on client `client` keeping
    /// `outstanding` requests in flight. A client is installed once: this
    /// panics if it already has a generator. [`Cluster::set_client_depth`]
    /// changes the depth of a running loop.
    pub fn set_client(&mut self, client: usize, gen: ClientGenFn, outstanding: u32) {
        self.install_client(client, gen, outstanding, None);
    }

    /// Install an *open-loop* generator on client `client`: requests arrive
    /// as a seeded Poisson process at `cfg.rate_rps` regardless of
    /// completions, modeling the aggregate stream of many users behind one
    /// source node (one generator per source node, never one per user).
    /// Arrivals stop at `cfg.until`; in-flight requests then drain through
    /// the normal completion/retry paths, so the conservation ledger
    /// (`issued == completed + abandoned + shed + in-flight`) still closes
    /// at quiesce. Panics, like [`Cluster::set_client`], if the client
    /// already has a generator; [`Cluster::set_client_open_loop_rate`]
    /// changes the rate of a running one.
    pub fn set_client_open_loop(&mut self, client: usize, gen: ClientGenFn, cfg: OpenLoopCfg) {
        assert!(cfg.rate_rps > 0.0, "open-loop rate must be positive");
        let open = OpenLoop {
            arrivals: PoissonArrivals::new(cfg.rate_rps),
            until: cfg.until,
        };
        self.install_client(client, gen, 0, Some(open));
    }

    /// Install client `client`'s generator, which must be its first, and
    /// seed its issues: `outstanding` of them for a closed loop, one for an
    /// open loop (every later arrival is scheduled by its predecessor
    /// inside `handle_issue`).
    fn install_client(
        &mut self,
        client: usize,
        gen: ClientGenFn,
        outstanding: u32,
        open: Option<OpenLoop>,
    ) {
        assert!(client < self.clients.len());
        let rng = self.rng.fork();
        let seeds = if open.is_some() { 1 } else { outstanding };
        let slot = &mut self.clients[client];
        assert!(slot.is_none(), "client {client} already has a generator");
        *slot = Some(ClientState {
            gen,
            outstanding,
            next_token: 0,
            inflight: IdMap::default(),
            rng,
            retry: None,
            open,
            route_refresh: None,
            shed_src_until: SimTime::ZERO,
        });
        self.schedule_issues(client, seeds);
    }

    /// Change the depth of client `client`'s closed loop *in place*, the
    /// closed-loop twin of [`Cluster::set_client_open_loop_rate`]. A deeper
    /// loop is topped up at once; a shallower one issues nothing until
    /// completions bring it under the new depth, and at depth 0 the
    /// in-flight tail drains.
    pub fn set_client_depth(&mut self, client: usize, outstanding: u32) {
        let state = self.client_mut(client);
        assert!(state.open.is_none(), "set_client_depth needs a closed loop");
        state.outstanding = outstanding;
        let inflight = u32::try_from(state.inflight.len()).expect("a closed loop's depth is a u32");
        self.schedule_issues(client, outstanding.saturating_sub(inflight));
    }

    /// Schedule `n` issues of client `client` at the current instant.
    fn schedule_issues(&mut self, client: usize, n: u32) {
        self.serve(self.shard(self.client_node(client)));
        let events = &mut self.events;
        let client = u16::try_from(client).expect("client nodes have u16 ids");
        for _ in 0..n {
            events.schedule_after(SimTime::ZERO, Ev::Issue { client });
        }
    }

    /// Change the arrival rate of an already-installed open-loop generator
    /// *in place* — the Poisson chain keeps its single pending arrival and
    /// only the gap distribution changes, so the event stream stays one
    /// chain per client.
    ///
    /// This models traffic spikes: call at a `run_for` boundary to step the
    /// offered load up or down deterministically for any shard count.
    pub fn set_client_open_loop_rate(&mut self, client: usize, rate_rps: f64) {
        assert!(rate_rps > 0.0, "open-loop rate must be positive");
        let open = self.client_mut(client).open.as_mut();
        open.expect("set_client_open_loop first").arrivals = PoissonArrivals::new(rate_rps);
    }

    /// The node id of client `client`.
    pub(super) fn client_node(&self, client: usize) -> u16 {
        let node = self.n_servers + client;
        u16::try_from(node).expect("the builder caps node ids at u16::MAX")
    }

    /// The installed state of client `client` (a generator must exist).
    fn client_mut(&mut self, client: usize) -> &mut ClientState {
        self.clients[client]
            .as_mut()
            .expect("install a generator first (set_client / set_client_open_loop)")
    }

    /// Assign client `client` to admission class `class` (an index into
    /// [`AdmissionCfg::classes`]), which every ingress judges the client's
    /// traffic by.
    pub fn set_client_class(&mut self, client: usize, class: u8) {
        self.client_class[client] = class;
    }

    /// Install a routing-refresh observer on client `client` (which must
    /// already have a generator): whenever a [`Redirect`] reply moves an
    /// address, the runtime retargets every outstanding request still aimed at
    /// the old address and then invokes `cb(old, new)` so the application's
    /// routing table steers *future* issues the same way.
    pub fn set_client_route_refresh(&mut self, client: usize, cb: RouteRefreshFn) {
        self.client_mut(client).route_refresh = Some(cb);
    }

    /// Enable timeout/retransmission on client `client` (must already have a
    /// generator installed, and no retry policy yet). `payload_fn` rebuilds
    /// the payload of a request from its token on each retransmission; pass
    /// `None` for payload-less workloads. Without a retry policy a lost
    /// request simply never completes — the pre-fault behaviour.
    pub fn set_client_retry(
        &mut self,
        client: usize,
        policy: RetryPolicy,
        payload_fn: Option<PayloadFn>,
    ) {
        assert!(policy.max_tries >= 1 && policy.timeout > SimTime::ZERO);
        let state = self.client_mut(client);
        assert!(
            state.retry.is_none(),
            "client {client} already has a retry policy"
        );
        state.retry = Some(ClientRetry {
            policy,
            payload_fn,
            timer: RetryTimer::default(),
        });
    }

    /// Convenience: fixed-size empty-payload closed loop against one actor,
    /// run for `dur`.
    pub fn run_closed_loop(&mut self, dst: Address, outstanding: u32, wire: u32, dur: SimTime) {
        self.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst,
                wire_size: wire,
                flow: rng.below(1 << 30),
                payload: None,
            }),
            outstanding,
        );
        self.run_for(dur);
    }
}

/// The reply's payload, when it is one of the runtime's own control types.
fn reply_as<T: Copy + 'static>(req: &Request) -> Option<T> {
    req.payload.as_ref()?.downcast_ref::<T>().copied()
}

impl ClientRetry {
    /// Rebuild the request behind `token` from its ledger entry (the
    /// application's `payload_fn` reconstructs the payload).
    fn rebuild(&mut self, token: u64, out: &Outstanding) -> ClientReq {
        ClientReq {
            dst: out.dst,
            wire_size: out.wire_size,
            flow: out.flow,
            payload: self.payload_fn.as_mut().and_then(|f| f(token)),
        }
    }
}

/// What the retry timer did with one request due by now.
pub(super) enum Verdict {
    /// Out of tries: the request ended.
    Abandoned,
    /// Sent again, and judged again one doubled backoff later.
    Resent(ClientReq),
}

impl ClientState {
    /// Put `token`'s request, first sent at `now`, in flight; with a retry
    /// policy it is due one timeout later. The instant of the `RetryDue` the
    /// caller must schedule, if one is needed.
    pub(super) fn track(&mut self, now: SimTime, token: u64, creq: &ClientReq) -> Option<SimTime> {
        let retry_wait = self.retry.as_ref().map(|retry| retry.policy.timeout);
        let backoff = retry_wait.unwrap_or(SimTime::ZERO);
        let due = now + backoff;
        let out = Outstanding {
            issued: now,
            dst: creq.dst,
            wire_size: creq.wire_size,
            flow: creq.flow,
            tries: u32::from(retry_wait.is_some()),
            backoff,
            due,
        };
        self.inflight.insert(token, out);
        let retry = self.retry.as_mut()?;
        retry.timer.arm(due).then_some(due)
    }

    /// The armed requests due by `now`, as `(due, token)` in that order,
    /// into `due`.
    pub(super) fn due_by(&self, now: SimTime, due: &mut Vec<(SimTime, u64)>) {
        due.clear();
        let judged = self
            .inflight
            .iter()
            .filter(|(_, out)| out.armed() && out.due <= now);
        due.extend(judged.map(|(&token, out)| (out.due, token)));
        due.sort_unstable();
    }

    /// Judge `token`'s request, due by `now`. Judging one request never ends
    /// another or moves another's `due`.
    pub(super) fn judge(&mut self, now: SimTime, token: u64) -> Verdict {
        let retry = self.retry.as_mut().expect("armed by a retry policy");
        let out = self
            .inflight
            .get_mut(&token)
            .expect("due requests are in flight");
        if out.tries >= retry.policy.max_tries {
            self.inflight.remove(&token);
            return Verdict::Abandoned;
        }
        out.tries += 1;
        out.backoff = (out.backoff * 2).min(retry.policy.cap);
        out.due = now + out.backoff;
        Verdict::Resent(retry.rebuild(token, out))
    }

    /// Arm the retry timer for the earliest `due` of an armed request. The
    /// instant of the `RetryDue` the caller must schedule, if one is needed.
    pub(super) fn rearm(&mut self) -> Option<SimTime> {
        let armed = self.inflight.values().filter(|out| out.armed());
        let at = armed.map(|out| out.due).min()?;
        let retry = self.retry.as_mut().expect("armed by a retry policy");
        retry.timer.arm(at).then_some(at)
    }
}

impl RetryTimer {
    /// Arm the timer for `at` unless it already fires no later. True when
    /// the caller must schedule a `RetryDue` at `at`; false when one is
    /// already pending there.
    pub(super) fn arm(&mut self, at: SimTime) -> bool {
        if self.armed.is_some_and(|armed| armed <= at) {
            return false;
        }
        self.parked.extend(self.armed.replace(at));
        match self.parked.iter().position(|&p| p == at) {
            Some(i) => {
                self.parked.swap_remove(i);
                false
            }
            None => true,
        }
    }

    /// A `RetryDue` fired at `now`. True when it is the live one, which is
    /// then spent; false when an earlier deadline superseded it.
    pub(super) fn fire(&mut self, now: SimTime) -> bool {
        if self.armed == Some(now) {
            self.armed = None;
            return true;
        }
        let i = self.parked.iter().position(|&p| p == now);
        self.parked
            .swap_remove(i.expect("every pending RetryDue is armed or parked"));
        false
    }
}

impl Cluster {
    /// Send a client request frame over the (possibly faulted) network. A
    /// delivered frame becomes a `Deliver` event; a corrupted frame becomes
    /// a `DeliverCorrupt` (payload lost on the wire); a dropped frame
    /// vanishes — only the retransmission timer can recover it.
    fn client_send(&mut self, now: SimTime, client_node: u16, token: u64, creq: ClientReq) {
        let req = Request {
            actor: creq.dst.actor,
            flow: creq.flow,
            wire_size: creq.wire_size,
            arrived: now,
            reply_to: Some(Address {
                node: client_node,
                actor: 0,
            }),
            token,
            payload: creq.payload,
        };
        self.send_frame(now, client_node, creq.dst.node, PacketKind::Request, req);
    }

    /// Client `client`'s retransmission timer fired. The live timer judges
    /// every armed request due by `now`, in `(due, token)` order, then
    /// re-arms for the earliest `due` still in flight; a superseded one does
    /// nothing.
    pub(super) fn handle_retry_due(&mut self, now: SimTime, client: u16) {
        let client_node = self.client_node(usize::from(client));
        let state = self.clients[usize::from(client)].as_mut().expect("fired");
        let retry = state.retry.as_mut().expect("armed by a retry policy");
        if !retry.timer.fire(now) {
            return;
        }
        let mut due = std::mem::take(&mut self.retry_scratch);
        state.due_by(now, &mut due);
        for &(_, token) in &due {
            let state = self.clients[usize::from(client)].as_mut().expect("fired");
            match state.judge(now, token) {
                Verdict::Abandoned => {
                    // Give up so the closed loop keeps breathing. Open-loop
                    // arrivals are purely time-driven — never re-armed by an
                    // abandonment — so a paced client skips the re-issue.
                    self.fault_metrics.abandoned.inc();
                    if state.open.is_none() {
                        self.events
                            .schedule_after(SimTime::ZERO, Ev::Issue { client });
                    }
                }
                Verdict::Resent(creq) => {
                    self.fault_metrics.retries.inc();
                    self.client_send(now, client_node, token, creq);
                }
            }
        }
        self.retry_scratch = due;
        let state = self.clients[usize::from(client)].as_mut().expect("fired");
        if let Some(at) = state.rearm() {
            self.events.schedule_at(at, Ev::RetryDue { client });
        }
    }

    pub(super) fn handle_issue(&mut self, now: SimTime, client: u16) {
        let client_node = self.client_node(usize::from(client));
        let Some(state) = self.clients[usize::from(client)].as_mut() else {
            return;
        };
        if let Some(open) = state.open.as_ref() {
            // Open loop: arrivals are a seeded Poisson process, independent
            // of completions. Each arrival schedules its successor before
            // issuing, and the stream ends at `until` so the run can drain.
            if now >= open.until {
                return;
            }
            let gap = open.arrivals.next_gap(&mut state.rng);
            self.events.schedule_after(gap, Ev::Issue { client });
            if now < state.shed_src_until {
                // A live backoff hint: shed this arrival at the source.
                // The request is counted (issued + shed) but never built —
                // no token, no in-flight entry — so the
                // ledgers stay bounded under sustained saturation instead
                // of growing with every refused arrival.
                self.issued += 1;
                self.fault_metrics.shed_source.inc();
                return;
            }
        } else if state.inflight.len() >= state.outstanding as usize {
            return;
        }
        let token = u64::from(client) << 40 | state.next_token;
        state.next_token += 1;
        let creq = (state.gen)(&mut state.rng, token);
        if let Some(at) = state.track(now, token, &creq) {
            self.events.schedule_at(at, Ev::RetryDue { client });
        }
        self.issued += 1;
        self.client_send(now, client_node, token, creq);
    }

    /// A response reached client node `node`: a redirect bounces the
    /// request, a shed ends it, anything else completes it.
    pub(super) fn handle_reply(&mut self, now: SimTime, node: u16, req: Request) {
        let client = usize::from(node) - self.n_servers;
        let client = u16::try_from(client).expect("client nodes have u16 ids");
        // A redirect reply bounces the request toward another address
        // instead of completing it (when retransmission is enabled —
        // otherwise it terminates the request like any reply).
        if let Some(Redirect(new_dst)) = reply_as::<Redirect>(&req) {
            let resend = {
                let state = self.clients[usize::from(client)].as_mut();
                state.and_then(|s| {
                    let retry = s.retry.as_mut()?;
                    let old_dst = s.inflight.get(&req.token).filter(|o| o.armed())?.dst;
                    // Routing refresh: one Redirect means the *address*
                    // moved, not just this request. Retarget every queued
                    // request still aimed at the old address in place —
                    // each one's next retransmission deadline then sends
                    // to the new home — instead of letting each one
                    // bounce off the old address individually (a redirect
                    // storm after every rebalance). Only this request
                    // resends immediately.
                    let mut refreshed = 0u64;
                    for (t, out) in s.inflight.iter_mut() {
                        if out.armed() && out.dst == old_dst {
                            out.dst = new_dst;
                            if *t != req.token {
                                refreshed += 1;
                            }
                        }
                    }
                    let resend = retry.rebuild(req.token, &s.inflight[&req.token]);
                    if old_dst != new_dst {
                        // Let the application refresh its routing table
                        // so *future* issues steer to the new home too.
                        if let Some(cb) = s.route_refresh.as_mut() {
                            cb(old_dst, new_dst);
                        }
                    }
                    Some((resend, refreshed))
                })
            };
            if let Some((creq, refreshed)) = resend {
                self.fault_metrics.redirects.inc();
                if refreshed > 0 {
                    self.fault_metrics.route_refreshed.add(refreshed);
                }
                self.client_send(now, node, req.token, creq);
                return;
            }
        }
        // A shed reply: the ingress refused the request and suggested a
        // backoff. The request ends as shed; a closed loop re-offers the
        // freed slot once the hint has passed, and an open loop sheds new
        // arrivals at the source until then.
        if let Some(Shed { retry_after }) = reply_as::<Shed>(&req) {
            let Some(state) = self.clients[usize::from(client)].as_mut() else {
                return;
            };
            if state.inflight.remove(&req.token).is_none() {
                return;
            }
            self.fault_metrics.shed_remote.inc();
            let until = now + retry_after;
            if state.open.is_some() {
                state.shed_src_until = state.shed_src_until.max(until);
            } else {
                self.events.schedule_at(until, Ev::Issue { client });
            }
            return;
        }
        if let Some(state) = self.clients[usize::from(client)].as_mut() {
            if let Some(Outstanding { issued, .. }) = state.inflight.remove(&req.token) {
                self.completed += 1;
                if issued >= self.measure_start {
                    self.latency.record(now.saturating_sub(issued));
                    // Per-request client RTT spans are verbose-only.
                    if self.obs.traces(TraceLevel::Verbose) {
                        self.obs.span(
                            "client",
                            "rtt",
                            node,
                            u32::from(client),
                            issued,
                            now,
                            Some(("token", req.token as i64)),
                        );
                    }
                }
                // A completion frees a closed-loop slot; open-loop
                // arrivals are paced by time alone.
                if state.open.is_none() {
                    self.events
                        .schedule_after(SimTime::ZERO, Ev::Issue { client });
                }
            }
        }
    }
}
