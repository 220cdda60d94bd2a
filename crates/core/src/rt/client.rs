//! Client nodes: generator installation, request issue (closed and open
//! loop), timeout/retransmission, and the reply path with its redirect and
//! shed handling.

use super::*;
use ipipe_sim::PoissonArrivals;

impl Cluster {
    /// Install a closed-loop generator on client `client` keeping
    /// `outstanding` requests in flight.
    ///
    /// Replacing a generator mid-run keeps the old requests' ledger: the
    /// in-flight map, the token allocator (new tokens must not collide with
    /// live ones) and any retry state carry over, and the old requests drain
    /// through the normal completion path while the closed loop re-gates on
    /// the new `outstanding`. Only the generator and the target depth change.
    pub fn set_client(&mut self, client: usize, gen: ClientGenFn, outstanding: u32) {
        self.install_client(client, gen, outstanding, None);
    }

    /// Install an *open-loop* generator on client `client`: requests arrive
    /// as a seeded Poisson process at `cfg.rate_rps` regardless of
    /// completions, modeling the aggregate stream of many users behind one
    /// source node (one generator per source node, never one per user).
    /// Arrivals stop at `cfg.until`; in-flight requests then drain through
    /// the normal completion/retry paths, so the conservation ledger
    /// (`issued == completed + abandoned + in-flight`) still closes at
    /// quiesce. Replacement mid-run carries the old ledger exactly like
    /// [`Cluster::set_client`].
    pub fn set_client_open_loop(&mut self, client: usize, gen: ClientGenFn, cfg: OpenLoopCfg) {
        assert!(cfg.rate_rps > 0.0, "open-loop rate must be positive");
        let open = OpenLoop {
            arrivals: PoissonArrivals::new(cfg.rate_rps),
            until: cfg.until,
        };
        self.install_client(client, gen, 0, Some(open));
    }

    /// Install (or replace) client `client`'s generator. A replacement keeps
    /// the old ledger — in-flight map, token allocator, retry state, routing
    /// hook and source-shed hint — so requests still on the wire drain
    /// through the normal completion path.
    fn install_client(
        &mut self,
        client: usize,
        gen: ClientGenFn,
        outstanding: u32,
        open: Option<OpenLoop>,
    ) {
        assert!(client < self.n_clients);
        let rng = self.rng.fork();
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let fresh = ClientState {
            gen,
            outstanding,
            next_token: 0,
            inflight: IdMap::default(),
            rng,
            retry: None,
            open,
            route_refresh: None,
            shed_src_until: SimTime::ZERO,
        };
        let state = match shard.clients[client].take() {
            Some(old) => ClientState {
                next_token: old.next_token,
                inflight: old.inflight,
                retry: old.retry,
                route_refresh: old.route_refresh,
                shed_src_until: old.shed_src_until,
                ..fresh
            },
            None => fresh,
        };
        // Closed loop: top the loop up to its depth. Open loop: one seed
        // arrival; every subsequent one is scheduled by its predecessor
        // inside `handle_issue`.
        let seeds = match state.open {
            Some(_) => 1,
            None => outstanding.saturating_sub(state.inflight.len() as u32),
        };
        shard.clients[client] = Some(state);
        for _ in 0..seeds {
            shard.events.schedule_after(
                SimTime::ZERO,
                Ev::Issue {
                    client: client as u16,
                },
            );
        }
    }

    /// Change the arrival rate of an already-installed open-loop generator
    /// *in place* — the Poisson chain keeps its single pending arrival and
    /// only the gap distribution changes, so the event stream stays one
    /// chain per client (re-installing via [`Cluster::set_client_open_loop`]
    /// would seed a second chain and double the offered load).
    ///
    /// This models traffic spikes: call at a `run_for` boundary to step the
    /// offered load up or down deterministically for any shard count.
    pub fn set_client_open_loop_rate(&mut self, client: usize, rate_rps: f64) {
        assert!(rate_rps > 0.0, "open-loop rate must be positive");
        let open = self.client_mut(client).open.as_mut();
        open.expect("set_client_open_loop first").arrivals = PoissonArrivals::new(rate_rps);
    }

    /// The installed state of client `client` (a generator must exist).
    fn client_mut(&mut self, client: usize) -> &mut ClientState {
        let node = (self.n_servers + client) as u16;
        self.shard_for_mut(node).clients[client]
            .as_mut()
            .expect("install a generator first (set_client / set_client_open_loop)")
    }

    /// Assign client `client` to admission class `class` (an index into
    /// [`AdmissionCfg::classes`]). The map is replicated into every shard so
    /// any ingress can judge the client's traffic.
    pub fn set_client_class(&mut self, client: usize, class: u8) {
        assert!(client < self.n_clients);
        for shard in &mut self.shards {
            shard.client_class[client] = class;
        }
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
    /// generator installed). `payload_fn` rebuilds the payload of a request
    /// from its token on each retransmission; pass `None` for payload-less
    /// workloads. Without a retry policy a lost request simply never
    /// completes — the pre-fault behaviour. Replacing a policy keeps the
    /// client's deadlines and its armed timer.
    pub fn set_client_retry(
        &mut self,
        client: usize,
        policy: RetryPolicy,
        payload_fn: Option<PayloadFn>,
    ) {
        assert!(policy.max_tries >= 1 && policy.timeout > SimTime::ZERO);
        let state = self.client_mut(client);
        match state.retry.as_mut() {
            Some(retry) => {
                retry.policy = policy;
                retry.payload_fn = payload_fn;
            }
            None => {
                state.retry = Some(ClientRetry {
                    policy,
                    payload_fn,
                    deadlines: RetryDeadlines::default(),
                })
            }
        }
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

impl ClientState {
    /// End `token`'s request, whichever way it ended (completion, shed,
    /// abandonment): it leaves `inflight`, and the ended entries at the head
    /// of the retry deadlines go with it, as the timer would drop them when
    /// it reached them. The deadlines then hold the requests in flight, plus
    /// whatever ended behind a straggler.
    pub(super) fn end(&mut self, token: u64) -> Option<Outstanding> {
        let out = self.inflight.remove(&token)?;
        if let Some(retry) = self.retry.as_mut() {
            retry
                .deadlines
                .next_live(|token| self.inflight.contains_key(&token));
        }
        Some(out)
    }
}

impl RetryDeadlines {
    /// Add `token`'s deadline `at`: to the FIFO when it keeps the FIFO in
    /// `(deadline, token)` order, to the heap otherwise.
    pub(super) fn push(&mut self, at: SimTime, token: u64) {
        let entry = (at, token);
        if self.fifo.back().is_none_or(|&last| last <= entry) {
            self.fifo.push_back(entry);
        } else {
            self.late.push(Reverse(entry));
        }
    }

    /// The earliest entry, completed or not.
    pub(super) fn head(&self) -> Option<(SimTime, u64)> {
        let late = self.late.peek().map(|&Reverse(entry)| entry);
        self.fifo.front().copied().into_iter().chain(late).min()
    }

    /// Remove the earliest entry.
    fn pop_head(&mut self) {
        if self.late.peek().map(|&Reverse(entry)| entry) == self.head() {
            self.late.pop();
        } else {
            self.fifo.pop_front();
        }
    }

    /// Remove and return the token of the earliest entry due by `now`, in
    /// `(deadline, token)` order; completed tokens included.
    pub(super) fn pop_due(&mut self, now: SimTime) -> Option<u64> {
        let (at, token) = self.head()?;
        if at > now {
            return None;
        }
        self.pop_head();
        Some(token)
    }

    /// The earliest deadline of a token still `live`, after dropping the
    /// entries of completed tokens in front of it.
    pub(super) fn next_live(&mut self, live: impl Fn(u64) -> bool) -> Option<SimTime> {
        while let Some((at, token)) = self.head() {
            if live(token) {
                return Some(at);
            }
            self.pop_head();
        }
        None
    }

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

impl ShardState {
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
    /// every deadline due by `now`, in `(deadline, token)` order, then
    /// re-arms for the earliest deadline still in flight; a superseded one
    /// does nothing.
    pub(super) fn handle_retry_due(&mut self, now: SimTime, client: u16) {
        let client_node = (self.n_servers + client as usize) as u16;
        let state = self.clients[client as usize].as_mut();
        let retry = state
            .and_then(|s| s.retry.as_mut())
            .expect("armed by a retry policy");
        if !retry.deadlines.fire(now) {
            return;
        }
        loop {
            let state = self.clients[client as usize].as_mut().expect("fired");
            let retry = state.retry.as_mut().expect("fired");
            let Some(token) = retry.deadlines.pop_due(now) else {
                break;
            };
            let Some(out) = state.inflight.get_mut(&token) else {
                continue; // completed in the meantime
            };
            if now < out.hold_until {
                // A shed reply parked this request: honor the server's
                // backoff hint without consuming a try, then judge again.
                retry.deadlines.push(out.hold_until, token);
                continue;
            }
            if out.tries >= retry.policy.max_tries {
                // Give up so the closed loop keeps breathing. Open-loop
                // arrivals are purely time-driven — never re-armed by an
                // abandonment — so a paced client skips the re-issue.
                state.end(token);
                self.fault_metrics.abandoned.inc();
                if state.open.is_none() {
                    self.events
                        .schedule_after(SimTime::ZERO, Ev::Issue { client });
                }
                continue;
            }
            out.tries += 1;
            out.backoff = (out.backoff * 2).min(retry.policy.cap);
            retry.deadlines.push(now + out.backoff, token);
            let creq = retry.rebuild(token, out);
            self.fault_metrics.retries.inc();
            self.client_send(now, client_node, token, creq);
        }
        let state = self.clients[client as usize].as_mut().expect("fired");
        let deadlines = &mut state.retry.as_mut().expect("fired").deadlines;
        if let Some(at) = deadlines.next_live(|token| state.inflight.contains_key(&token)) {
            if deadlines.arm(at) {
                self.events.schedule_at(at, Ev::RetryDue { client });
            }
        }
    }

    pub(super) fn handle_issue(&mut self, now: SimTime, client: u16) {
        let client_node = (self.n_servers + client as usize) as u16;
        let Some(state) = self.clients[client as usize].as_mut() else {
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
                self.completions.issued += 1;
                self.fault_metrics.shed_source.inc();
                return;
            }
        } else if state.inflight.len() >= state.outstanding as usize {
            return;
        }
        let token = (client as u64) << 40 | state.next_token;
        state.next_token += 1;
        let creq = (state.gen)(&mut state.rng, token);
        let retry_wait = state.retry.as_ref().map(|retry| retry.policy.timeout);
        let out = Outstanding {
            issued: now,
            dst: creq.dst,
            wire_size: creq.wire_size,
            flow: creq.flow,
            tries: u32::from(retry_wait.is_some()),
            backoff: retry_wait.unwrap_or(SimTime::ZERO),
            hold_until: SimTime::ZERO,
        };
        state.inflight.insert(token, out);
        if let Some(retry) = state.retry.as_mut() {
            let at = now + retry.policy.timeout;
            retry.deadlines.push(at, token);
            if retry.deadlines.arm(at) {
                self.events.schedule_at(at, Ev::RetryDue { client });
            }
        }
        self.completions.issued += 1;
        self.client_send(now, client_node, token, creq);
    }

    /// A response reached client node `node`: a redirect bounces the
    /// request, a shed parks or terminates it, anything else completes it.
    pub(super) fn handle_reply(&mut self, now: SimTime, node: u16, req: Request) {
        let client = (node as usize - self.n_servers) as u16;
        // A redirect reply bounces the request toward another address
        // instead of completing it (when retransmission is enabled —
        // otherwise it terminates the request like any reply).
        if let Some(Redirect(new_dst)) = reply_as::<Redirect>(&req) {
            let resend = {
                let state = self.clients[client as usize].as_mut();
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
        // backoff. Closed-loop clients with retransmission keep the
        // request in flight and park its retry timer; everyone else
        // terminates the request as shed (and open-loop clients also
        // suppress new arrivals at the source until the hint expires).
        if let Some(Shed { retry_after }) = reply_as::<Shed>(&req) {
            let Some(state) = self.clients[client as usize].as_mut() else {
                return;
            };
            let Some(out) = state.inflight.get_mut(&req.token) else {
                return;
            };
            // Closed loop with retransmission: park the retry timer.
            if state.open.is_none() && out.armed() {
                out.hold_until = out.hold_until.max(now + retry_after);
                self.fault_metrics.shed_backoff.inc();
                return;
            }
            state.end(req.token);
            self.fault_metrics.shed_remote.inc();
            if state.open.is_some() {
                state.shed_src_until = state.shed_src_until.max(now + retry_after);
            } else {
                // Retry-less closed loop: the shed frees a slot.
                self.events
                    .schedule_after(SimTime::ZERO, Ev::Issue { client });
            }
            return;
        }
        if let Some(state) = self.clients[client as usize].as_mut() {
            if let Some(Outstanding { issued, .. }) = state.end(req.token) {
                self.completions.completed += 1;
                if issued >= self.measure_start {
                    self.completions.hist.record(now.saturating_sub(issued));
                    // Per-request client RTT spans are verbose-only.
                    if self.obs.traces(TraceLevel::Verbose) {
                        self.obs.span(
                            "client",
                            "rtt",
                            node,
                            client as u32,
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
