package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// This file is GET /v1/events: a live Server-Sent Events stream of the
// job lifecycle, so an operator (or the `relsched top` dashboard) can
// watch admission and completion in real time without polling
// /v1/status. One event is published per lifecycle transition:
//
//	admitted   job passed every admission gate (one per 202'd job)
//	shed       jobs refused at admission, with the reason
//	started    a worker claimed the job
//	patched    PATCH /v1/jobs/{id} applied graph edits
//	done       terminal success
//	failed     terminal failure
//	flight     the flight recorder dumped a bundle for the job
//
// Every accepted job produces exactly one of done|failed — the same
// exactly-once promise Drain makes for results, extended to the stream
// (pinned by TestEventsLifecycleConservation).
//
// Delivery is best-effort by design: each subscriber gets a bounded
// buffer, and a subscriber that cannot keep up is disconnected — its
// buffer is not allowed to grow and the publisher never blocks, so a
// stalled `curl -N` can never stall the scheduling pipeline. Drops are
// counted in serve.events.dropped, and the disconnect tells the
// consumer it has a gap (it can re-subscribe and re-sync off
// /v1/status) instead of silently thinning the stream.

// Event lifecycle types.
const (
	EventAdmitted = "admitted"
	EventShed     = "shed"
	EventStarted  = "started"
	EventPatched  = "patched"
	EventDone     = "done"
	EventFailed   = "failed"
	EventFlight   = "flight"
	// EventSLOBurn announces an SLO burn-rate trigger: the error budget
	// is burning past the paging threshold on both the fast and slow
	// windows. Reason carries the burn summary; Flight the bundle path
	// (when the dump was not rate-limited).
	EventSLOBurn = "slo_burn"
)

// Event is one lifecycle transition on the /v1/events stream (the SSE
// `data:` payload; the SSE `event:` field repeats Type).
type Event struct {
	// Seq is the hub's publication sequence number; a gap after a
	// reconnect tells the consumer how much it missed.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// Job and Tenant identify the subject (Job is empty for shed events —
	// shed jobs were never assigned IDs).
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// RequestID correlates the event with the submitting request's
	// X-Request-ID (and through it the trace and any exemplars).
	RequestID string `json:"request_id,omitempty"`
	// Reason is the shed reason (rate, quota, queue_full) on shed events
	// and the error kind on failed events.
	Reason string `json:"reason,omitempty"`
	// Jobs is the batch size on shed events; Edits the edit count on
	// patched events.
	Jobs  int `json:"jobs,omitempty"`
	Edits int `json:"edits,omitempty"`
	// Flight is the bundle path on flight events.
	Flight string `json:"flight,omitempty"`
	// TS is the event time in Unix nanoseconds.
	TS int64 `json:"ts_ns"`
}

// eventBufDepth bounds one subscriber's unread backlog. At ~200 bytes
// an event this is ~50 KiB per subscriber, and deep enough that only a
// genuinely stalled consumer (not a momentarily busy one) overflows.
const eventBufDepth = 256

// eventSub is one /v1/events subscription. The hub closes ch on
// overflow or hub shutdown; the handler treats either as end-of-stream.
type eventSub struct {
	ch     chan Event
	closed bool // guarded by the hub's mu
}

// eventHub fans lifecycle events out to subscribers. Publishing is
// non-blocking: a full subscriber is disconnected and the event counted
// dropped (see the file comment). A nil hub is valid and drops
// everything silently — the zero-cost disabled state.
type eventHub struct {
	mu     sync.Mutex
	subs   map[*eventSub]struct{}
	seq    uint64
	closed bool
	// dropped counts events not delivered to some subscriber (one count
	// per event per overflowing subscriber).
	dropped func(uint64)
}

func newEventHub(dropped func(uint64)) *eventHub {
	if dropped == nil {
		dropped = func(uint64) {}
	}
	return &eventHub{subs: make(map[*eventSub]struct{}), dropped: dropped}
}

// subscribe registers a new subscriber. On a closed hub the returned
// channel is already closed (the stream ends immediately).
func (h *eventHub) subscribe() *eventSub {
	sub := &eventSub{ch: make(chan Event, eventBufDepth)}
	h.mu.Lock()
	if h.closed {
		sub.closed = true
		close(sub.ch)
	} else {
		h.subs[sub] = struct{}{}
	}
	h.mu.Unlock()
	return sub
}

// unsubscribe removes a subscriber (client went away). Idempotent, and
// safe against a concurrent overflow disconnect.
func (h *eventHub) unsubscribe(sub *eventSub) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
	}
	h.mu.Unlock()
}

// publish stamps and fans out one event. Never blocks: a subscriber
// whose buffer is full is disconnected and the miss counted.
func (h *eventHub) publish(ev Event) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	ev.Seq = h.seq
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(h.subs, sub)
			sub.closed = true
			close(sub.ch)
			h.dropped(1)
		}
	}
	h.mu.Unlock()
}

// subscribers reports the live subscription count (for /v1/status).
func (h *eventHub) subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// close ends every subscription (drain: the last terminal event has
// been published, so streams complete rather than hang).
func (h *eventHub) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
	}
	h.mu.Unlock()
}

// event builds a lifecycle event stamped with the server clock.
func (s *Server) event(typ string, rec *jobRecord) Event {
	ev := Event{Type: typ, TS: s.now().UnixNano()}
	if rec != nil {
		ev.Job = rec.id
		ev.Tenant = rec.tenant
		ev.RequestID = rec.requestID
	}
	return ev
}

// handleEvents is GET /v1/events: the SSE stream. Subscribing during
// drain is allowed (the stream ends as soon as the hub closes); the
// stream also ends when the subscriber falls behind (see eventHub).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET /v1/events")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Subscribe before announcing the stream: an event published after
	// the client reads the comment line below is then always delivered.
	sub := s.events.subscribe()
	defer s.events.unsubscribe(sub)
	// An immediate comment line both confirms the subscription to the
	// client and forces the 200 and headers onto the wire.
	fmt.Fprintf(w, ": stream open %s\n\n", s.now().UTC().Format(time.RFC3339))
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.ch:
			if !ok {
				// Hub closed (drain) or this subscriber overflowed; either
				// way the stream is complete.
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			flusher.Flush()
		}
	}
}
