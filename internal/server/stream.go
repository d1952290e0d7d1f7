// Live streaming endpoints: GET /api/v1/jobs/{id}/events is an SSE
// stream of one job's lifecycle transitions and progress snapshots;
// GET /api/v1/jobs/{id}/live renders the latest snapshot through the
// view layer. Both ride the job's progress.Hub: bounded per-subscriber
// buffers, drop-oldest backpressure, monotonic lifecycle ordering, and
// a guaranteed terminal event (done/failed/canceled, or shutdown when
// the daemon drains) that closes the stream — handlers exit on channel
// close or client disconnect, never leak.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/progress"
	"repro/internal/view"
)

// streamBuffer bounds one SSE subscriber's event backlog; a consumer
// slower than the publisher loses oldest events first (counted in
// stream_events_dropped_total) rather than stalling the run.
const streamBuffer = 64

// writeSSE emits one event in text/event-stream framing. The JSON data
// payload carries the id and type too, so clients can parse data lines
// alone; the id: line is what makes Last-Event-ID resume work through
// standard EventSource clients.
func writeSSE(w io.Writer, ev progress.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
	return err
}

// handleJobEvents serves GET /api/v1/jobs/{id}/events: subscribe to
// the job's stream, replay the latest state (respecting Last-Event-ID),
// then forward live events until the job ends, the daemon drains, or
// the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	// A malformed resume ID must fail loud, not silently become 0: a
	// full replay on an ended stream re-delivers the terminal event the
	// client already consumed (a duplicate done/failed/canceled), and
	// an EventSource client acting on it twice double-fires whatever
	// the first one triggered.
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed Last-Event-ID %q", v)
			return
		}
		lastID = n
	}
	replay, sub := job.Events(lastID, streamBuffer)
	defer sub.Close()
	// The subscriber gauge drops before the terminal event is flushed:
	// a client that reads end-of-stream and then scrapes /metrics must
	// not still be counted. Every other exit drops it on return.
	s.m.streamSubscribers.Add(1)
	subscribed := true
	unsubscribe := func() {
		if subscribed {
			subscribed = false
			s.m.streamSubscribers.Add(-1)
		}
	}
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	write := func(ev progress.Event) bool {
		if progress.TerminalEvent(ev.Type) {
			unsubscribe()
		}
		if err := writeSSE(w, ev); err != nil {
			return false
		}
		// Counted before the flush makes the event visible.
		s.m.streamEvents.Inc()
		if ev.Snapshot != nil {
			s.m.snapLat.Observe(time.Since(ev.At))
		}
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-sub.C():
			if !open {
				// Terminal event already delivered (or replayed): the
				// hub closed the stream.
				return
			}
			if !write(ev) {
				return
			}
		}
	}
}

// handleJobLive serves GET /api/v1/jobs/{id}/live: the latest progress
// snapshot rendered through the view layer (?view=code|data|json).
func (s *Server) handleJobLive(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	snap := job.hub.LatestSnapshot()
	if snap == nil {
		writeError(w, http.StatusNotFound,
			"job %s has no live snapshot (streaming disabled, not yet running, or served from cache)", job.id)
		return
	}
	switch v := r.URL.Query().Get("view"); v {
	case "", "code":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, view.LiveCode(snap))
	case "data":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, view.LiveData(snap))
	case "json":
		writeJSON(w, http.StatusOK, snap)
	default:
		writeError(w, http.StatusBadRequest, "unknown view %q (code|data|json)", v)
	}
}
