package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
)

// defaultSSEKeepAlive is how often an idle event stream emits a comment
// line. SSE comments are invisible to EventSource consumers but keep
// middleboxes (load balancers, NAT tables) from reaping a connection that
// is quiet only because the simulation is long; the cluster coordinator's
// multiplexer also uses their absence to detect a dead worker early.
const defaultSSEKeepAlive = 15 * time.Second

// handleEvents streams a job's progress as Server-Sent Events. The full
// event history is replayed first (so late subscribers see the whole
// story), then live events follow until the job finishes or the client
// disconnects. Event names are the jobs.Event kinds: queued, running,
// sim-start, sim-retry, sim-done, coalesced, cache-hit, store-hit, done,
// failed — plus the advisory "draining" kind emitted when the daemon
// begins a graceful shutdown with the job still in flight.
// A finished job's stream replays and ends immediately, which makes
//
//	curl -N .../v1/jobs/job-000001/events
//
// a blocking "wait for this job" primitive.
//
// Every recorded event carries an `id:` line (its sequence number in the
// job's history). A client that reconnects with a Last-Event-ID header
// (or ?last_event_id= query parameter) resumes after that event: nothing
// it has already seen is replayed, nothing in between is lost. Idle
// streams emit a `: keep-alive` comment periodically.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.authorize(w, r)
	if !ok {
		return
	}
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok || !s.canView(job, tenant) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	after := -1
	lei := r.Header.Get("Last-Event-ID")
	if lei == "" {
		lei = r.URL.Query().Get("last_event_id")
	}
	if lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q: want a non-negative event sequence number", lei)
			return
		}
		after = n
	}
	replay, ch, cancel := job.SubscribeFrom(after)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	if ch == nil { // job already finished: replay was the whole stream
		return
	}
	keepAlive := s.sseKeepAlive
	if keepAlive <= 0 {
		keepAlive = defaultSSEKeepAlive
	}
	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open { // closed after the terminal event: stream complete
				return
			}
			writeSSE(w, ev)
			fl.Flush()
			ticker.Reset(keepAlive)
		case <-ticker.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in text/event-stream framing. The JSON body
// never contains newlines (it is a compact single-object marshal), so one
// data: line suffices. Recorded events carry their history sequence number
// as the SSE event id; advisory events (Seq < 0) are unnumbered so they
// never disturb Last-Event-ID resumption.
func writeSSE(w io.Writer, ev jobs.Event) {
	data, err := json.Marshal(ev)
	if err != nil { // unreachable: Event is plain data
		data = []byte(`{}`)
	}
	if ev.Seq >= 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
}
